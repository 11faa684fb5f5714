"""Mixed-membership Mallows mixtures learned from pairwise comparisons.

The package covers the full batch pipeline: sampling synthetic comparison
corpora from a population of users with mixed membership over K shared
Mallows components, estimating the components back from the comparisons
alone (split-half co-occurrence moments, random-projection extreme-row
detection, simplex-constrained regression, rounding and Copeland
aggregation), and scoring the recovery.

Names are imported from their modules (``mallowmix.generator``,
``mallowmix.estimator`` and so on), so each command loads only what it
runs; the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
