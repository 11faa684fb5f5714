"""Batch command line for the comparison-mixture pipeline.

Subcommands: generate a synthetic corpus, estimate components from a
corpus, evaluate an estimate against the truth, measure separability
probability, dump an exact small-scale order-probability table, and score
a corpus's comparisons under a model, each user's weights fitted on the
same records.  Every output file embeds the resolved configuration
and seed, and is written atomically (write-then-rename), so a failed run
never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import pairs
from .evaluate import align_and_score, em_summary, infer_weights, predict_loglik
from .generator import (
    ITEM_LIMIT,
    MAX_ITEMS,
    MAX_USERS,
    MODEL_STREAM,
    USER_LIMIT,
    DirichletPrior,
    MixedMembershipModel,
    VertexPrior,
    generate_corpus_file,
    model_to_dict,
    read_corpus,
    read_model,
    write_json,
)
from .mallows import MallowsComponent, brute_force_beta
from .permutations import Permutation
from .post import postprocess, write_estimated_model
from .separability import separability_probability


class StageError(Exception):
    """An error in one named stage of a command."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _model_rng(seed: int) -> np.random.Generator:
    # Reserved stream id so the model draw never collides with user streams.
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, MODEL_STREAM)))


def _phi_list(phis: list[float] | None, K: int) -> list[float]:
    if not phis:
        raise ValueError("--phi is required (one shared value or one per component)")
    if len(phis) == 1:
        return phis * K
    if len(phis) != K:
        raise ValueError(f"got {len(phis)} --phi values for {K} components; need 1 or {K}")
    return list(phis)


def _build_prior(alpha: float | None, vertex: str | None, K: int):
    if alpha is not None and vertex is not None:
        raise ValueError("--alpha and --vertex-prior are mutually exclusive")
    if vertex is not None:
        probs = tuple(float(x) for x in vertex.split(","))
        if len(probs) != K:
            raise ValueError(f"--vertex-prior needs {K} comma-separated probabilities")
        return VertexPrior(probs)
    return DirichletPrior(0.1 if alpha is None else alpha)


def _build_model(args) -> MixedMembershipModel:
    """Model from a file when -i is given, else from flags with references
    drawn uniformly at random from the seed's reserved stream."""
    if args.input:
        return _stage("read", read_model, args.input)
    if args.items is None or args.components is None:
        raise StageError("config", ValueError("--items and --components are required without -i"))
    Q, K = args.items, args.components
    if Q > MAX_ITEMS:
        raise StageError("config", ValueError(f"--items {Q}: {ITEM_LIMIT}"))
    phis = _stage("config", _phi_list, args.phi, K)
    prior = _stage("config", _build_prior, args.alpha, args.vertex_prior, K)
    components = _stage("config", _draw_components, _model_rng(args.seed), Q, phis)
    return _stage("config", MixedMembershipModel, components, prior)


def _draw_components(rng, Q: int, phis: list[float]) -> list[MallowsComponent]:
    return [
        MallowsComponent(Permutation.from_ranking([int(x) + 1 for x in rng.permutation(Q)]), phi)
        for phi in phis
    ]


_write_json = write_json  # the name perfbench/traced.py calls


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    if args.comparisons < 2:
        raise StageError("config", ValueError("--comparisons must be at least 2"))
    if args.users < 1:
        raise StageError("config", ValueError("--users must be at least 1"))
    if args.users > MAX_USERS:
        raise StageError("config", ValueError(f"--users {args.users}: {USER_LIMIT}"))
    model = _build_model(args)
    if model.prior is None:
        raise StageError("config", ValueError("model file has no weight prior; cannot generate"))
    config = {
        "command": "generate",
        "items": model.Q,
        "components": model.K,
        "users": args.users,
        "comparisons": args.comparisons,
        "phi": [c.dispersion for c in model.components],
        "prior": model_to_dict(model)["prior"],
        "seed": args.seed,
        "threads": args.threads,
        "input": args.input,
        "output": args.output,
        "truth": args.truth,
    }
    # each block of users is written before the next is drawn, so with the
    # arguments checked above, what fails here is the write
    thetas = _stage("write", generate_corpus_file, args.output, model, args.users,
                    args.comparisons, args.seed, {"seed": args.seed, "config": config})
    truth = model_to_dict(model, seed=args.seed)
    truth["config"] = config
    truth["weights"] = thetas.tolist()
    _stage("write", write_json, args.truth, truth)
    print(f"wrote {args.users * args.comparisons} records to {args.output} "
          f"and the truth to {args.truth}")
    return 0


def cmd_estimate(args) -> int:
    # moments loads scipy.sparse, which no other command needs
    from .estimator import (DetectionConfig, check_epsilon, detect_novel_pairs,
                            estimate_ranking_matrix)
    from .moments import analytic_cooccurrence, cooccurrence, split_halves

    t0 = time.perf_counter()
    K = args.components
    cfg = _stage(
        "config",
        DetectionConfig,
        n_components=K,
        n_projections=args.projections,
        zeta=args.zeta,
        seed=args.seed,
        min_count_fraction=args.min_count_fraction,
    )
    _stage("config", check_epsilon, args.epsilon)
    if args.exact_moments:
        truth = _stage("read", read_model, args.exact_moments)
        cooc, row_scale = _stage("moments", analytic_cooccurrence, truth)
    else:
        if not args.input:
            raise StageError("config", ValueError("-i corpus is required without --exact-moments"))
        corpus = _stage("read", read_corpus, args.input)
        split = _stage("split", split_halves, corpus)
        del corpus  # the split keeps the records, and cooc keeps them for the refit
        cooc = _stage("moments", cooccurrence, split)
        row_scale = split.row_scale()
        del split  # its first-half mask is read by then
    novel = _stage("detection", detect_novel_pairs, cooc, cfg)
    B_hat = _stage("regression", estimate_ranking_matrix, cooc, row_scale, novel,
                   epsilon=args.epsilon)
    Q = cooc.Q
    del cooc, row_scale  # B_hat keeps the corpus that the dispersion refit reads
    est = _stage("postprocess", postprocess, B_hat)
    angles = sorted(novel.solid_angles.values(), reverse=True)
    margin = angles[K - 1] - angles[K] if len(angles) > K else angles[K - 1]
    # scores are multiples of 1/P, so a margin of 0 is a tie
    P = cfg.resolved_projections
    # sigma_{K+1} comes from a block that converged on the top K only, so
    # it is a lower bound
    sv = novel.singular_values
    s_next = float(sv[K]) if sv.size > K else 0.0
    print(f"estimate: {len(angles)} candidate rows, "
          f"sigma_{K} {sv[K - 1]:.4g} and sigma_{K + 1} at least {s_next:.4g} "
          f"(ratio at most {sv[K - 1] / s_next if s_next > 0 else math.inf:.4g}) "
          f"after {novel.iterations} subspace iterations, "
          f"scorer window at most {novel.window} rows, "
          f"solid-angle margin {margin:.4g} ({round(margin * P)} of {P} projections); "
          f"regression at most {B_hat.steps} iterations, worst residual {B_hat.residual:.3e}; "
          f"{len(est.diagnostics['clamped_components'])} clamped dispersions"
          + (f"; dispersions refitted on the records after {est.refit['weight_cycles']} "
             f"weight cycles and {est.refit['newton_steps']} Newton steps, log-likelihood "
             f"{est.refit['loglik'] / est.refit['records']:.4f} per record read "
             f"(log 1/2 = {math.log(0.5):.4f})"
             if est.refit else ""), file=sys.stderr)
    config = {
        "command": "estimate",
        "items": Q,
        "components": K,
        "projections": cfg.resolved_projections,
        "zeta": args.zeta,
        "epsilon": args.epsilon,
        "doubled_distance_rule": args.doubled_distance_rule,
        "min_count_fraction": args.min_count_fraction,
        "seed": args.seed,
        "threads": args.threads,
        "exact_moments": args.exact_moments,
        "input": args.input,
        "output": args.output,
    }
    extra_diag = {
        "selected_rows": list(novel.rows),
        "selected_pairs": [[i, j] for i, j in novel.item_pairs],
        "selected_solid_angles": [novel.solid_angles[r] for r in novel.rows],
    }
    _stage(
        "write",
        write_estimated_model,
        est,
        args.output,
        seed=args.seed,
        extra_diagnostics=extra_diag,
        extra={"config": config},
    )
    elapsed = time.perf_counter() - t0
    print(
        f"estimated {K} components over {Q} items in {elapsed:.2f}s; "
        f"selected pairs {novel.item_pairs}; wrote {args.output}"
    )
    return 0


def cmd_evaluate(args) -> int:
    truth = _stage("read", read_model, args.truth)
    estimate = _stage("read", read_model, args.input)
    report = _stage("score", align_and_score, truth, estimate)
    obj = {
        "normalized_kendall": report.normalized_error,
        "per_component": report.per_component_kendall,
        "phi_errors": report.dispersion_abs_errors,
        "matching": report.matching,
        "config": {
            "command": "evaluate",
            "truth": args.truth,
            "input": args.input,
            "output": args.output,
        },
    }
    text = _stage("write", write_json, args.output, obj)
    print(text)
    return 0


def cmd_separability(args) -> int:
    if args.phi is None or args.lam is None:
        raise StageError("config", ValueError("--phi and --lambda are required"))
    est = _stage(
        "separability",
        separability_probability,
        args.items,
        args.components,
        args.phi,
        args.lam,
        args.runs,
        args.seed,
    )
    obj = {
        "prob": est.probability,
        "se": est.std_error,
        "bound": _finite_or_none(est.lower_bound),
        "runs": est.runs,
        "items": args.items,
        "components": args.components,
        "phi": args.phi,
        "lambda": args.lam,
        "seed": args.seed,
        "config": {
            "command": "separability",
            "items": args.items,
            "components": args.components,
            "phi": args.phi,
            "lambda": args.lam,
            "runs": args.runs,
            "seed": args.seed,
            "output": args.output,
        },
    }
    text = _stage("write", write_json, args.output, obj)
    print(text)
    return 0


def cmd_oracle(args) -> int:
    model = _build_model(args)
    table = _stage("oracle", brute_force_beta, model.components)
    I, J = pairs.pair_arrays(model.Q)
    obj = {
        "Q": model.Q,
        "K": model.K,
        "components": model_to_dict(model)["components"],
        "pairs": [[int(i), int(j)] for i, j in zip(I, J)],
        "beta": table.tolist(),
        "config": {
            "command": "oracle",
            "items": model.Q,
            "components": model.K,
            "phi": [c.dispersion for c in model.components],
            "seed": args.seed,
            "input": args.input,
            "output": args.output,
        },
    }
    text = _stage("write", write_json, args.output, obj)
    if args.output:
        print(f"wrote exact order-probability table for Q={model.Q}, K={model.K} to {args.output}")
    else:
        print(text)
    return 0


def cmd_predict(args) -> int:
    model = _stage("read", read_model, args.model)
    corpus = _stage("read", read_corpus, args.input)
    if corpus.Q != model.Q:
        raise StageError(
            "read", ValueError(f"corpus has Q={corpus.Q} but the model has Q={model.Q}")
        )
    B = model.observation_matrix()
    theta, history = _stage("weights", infer_weights, corpus, B, trace=True)
    iterations, converged, change = em_summary(history)
    print(f"weights: EM {iterations} iterations, "
          f"{'converged' if converged else 'not converged'}, "
          f"last relative log-likelihood change {change:.3e}", file=sys.stderr)
    report = _stage("predict", predict_loglik, corpus, theta, B)
    obj = {
        "avg_loglik": report.avg_loglik,
        "zero_events": report.zero_events,
        "n": report.n,
        "users": corpus.M,
        "theta": theta.tolist(),
        "config": {
            "command": "predict",
            "model": args.model,
            "input": args.input,
            "output": args.output,
        },
    }
    _stage("write", write_json, args.output, obj)
    print(
        f"avg_loglik {report.avg_loglik:.6f} over {report.n} comparisons "
        f"({report.zero_events} zero-probability events)"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mallowmix",
        description="Mixed-membership Mallows mixtures from pairwise-comparison corpora.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a synthetic comparison corpus")
    g.add_argument("--items", type=int, help="number of items Q")
    g.add_argument("--components", type=int, help="number of mixture components K")
    g.add_argument("--users", type=int, required=True, help="number of users M")
    g.add_argument("--comparisons", type=int, required=True, help="comparisons per user N")
    g.add_argument("--phi", type=float, action="append",
                   help="dispersion; repeat for one value per component")
    g.add_argument("--alpha", type=float, default=None,
                   help="symmetric Dirichlet concentration (default 0.1)")
    g.add_argument("--vertex-prior", default=None,
                   help="comma-separated class probabilities for a vertex prior")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-i", "--input", default=None, help="sample from an existing model file")
    g.add_argument("-o", "--output", required=True, help="corpus JSONL output path")
    g.add_argument("--truth", required=True, help="ground-truth model JSON output path")
    g.set_defaults(func=cmd_generate, threads=1)  # for config fields that no option sets

    e = sub.add_parser("estimate", help="estimate components from a corpus")
    e.add_argument("-i", "--input", default=None, help="corpus JSONL path")
    e.add_argument("-o", "--output", required=True, help="estimated model JSON output path")
    e.add_argument("--components", type=int, required=True, help="number of components K")
    e.add_argument("--projections", type=int, default=None,
                   help="random projection count (default 150 per component)")
    e.add_argument("--zeta", type=float, default=0.7,
                   help="row separation tolerance, as a fraction of the spread of the "
                        "candidate rows' rank-K part (the root mean square of their "
                        "distances from their mean)")
    e.add_argument("--epsilon", type=float, default=1e-4, help="regression precision")
    e.add_argument("--min-count-fraction", type=float, default=0.2,
                   help="exclude rows observed less than this fraction of the "
                        "median row count from detection candidacy (0 disables)")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--exact-moments", default=None, metavar="TRUTH",
                   help="debug mode: use the analytic co-occurrence of this truth model file")
    e.set_defaults(func=cmd_estimate, threads=1, doubled_distance_rule=False)  # as for generate

    v = sub.add_parser("evaluate", help="score an estimate against the truth")
    v.add_argument("--truth", required=True, help="ground-truth model JSON path")
    v.add_argument("-i", "--input", required=True, help="estimated model JSON path")
    v.add_argument("-o", "--output", default=None, help="report JSON output path")
    v.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("separability", help="Monte Carlo separability probability")
    s.add_argument("--items", type=int, required=True)
    s.add_argument("--components", type=int, required=True)
    s.add_argument("--phi", type=float, required=True, help="shared dispersion")
    s.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="separability threshold in [0, 1)")
    s.add_argument("--runs", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output", default=None, help="report JSON output path")
    s.set_defaults(func=cmd_separability)

    o = sub.add_parser("oracle", help="exact order-probability table by full enumeration")
    o.add_argument("-i", "--input", default=None, help="model JSON path")
    o.add_argument("--items", type=int, help="number of items (7 at most)")
    o.add_argument("--components", type=int)
    o.add_argument("--phi", type=float, action="append")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("-o", "--output", default=None, help="table JSON output path")
    # _build_model reads a prior, which the oracle never uses
    o.set_defaults(func=cmd_oracle, alpha=None, vertex_prior=None)

    r = sub.add_parser("predict", help="fit each user's weights on a corpus under a model "
                                       "and score the same records")
    r.add_argument("--model", required=True, help="model JSON path (truth or estimate)")
    r.add_argument("-i", "--input", required=True, help="corpus JSONL path")
    r.add_argument("-o", "--output", default=None, help="report JSON output path")
    r.set_defaults(func=cmd_predict)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # every command that draws takes --seed
            raise StageError("config", ValueError(f"--seed must be non-negative, got {args.seed}"))
        return args.func(args)
    except StageError as exc:
        print(f"error in {exc.stage} stage: {exc.cause}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
