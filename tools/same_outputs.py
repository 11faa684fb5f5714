"""Check that two source trees give byte-identical CLI outputs.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3]
        [--shapes NAME ...]

Each argument is a checkout of this repository (or its ``src`` folder).
For every shape named by ``--shapes`` (by default all but ``scale-q100``,
which runs only when named) and every seed, each tree runs the
benchmark's pipeline in a fresh temporary folder: the model drawn with
``--phi 0.1 --alpha 0.1 --seed 0``, ``generate`` at the seed,
``estimate`` on the corpus and with ``--exact-moments truth.json``,
``evaluate``, and ``predict`` with the truth and with the estimate.  The ``skewed-q20`` shape first rewrites the
drawn ``model.json`` (the same rewrite in both trees) to an uneven pair
distribution: one pair holds half the mass and three of every five others
none.  The ``sparse-q100`` shape leaves pair rows empty in either half
and rows outside detection's candidates.  Both trees use the same
relative file names, since every output records its own paths.  Every
file the pipeline leaves and every command's exit code and stderr lines
are compared; stdout is not, since ``estimate`` prints its wall time
there.  Each command's peak RSS in each tree, from ``os.wait4``, is
printed for information and not compared.  Exits 1 on any difference,
naming it.  Standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name: (items Q, components K, users M, comparisons per user N, skewed pairs)
SHAPES = {
    "dense-q20": (20, 3, 3000, 300, False),
    "wide-q60": (60, 5, 2000, 200, False),
    "skewed-q20": (20, 3, 3000, 300, True),
    # about 750 of the 9900 pair rows are empty in each half at seed 1
    "sparse-q100": (100, 4, 1000, 100, False),
    # 2.7 M records, the paper's scale; run only when named
    "scale-q100": (100, 10, 9000, 300, False),
}
DEFAULT_SHAPES = ["dense-q20", "wide-q60", "skewed-q20", "sparse-q100"]


def pipeline(Q: int, K: int, M: int, N: int, seed: int) -> list[list[str]]:
    """CLI argument vectors, run in order in one folder."""
    return [
        ["generate", "--items", str(Q), "--components", str(K), "--users", "1",
         "--comparisons", "2", "--phi", "0.1", "--alpha", "0.1", "--seed", "0",
         "-o", "model_corpus.jsonl", "--truth", "model.json"],
        ["generate", "-i", "model.json", "--users", str(M), "--comparisons", str(N),
         "--seed", str(seed), "-o", "corpus.jsonl", "--truth", "truth.json"],
        ["estimate", "-i", "corpus.jsonl", "-o", "estimate.json", "--components", str(K)],
        ["estimate", "--exact-moments", "truth.json", "-o", "exact.json",
         "--components", str(K)],
        ["evaluate", "--truth", "truth.json", "-i", "estimate.json", "-o", "report.json"],
        ["predict", "--model", "truth.json", "-i", "corpus.jsonl", "-o", "predict.json"],
        ["predict", "--model", "estimate.json", "-i", "corpus.jsonl",
         "-o", "predict_estimate.json"],
    ]


def skew_pairs(path: Path) -> None:
    """Give the model file at ``path`` a pair distribution with zero-mass
    runs and one heavy pair: the first pair (1, 2) holds half the mass,
    each pair whose index is 1, 2 or 3 mod 5 none, and the rest share the
    other half evenly."""
    model = json.loads(path.read_text())
    Q = model["Q"]
    pairs = [(i, j) for i in range(1, Q + 1) for j in range(i + 1, Q + 1)]
    shared = [k for k in range(1, len(pairs)) if k % 5 in (0, 4)]
    probs = [0.0] * len(pairs)
    probs[0] = 0.5
    for k in shared:
        probs[k] = 0.5 / len(shared)
    model["pair_dist"] = [[i, j, p] for (i, j), p in zip(pairs, probs)]
    path.write_text(json.dumps(model, indent=1) + "\n")


def source_path(tree: str) -> str:
    """The folder that holds the ``mallowmix`` package of ``tree``."""
    root = Path(tree).resolve()
    for src in (root / "src", root):
        if (src / "mallowmix" / "cli.py").is_file():
            return str(src)
    sys.exit(f"{tree}: no mallowmix package in it or in its src folder")


def run(src: str, argvs: list[list[str]], cwd: Path,
        skewed: bool) -> tuple[list[tuple[int, list[str]]], list[float]]:
    """Each command's exit code and stderr lines, and its peak RSS in MB; a
    failed command ends the run.  With ``skewed``, the model file is
    rewritten by ``skew_pairs`` after the first command, which draws it."""
    env = dict(os.environ, PYTHONPATH=src)
    results, peaks = [], []
    for k, argv in enumerate(argvs):
        proc = subprocess.Popen([sys.executable, "-m", "mallowmix.cli", *argv], cwd=cwd,
                                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        stderr = proc.stderr.read()
        proc.stderr.close()
        # wait4 reaps the child, so Popen is handed its exit code
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        results.append((proc.returncode, stderr.splitlines()))
        peaks.append(usage.ru_maxrss / 1024)  # KiB on Linux
        if proc.returncode:
            break
        if skewed and k == 0:
            skew_pairs(cwd / "model.json")
    return results, peaks


def differences(parent: Path, change: Path, argvs, got_parent, got_change) -> list[str]:
    out = []
    for argv, a, b in zip(argvs, got_parent, got_change):
        if a != b:
            out.append(f"`{' '.join(argv)}`: exit {a[0]} and stderr {a[1]!r} "
                       f"against exit {b[0]} and stderr {b[1]!r}")
        elif a[0]:
            out.append(f"`{' '.join(argv)}`: failed in both trees: {a[1]!r}")
    if len(got_parent) != len(got_change):
        out.append(f"{len(got_parent)} commands ran against {len(got_change)}")
    names = sorted(set(os.listdir(parent)) | set(os.listdir(change)))
    for name in names:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            out.append(f"{name}: written by one tree only")
        elif not filecmp.cmp(a, b, shallow=False):
            out.append(f"{name}: contents differ")
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--shapes", nargs="+", choices=SHAPES, default=DEFAULT_SHAPES,
                   metavar="NAME", help=f"shapes to run, of {', '.join(SHAPES)}")
    args = p.parse_args(argv)
    trees = source_path(args.parent), source_path(args.change)
    found = 0
    for shape in args.shapes:
        for seed in args.seeds:
            *dims, skewed = SHAPES[shape]
            argvs = pipeline(*dims, seed)
            with tempfile.TemporaryDirectory() as tmp:
                dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
                got, peaks = [], []
                for src, d in zip(trees, dirs):
                    d.mkdir()
                    results, peak = run(src, argvs, d, skewed)
                    got.append(results)
                    peaks.append(peak)
                diff = differences(*dirs, argvs, *got)
            found += len(diff)
            print(f"{shape} seed {seed}: "
                  + ("same outputs" if not diff else f"{len(diff)} difference(s)"))
            for line in diff:
                print(f"  {line}")
            for argv, a, b in zip(argvs, *peaks):
                print(f"  `{' '.join(argv[:3])}`: peak RSS {a:.1f} MB parent, {b:.1f} MB change")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
