"""Check that two source trees give byte-identical CLI outputs.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3]

Each argument is a checkout of this repository (or its ``src`` folder).
For every shape and seed, each tree runs the benchmark's pipeline in a
fresh temporary folder: the model drawn with ``--phi 0.1 --alpha 0.1
--seed 0``, ``generate`` at the seed, ``estimate`` on the corpus and with
``--exact-moments truth.json``, ``evaluate``, and ``predict`` with the
truth and with the estimate.  Both trees use the same relative file names,
since every output records its own paths.  Every file the pipeline leaves
and every command's exit code and stderr lines are compared; stdout is
not, since ``estimate`` prints its wall time there.  Exits 1 on any
difference, naming it.  Standard library only.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# name: (items Q, components K, users M, comparisons per user N)
SHAPES = {
    "dense-q20": (20, 3, 3000, 300),
    "wide-q60": (60, 5, 2000, 200),
}


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


def source_path(tree: str) -> str:
    """The folder that holds the ``mallowmix`` package of ``tree``."""
    root = Path(tree).resolve()
    for src in (root / "src", root):
        if (src / "mallowmix" / "cli.py").is_file():
            return str(src)
    sys.exit(f"{tree}: no mallowmix package in it or in its src folder")


def run(src: str, argvs: list[list[str]], cwd: Path) -> list[tuple[int, list[str]]]:
    """Each command's exit code and stderr lines; a failed command ends the run."""
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "mallowmix.cli", *argv], cwd=cwd,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        results.append((proc.returncode, proc.stderr.splitlines()))
        if proc.returncode:
            break
    return results


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
    args = p.parse_args(argv)
    trees = source_path(args.parent), source_path(args.change)
    found = 0
    for shape in SHAPES:
        for seed in args.seeds:
            argvs = pipeline(*SHAPES[shape], seed)
            with tempfile.TemporaryDirectory() as tmp:
                dirs = [Path(tmp) / "parent", Path(tmp) / "change"]
                got = []
                for src, d in zip(trees, dirs):
                    d.mkdir()
                    got.append(run(src, argvs, d))
                diff = differences(*dirs, argvs, *got)
            found += len(diff)
            print(f"{shape} seed {seed}: "
                  + ("same outputs" if not diff else f"{len(diff)} difference(s)"))
            for line in diff:
                print(f"  {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
