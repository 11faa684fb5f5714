#!/usr/bin/env python3
"""End-to-end benchmark of the mallowmix CLI, with a traced per-module run.

    python3 perfbench/run.py --workload dense-q20 --seed 1 --seconds 60 --trace 0

Each workload is a synthetic corpus shape.  The benchmark runs the real CLI
(``python -m mallowmix.cli`` with ``PYTHONPATH`` pinned to this checkout's
``src``) as a closed loop: one command at a time from this single process,
nothing alongside.  The pipeline is ``generate`` (users and comparisons
seeded by ``--seed``, from a model drawn once with a fixed seed),
``estimate``, ``evaluate`` of the estimate against the generated truth,
and ``predict`` with the truth on the corpus.  ``setup_s`` is the wall time
of ``--help``: interpreter start plus package import, which every command
pays.  The timed commands run again on the same inputs, in rounds, until
each has run as often as its workload asks (``Workload.runs``); a
``--help`` runs before every timed command, so that setup is sampled over
the whole run too.  No round starts after ``--seconds``.  Peak RSS values
are medians over the samples.  ``kendall_accuracy`` and ``phi_accuracy``
are one minus the normalized Kendall error and one minus the largest
dispersion error that ``evaluate`` reports for the estimate.

On a shared host the speed a new process gets flips between two levels
about 1.5x apart, for seconds or for minutes, with nothing else running.
So a fixed reference job that does not touch the package (``PROBE``: start
Python, import numpy and scipy) also runs before every timed command, and
each end-to-end time is the command's mean wall time scaled to a host on
which that job takes ``PROBE_REF_S``: times PROBE_REF_S over the run's
mean probe time.  Means, not medians: with a few samples a median jumps
from one speed level to the other, where a mean moves with the share of
time spent at each.  The raw wall times and probe times stay in the full
record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each command
once, untraced, then replays the pipeline in-process through ``traced.py``
with a span around every call into the package, then measures tracemalloc
peaks in a pass of its own, and reports the per-layer metrics.

Every command's output is checked; a command that exits non-zero or fails a
check counts as failed.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, every sample, spans) goes to
``.perfbench_out/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Every child must finish before this many seconds from start, so that a
# run ends within three minutes even when a command hangs.  A child still
# running then is killed and the run ends without a result.
DEADLINE_S = 176.0
PHI = "0.1"
ALPHA = "0.1"
# The reference job and its wall time on the reference host.
PROBE = ["-c", "import json, numpy, scipy.optimize, scipy.sparse"]
PROBE_REF_S = 0.8
# Seed of the generating model (reference rankings), the same for every run.
# The workload seed draws the users and their comparisons; drawing the
# references from it as well made the weight-EM iteration count, and so
# predict_s, swing from seed to seed.
MODEL_SEED = 0
THETA_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    items: int
    components: int
    users: int
    comparisons: int
    # Samples of each timed command in an untraced run; short commands take
    # more, and together they take under a minute.
    runs: tuple[tuple[str, int], ...] = (("generate", 2), ("estimate", 2), ("predict", 2))


WORKLOADS = {
    # Corpus I/O and weight EM dominate; the paper's algorithm does little.
    "dense-q20": Workload(items=20, components=3, users=3000, comparisons=300,
                          runs=(("generate", 3), ("estimate", 4), ("predict", 1))),
    # Scaling point: detection over 3540 pair rows dominates; estimate alone
    # takes about 25 s, so it is sampled once.
    "wide-q60": Workload(items=60, components=5, users=2000, comparisons=200,
                         runs=(("generate", 4), ("estimate", 1), ("predict", 1))),
    # Toy shape for the smoke test; not a benchmark workload.
    "toy": Workload(items=8, components=2, users=300, comparisons=30),
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MOVES = {
    "generator.write_corpus_s": "generate_s on dense-q20",
    "generator.generate_s": "generate_s on every workload",
    "generator.read_corpus_s": "estimate_s and predict_s on dense-q20; little on wide-q60",
    "generator.read_corpus_mb_per_s": "as generator.read_corpus_s",
    "generator.records": "as generator.read_corpus_s",
    "generator.corpus_mb": "as generator.read_corpus_s",
    "moments.split_halves_s": "estimate_s and estimate_peak_rss_mb on wide-q60",
    "moments.cooccurrence_s": "estimate_s and estimate_peak_rss_mb on wide-q60",
    "moments.active_rows": "estimate_s and estimate_peak_rss_mb on wide-q60",
    "moments.cooc_stored_mb": "estimate_s and estimate_peak_rss_mb on wide-q60 "
                              "(computed from array sizes)",
    "estimator.detect_novel_pairs_s": "estimate_s and estimate_peak_rss_mb on wide-q60; "
                                      "none on dense-q20",
    "estimator.candidate_rows": "as estimator.detect_novel_pairs_s",
    "estimator.projections": "as estimator.detect_novel_pairs_s",
    "estimator.solid_angle_margin": "kendall_accuracy on every workload",
    "estimator.estimate_ranking_matrix_s": "estimate_s on wide-q60",
    "post.postprocess_s": "phi_accuracy",
    "post.write_estimated_model_s": "phi_accuracy",
    "post.clamped_components": "phi_accuracy",
    "evaluate.infer_weights_s": "predict_s on every workload",
    "evaluate.em_iterations": "predict_s on every workload",
    "evaluate.em_s_per_iter": "predict_s on every workload",
    "evaluate.predict_loglik_s": "recorded for completeness",
    "evaluate.align_and_score_s": "recorded for completeness",
    "generator.read_corpus_peak_mb": "estimate_peak_rss_mb and predict_peak_rss_mb",
    "moments.cooccurrence_peak_mb": "estimate_peak_rss_mb",
    "estimator.detect_novel_pairs_peak_mb": "estimate_peak_rss_mb",
    "estimator.estimate_ranking_matrix_peak_mb": "estimate_peak_rss_mb",
    "evaluate.infer_weights_peak_mb": "predict_peak_rss_mb",
    "cli.import_s": "setup_s",
    "cli.parse_args_s": "every command's *_s",
    "cli.result_json_s": "generate_s and predict_s (truth and theta dumps)",
    "cli.generate_residual_s": "generate_s",
    "cli.estimate_residual_s": "estimate_s",
    "cli.predict_residual_s": "predict_s",
    "trace_overhead_s": "none; the cost of tracing itself",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here at all; no result is printed."""


# ---------------------------------------------------------------------------
# commands


def model_argv(w: Workload) -> list[str]:
    """CLI arguments that write the workload's generating model to model.json."""
    return ["generate", "--items", str(w.items), "--components", str(w.components),
            "--users", "1", "--comparisons", "2", "--phi", PHI, "--alpha", ALPHA,
            "--seed", str(MODEL_SEED), "-o", "model_corpus.jsonl", "--truth", "model.json"]


def command_argvs(w: Workload, seed: int) -> list[list[str]]:
    """CLI argument vectors of the pipeline, with paths relative to its folder."""
    return [
        ["generate", "-i", "model.json", "--users", str(w.users),
         "--comparisons", str(w.comparisons), "--seed", str(seed),
         "-o", "corpus.jsonl", "--truth", "truth.json"],
        ["estimate", "-i", "corpus.jsonl", "-o", "estimate.json",
         "--components", str(w.components)],
        ["evaluate", "--truth", "truth.json", "-i", "estimate.json", "-o", "report.json"],
        # predict scores the generating model, so its EM cost does not swing
        # with how well estimate happened to recover the components.
        ["predict", "--model", "truth.json", "-i", "corpus.jsonl", "-o", "predict.json"],
    ]


# Files each command writes, compared byte for byte between runs of one seed.
OUTPUTS = {
    "generate": ("corpus.jsonl", "truth.json"),
    "estimate": ("estimate.json",),
    "evaluate": ("report.json",),
    "predict": ("predict.json",),
}


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int


def child_env() -> tuple[dict, int, int]:
    """Environment for every child: sources pinned, BLAS threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    blas = min(int(asked), nproc) if asked else nproc
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    return env, nproc, blas


class Runner:
    """Runs children one at a time and counts commands and failures."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"FAILED: {problem}", file=sys.stderr)

    def spawn(self, argv: list[str], cwd: Path, log: str) -> Child:
        """Run one child to completion; peak RSS comes from wait4 on it alone."""
        with open(cwd / f"{log}.out", "wb") as out, open(cwd / f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM, ^C): leave no child running.
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            # Too slow a host is not a fault of the program under test.
            raise BenchError(f"{log} was still running at the {DEADLINE_S:.0f} s deadline")
        return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)

    def probe(self, cwd: Path) -> float:
        """Wall time of the reference job; it is not a command of the package."""
        child = self.spawn([sys.executable, *PROBE], cwd, "probe")
        if child.returncode != 0:
            raise BenchError(f"the reference job exited {child.returncode}")
        return child.wall_s

    def command(self, argv: list[str], cwd: Path, log: str) -> Child | None:
        """One CLI command; None when it did not exit 0."""
        self.attempted += 1
        child = self.spawn([sys.executable, "-m", "mallowmix.cli", *argv], cwd, log)
        if child.returncode != 0:
            err = (cwd / f"{log}.err").read_text(errors="replace").strip().splitlines()
            self.fail(f"{log} exited {child.returncode}: {err[-1] if err else ''}")
            return None
        return child


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the file is good


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def check_corpus(path: Path, w: Workload) -> list[str]:
    with open(path) as fh:
        meta = json.loads(fh.readline()).get("meta", {})
        records = sum(1 for _ in fh)
    problems = []
    if (meta.get("Q"), meta.get("M"), meta.get("N")) != (w.items, w.users, w.comparisons):
        problems.append(f"{path.name}: meta {meta.get('Q')}/{meta.get('M')}/{meta.get('N')} "
                        f"is not Q/M/N {w.items}/{w.users}/{w.comparisons}")
    if records != w.users * w.comparisons:
        problems.append(f"{path.name}: {records} records, expected {w.users * w.comparisons}")
    return problems


def check_estimate(path: Path, items: int, components: int) -> list[str]:
    """K permutations of 1..Q, each with a dispersion in [0, 1)."""
    try:
        obj = _load_json(path)
        comps = obj["components"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable estimate ({exc})"]
    problems = []
    if not isinstance(comps, list) or len(comps) != components:
        return [f"{path.name}: expected {components} components"]
    for k, comp in enumerate(comps):
        ranking = comp.get("ranking") if isinstance(comp, dict) else None
        phi = comp.get("phi") if isinstance(comp, dict) else None
        if not isinstance(ranking, list) or sorted(ranking) != list(range(1, items + 1)):
            problems.append(f"{path.name}: component {k} ranking is not a permutation "
                            f"of 1..{items}")
        if not isinstance(phi, (int, float)) or not 0.0 <= phi < 1.0:
            problems.append(f"{path.name}: component {k} phi {phi!r} is not in [0, 1)")
    return problems


def check_report(path: Path, components: int) -> list[str]:
    try:
        obj = _load_json(path)
        values = [obj["normalized_kendall"], *obj["phi_errors"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable report ({exc})"]
    if len(values) != components + 1 or not all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return [f"{path.name}: kendall error or phi errors missing or not finite"]
    return []


def check_predict(path: Path, users: int, components: int) -> list[str]:
    """theta is M x K with rows summing to 1 within 1e-9; avg_loglik is finite."""
    try:
        obj = _load_json(path)
        theta = obj["theta"]
        avg = obj["avg_loglik"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name}: unreadable prediction ({exc})"]
    problems = []
    if not isinstance(avg, (int, float)) or not math.isfinite(avg):
        problems.append(f"{path.name}: avg_loglik {avg!r} is not finite")
    if len(theta) != users or any(len(row) != components for row in theta):
        problems.append(f"{path.name}: theta is not {users} x {components}")
    else:
        bad = sum(1 for row in theta if abs(math.fsum(row) - 1.0) > THETA_SUM_TOL)
        if bad:
            problems.append(f"{path.name}: {bad} theta row(s) do not sum to 1 within "
                            f"{THETA_SUM_TOL}")
    return problems


def output_problems(command: str, cwd: Path, w: Workload) -> list[str]:
    if command == "generate":
        return check_corpus(cwd / "corpus.jsonl", w)
    if command == "estimate":
        return check_estimate(cwd / "estimate.json", w.items, w.components)
    if command == "evaluate":
        return check_report(cwd / "report.json", w.components)
    return check_predict(cwd / "predict.json", w.users, w.components)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# untraced commands


@dataclass
class Samples:
    setup: list[Child] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    children: dict[str, list[Child]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    complete: bool = False


def run_commands(runner: Runner, argvs: list[list[str]], cwd: Path, w: Workload,
                 setup_each: int = 0, probe: bool = False,
                 reference: dict[str, str] | None = None, out: Samples | None = None) -> Samples:
    """Run each command once, in order, adding to ``out``; stops at the first failure.

    ``--help`` runs ``setup_each`` times before each command other than
    ``evaluate``, and then the reference job when ``probe`` is set.  A command fails when it exits non-zero, when its output
    fails a check, or when an output differs from the same file of an
    earlier run with the same seed: an earlier round, or ``reference``
    (file name -> digest).
    """
    if out is None:
        out = Samples(digests=dict(reference or {}))
    out.complete = False
    for argv in argvs:
        command = argv[0]
        for _ in range(setup_each if command != "evaluate" else 0):
            child = runner.command(["--help"], cwd, "setup")
            if child is None:
                return out
            out.setup.append(child)
        if probe and command != "evaluate":
            out.probes.append(runner.probe(cwd))
        runs = out.children.setdefault(command, [])
        child = runner.command(argv, cwd, command)
        if child is None:
            return out
        problems = []
        for name in OUTPUTS[command]:
            d = digest(cwd / name)
            if out.digests.setdefault(name, d) != d:
                problems.append(f"{name} differs between two runs with the same seed")
        if not runs:
            problems += output_problems(command, cwd, w)
        if problems:
            runner.fail(f"{command}: " + "; ".join(problems))
            return out
        runs.append(child)
    out.complete = True
    return out


def run_rounds(runner: Runner, argvs: list[list[str]], cwd: Path, w: Workload,
               seconds: float) -> Samples:
    """The pipeline once, then rounds of the timed commands that want more samples.

    Repeating rounds, not each command back to back, spreads a command's
    samples over the run, so that a slow spell of the host does not hit all
    of them.  A ``--help`` and the reference job run before each timed
    command.  No round starts once ``seconds`` have passed, so a slow host
    takes fewer samples.
    """
    start = time.monotonic()
    runs = dict(w.runs)
    samples = run_commands(runner, argvs, cwd, w, setup_each=1, probe=True)
    for r in range(1, max(runs.values())):
        if not samples.complete or time.monotonic() - start > seconds:
            break
        again = [argv for argv in argvs if runs.get(argv[0], 0) > r]
        run_commands(runner, again, cwd, w, setup_each=1, probe=True, out=samples)
    return samples


# ---------------------------------------------------------------------------
# traced run


def span_totals(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"])
    return totals


def traced_run(runner: Runner, argvs: list[list[str]], work: Path, cli_dir: Path,
               cli: Samples, setup_s: float, trace_id: str) -> tuple[dict, list[dict]]:
    """Replay the pipeline in-process with spans, then measure memory peaks."""
    script = str(HERE / "traced.py")
    flat = [tok for argv in argvs for tok in ("--", *argv)]

    tdir = work / "traced"
    tdir.mkdir()
    shutil.copy(cli_dir / "model.json", tdir)
    runner.attempted += 1
    spans_child = runner.spawn([sys.executable, script, "spans", trace_id,
                                str(work / "spans.json"), *flat], tdir, "traced")
    if spans_child.returncode != 0:
        runner.fail(f"traced replay exited {spans_child.returncode}")
        return {}, []
    traced = _load_json(work / "spans.json")
    mismatched = [name for files in OUTPUTS.values() for name in files
                  if digest(tdir / name) != cli.digests[name]]
    estimate = _load_json(cli_dir / "estimate.json")
    counters = traced["counters"]
    if (counters.pop("selected_rows") != estimate["diagnostics"]["selected_rows"]
            or counters.pop("rankings") != [c["ranking"] for c in estimate["components"]]):
        mismatched.append("selected rows or rankings")
    if mismatched:
        runner.fail("traced replay differs from the CLI in " + ", ".join(mismatched))
        return {}, traced["spans"]

    mdir = work / "memory"
    mdir.mkdir()
    runner.attempted += 1
    mem_child = runner.spawn([sys.executable, script, "memory", str(cli_dir),
                              str(work / "memory.json"), *flat], mdir, "memory")
    if mem_child.returncode != 0:
        runner.fail(f"memory pass exited {mem_child.returncode}")
        return {}, traced["spans"]
    peaks = _load_json(work / "memory.json")

    t = span_totals(traced["spans"])
    corpus_mb = (cli_dir / "corpus.jsonl").stat().st_size / 2**20
    reads = sum(1 for s in traced["spans"] if s["name"] == "generator.read_corpus")
    walls = {c: runs[0].wall_s for c, runs in cli.children.items()}
    metrics = {
        "generator.generate_s": t["generator.generate"],
        "generator.write_corpus_s": t["generator.write_corpus"],
        "generator.read_corpus_s": t["generator.read_corpus"],
        "generator.read_corpus_mb_per_s": corpus_mb * reads / t["generator.read_corpus"],
        "generator.corpus_mb": corpus_mb,
        "moments.split_halves_s": t["moments.split_halves"],
        "moments.cooccurrence_s": t["moments.cooccurrence"],
        "estimator.detect_novel_pairs_s": t["estimator.detect_novel_pairs"],
        "estimator.estimate_ranking_matrix_s": t["estimator.estimate_ranking_matrix"],
        "post.postprocess_s": t["post.postprocess"],
        "post.write_estimated_model_s": t["post.write_estimated_model"],
        "evaluate.infer_weights_s": t["evaluate.infer_weights"],
        "evaluate.em_s_per_iter":
            t["evaluate.infer_weights"] / counters["evaluate.em_iterations"],
        "evaluate.predict_loglik_s": t["evaluate.predict_loglik"],
        "evaluate.align_and_score_s": t["evaluate.align_and_score"],
        "cli.import_s": t["cli.import"],
        "cli.parse_args_s": t["cli.parse_args"],
        "cli.result_json_s": t["cli.result_json"],
        **{f"cli.{c}_residual_s": walls[c] - setup_s - t[f"cmd.{c}"]
           for c in ("generate", "estimate", "predict")},
        # The replay starts one interpreter where the CLI starts one per
        # command; charge it the start-up it skipped before comparing.
        "trace_overhead_s": spans_child.wall_s + (len(argvs) - 1) * setup_s - sum(walls.values()),
        **counters,
        **peaks,
    }
    return metrics, traced["spans"]


# ---------------------------------------------------------------------------
# environment


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mallowmix").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def probe_environment(env: dict, cwd: Path) -> dict:
    """Versions seen by the children; fails unless mallowmix comes from SRC."""
    code = ("import json, sys, numpy, scipy, mallowmix; print(json.dumps({"
            "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__, 'mallowmix_file': mallowmix.__file__}))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import mallowmix from {SRC}: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    if Path(info["mallowmix_file"]).resolve().parent != (SRC / "mallowmix").resolve():
        raise BenchError(f"mallowmix resolved to {info['mallowmix_file']}, not under {SRC}")
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    info.update(commit=commit, source_sha256=source_digest())
    return info


# ---------------------------------------------------------------------------
# main


def measure(args, w: Workload, work: Path, runner: Runner) -> dict:
    argvs = command_argvs(w, args.seed)
    cli_dir = work / "cli"
    cli_dir.mkdir()
    if runner.command(model_argv(w), cli_dir, "model") is None:
        return {}
    # The traced run needs one sample of each command, and one --help before
    # each to charge start-up against its residuals.
    if args.trace:
        samples = run_commands(runner, argvs, cli_dir, w, setup_each=1)
    else:
        samples = run_rounds(runner, argvs, cli_dir, w, args.seconds)
    record: dict = {
        "setup": [vars(c) for c in samples.setup],
        "probes": samples.probes,
        "samples": {c: [vars(child) for child in runs]
                    for c, runs in samples.children.items()},
    }
    if not samples.complete:
        return record
    setup_s = statistics.fmean(c.wall_s for c in samples.setup)

    if args.trace:
        trace_id = f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:12]}"
        values, spans = traced_run(runner, argvs, work, cli_dir, samples, setup_s, trace_id)
        record.update(trace_id=trace_id, spans=spans, layer_moves=LAYER_MOVES, values=values)
        return record

    def wall(command: str) -> float:
        return statistics.fmean(c.wall_s for c in samples.children[command])

    def rss(command: str) -> float:
        return statistics.median(c.peak_rss_mb for c in samples.children[command])

    predict = _load_json(cli_dir / "predict.json")
    report = _load_json(cli_dir / "report.json")
    speed = PROBE_REF_S / statistics.fmean(samples.probes)
    record["values"] = {
        "setup_s": setup_s * speed,
        **{f"{c}_s": wall(c) * speed for c in ("generate", "estimate", "predict")},
        **{f"{c}_peak_rss_mb": rss(c) for c in ("generate", "estimate", "predict")},
        "neg_avg_loglik": -predict["avg_loglik"],
        "kendall_accuracy": 1.0 - report["normalized_kendall"],
        "phi_accuracy": 1.0 - max(report["phi_errors"]),
    }
    return record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]

    started = time.monotonic()
    deadline = started + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "mallowmix" / "__init__.py").is_file():
        print(f"error: no mallowmix sources under {SRC}", file=sys.stderr)
        return 2
    # Metric names and units come from the benchmark definition.
    spec = _load_json(ROOT / "BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env, nproc, blas = child_env()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env_info = probe_environment(env, work)
        env_info.update(nproc=nproc, blas_threads=blas)
        runner = Runner(env, deadline)
        record = measure(args, w, work, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = record.pop("values", {})
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()} if values else {}
    if not metrics and not runner.failed:
        runner.fail("no metrics were measured")
    correct = runner.failed == 0
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump({"workload": args.workload, "workload_shape": vars(w), "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "environment": env_info,
                   "elapsed_s": time.monotonic() - started, "result": result,
                   "problems": runner.problems, **record}, fh, indent=1)
    print(f"environment: {json.dumps(env_info)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ops {runner.failed}/{runner.attempted} count")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
