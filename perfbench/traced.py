"""In-process, traced replay of the CLI pipeline of one benchmark workload.

Run by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to the
package sources and the working directory set to an empty scratch folder:

    python traced.py spans  TRACE_ID OUT.json -- GENERATE_ARGV -- ESTIMATE_ARGV ...
    python traced.py memory CLI_DIR  OUT.json -- GENERATE_ARGV -- ESTIMATE_ARGV ...

``spans`` calls the package's public functions in the same order and with the
same arguments as ``cli.cmd_generate``, ``cmd_estimate``, ``cmd_evaluate`` and
``cmd_predict``, parsing each argument vector with the real CLI parser, and
writes the same output files under the same relative names, so ``run.py`` can
check that they are byte-identical to what the CLI wrote.  Every call is
wrapped in a span (name, start, end, parent, trace id); the spans stay in
memory and are written to OUT.json at the end together with the counters
read off the calls' results.

``memory`` measures the tracemalloc peak of the five calls that hold the
largest arrays, reading its inputs from the files the CLI wrote in CLI_DIR.
It runs in a process of its own because tracemalloc slows allocation-heavy
code several-fold; none of its timings are kept.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Spans of one trace, kept in memory until the run writes them out."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        rec = {
            "trace_id": self.trace_id,
            "span_id": span_id,
            "parent_id": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(span_id)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def _split_argvs(argv: list[str]) -> list[list[str]]:
    """Command argument vectors, each introduced by a ``--`` marker."""
    if not argv or argv[0] != "--":
        raise SystemExit("expected '--' before each command's arguments")
    argvs: list[list[str]] = []
    for arg in argv:
        if arg == "--":
            argvs.append([])
        else:
            argvs[-1].append(arg)
    return argvs


def run_spans(trace_id: str, out_path: str, argvs: list[list[str]]) -> None:
    tr = Tracer(trace_id)
    counters: dict = {}
    with tr.span("pipeline"):
        with tr.span("cli.import"):
            import numpy as np

            from mallowmix import cli
            from mallowmix.estimator import (
                DetectionConfig,
                detect_novel_pairs,
                estimate_ranking_matrix,
            )
            from mallowmix.evaluate import align_and_score, infer_weights, predict_loglik
            from mallowmix.generator import (
                atomic_write_text,
                generate,
                model_to_dict,
                read_corpus,
                read_model,
                write_corpus,
            )
            from mallowmix.moments import cooccurrence, split_halves
            from mallowmix.post import postprocess, write_estimated_model
        parser = cli.build_parser()

        for argv in argvs:
            command = argv[0]
            with tr.span(f"cmd.{command}"):
                args = tr.call("cli.parse_args", parser.parse_args, argv)
                if command == "generate":
                    # Mirrors cli.cmd_generate.
                    model = tr.call("cli.build_model", cli._build_model, args)
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
                    corpus, thetas = tr.call(
                        "generator.generate", generate, model, args.users, args.comparisons,
                        args.seed, threads=args.threads,
                    )
                    tr.call("generator.write_corpus", write_corpus, corpus, args.output,
                            {"seed": args.seed, "config": config})
                    with tr.span("cli.result_json"):
                        truth = model_to_dict(model, seed=args.seed)
                        truth["config"] = config
                        truth["weights"] = thetas.tolist()
                        cli._write_json(args.truth, truth)
                    counters["generator.records"] = int(corpus.n_records)
                elif command == "estimate":
                    # Mirrors cli.cmd_estimate on a corpus file.
                    K = args.components
                    corpus = tr.call("generator.read_corpus", read_corpus, args.input)
                    split = tr.call("moments.split_halves", split_halves, corpus)
                    cooc = tr.call("moments.cooccurrence", cooccurrence, split)
                    row_scale = tr.call("moments.row_scale", split.row_scale)
                    cfg = DetectionConfig(
                        n_components=K,
                        n_projections=args.projections,
                        zeta=args.zeta,
                        seed=args.seed,
                        doubled_distance_rule=args.doubled_distance_rule,
                        min_count_fraction=args.min_count_fraction,
                    )
                    novel = tr.call("estimator.detect_novel_pairs", detect_novel_pairs, cooc, cfg)
                    B_hat = tr.call(
                        "estimator.estimate_ranking_matrix", estimate_ranking_matrix,
                        cooc, row_scale, novel, epsilon=args.epsilon, threads=args.threads,
                    )
                    est = tr.call("post.postprocess", postprocess, B_hat)
                    config = {
                        "command": "estimate",
                        "items": cooc.Q,
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
                    tr.call(
                        "post.write_estimated_model", write_estimated_model, est, args.output,
                        seed=args.seed, extra_diagnostics=extra_diag, extra={"config": config},
                    )
                    E = cooc.E
                    stored = (E.data.nbytes + E.indices.nbytes + E.indptr.nbytes
                              if hasattr(E, "indptr") else E.nbytes)
                    angles = sorted(novel.solid_angles.values(), reverse=True)
                    counters.update({
                        "moments.active_rows": int(np.count_nonzero(cooc.active)),
                        "moments.cooc_stored_mb": stored / 2**20,
                        "estimator.candidate_rows": len(novel.solid_angles),
                        "estimator.projections": cfg.resolved_projections,
                        "estimator.solid_angle_margin":
                            angles[K - 1] - angles[K] if len(angles) > K else angles[K - 1],
                        "post.clamped_components": len(est.diagnostics["clamped_components"]),
                        "selected_rows": list(novel.rows),
                        "rankings": [list(r.ranking) for r in est.rankings],
                    })
                elif command == "evaluate":
                    # Mirrors cli.cmd_evaluate.
                    truth = tr.call("generator.read_model", read_model, args.truth)
                    estimate = tr.call("generator.read_model", read_model, args.input)
                    report = tr.call("evaluate.align_and_score", align_and_score, truth, estimate)
                    with tr.span("cli.result_json"):
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
                        text = json.dumps(obj, indent=1)
                        if args.output:
                            atomic_write_text(args.output, text + "\n")
                elif command == "predict":
                    # Mirrors cli.cmd_predict.  infer_weights is asked for its
                    # likelihood history, which counts the EM iterations and
                    # leaves theta unchanged.
                    model = tr.call("generator.read_model", read_model, args.model)
                    corpus = tr.call("generator.read_corpus", read_corpus, args.input)
                    if corpus.Q != model.Q:
                        raise SystemExit(f"corpus has Q={corpus.Q} but the model has Q={model.Q}")
                    B = tr.call("generator.observation_matrix", model.observation_matrix)
                    theta, history = tr.call("evaluate.infer_weights", infer_weights,
                                             corpus, B, trace=True)
                    report = tr.call("evaluate.predict_loglik", predict_loglik, corpus, theta, B)
                    with tr.span("cli.result_json"):
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
                        text = json.dumps(obj, indent=1)
                        if args.output:
                            atomic_write_text(args.output, text + "\n")
                    counters["evaluate.em_iterations"] = len(history)
                else:
                    raise SystemExit(f"no traced replay for command {command!r}")
    with open(out_path, "w") as fh:
        json.dump({"spans": tr.spans, "counters": counters}, fh)


def run_memory(cli_dir: str, out_path: str, argvs: list[list[str]]) -> None:
    from mallowmix import cli
    from mallowmix.estimator import DetectionConfig, detect_novel_pairs, estimate_ranking_matrix
    from mallowmix.evaluate import infer_weights
    from mallowmix.generator import read_corpus, read_model
    from mallowmix.moments import cooccurrence, split_halves

    peaks: dict[str, float] = {}

    def measured(name, fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peaks[f"{name}_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        return result

    parser = cli.build_parser()
    parsed = {argv[0]: parser.parse_args(argv) for argv in argvs}
    est_args = parsed["estimate"]
    corpus = measured("generator.read_corpus", read_corpus,
                      os.path.join(cli_dir, est_args.input))
    split = split_halves(corpus)
    cooc = measured("moments.cooccurrence", cooccurrence, split)
    cfg = DetectionConfig(
        n_components=est_args.components,
        n_projections=est_args.projections,
        zeta=est_args.zeta,
        seed=est_args.seed,
        doubled_distance_rule=est_args.doubled_distance_rule,
        min_count_fraction=est_args.min_count_fraction,
    )
    novel = measured("estimator.detect_novel_pairs", detect_novel_pairs, cooc, cfg)
    measured("estimator.estimate_ranking_matrix", estimate_ranking_matrix, cooc,
             split.row_scale(), novel, epsilon=est_args.epsilon, threads=est_args.threads)
    del split, cooc
    model = read_model(os.path.join(cli_dir, parsed["predict"].model))
    # Every EM iteration allocates the same arrays, so two reach the peak.
    measured("evaluate.infer_weights", infer_weights, corpus, model.observation_matrix(),
             max_iter=2)
    with open(out_path, "w") as fh:
        json.dump(peaks, fh)


def main(argv: list[str]) -> None:
    if len(argv) < 3:
        raise SystemExit(__doc__)
    mode, arg, out_path = argv[:3]
    argvs = _split_argvs(argv[3:])
    if mode == "spans":
        run_spans(arg, out_path, argvs)
    elif mode == "memory":
        run_memory(arg, out_path, argvs)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
