"""Smoke test of the benchmark at toy sizes.

Every metric that BENCHMARK.json names is emitted with its unit, and the
output checks fire on deliberately corrupted result files; a command still
running at the deadline ends the run without a result.
"""

import copy
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look their module up while loading
_spec.loader.exec_module(bench)

TOY = bench.WORKLOADS["toy"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "toy", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[section])
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_every_layer_metric_names_what_it_should_move():
    assert sorted(bench.LAYER_MOVES) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.fixture(scope="module")
def toy_outputs(tmp_path_factory):
    """The untraced toy pipeline through the CLI, in a folder of its own."""
    cwd = tmp_path_factory.mktemp("toy")
    env, _, _ = bench.child_env()
    runner = bench.Runner(env, time.monotonic() + 120)
    assert runner.command(bench.model_argv(TOY), cwd, "model") is not None
    samples = bench.run_commands(runner, bench.command_argvs(TOY, 3), cwd, TOY)
    assert samples.complete and runner.failed == 0, runner.problems
    return cwd, samples.digests, env


def _rewrite(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n")


def test_checks_fire_on_corrupted_estimate(toy_outputs):
    cwd, _, _ = toy_outputs
    path = cwd / "estimate.json"
    good = json.loads(path.read_text())
    assert bench.check_estimate(path, TOY.items, TOY.components) == []

    def repeat_item(obj):
        ranking = obj["components"][0]["ranking"]
        ranking[1] = ranking[0]

    def phi_one(obj):
        obj["components"][1]["phi"] = 1.0

    def phi_negative(obj):
        obj["components"][1]["phi"] = -0.1

    def drop_component(obj):
        obj["components"].pop()

    try:
        for mutate in (repeat_item, phi_one, phi_negative, drop_component):
            obj = copy.deepcopy(good)
            mutate(obj)
            _rewrite(path, obj)
            assert bench.check_estimate(path, TOY.items, TOY.components), mutate.__name__
    finally:
        _rewrite(path, good)


def test_checks_fire_on_corrupted_prediction(toy_outputs):
    cwd, _, _ = toy_outputs
    path = cwd / "predict.json"
    good = json.loads(path.read_text())
    assert bench.check_predict(path, TOY.users, TOY.components) == []
    try:
        bad = copy.deepcopy(good)
        bad["theta"][5][0] += 1e-6
        _rewrite(path, bad)
        assert bench.check_predict(path, TOY.users, TOY.components)
        bad = copy.deepcopy(good)
        bad["avg_loglik"] = float("-inf")
        _rewrite(path, bad)
        assert bench.check_predict(path, TOY.users, TOY.components)
    finally:
        _rewrite(path, good)


def test_rerun_with_other_outputs_counts_as_failed(toy_outputs):
    cwd, digests, env = toy_outputs
    argvs = bench.command_argvs(TOY, 3)
    runner = bench.Runner(env, time.monotonic() + 120)
    assert bench.run_commands(runner, argvs, cwd, TOY, reference=digests).complete
    assert runner.failed == 0

    runner = bench.Runner(env, time.monotonic() + 120)
    tampered = dict(digests, **{"estimate.json": "0" * 64})
    samples = bench.run_commands(runner, argvs, cwd, TOY, reference=tampered)
    assert not samples.complete
    assert runner.failed == 1
    assert "estimate.json differs" in runner.problems[0]


def test_child_past_the_deadline_ends_the_run_without_a_result(tmp_path):
    env, _, _ = bench.child_env()
    runner = bench.Runner(env, time.monotonic() + 1.0)
    start = time.monotonic()
    with pytest.raises(bench.BenchError, match="deadline"):
        runner.spawn([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path, "slow")
    assert time.monotonic() - start < 30
    assert runner.failed == 0
