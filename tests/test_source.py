"""Rules the package source itself must follow."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import mallowmix

PACKAGE = Path(mallowmix.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so checks must raise explicitly.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_imports_are_stdlib_numpy_scipy_or_the_package():
    # Runtime dependencies are numpy and scipy only.
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "mallowmix"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            found += [f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert not found, f"imports outside the standard library, numpy and scipy: {found}"


SCIPY_PARTS = ("scipy.sparse", "scipy.optimize")


def scipy_parts_loaded(tmp_path, *commands: str) -> set[str]:
    """Which of SCIPY_PARTS a fresh interpreter holds after importing
    ``mallowmix.cli`` and running each command line through ``cli.main``
    in ``tmp_path``."""
    code = "\n".join([
        "import json, sys",
        "from mallowmix.cli import main",
        *(f"if main({command.split()!r}): sys.exit('failed: {command}')" for command in commands),
        f"print(json.dumps([m for m in {SCIPY_PARTS!r} if m in sys.modules]))",
    ])
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


GENERATE = ("generate --items 6 --components 2 --users 2000 --comparisons 20 --phi 0.1 "
            "--alpha 0.2 --seed 3 -o corpus.jsonl --truth truth.json")


def test_importing_the_cli_loads_no_scipy_part(tmp_path):
    assert scipy_parts_loaded(tmp_path) == set()


def test_generate_and_predict_load_no_scipy_part(tmp_path):
    assert scipy_parts_loaded(
        tmp_path, GENERATE, "predict --model truth.json -i corpus.jsonl -o p.json") == set()


def test_estimate_loads_scipy_sparse_but_not_optimize(tmp_path):
    assert scipy_parts_loaded(
        tmp_path, GENERATE, "estimate -i corpus.jsonl -o est.json --components 2") == {
            "scipy.sparse"}


def test_evaluate_loads_scipy_optimize(tmp_path):
    # scipy.optimize loads scipy.sparse itself
    assert "scipy.optimize" in scipy_parts_loaded(
        tmp_path, GENERATE, "evaluate --truth truth.json -i truth.json")
