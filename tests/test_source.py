"""Rules the package source itself must follow."""

import ast
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
