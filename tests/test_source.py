"""Rules the package source itself must follow."""

import ast
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
