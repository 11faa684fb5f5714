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


def absolute_imports():
    """("file:line", dotted name) of each absolute import in the package;
    ``from a import b`` gives a.b."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue  # relative imports stay inside the package
            yield from ((f"{path.relative_to(PACKAGE)}:{node.lineno}", name) for name in names)


def test_imports_are_stdlib_numpy_scipy_or_the_package():
    # Runtime dependencies are numpy and scipy only.
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "mallowmix"}
    found = [f"{where}: {name}" for where, name in absolute_imports()
             if name.partition(".")[0] not in allowed]
    assert not found, f"imports outside the standard library, numpy and scipy: {found}"


def test_only_moments_imports_scipy_sparse():
    # one module owns the sparse format, and generate and predict, which
    # never import moments, stay free of scipy
    found = [f"{where}: {name}" for where, name in absolute_imports()
             if (name + ".").startswith("scipy.sparse.")]
    assert found and all(f.startswith("moments.py:") for f in found), found


SPARSE_STORAGE = {"tocsr", "tocsc", "indptr", "indices"}


def test_only_moments_touches_sparse_storage():
    # the sparse format stays behind moments' own methods, so no other
    # module depends on how the counts are stored
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}: .{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in SPARSE_STORAGE]
    assert found and all(f.startswith("moments.py:") for f in found), found


SORTS = {"sort", "argsort", "unique", "distinct_counts"}


def sort_calls(name: str) -> list[str]:
    """Calls in module ``name`` of a method or function named in SORTS."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return [f"{name}.py:{node.lineno}: .{node.func.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in SORTS]


def test_evaluate_sorts_nothing():
    # one grouping: the weight EM and the dispersion refit read only the
    # entries that pairs.user_entries groups
    assert sort_calls("pairs")  # the rule sees the grouping's own sort
    assert sort_calls("evaluate") == []


def test_only_pairs_defines_the_record_slice():
    # one slice size for every loop over records, so that patching
    # pairs._SLICE reaches them all
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "_SLICE"
                  and isinstance(node.ctx, ast.Store)]
    assert found and all(f.startswith("pairs.py:") for f in found), found


def test_importing_pairs_loads_no_scipy():
    # the split and the grouping are numpy only, so predict, which groups
    # its records with them, stays free of scipy
    code = ("import sys, mallowmix.pairs; "
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def ranking_matrix_uses() -> tuple[list[str], list[str]]:
    """("file:line") of each call in the package that constructs a
    ``RankingMatrix``, and of each ``isinstance`` check that names one."""

    def names_it(node: ast.AST) -> bool:
        return any(getattr(n, "id", getattr(n, "attr", None)) == "RankingMatrix"
                   for n in ast.walk(node))

    built, checked = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            where = f"{path.relative_to(PACKAGE)}:{node.lineno}"
            if getattr(node.func, "id", None) == "isinstance":
                if any(names_it(arg) for arg in node.args[1:]):
                    checked.append(where)
            elif names_it(node.func):
                built.append(where)
    return built, checked


def test_only_estimator_builds_a_ranking_matrix():
    # beta and B are plain (W, K) arrays, so a RankingMatrix is only the
    # estimate B-hat that regression returns and postprocess reads, and no
    # scorer takes a second input form
    built, checked = ranking_matrix_uses()
    assert built and all(where.startswith("estimator.py:") for where in built), built
    assert checked == []


def package_imports() -> dict[str, set[str]]:
    """The package modules each package module imports, counting imports
    inside functions as well as at module level."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in sorted(modules):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    targets.add(node.module.partition(".")[0])
                else:  # from . import a, b
                    targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mallowmix."):
                targets.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                targets.update(alias.name.split(".")[1] for alias in node.names
                               if alias.name.startswith("mallowmix."))
        graph[name] = targets & modules - {name}
    return graph


def test_package_import_graph_is_acyclic():
    # modules import in one direction, so none needs a deferred import to
    # break a cycle
    graph = package_imports()
    assert "post" in graph["cli"] and "evaluate" in graph["post"]  # the rule sees both forms
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(name):] + [name])}")
        if name not in done:
            for target in sorted(graph[name]):
                visit(target, path + [name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])


def write_calls(tree: ast.AST) -> list[ast.Call]:
    """Calls in ``tree`` that write a file: ``open`` or ``os.fdopen`` (or any
    ``.open``/``.fdopen``) with a mode that writes, appends or creates, or a
    mode that is not a literal; ``.tofile``; ``np.save``, ``np.savez``,
    ``np.savetxt`` and the like; ``.write_text`` and ``.write_bytes``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("open", "fdopen"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                found.append(node)
        elif name in ("tofile", "write_text", "write_bytes") or (
                isinstance(func, ast.Attribute) and name.startswith("save")
                and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            found.append(node)
    return found


def test_files_are_written_only_by_atomic_write():
    # one write path: every file the package writes goes through a
    # temporary file and a rename, so no reader sees a partial file
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "generator.py":
            atomic = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "atomic_write")
            allowed = {id(node) for node in write_calls(atomic)}
            assert len(allowed) == 1  # the rule sees atomic_write's own open
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in write_calls(tree)
                  if id(node) not in allowed]
    assert not found, f"files written outside generator.atomic_write: {found}"


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


def test_only_block_terms_gathers_outcome_tables():
    # one kernel gathers a block's outcome probabilities, so the weight
    # EM's sweeps, its re-sweep of the users that fall back and the
    # dispersion refit's Newton passes all form their terms alike
    tree = ast.parse((PACKAGE / "evaluate.py").read_text())
    found = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            found += [func.name for node in ast.walk(func)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "take" and any(kw.arg == "out" for kw in node.keywords)]
    assert found == ["_block_terms"], found
