"""The package keeps only what runs: every top-level def, class and constant
in ``src/excitonsim`` is reachable from ``cli.main``, or is a function that
the benchmark's traced run wraps by name (the ``SPANS`` list of
``bench/tracing.py``).  Test-only helpers belong in ``tests/reference.py``.

Reachability follows bare names and attributes of package modules imported
whole, not every ``.attr``: ``scipy.sparse.identity`` is no use of a
package-level ``identity``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "excitonsim"


def _definitions(tree) -> dict:
    """Top-level defs, classes and assigned names of a module, by name."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def _imports(tree, modules) -> tuple[dict, dict]:
    """Names a module imports from the package, local name -> (module, name),
    and the package modules it imports whole, local name -> module."""
    names, whole = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None and alias.name in modules:
                    whole[local] = alias.name
                else:
                    names[local] = (node.module or "__init__", alias.name)
    return names, whole


def _bench_roots() -> list:
    """(module, function) of each entry of ``SPANS`` in ``bench/tracing.py``."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)):
            return [(module.removeprefix("excitonsim."), attr)
                    for _span, module, attr in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no SPANS list")


def _unreachable(roots) -> list:
    """Top-level names of the package that no root reaches, as module.name."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    defs = {module: _definitions(tree) for module, tree in trees.items()}
    imports = {module: _imports(tree, trees) for module, tree in trees.items()}
    seen, todo = set(), list(roots)
    while todo:
        module, name = todo.pop()
        if (module, name) in seen:
            continue
        seen.add((module, name))
        names, whole = imports[module]
        if name not in defs[module]:
            # a name the module imports from another package module
            assert name in names, f"{module}.{name} is not defined"
            todo.append(names[name])
            continue
        for node in ast.walk(defs[module][name]):
            if isinstance(node, ast.Name) and node.id in defs[module]:
                todo.append((module, node.id))
            elif isinstance(node, ast.Name) and node.id in names:
                todo.append(names[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in whole):
                todo.append((whole[node.value.id], node.attr))
    return sorted(f"{module}.{name}" for module, found in defs.items()
                  for name in found if (module, name) not in seen)


def test_every_top_level_name_is_reachable_from_the_cli_or_the_bench_tracer():
    assert _unreachable([("cli", "main"), *_bench_roots()]) == []


# the names that only the benchmark tracer reaches: a name that drops off the
# command path must be added here, and one that leaves src/ removed
TRACER_ONLY = [
    "dynamics.exchange_unitary",
    "entanglement.ConcurrenceResult",
    "entanglement._SIGMA_YY",
    "entanglement._schmidt_matrix",
    "entanglement.concurrence_pure",
    "entanglement.concurrence_wootters",
    "hilbert.FockVector",
    "hilbert.ModeOperator",
    "hilbert.NORM_TOL",
    "hilbert.UNITARY_TOL",
    "transport.efficiency_integrated",
    "transport.efficiency_peak",
]


def test_the_tracer_only_names_are_exactly_the_listed_ones():
    assert _unreachable([("cli", "main")]) == TRACER_ONLY

