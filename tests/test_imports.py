"""Import structure of the package: no import inside a function, and no
import cycle between its modules."""

import ast
import graphlib
from pathlib import Path

import smoothmatch


def _modules():
    package = Path(smoothmatch.__file__).parent
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}


def _imported_modules(tree, names):
    """Package modules that the imports anywhere in ``tree`` bind."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module is None:
            found.update(a.name for a in node.names if a.name in names)
        elif node.level == 1:
            found.add(node.module.split(".")[0])
        elif (node.module or "").startswith("smoothmatch."):
            found.add(node.module.split(".")[1])
    return found


def test_no_function_level_imports():
    nested = []
    for name, tree in _modules().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += ["%s.%s:%d" % (name, func.name, node.lineno) for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_package_import_graph_is_acyclic():
    modules = _modules()
    graph = {name: _imported_modules(tree, modules) for name, tree in modules.items()}
    assert graph["solver"] >= {"energies", "variants", "spectral"}
    list(graphlib.TopologicalSorter(graph).static_order())   # raises CycleError
