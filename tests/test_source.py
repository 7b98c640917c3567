"""Guards over the source of src/flagalg itself."""

import ast
import glob
import importlib
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "flagalg")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _trees(directory):
    """File name -> parsed module, for every .py file in the directory."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.py"))):
        with open(path) as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), path)
    return trees


def _referenced_names(trees):
    """Every Name and Attribute identifier in the given modules."""
    used = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    used |= {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    return used


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so every certificate in the
    # library raises instead
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert glob.glob(os.path.join(SRC, "*.py")) and not found, found


def test_every_exported_name_exists():
    # a deleted function leaves no stale entry in its module's __all__
    missing = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        module = importlib.import_module(
            "flagalg" if name == "__init__" else f"flagalg.{name}")
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert glob.glob(os.path.join(SRC, "*.py")) and not missing, missing


def test_every_private_helper_has_a_caller():
    # a module-level `def _name` that nothing in src/ refers to is left
    # over from a rewrite: delete it, or call it
    trees = _trees(SRC)
    used = _referenced_names(trees.values())
    helpers = [f"{name}:{node.name}" for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and node.name not in used]
    assert trees
    assert not helpers, helpers


def test_every_unexported_function_has_a_caller():
    # a public module-level function outside __all__ that nothing in src/
    # or perfbench/ refers to is only a test oracle: it belongs in tests/
    trees = _trees(SRC)
    used = _referenced_names([*trees.values(), *_trees(PERFBENCH).values()])
    orphans = []
    for file, tree in trees.items():
        name = os.path.splitext(file)[0]
        module = importlib.import_module(
            "flagalg" if name == "__init__" else f"flagalg.{name}")
        exported = set(getattr(module, "__all__", ()))
        orphans += [f"{name}.{node.name}" for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")
                    and node.name not in exported
                    and node.name not in used]
    assert trees and not orphans, orphans


def _import_time_parts(node):
    """The parts of a module-level statement that run on import, leaving
    out decorators, class bodies and the `__main__` guard."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.args, node.returns]
    if isinstance(node, ast.ClassDef):
        return [*node.bases, *node.keywords]
    if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) \
            and ast.unparse(node.test) == "__name__ == '__main__'":
        return []
    return [node]


def test_no_calls_at_module_level():
    # importing flagalg computes nothing: every import pays for a
    # module-level call, the benchmark's set-up time included
    trees = _trees(SRC)
    found = [f"{name}:{sub.lineno}" for name, tree in trees.items()
             for node in tree.body for part in _import_time_parts(node)
             if part is not None for sub in ast.walk(part)
             if isinstance(sub, ast.Call)]
    assert trees and not found, found
