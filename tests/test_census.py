"""Every module-level name in src/cknlab has a caller outside the tests.

A name counts as read when some code in src/, scripts/ or perfbench/ (not
perfbench/tests) refers to it outside the name's own definition: a loaded
name, an attribute, an import alias, or a string that spells it as a dotted
path (perfbench's tracer and ``getattr(verify, f"run_{suite}_suite")`` bind
names by string).  Code that only the tests read belongs in the tests.

Likewise every exception class but the base CknLabError is named by some
``except`` clause in src/ or scripts/: a class that is only raised tells a
caller nothing its message does not, so it is raised as its base instead.

And no function takes a ``ws``: where a kernel's arrays live is the scope
`grids.Workspace` enters, not an argument each kernel passes on.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import cknlab

SRC = Path(cknlab.__file__).resolve().parent
ROOT = SRC.parent.parent
CALLERS = [SRC.parent, ROOT / "scripts", ROOT / "perfbench"]
EXCLUDED = ROOT / "perfbench" / "tests"
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names(tree: ast.Module):
    """(name, node) for every module-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _references(node: ast.AST):
    """The names one node refers to."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield from node.name.split(".")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if DOTTED.fullmatch(node.value):
            yield from node.value.split(".")


def _caller_files():
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            if EXCLUDED not in path.parents:
                yield path


def _unread_names():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in _caller_files()}
    definitions = []   # (module, name, definition node)
    for path in sorted(SRC.glob("*.py")):
        for name, node in _defined_names(trees[path]):
            if not _is_dunder(name):
                definitions.append((path.stem, name, node))
    inside = {}        # id of a node -> the definitions it sits in
    for _, name, node in definitions:
        for sub in ast.walk(node):
            inside.setdefault(id(sub), set()).add(name)
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            for name in _references(node):
                if name not in inside.get(id(node), ()):
                    read.add(name)
    return sorted(f"{module}.{name}" for module, name, _ in definitions if name not in read)


def _uncaught_error_classes():
    """Classes of errors.py, bar CknLabError, that no except clause in src/ or scripts/ names."""
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    caught = set()
    for top in CALLERS[:2]:   # src/ and scripts/
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    caught.update(name for sub in ast.walk(node.type)
                                  for name in _references(sub))
    return [name for name in classes if name != "CknLabError" and name not in caught]


def test_every_src_name_is_read_outside_the_tests():
    assert _unread_names() == []


def test_every_error_class_but_the_base_is_caught_by_type():
    assert _uncaught_error_classes() == []


def test_the_census_sees_every_kind_of_reference():
    tree = ast.parse("import a.b as c\nx = y.z\nf('p.q', 'not a name')\n")
    found = {name for node in ast.walk(tree) for name in _references(node)}
    assert {"a", "b", "y", "z", "f", "p", "q"} <= found
    assert "x" not in found and "not a name" not in found


def _src_functions():
    """(qualified name, function) for every function and method defined in src/cknlab."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("cknlab" if path.stem == "__init__"
                                         else f"cknlab.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                func = inspect.unwrap(getattr(member, "__func__", member))
                if inspect.isfunction(func):
                    yield f"{module.__name__}.{func.__qualname__}", func


def test_no_src_function_takes_a_workspace_argument():
    functions = dict(_src_functions())
    assert "cknlab.grids.scratch" in functions and "cknlab.grids.Workspace.empty" in functions
    assert [name for name, func in functions.items()
            if "ws" in inspect.signature(func).parameters] == []
