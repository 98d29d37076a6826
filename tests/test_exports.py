import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bvlsc

MODULES = sorted(m.name for m in pkgutil.iter_modules(bvlsc.__path__) if not m.ispkg)


def test_every_module_is_listed():
    assert {"meshing", "minimize", "boundary", "verdict"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # benchmarks/tracing.py wraps every name in each module's __all__; a stale
    # export would break it at install time
    mod = importlib.import_module(f"bvlsc.{name}")
    assert isinstance(mod.__all__, list)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


# -- keyword defaults that no call sets ------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _named(node, name):
    return getattr(node, "id", None) == name


def _knobs(trees):
    """{def node: (qualified name, names a call may use, positional parameters,
    defaulted parameters)} of each function, method and constructor in
    src/bvlsc with a default, catalog makers aside: catalog_get calls them as
    maker(**params)."""
    out = {}
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "bvlsc":
            continue
        makers = {n.id for node in tree.body if isinstance(node, ast.Assign)
                  and any(_named(t, "CATALOG") for t in node.targets)
                  for n in ast.walk(node.value) if isinstance(n, ast.Name)}

        def visit(body, cls):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node)
                elif isinstance(node, ast.FunctionDef):
                    if cls is not None and node.name == "__init__":
                        names = {cls.name}
                    elif node.name.startswith("__") or cls is None and node.name in makers:
                        continue
                    else:
                        names = {node.name}
                    a = node.args
                    bound = cls is not None and not any(_named(d, "staticmethod")
                                                        for d in node.decorator_list)
                    pos = [x.arg for x in a.posonlyargs + a.args][bound:]
                    dflt = pos[len(pos) - len(a.defaults):] + [
                        x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    if dflt:
                        owner = f"{cls.name}." if cls is not None else ""
                        out[node] = (f"{path.stem}.{owner}{node.name}", names, pos, dflt)
                    visit(node.body, None)

        visit(tree.body, None)
    return out


def _calls(trees):
    """(name called, call node, enclosing function node) of every call; a
    cls(...) call inside a classmethod names its class."""
    out = []

    def visit(node, fn, cls, alias):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.FunctionDef):
            fn = node
            alias = (node.args.args[0].arg if node.args.args and any(
                _named(d, "classmethod") for d in node.decorator_list) else None)
        elif isinstance(node, ast.Call):
            f = node.func
            name = cls if alias and _named(f, alias) else getattr(f, "id", getattr(f, "attr", None))
            out.append((name, node, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, cls, alias)

    for tree in trees.values():
        visit(tree, None, None, None)
    return out


def unset_defaults():
    """The defaulted parameters in src/bvlsc that no call in src, demos,
    benchmarks or tests sets by keyword, by position or through * or **.
    Calls are matched by name.  A value made from the caller's own unset
    default sets nothing, so the scan runs to a fixed point."""
    trees = {p: ast.parse(p.read_text()) for d in ("src", "demos", "benchmarks", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))}
    knobs, calls = _knobs(trees), _calls(trees)
    unset = set()
    while True:
        def sets(value, fn):
            return fn not in knobs or not any(
                (knobs[fn][0], n.id) in unset for n in ast.walk(value) if isinstance(n, ast.Name))

        given = set()
        for key, names, pos, dflt in knobs.values():
            for name, call, fn in calls:
                if name not in names:
                    continue
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        given |= {(key, p) for p in pos[i:]}
                    elif i < len(pos) and sets(arg, fn):
                        given.add((key, pos[i]))
                for kw in call.keywords:
                    if kw.arg is None:
                        given |= {(key, p) for p in dflt}
                    elif sets(kw.value, fn):
                        given.add((key, kw.arg))
        now = {(key, p) for key, _, _, dflt in knobs.values() for p in dflt} - given
        if now == unset:
            return sorted(f"{key}({p})" for key, p in unset)
        unset = now


def test_every_keyword_default_is_set_by_some_call():
    # a default no call changes is a constant: write it as one
    assert unset_defaults() == []


# -- stored attributes that nothing reads ----------------------------------------


def _stored(trees):
    """{(qualified class name, attribute)} of each attribute a class in
    src/bvlsc stores, by self.x = ... in a method or as an annotated field
    of its body (a dataclass or NamedTuple field).  Exception classes are
    left out: their attributes are payload for the callers that catch them."""
    out = set()
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "bvlsc":
            continue
        mod = importlib.import_module(f"bvlsc.{path.stem}")
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            obj = getattr(mod, cls.name, None)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            key = f"{path.stem}.{cls.name}"
            out |= {(key, n.target.id) for n in cls.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
            for node in ast.walk(cls):
                targets = node.targets if isinstance(node, ast.Assign) else []
                for t in targets:
                    for e in t.elts if isinstance(t, ast.Tuple) else [t]:
                        if isinstance(e, ast.Attribute) and _named(e.value, "self"):
                            out.add((key, e.attr))
    return out


def unread_attributes():
    """The stored attributes (see _stored) whose name src, demos, benchmarks
    and tests never read, as .x or as getattr(..., "x")."""
    trees = {p: ast.parse(p.read_text()) for d in ("src", "demos", "benchmarks", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and _named(node.func, "getattr")
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return sorted(f"{key}.{name}" for key, name in _stored(trees) if name not in read)


def test_every_stored_attribute_is_read_somewhere():
    # state that nothing reads is dead weight on every instance: drop it
    assert unread_attributes() == []
