"""Every top-level definition and every class member in the package is used
by the package itself (reference checks and helpers that only tests call
live in tests/oracles.py), and every function reads each of its
parameters."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trtmg"


def _defined(node) -> set:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {n.id for t in node.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def _referenced(node) -> set:
    """Names a statement uses, other than the ones it defines itself."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
    return used - _defined(node)


def unused_definitions(paths) -> list:
    """Top-level names no remaining code references, removed pass by pass
    until none is left, in the order they were removed."""
    stmts = [node for p in paths for node in ast.parse(p.read_text()).body]
    removed = []
    while True:
        used = set().union(*(_referenced(s) for s in stmts))
        dead = [s for s in stmts if _defined(s) and not _defined(s) & used]
        if not dead:
            return removed
        removed += sorted(name for s in dead for name in _defined(s))
        stmts = [s for s in stmts if s not in dead]


def test_src_has_no_test_only_definitions():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths
    assert unused_definitions(paths) == []


def unused_members(paths) -> list:
    """(class, member), sorted, for every method, property and class-level
    assignment other than a dunder (a dataclass field is an annotation, not
    an assignment) that no code reads as an attribute outside the member's
    own definition."""
    trees = [ast.parse(p.read_text()) for p in paths]
    attrs = [n for t in trees for n in ast.walk(t)
             if isinstance(n, ast.Attribute)]
    found = []
    for cls in (c for t in trees for c in t.body
                if isinstance(c, ast.ClassDef)):
        for member in cls.body:
            own = {id(n) for n in ast.walk(member)}
            found += [(cls.name, name) for name in _defined(member)
                      if not (name.startswith("__") and name.endswith("__"))
                      and not any(a.attr == name and id(a) not in own
                                  for a in attrs)]
    return sorted(found)


# members only perfbench/ reads: the benchmark runs its harness as it is,
# so these stay until the harness reads something else
READ_BY_PERFBENCH = [("MaterialModel", "energy"), ("RunConfig", "grid_counts")]


def test_src_class_members_are_used():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert unused_members(paths) == READ_BY_PERFBENCH


def unread_parameters(paths) -> list:
    """(file, function, parameter) for every parameter, other than self and
    cls, that its function's body never reads."""
    found = []
    for p in paths:
        for fn in ast.walk(ast.parse(p.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [(p.name, getattr(fn, "name", "<lambda>"), name)
                      for name in params
                      if name not in ("self", "cls") and name not in read]
    return found


def test_src_functions_read_their_parameters():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert unread_parameters(paths) == []


def unused_imports(paths) -> list:
    """(file, name) for every name a module imports and never reads; a
    `from __future__` import is a compiler directive, not a name."""
    found = []
    for p in paths:
        tree = ast.parse(p.read_text())
        imported = [a.asname or a.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names]
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(p.name, name) for name in imported if name not in read]
    return found


def test_src_imports_only_what_it_uses():
    # __init__ imports its names to re-export them
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert paths
    assert unused_imports(paths) == []
