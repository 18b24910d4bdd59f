"""Every export of the package, every public top-level definition of its
modules and every undecorated private one is read by the library or the
benchmark, not only by tests.  Registered check bodies are decorated, and
the registry reads them.  Every default is overridden by such a caller, so
no option keeps one value.

Reads are the `Name` and `Attribute` nodes of the syntax trees of
`src/becpolar/*.py` and of the benchmark's non-test modules, so a mention in
a docstring or an import statement does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "becpolar"
SOURCES = sorted(PACKAGE.glob("*.py"))
READERS = SOURCES + [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                     if not p.name.startswith("test_")]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _reads() -> set[str]:
    names: set[str] = set()
    for path in READERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _exports() -> set[str]:
    return {alias.asname or alias.name
            for node in _tree(PACKAGE / "__init__.py").body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _top_level_defs() -> list[ast.FunctionDef | ast.ClassDef]:
    return [node for path in SOURCES for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _public_defs() -> set[str]:
    return {node.name for node in _top_level_defs() if not node.name.startswith("_")}


def test_every_export_and_public_def_is_read_outside_the_tests():
    reads = _reads()
    unread = sorted(name for name in _exports() | _public_defs() if name not in reads)
    assert not unread, f"read by no code under src/ or perfbench/: {unread}"


def test_every_undecorated_private_def_is_read_outside_the_tests():
    reads = _reads()
    orphans = sorted(node.name for node in _top_level_defs()
                     if node.name.startswith("_") and not node.decorator_list
                     and node.name not in reads)
    assert not orphans, f"private helpers read by no code under src/ or perfbench/: {orphans}"


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _defaults() -> list[tuple[str, str, int | None]]:
    """(callable, parameter, position) of every parameter default of a
    top-level function or method and every dataclass-field default under
    src/becpolar/.  The position counts the arguments a call passes, so a
    method's self or cls is not counted; it is None for a keyword-only
    parameter.  A dataclass field is a parameter of its class."""
    found = []

    def params(fn: ast.FunctionDef, owner: str, method: bool) -> None:
        positional = fn.args.posonlyargs + fn.args.args
        if method and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
            positional = positional[1:]
        first = len(positional) - len(fn.args.defaults)
        found.extend((owner, arg.arg, i) for i, arg in enumerate(positional) if i >= first)
        found.extend((owner, arg.arg, None)
                     for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if default is not None)

    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                params(node, node.name, method=False)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    params(item, node.name if item.name == "__init__" else item.name, method=True)
            if _is_dataclass(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and not any(kw.arg == "init" for kw in getattr(item.value, "keywords", ()))]
                found.extend((node.name, item.target.id, i) for i, item in enumerate(fields)
                             if item.value is not None)
    return found


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the library and the benchmark by the name it calls
    through; a `cls(...)` call is filed under its class."""
    calls: dict[str, list[ast.Call]] = {}

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(owner if name == "cls" else name, []).append(child)
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)

    for path in READERS:
        visit(_tree(path), None)
    return calls


def _overrides(call: ast.Call, param: str, position: int | None) -> bool:
    return (any(kw.arg == param for kw in call.keywords)
            or position is not None and len(call.args) > position)


def test_every_default_is_overridden_outside_the_tests():
    """A default that no call in src/ or the benchmark overrides, by keyword
    or by position, is a knob with one value: a constant."""
    calls = _calls()
    fixed = sorted(f"{owner}({param})" for owner, param, position in _defaults()
                   if not any(_overrides(call, param, position) for call in calls.get(owner, ())))
    assert not fixed, f"defaults no caller under src/ or perfbench/ overrides: {fixed}"
