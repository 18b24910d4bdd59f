"""Every export of the package, every public top-level definition of its
modules and every undecorated private one is read by the library or the
benchmark, not only by tests.  Registered check bodies are decorated, and
the registry reads them.

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
