import ast
from collections import Counter
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src" / "edulearn"


def _names(node) -> Counter:
    """Every name read, attribute taken or name imported under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_private_function_and_class_is_used():
    """A module-level private function or class of edulearn is referenced
    in edulearn outside its own definition, so no fold leaves one behind."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC_DIR.glob("*.py"))]
    used = sum(map(_names, trees), Counter())
    orphans = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == _names(node)[node.name]
    ]
    assert orphans == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    """An edulearn module imports no private name of another module and
    reads none through one it imports, so a private name's callers are all
    in its own module."""
    reads = []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
        modules = {a.asname or a.name for n in relative if n.module is None for a in n.names}
        reads += [f"{path.name}: {a.name}" for n in relative for a in n.names if _private(a.name)]
        reads += [
            f"{path.name}:{n.lineno}: {n.value.id}.{n.attr}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in modules and _private(n.attr)
        ]
    assert reads == []


def test_no_assert_statement():
    """edulearn checks with explicit raises: `python -O` strips every
    assert statement, and with it the check."""
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
