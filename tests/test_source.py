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


_ENVIRON_WRITES = {"setdefault", "update", "pop", "popitem", "clear"}


def _process_state_writes(tree) -> list[str]:
    """Each place under ``tree`` that writes ``os.environ`` (an item
    assigned or deleted, or a mutating method called), calls ``os.putenv``
    or ``os.unsetenv``, or touches ``sys.modules`` at all."""

    def is_attr(node, owner, attr):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == owner)

    found = []
    for n in ast.walk(tree):
        if is_attr(n, "sys", "modules"):
            found.append(f"{n.lineno}: sys.modules")
        elif isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)) \
                and is_attr(n.value, "os", "environ"):
            found.append(f"{n.lineno}: os.environ[...]")
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            if n.func.attr in _ENVIRON_WRITES and is_attr(n.func.value, "os", "environ"):
                found.append(f"{n.lineno}: os.environ.{n.func.attr}")
            elif is_attr(n.func, "os", "putenv") or is_attr(n.func, "os", "unsetenv"):
                found.append(f"{n.lineno}: os.{n.func.attr}")
    return found


def test_only_the_entry_point_sets_process_wide_state():
    """The BLAS thread defaults and the absent ``_hashlib`` are the CLI's
    alone: no edulearn module but ``__main__`` writes ``os.environ`` or
    touches ``sys.modules``, so ``import edulearn.cli`` changes neither."""
    writes = {
        path.name: _process_state_writes(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC_DIR.glob("*.py"))
    }
    assert sorted(w.split(": ")[1] for w in writes.pop("__main__.py")) == [
        "os.environ.setdefault", "sys.modules",
    ]
    assert {name: found for name, found in writes.items() if found} == {}
