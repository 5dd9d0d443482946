"""The shape of the source, checked on its syntax trees."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "drinfeld_deuring"
# the attributes of `fields.IndexKernel` that lay out its tables
TABLES = {"log", "exp", "m1", "zech", "half"}


def _trees():
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    for path in paths:
        yield path, ast.parse(path.read_text(), str(path))


def _unread_imports(tree):
    """(line, name) of each name an import binds and the module never
    loads; `from __future__` binds none."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_source_shape():
    # the table layout is a decision of `fields` alone: every other module
    # goes through the kernel's scalar operations and methods; and no
    # module imports a name it does not use, `__init__.py` re-exports aside
    table_reads, unread = [], []
    for path, tree in _trees():
        where = path.relative_to(ROOT)
        if path.parent == PACKAGE and path.name != "fields.py":
            table_reads += [f"{where}:{node.lineno} .{node.attr}"
                            for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)
                            and node.attr in TABLES]
        if path.name != "__init__.py":
            unread += [f"{where}:{line} {name}"
                       for line, name in _unread_imports(tree)]
    assert table_reads == []
    assert unread == []
