"""The shape of the source, checked on its syntax trees and its text."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "drinfeld_deuring"
# the attributes of `fields.IndexKernel` that lay out its tables
TABLES = {"log", "exp", "m1", "zech", "half"}
# the kernel's root search: its split parts, and the full split
ROOT_SEARCH = {"root_part", "split", "distinct_roots"}
# a sha256 in hex
DIGEST = re.compile(r"\b[0-9a-fA-F]{64}\b")


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
    # the table layout and the parts of the root search are decisions of
    # `fields` alone: every other module goes through the kernel's scalar
    # operations and methods, and asks for one root or a designated root,
    # except `poly`, whose `roots_in_extension` needs every root; and no
    # module imports a name it does not use, `__init__.py` re-exports aside
    table_reads, searches, unread = [], [], []
    for path, tree in _trees():
        where = path.relative_to(ROOT)
        if path.parent == PACKAGE and path.name != "fields.py":
            table_reads += [f"{where}:{node.lineno} .{node.attr}"
                            for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)
                            and node.attr in TABLES]
        if path.parent == PACKAGE:
            searches += [(path.name, node.func.attr)
                         for node in ast.walk(tree)
                         if isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Attribute)
                         and node.func.attr in ROOT_SEARCH
                         and (path.name != "fields.py"
                              or node.func.attr == "distinct_roots")]
        if path.name != "__init__.py":
            unread += [f"{where}:{line} {name}"
                       for line, name in _unread_imports(tree)]
    assert table_reads == []
    assert searches == [("poly.py", "distinct_roots")]
    assert unread == []


def test_only_ore_takes_the_ore_image():
    # the h routes run on kappa's index lists and the supersingularity test
    # on the u-recurrence: the twisted-polynomial image of p(T) is `ore`'s
    # public API, which no other module of the package calls
    calls = []
    for path, tree in _trees():
        if path.parent != PACKAGE or path.name == "ore.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if name == "drinfeld_image":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_one_home_per_cli_golden():
    # every expected CLI digest is written once, in tests/golden_cli.py: no
    # workflow and no other test module holds one
    registry = ROOT / "tests" / "golden_cli.py"
    elsewhere = [f"{path.relative_to(ROOT)}:{n}"
                 for path in sorted([*ROOT.glob(".github/workflows/*.yml"),
                                     *ROOT.glob("tests/*.py")])
                 if path != registry
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if DIGEST.search(line)]
    assert elsewhere == []
    counts = collections.Counter(DIGEST.findall(registry.read_text()))
    assert counts and max(counts.values()) == 1


def _coeff_index_reads(tree):
    """The lines of each comprehension that iterates over a `.coeffs` and
    reads `.index`: an element list converted back to indices."""
    def attrs(node):
        return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}

    for node in ast.walk(tree):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            over = set().union(*(attrs(gen.iter) for gen in node.generators))
            if "coeffs" in over and "index" in attrs(node):
                yield node.lineno


def test_one_home_for_the_element_index_boundary():
    # a polynomial over a finite field holds its index tuple: only `poly`
    # turns its elements into indices, and every other module reads the
    # indices (`poly._indices`)
    reads = [f"{path.name}:{line}" for path, tree in _trees()
             if path.parent == PACKAGE and path.name != "poly.py"
             for line in _coeff_index_reads(tree)]
    assert reads == []
