"""Mechanical design rules over the package source.

Every public function and method of qrmat has a caller in the package or
in the benchmark (a name the benchmark tracer wraps by string counts), or
is a test oracle listed below with its reason; and no module keys
anything by object identity.  A method is called only when it is reached
as an attribute; a function also when its bare name is read.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qrmat")
TRACER = os.path.join(ROOT, "perfbench", "layertrace.py")

# public names that only tests call, kept as oracles or as the accessors
# the tests read exact values through
ORACLES = {
    "positive_roots": "enumerates the roots that the Weyl-group and "
                      "dominance tests compare against",
    "from_json_obj": "inverse of to_json_obj; the serialization round "
                     "trips read scalars back with it",
    "identity_spec": "the trivial morphism: its transport must be the "
                     "identity, and its flip commutor the negative control",
    "entry": "reads one matrix cell in exact module and solver tests",
    "zero": "the zero Laurent polynomial, for a zero-denominator test",
    "one": "the unit Laurent polynomial the normal-form tests compare "
           "denominators with",
    "valuation": "bottom exponent, which the random-exponent property "
                 "test bounds spans with",
}


def _trees(*dirs):
    for top in dirs:
        for base, _, files in os.walk(top):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def _public_definitions():
    """(module file, qualified name, bare name, is method) of every public
    top-level function and every public method of a top-level class."""
    out = []
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((path, node.name, node.name, False))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        out.append((path, f"{node.name}.{item.name}",
                                    item.name, True))
    return [d for d in out if not d[2].startswith("_")]


def _referenced_names():
    """(names, attributes): bare names read (Load context) or imported, and
    names reached as an attribute or named in a tracer target string.  A
    method counts as called only through the second set, so a local
    variable that shares a method's name does not count as its caller."""
    names, attrs = set(), set()
    for path, tree in _trees(PACKAGE, os.path.join(ROOT, "perfbench")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (path == TRACER and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                attrs.update(node.value.split("."))
    return names, attrs


def _uncalled():
    names, attrs = _referenced_names()
    return [(path, qual, name) for path, qual, name, method
            in _public_definitions()
            if name not in attrs and (method or name not in names)]


def test_every_public_function_has_a_caller_or_is_an_oracle():
    orphans = sorted(f"{os.path.basename(path)}:{qual}"
                     for path, qual, name in _uncalled()
                     if name not in ORACLES)
    assert orphans == []


def test_oracle_list_names_only_uncalled_definitions():
    # an oracle that gains a caller in the package leaves the list
    assert set(ORACLES) <= {name for _, _, name in _uncalled()}


def test_package_never_calls_id():
    calls = [f"{os.path.basename(path)}:{node.lineno}"
             for path, tree in _trees(PACKAGE)
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []
