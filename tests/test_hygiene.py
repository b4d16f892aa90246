"""Mechanical design rules over the package source.

Every public function and method of qrmat has a caller in the package or
in the benchmark (a name the benchmark tracer wraps by string counts), or
is a test oracle listed below with its reason; every defaulted parameter
of a public function, method or constructor is passed by some call there,
or is listed below with its reason; every attribute a package class stores
on self is read as an attribute somewhere in the package, or is listed
below with its reason; every module-level name bound to an empty
container is process-wide state and is listed below with its reason; and
no module keys anything by object identity or holds an assert statement,
which python -O would strip from its self-checks; and no module reaches
a private attribute of a class defined in another module, so each layer
keeps what it builds in the one store its owner declares, _derived, which
nothing but the decorator uqmod.derived reads or writes, and no
get-or-build is written by hand instead.  A
method is called only when it is reached as an attribute; a function also
when its bare name is read.  The isotypic decomposition is the oracle the
tests check based_tensor against, so no package module but uqmod, which
defines it, names it; and no package module but qscalar names qscalar's
private constructors, so every scalar product and sum elsewhere goes
through the operators the benchmark counts.  A system's generator images
(e_image, f_image, k_image) are evaluated only by the one builder of a
module's compatibility-square sides, sysmorph.generator_sides, so no path
multiplies them out again.  A based irreducible is built at a pin only by
the builders that keep it on its module, based_irreducible and
_rescaled_factor, and by check_scaling's rebuild, which must be fresh.
Every name a package module imports is read in that module or listed in
its __all__, so a helper moved between modules leaves no stale import.
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
                     "identity",
    "entry": "reads one matrix cell in exact module and solver tests",
    "zero": "the zero Laurent polynomial, for a zero-denominator test",
    "one": "the unit Laurent polynomial the normal-form tests compare "
           "denominators with",
    "valuation": "bottom exponent, which the random-exponent property "
                 "test bounds spans with",
    "project": "full isotypic projector the weight-space pin split is "
               "tested against",
}

# defaulted parameters that no call in the package or the benchmark passes
OPTIONS = {
    "q_binom.d": "public scalar API; mirrors the d of q_int and q_factorial",
}

# attributes a package class stores on self that the package never reads
STORED = {
    "GlobalBasis.monomial_words": "tests read it",
}

# module-level names bound to an empty container: state that lives as long
# as the process
PROCESS_STATE = {
    "qscalar._quotients": "memo of the GCD-cancelling products and sums, "
                          "keyed by the operands' normal forms; at most "
                          "_MEMO_CAP = 512 entries, least recently used "
                          "evicted",
    "sysmorph._braid_certified": "Cartan matrices whose braid action is "
                                 "certified; one entry per matrix",
    "bases._signature_certified": "Cartan matrices whose signature rule is "
                                  "certified; one entry per matrix",
    "cli._cartans": "one Cartan datum per type label; it owns the modules "
                    "built on it",
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


def _defaulted_parameters():
    """(qualified name, called name, via attribute only, parameter, index)
    of every defaulted parameter of a public top-level function, public
    method or constructor of a public class; index is the positional slot
    a call fills, or None for a keyword-only parameter."""
    out = []

    def params(qual, called, method_only, fn, skip):
        a = fn.args
        pos = a.posonlyargs + a.args
        for k, arg in enumerate(pos[len(pos) - len(a.defaults):],
                                len(pos) - len(a.defaults)):
            out.append((qual, called, method_only, arg.arg, k - skip))
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                out.append((qual, called, method_only, arg.arg, None))

    for _, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                params(node.name, node.name, False, node, 0)
            elif isinstance(node, ast.ClassDef) \
                    and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    qual = f"{node.name}.{item.name}"
                    if item.name in ("__init__", "__new__"):
                        params(qual, node.name, False, item, 1)
                    elif not item.name.startswith("_"):
                        params(qual, item.name, True, item,
                               0 if static else 1)
    return out


def _unpassed_options():
    """"<qualified name>.<parameter>" of each defaulted parameter that no
    call fills; a call with *args or **kwargs fills every slot."""
    calls = []  # (called name, via attribute, positional count, keywords)
    for _, tree in _trees(PACKAGE, os.path.join(ROOT, "perfbench")):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name, attr = node.func.id, False
            elif isinstance(node.func, ast.Attribute):
                name, attr = node.func.attr, True
            else:
                continue
            starred = any(isinstance(x, ast.Starred) for x in node.args)
            kws = {k.arg for k in node.keywords}
            calls.append((name, attr,
                          float("inf") if starred else len(node.args),
                          None if None in kws else kws))
    return sorted({f"{qual}.{param}"
                   for qual, called, method_only, param, slot
                   in _defaulted_parameters()
                   if not any(name == called and (attr or not method_only)
                              and ((slot is not None and npos > slot)
                                   or kws is None or param in kws)
                              for name, attr, npos, kws in calls)})


def test_every_option_is_passed_by_a_caller_or_listed():
    assert [o for o in _unpassed_options() if o not in OPTIONS] == []


def test_option_list_names_only_unpassed_parameters():
    # a listed option that gains a caller leaves the list
    assert set(OPTIONS) <= set(_unpassed_options())


def test_package_never_calls_id():
    calls = [f"{os.path.basename(path)}:{node.lineno}"
             for path, tree in _trees(PACKAGE)
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "id"]
    assert calls == []


def test_package_has_no_assert_statement():
    # python -O strips asserts, so a self-check must raise explicitly
    found = [f"{os.path.basename(path)}:{node.lineno}"
             for path, tree in _trees(PACKAGE)
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_uqmod_names_the_isotypic_oracle():
    naming = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "uqmod.py":
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                if "isotypic_decomposition" in fh.read():
                    naming.append(name)
    assert naming == []


QSCALAR_PRIVATE = {"_raw", "_alloc", "_field_raw", "_make", "_stretch"}


def test_only_qscalar_names_its_raw_constructors():
    # scalars made outside qscalar go through the counted operators
    naming = sorted(
        f"{os.path.basename(path)}:{node.lineno}"
        for path, tree in _trees(PACKAGE)
        if os.path.basename(path) != "qscalar.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in QSCALAR_PRIVATE)
        or (isinstance(node, ast.Attribute) and node.attr in QSCALAR_PRIVATE)
        or (isinstance(node, ast.alias)
            and node.name.rpartition(".")[2] in QSCALAR_PRIVATE))
    assert naming == []


def _unread_attributes():
    """"<class>.<attribute>" of each attribute that a package class assigns
    on self and that no attribute read in the package names; an augmented
    assignment reads its target."""
    stored, read = set(), set()
    for _, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.AugAssign) \
                    and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    targets = [stmt.target]
                else:
                    continue
                stored.update(
                    (node.name, t.attr) for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self")
    return sorted(f"{cls}.{attr}" for cls, attr in stored
                  if attr not in read)


def test_every_stored_attribute_is_read_or_listed():
    assert [a for a in _unread_attributes() if a not in STORED] == []


def test_stored_list_names_only_unread_attributes():
    # a listed attribute that gains a reader in the package leaves the list
    assert set(STORED) <= set(_unread_attributes())


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set")
            and not node.args and not node.keywords)


def _process_state():
    """"<module>.<name>" of each module-level name in the package bound to
    an empty {}, [], dict(), list() or set()."""
    out = set()
    for path, tree in _trees(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_empty_container(node.value):
                out.update(f"{module}.{t.id}" for t in targets
                           if isinstance(t, ast.Name))
    return out


def test_process_wide_state_is_listed():
    assert sorted(_process_state() - set(PROCESS_STATE)) == []


def test_process_state_list_names_only_module_containers():
    # a listed name that leaves module level leaves the list
    assert set(PROCESS_STATE) <= _process_state()


def _own_private_names(tree):
    """Attributes that a class of this module defines or assigns on self."""
    own = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own.add(item.name)
            elif isinstance(item, ast.Assign):
                own.update(t.id for t in item.targets
                           if isinstance(t, ast.Name))
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                own.add(item.target.id)
        own.update(node.attr for node in ast.walk(cls)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in ("self", "cls"))
    return own


def test_no_module_reaches_another_modules_private_attributes():
    # _derived is the store every owner declares and uqmod.derived fills
    foreign = []
    for path, tree in _trees(PACKAGE):
        own = _own_private_names(tree)
        foreign.extend(
            f"{os.path.basename(path)}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and node.attr != "_derived" and node.attr not in own
            and not (isinstance(node.value, ast.Name)
                     and node.value.id in ("self", "cls")))
    assert foreign == []


def _store_touches():
    """"<file>:<line>" of each read or write of an attribute _derived
    outside uqmod.derived, but for an owner's declaration of its store,
    self._derived = {}."""
    out = []
    for path, tree in _trees(PACKAGE):
        name = os.path.basename(path)
        allowed = set()
        for node in ast.walk(tree):
            if name == "uqmod.py" and isinstance(node, ast.FunctionDef) \
                    and node.name == "derived":
                allowed.update(n for n in ast.walk(node)
                               if isinstance(n, ast.Attribute))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and node.value is not None \
                    and _is_empty_container(node.value):
                targets = getattr(node, "targets", None) or [node.target]
                allowed.update(t for t in targets
                               if isinstance(t, ast.Attribute)
                               and isinstance(t.value, ast.Name)
                               and t.value.id == "self")
        out.extend(f"{name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "_derived" and node not in allowed)
    return out


def test_only_uqmod_derived_reads_or_writes_an_owners_store():
    # an owner declares its store; what goes in and comes out passes
    # through the one decorator, so no object has a second cache path
    assert _store_touches() == []


def _hand_caches():
    """"<class>.<attribute>" of each get-or-build written by hand: an
    underscore attribute that one function reads with .get( or compares
    with None, and assigns or item-assigns; the class is the one that
    assigns the attribute on self.  uqmod.derived, the one sanctioned
    get-or-build, is left out."""
    owner, found = {}, set()
    for path, tree in _trees(PACKAGE):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update((node.attr, cls.name) for node in ast.walk(cls)
                             if isinstance(node, ast.Attribute)
                             and isinstance(node.ctx, ast.Store)
                             and isinstance(node.value, ast.Name)
                             and node.value.id == "self")
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or (
                    os.path.basename(path) == "uqmod.py"
                    and fn.name == "derived"):
                continue
            read, written = set(), set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "get" \
                        and isinstance(node.func.value, ast.Attribute):
                    read.add(node.func.value.attr)
                elif isinstance(node, ast.Compare) \
                        and isinstance(node.left, ast.Attribute) \
                        and any(isinstance(c, ast.Constant) and c.value is None
                                for c in node.comparators):
                    read.add(node.left.attr)
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Store):
                    written.add(node.attr)
                elif isinstance(node, ast.Subscript) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Attribute):
                    written.add(node.value.attr)
            found.update(attr for attr in read & written
                         if attr.startswith("_") and not attr.startswith("__"))
    return {f"{owner.get(attr, '?')}.{attr}" for attr in found}


def test_no_cache_is_written_by_hand():
    # every get-or-build goes through uqmod.derived
    assert _hand_caches() == set()


IMAGE_FNS = {"e_image", "f_image", "k_image"}


def _call_sites(names):
    """(file, innermost enclosing function) of each call in the package of
    a function or method with one of these names."""
    sites = []

    def visit(node, path, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in names
                or isinstance(node.func, ast.Name) and node.func.id in names):
            sites.append((os.path.basename(path), fn))
        for child in ast.iter_child_nodes(node):
            visit(child, path, fn)

    for path, tree in _trees(PACKAGE):
        visit(tree, path, None)
    return sites


def test_generator_images_are_evaluated_only_by_the_sides_builder():
    sites = _call_sites(IMAGE_FNS)
    builders = {(name, fn) for name, fn in sites}
    assert len(sites) == len(IMAGE_FNS) and len(builders) == 1
    (name, fn), = builders
    assert (name, fn.name) == ("sysmorph.py", "generator_sides")
    assert any(isinstance(d, ast.Name) and d.id == "derived"
               for d in fn.decorator_list)


def test_based_factors_are_built_only_by_their_owners_and_the_rebuild():
    # a based irreducible and each rescaled factor are kept on the module;
    # check_scaling's rebuild is fresh on purpose, so no other throwaway
    # based factor, with its Theta transported anew, can appear
    sites = _call_sites({"_based_at"})
    assert sorted((name, fn.name) for name, fn in sites) == [
        ("rmatrix.py", "_rescaled_factor"), ("rmatrix.py", "based_irreducible"),
        ("rmatrix.py", "check_scaling"), ("rmatrix.py", "check_scaling")]


def _unread_imports():
    """"<file>: <name>" of each name a package module imports, from
    __future__ aside, that the module neither reads nor lists in its
    __all__."""
    out = []
    for path, tree in _trees(PACKAGE):
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(a.asname or a.name.partition(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                read.update(e.value for e in ast.walk(node.value)
                            if isinstance(e, ast.Constant))
        out.extend(f"{os.path.basename(path)}: {name}"
                   for name in sorted(imported - read))
    return out


def test_every_imported_name_is_read_or_exported():
    assert _unread_imports() == []
