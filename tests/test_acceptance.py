"""Acceptance suite: one test per published criterion.

Every check is exact (field equality over Q(q^(1/D)); no tolerances). Each
test prints a single summary line

    criterion NN PASS: <scope>

(visible under pytest -s, and on failure in the captured output) and then
asserts that no counterexamples were collected. Modules and based modules
are memoized at module scope, so the expensive criterion-1 builds warm the
caches the later criteria reuse.
"""

from qrmat.bases import (compute_global_basis, cross_validate_tensor_crystal,
                         crystal_graph, verify_global_basis)
from qrmat.cartan import make_cartan
from qrmat.linalg import SparseMatrix, inverse, v_clean, v_eq
from qrmat.rmatrix import (based_irreducible, based_tensor, check_gamma_lemma,
                           check_hexagon, check_lemma_identities,
                           check_method_agreement, check_normalization,
                           check_scaling, check_ybe)
from qrmat.sysmorph import make_Tw0, transport, tw0_spec
from qrmat.uqmod import (InternalConsistencyError, make_irreducible,
                         verify_module)

# criterion 1 fixes the module list; every other criterion draws from it
HW_SETS = {
    "A1": ((1,), (2,), (3,)),
    "A2": ((1, 0), (0, 1), (1, 1)),
    "B2": ((1, 0), (0, 1)),
}
IRREDUCIBLES = [(label, hw) for label, hws in HW_SETS.items() for hw in hws]
PAIRS = [(label, lam, mu) for label, hws in HW_SETS.items()
         for lam in hws for mu in hws]

HEXAGON_FACTORS = {"A1": ((1,), (2,)), "A2": ((1, 0), (0, 1))}
YBE_MODULES = [("A1", (1,)), ("A1", (2,)), ("A2", (1, 0)), ("B2", (0, 1))]

_cartans = {}
_modules = {}
_based = {}


def cartan_of(label):
    if label not in _cartans:
        _cartans[label] = make_cartan(label)
    return _cartans[label]


def module_of(label, hw):
    key = (label, hw)
    if key not in _modules:
        _modules[key] = make_irreducible(cartan_of(label), hw)
    return _modules[key]


def based_of(label, hw):
    key = (label, hw)
    if key not in _based:
        _based[key] = based_irreducible(module_of(label, hw))
    return _based[key]


def finish(num, problems, scope):
    status = "FAIL" if problems else "PASS"
    print(f"criterion {num:02d} {status}: {scope}", flush=True)
    assert not problems, problems


def first_bad(rep):
    return rep.counterexamples[0] if rep.counterexamples else None


def test_criterion_01_three_route_agreement():
    problems = []
    for label, lam, mu in PAIRS:
        rep = check_method_agreement(based_of(label, lam),
                                     based_of(label, mu))
        if not rep.passed:
            problems.append((label, lam, mu, first_bad(rep)))
    finish(1, problems,
           f"r_theta == r_krls == r_oracle entrywise, r_theta unchanged by "
           f"rescaled pins, on {len(PAIRS)} pairs")


def test_criterion_02_hexagon_both_equalities():
    triples = [(label, u, v, w) for label, hws in HEXAGON_FACTORS.items()
               for u in hws for v in hws for w in hws]
    problems = []
    for label, u, v, w in triples:
        rep = check_hexagon(based_of(label, u), based_of(label, v),
                            based_of(label, w))
        if not rep.passed:
            problems.append((label, u, v, w, first_bad(rep)))
    finish(2, problems,
           f"both hexagon equalities, tensor-object sides pinned, "
           f"on {len(triples)} triples")


def test_criterion_03_yang_baxter():
    problems = []
    for label, hw in YBE_MODULES:
        rep = check_ybe(based_of(label, hw))
        if not rep.passed:
            problems.append((label, hw, first_bad(rep)))
    finish(3, problems,
           f"Yang-Baxter on V^(x)3 for {len(YBE_MODULES)} modules")


def test_criterion_04_gamma_theta_identities():
    problems = []
    for label, hw in IRREDUCIBLES:
        rep = check_lemma_identities(based_of(label, hw))
        if not rep.passed:
            problems.append((label, hw, first_bad(rep)))
    for label, lam, mu in PAIRS:
        rep = check_gamma_lemma(based_of(label, lam), based_of(label, mu))
        if not rep.passed:
            problems.append((label, lam, mu, first_bad(rep)))
    finish(4, problems,
           f"Gamma/Theta/J operator identities and Theta^2 = id on "
           f"{len(IRREDUCIBLES)} modules; (Gamma x Gamma) o Gamma_VW^-1 = id "
           f"on {len(PAIRS)} pairs")


def test_criterion_05_normalization_rows():
    problems = []
    for label, lam, mu in PAIRS:
        rep = check_normalization(based_of(label, lam), based_of(label, mu))
        if not rep.passed:
            problems.append((label, lam, mu, first_bad(rep)))
    finish(5, problems,
           f"R(b_lam (x) c) = q^((lam, wt c)) b_lam (x) c for every "
           f"global-basis c on {len(PAIRS)} pairs")


def test_criterion_06_pin_scaling_independence():
    problems = []
    for label, lam, mu in PAIRS:
        rep = check_scaling(based_of(label, lam), based_of(label, mu))
        if not rep.passed:
            problems.append((label, lam, mu, first_bad(rep)))
    finish(6, problems,
           f"byte-identical r_theta under pin rescale by q, 1+q, 2-q^-1 "
           f"per side, with Theta scaling by z/bar(z), on {len(PAIRS)} pairs")


def test_criterion_07_global_basis_certification():
    problems = []
    for label, hw in IRREDUCIBLES:
        m = module_of(label, hw)
        gb = compute_global_basis(m)
        try:
            verify_global_basis(gb)
        except InternalConsistencyError as exc:
            problems.append((label, hw, str(exc)))
            continue
        cols = [gb.elements[v] for v in range(gb.crystal.size)]
        try:
            inverse(SparseMatrix.from_columns(cols, m.dim))
        except ValueError as exc:
            problems.append((label, hw, f"not a basis: {exc}"))
    for hw in HW_SETS["A1"]:
        m = module_of("A1", hw)
        gb = compute_global_basis(m)
        for k in range(m.dim):
            want = v_clean(m.divided_power("F", 0, k).apply(m.hw_vector()))
            if not v_eq(gb.elements[k], want):
                problems.append(("A1", hw, f"element {k} != F^({k}) hw"))
    finish(7, problems,
           f"bar-fixedness, basis property, residue-edge agreement on "
           f"{len(IRREDUCIBLES)} irreducibles; A1 elements equal divided "
           f"powers")


def test_criterion_08_crystal_cross_validation():
    problems = []
    for label, lam, mu in PAIRS:
        ml, mr = module_of(label, lam), module_of(label, mu)
        try:
            cross_validate_tensor_crystal(crystal_graph(ml),
                                          crystal_graph(mr))
        except InternalConsistencyError as exc:
            problems.append((label, lam, mu, "signature rule", str(exc)))
            continue
        # based_tensor compares the crystal's multiplicities with the
        # highest weight vectors at every dominant weight, and projects
        # each predicted pin to a nonzero highest weight vector
        try:
            based_tensor(based_of(label, lam), based_of(label, mu))
        except InternalConsistencyError as exc:
            problems.append((label, lam, mu, "S^nu", str(exc)))
    finish(8, problems,
           f"signature rule matches algebraic Kashiwara residues and "
           f"|S^nu| matches isotypic multiplicity on {len(PAIRS)} pairs")


def test_criterion_09_module_relations_and_tw0_routes():
    problems = []
    checked = 0
    for label, hw in IRREDUCIBLES:
        m = module_of(label, hw)
        try:
            verify_module(m)
        except InternalConsistencyError as exc:
            problems.append((label, hw, str(exc)))
            continue
        checked += 1
        braid = make_Tw0(m)
        gb = compute_global_basis(m)
        transported = transport(m, tw0_spec(), gb.elements[gb.low_vertex],
                                m.hw_vector())
        if braid.matrix != transported.matrix:
            problems.append((label, hw, "T_w0 braid != transport"))
    for label, lam, mu in PAIRS:
        big = based_tensor(based_of(label, lam), based_of(label, mu)).module
        try:
            verify_module(big)
        except InternalConsistencyError as exc:
            problems.append((label, lam, mu, str(exc)))
            continue
        checked += 1
    finish(9, problems,
           f"commutator, K-conjugation, Serre, nilpotency exact on "
           f"{checked} constructed modules; T_w0 braid-product == transport "
           f"on {len(IRREDUCIBLES)} irreducibles")


def test_criterion_10_negative_controls():
    problems = []

    rep = check_method_agreement(based_of("A1", (1,)), based_of("A1", (2,)),
                                 fault="theta-sign")
    if rep.passed or not rep.counterexamples:
        problems.append(("wrong Theta exponent sign", "not detected"))
    elif not {"lhs", "rhs"} <= set(rep.counterexamples[0]):
        problems.append(("wrong Theta exponent sign", "no concrete entry"))

    rep = check_hexagon(based_of("A1", (1,)), based_of("A1", (1,)),
                        based_of("A1", (1,)), fault="scale-block")
    if rep.passed or not rep.counterexamples:
        problems.append(("scaled isotypic block (hexagon)", "not detected"))

    rep = check_ybe(based_of("A1", (1,)), fault="scale-block")
    if rep.passed or not rep.counterexamples:
        problems.append(("scaled isotypic block (YBE)", "not detected"))

    rep = check_ybe(based_of("A1", (1,)), fault="wrong-flip")
    if rep.passed or not rep.counterexamples:
        problems.append(("wrong Flip side", "not detected"))

    finish(10, problems,
           "wrong Theta sign, scaled isotypic block, wrong Flip side all "
           "detected with concrete counterexamples")
