"""Module construction: Shapovalov spanning, tensor coproduct, decomposition.

Independent oracles: the Weyl dimension formula for dims, hand-expanded
sl2 string identities, and hand-derived coproduct matrix entries.
"""

import contextlib
import gc
import io
import weakref
from fractions import Fraction

import pytest

from qrmat import cli, uqmod
from qrmat.bases import (compute_global_basis, crystal_graph,
                         kashiwara_operators, string_chains, tensor_crystal)
from qrmat.cartan import make_cartan
from qrmat.linalg import (SparseMatrix, kron_matrix, v_add, v_eq, v_is_zero,
                          v_scale)
from qrmat.qscalar import ONE, ZERO, FieldElement, Q, q_int
from qrmat.rmatrix import based_irreducible, based_tensor, braiding
from qrmat.sysmorph import braid_operator, make_Tw0
from qrmat.uqmod import (
    InternalConsistencyError,
    Module,
    ModuleConstructionError,
    highest_weight_vectors,
    isotypic_decomposition,
    make_irreducible,
    tensor,
    verify_module,
    weight_split,
)

A1 = make_cartan("A1")
A2 = make_cartan("A2")
B2 = make_cartan("B2")
G2 = make_cartan("G2")


def weyl_dim(cd, lam) -> int:
    """Weyl dimension formula: prod over positive roots of (lam+rho,b)/(rho,b)."""
    num, den = Fraction(1), Fraction(1)
    lam_rho = tuple(Fraction(x) + 1 for x in lam)
    for beta in cd.positive_roots():
        num *= cd.bilinear(lam_rho, beta)
        den *= cd.bilinear(cd.rho, beta)
    d = num / den
    assert d.denominator == 1
    return int(d)


# -- irreducible construction ---------------------------------------------------

def test_a1_vector_rep():
    m = make_irreducible(A1, (1,))
    assert m.dim == 2
    assert m.weights == ((1,), (-1,))
    assert m.hw_index == 0
    assert m.F[0].entry(1, 0) == ONE
    assert m.E[0].entry(0, 1) == ONE


def test_a1_adjoint_string():
    m = make_irreducible(A1, (2,))
    assert m.dim == 3
    hw = m.hw_vector()
    f1 = m.F[0].apply(hw)
    f2 = m.F[0].apply(f1)
    # E F^2 (hw) = [2] [1] F(hw) by brute-force matrix product
    assert v_eq(m.E[0].apply(f2), v_scale(f1, q_int(2)))


@pytest.mark.parametrize("lam", [(1,), (2,), (3,), (4,)])
def test_sl2_divided_power_strings(lam):
    m = make_irreducible(A1, lam)
    assert m.dim == lam[0] + 1
    hw = m.hw_vector()
    for n in range(1, lam[0] + 1):
        lhs = m.E[0].apply(m.divided_power("F", 0, n).apply(hw))
        rhs = v_scale(m.divided_power("F", 0, n - 1).apply(hw),
                      q_int(lam[0] - n + 1))
        assert v_eq(lhs, rhs)  # E F^(n) hw = [lam - n + 1] F^(n-1) hw


def test_a2_fundamental():
    m = make_irreducible(A2, (1, 0))
    assert m.dim == 3
    a1 = tuple(int(x) for x in A2.alpha(0))
    a2 = tuple(int(x) for x in A2.alpha(1))
    want = {(1, 0), (1 - a1[0], 0 - a1[1]), (1 - a1[0] - a2[0], -a1[1] - a2[1])}
    assert set(m.weights) == want
    assert all(v == 1 for v in m.weight_multiplicities().values())


@pytest.mark.parametrize("cd,lam", [
    (A1, (3,)), (A2, (1, 1)), (A2, (2, 0)), (A2, (2, 2)),
    (B2, (1, 0)), (B2, (0, 1)), (B2, (1, 1)),
])
def test_dimension_matches_weyl_formula(cd, lam):
    m = make_irreducible(cd, lam)
    assert m.dim == weyl_dim(cd, lam)


def test_b2_small_reps():
    assert make_irreducible(B2, (1, 0)).dim == 5  # vector rep (node 1 long)
    assert make_irreducible(B2, (0, 1)).dim == 4  # spin rep


def test_construction_is_self_verifying():
    # verify_module runs inside make_irreducible; run it again explicitly
    # and also on a tampered module to see it actually bites
    m = make_irreducible(A2, (1, 1))
    verify_module(m)
    bad = Module(m.cartan, m.weights, m.E,
                 {0: m.F[0].scale(Q), 1: m.F[1]}, provenance="tampered")
    with pytest.raises(InternalConsistencyError):
        verify_module(bad)


@pytest.mark.parametrize("gen, i", [("E", 0), ("F", 1)])
def test_off_weight_entry_breaks_the_grading(gen, i):
    # a diagonal entry on the highest weight line commutes with every K_H
    # and makes the generator fix a vector, so it breaks K-conjugation and
    # nilpotency; the grading check, which decides both, must reject it
    m = make_irreducible(A2, (1, 1))
    acts = {"E": dict(m.E), "F": dict(m.F)}
    acts[gen][i] = acts[gen][i].add(SparseMatrix(m.dim, m.dim, {0: {0: ONE}}))
    bad = Module(m.cartan, m.weights, acts["E"], acts["F"],
                 provenance="tampered")
    with pytest.raises(InternalConsistencyError,
                       match="weight grading violated"):
        verify_module(bad)


def test_rejects_bad_inputs():
    with pytest.raises(ModuleConstructionError):
        make_irreducible(A1, (-1,))
    with pytest.raises(ModuleConstructionError):
        make_irreducible(A2, (1,))
    affine = make_cartan([[2, -2], [-2, 2]])
    with pytest.raises(ModuleConstructionError):
        make_irreducible(affine, (1, 0))  # V_lambda is not finite-dimensional


def test_irreducibles_and_tensors_are_built_once_per_owner():
    cd = make_cartan("A2")
    v = make_irreducible(cd, (1, 0))
    assert make_irreducible(cd, [1, 0]) is v
    assert make_irreducible(make_cartan("A2"), (1, 0)) is not v
    w = make_irreducible(cd, (0, 1))
    assert tensor(v, w) is tensor(v, w)
    assert tensor(w, v) is not tensor(v, w)
    # the decomposition's references are the datum's own modules
    dec = isotypic_decomposition(tensor(v, w))
    refs = {c.nu: c.ref for c in dec.components}
    assert refs == {(1, 1): make_irreducible(cd, (1, 1)),
                    (0, 0): make_irreducible(cd, (0, 0))}


def v10(cd):
    return make_irreducible(cd, (1, 0))


# every kind of object a datum or a module derives and keeps, built from a
# datum; a map keeps its inverse, a lattice frame its inverse, a based
# summand its embedding, a based module its based tensor products and
# braidings, and a crystal its pair crystals
DERIVED = {
    "irreducible": v10,
    "k_i": lambda cd: v10(cd).k_i(0, -1),
    "divided_power": lambda cd: v10(cd).divided_power("F", 1, 1),
    "weight_split": lambda cd: weight_split(tensor(v10(cd), v10(cd)), (0, 1)),
    "tensor": lambda cd: tensor(v10(cd), v10(cd)),
    "string_chains": lambda cd: string_chains(v10(cd), 0),
    "kashiwara_operators": lambda cd: kashiwara_operators(v10(cd), 1),
    "braid_operator": lambda cd: braid_operator(v10(cd), 0),
    "tw0": lambda cd: make_Tw0(v10(cd)),
    "tw0_inverse": lambda cd: make_Tw0(v10(cd)).inverse(),
    "crystal": lambda cd: crystal_graph(v10(cd)),
    "global_basis": lambda cd: compute_global_basis(v10(cd)),
    "frame_inverse":
        lambda cd: crystal_graph(v10(cd)).frames[(1, 0)]._inverse(),
    "based_irreducible": lambda cd: based_irreducible(v10(cd)),
    "summand_embedding": lambda cd: based_tensor(
        based_irreducible(v10(cd)),
        based_irreducible(v10(cd))).components[-1].embed,
    "based_tensor": lambda cd: based_tensor(based_irreducible(v10(cd)),
                                            based_irreducible(v10(cd))),
    "braiding": lambda cd: braiding(based_irreducible(v10(cd)),
                                    based_irreducible(v10(cd))),
    "tensor_crystal": lambda cd: tensor_crystal(crystal_graph(v10(cd)),
                                                crystal_graph(v10(cd))),
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_objects_are_built_once_per_owner(name):
    cd = make_cartan("A2")
    got = DERIVED[name](cd)
    assert DERIVED[name](cd) is got
    assert DERIVED[name](make_cartan("A2")) is not got


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_objects_die_with_their_datum(name):
    cd = make_cartan("A2")
    DERIVED[name](cd)
    module = weakref.ref(v10(cd))
    del cd
    gc.collect()
    assert module() is None


def kept_by(owner, getter) -> dict:
    """What owner keeps from a derived getter, by argument tuple."""
    return {key[1]: obj for key, obj in owner._derived.items()
            if key[0] is getter.__wrapped__}


def fresh_k(m: Module, i: int, power: int) -> SparseMatrix:
    d = m.cartan.d[i]
    return SparseMatrix(m.dim, m.dim, {
        idx: {idx: FieldElement.q_power(power * d * wt[i])}
        for idx, wt in enumerate(m.weights)})


def test_k_powers_are_built_once_per_module():
    m = make_irreducible(B2, (1, 1))
    for i in range(B2.n):
        for p in (-1, 1, 2):
            assert m.k_i(i, p) is m.k_i(i, p)
            assert m.k_i(i, p) == fresh_k(m, i, p)
    assert m.k_i(0, 1) is not tensor(m, m).k_i(0, 1)


def test_shared_k_powers_survive_a_verify_suite():
    # every caller reads the one memoised diagonal, so none may mutate it
    with contextlib.redirect_stdout(io.StringIO()):
        for suite in ("method-agreement", "ybe", "gamma-lemma"):
            assert cli.main(["verify", "--type", "B2", "--hw", "1,0",
                             "--hw", "0,1", "--suite", suite]) == 0
    todo = list(kept_by(cli._cartans["B2"], uqmod._irreducible).values())
    seen = []
    while todo:
        m = todo.pop()
        if all(m is not s for s in seen):
            seen.append(m)
            todo.extend(kept_by(m, tensor).values())
    memos = [(m, args, k) for m in seen
             for args, k in kept_by(m, Module.k_i).items()]
    assert len(seen) >= 4 and len(memos) >= 16
    for m, (i, p), k in memos:
        assert k == fresh_k(m, i, p)


# -- tensor products ---------------------------------------------------------------

def test_a1_tensor_square_weights():
    v = make_irreducible(A1, (1,))
    t = tensor(v, v)
    assert t.dim == 4
    assert t.weight_multiplicities() == {(2,): 1, (0,): 2, (-2,): 1}
    verify_module(t)


def test_coproduct_entries_by_hand():
    v = make_irreducible(A1, (1,))
    t = tensor(v, v)
    lo, hi = 1, 0  # b_- has index 1, b_+ has index 0; pair (a,b) -> 2a + b
    bm_bm = {2 * lo + lo: ONE}
    # Delta(E)(b_- (x) b_-) = q^{-1} b_+ (x) b_-  +  b_- (x) b_+
    got = t.E[0].apply(bm_bm)
    want = {2 * hi + lo: Q.inv(), 2 * lo + hi: ONE}
    assert got == want
    # Delta(F)(b_+ (x) b_+) = b_- (x) b_+  +  q^{-1} b_+ (x) b_-
    got_f = t.F[0].apply({0: ONE})
    assert got_f == {2 * lo + hi: ONE, 2 * hi + lo: Q.inv()}
    # K_H acts by weight addition
    kh = t.k_i(0, 1)
    assert kh.entry(0, 0) == Q * Q and kh.entry(3, 3) == (Q * Q).inv()


def _coproduct_by_hand(m, w, i):
    """Delta(E_i) and Delta(F_i) on V (x) W, column by column from the
    factors' actions and weights; pair (a, b) has index a * dim(W) + b.

      Delta(E_i)(x_a (x) y_b) = E_i x_a (x) q_i^(<H_i, wt y_b>) y_b
                                + x_a (x) E_i y_b
      Delta(F_i)(x_a (x) y_b) = F_i x_a (x) y_b
                                + q_i^(-<H_i, wt x_a>) x_a (x) F_i y_b
    """
    d, dw = m.cartan.d[i], w.dim
    e, f = {}, {}

    def put(rows, r, c, x):
        rows.setdefault(r, {})[c] = rows.get(r, {}).get(c, ZERO) + x

    for a in range(m.dim):
        for b in range(dw):
            col = a * dw + b
            k_b = FieldElement.q_power(d * w.weights[b][i])
            k_a_inv = FieldElement.q_power(-d * m.weights[a][i])
            for r, x in m.E[i].column(a).items():
                put(e, r * dw + b, col, x * k_b)
            for r, x in w.E[i].column(b).items():
                put(e, a * dw + r, col, x)
            for r, x in m.F[i].column(a).items():
                put(f, r * dw + b, col, x)
            for r, x in w.F[i].column(b).items():
                put(f, a * dw + r, col, k_a_inv * x)
    dim = m.dim * dw
    return SparseMatrix(dim, dim, e), SparseMatrix(dim, dim, f)


def _b2_nested():
    v, w = make_irreducible(B2, (1, 0)), make_irreducible(B2, (0, 1))
    return tensor(v, w), v


@pytest.mark.parametrize("factors", [
    lambda: (make_irreducible(B2, (1, 0)), make_irreducible(B2, (0, 1))),
    lambda: (make_irreducible(G2, (0, 1)), make_irreducible(G2, (1, 0))),
    _b2_nested,  # the left factor of the hexagon's s_{UV,W}
], ids=["B2", "G2", "B2-nested"])
def test_coproduct_entries_by_hand_beyond_a1(factors):
    m, w = factors()
    t = tensor(m, w)
    for i in range(m.cartan.n):
        want_e, want_f = _coproduct_by_hand(m, w, i)
        assert t.E[i] == want_e
        assert t.F[i] == want_f


@pytest.mark.parametrize("cd,left,right", [
    (B2, (1, 0), (0, 1)), (G2, (0, 1), (0, 1))], ids=["B2", "G2"])
def test_verify_module_accepts_the_opposite_coproduct(cd, left, right):
    # Delta^op = flip o Delta satisfies every relation too, so only the
    # entry-by-entry comparison above tells the two coproducts apart
    m, w = make_irreducible(cd, left), make_irreducible(cd, right)
    t = tensor(m, w)
    one_m, one_w = SparseMatrix.identity(m.dim), SparseMatrix.identity(w.dim)
    e_op = {i: kron_matrix(m.k_i(i, 1), w.E[i]).add(kron_matrix(m.E[i], one_w))
            for i in range(cd.n)}
    f_op = {i: kron_matrix(one_m, w.F[i]).add(kron_matrix(m.F[i], w.k_i(i, -1)))
            for i in range(cd.n)}
    verify_module(Module(cd, t.weights, e_op, f_op, "opposite coproduct"))
    assert all(e_op[i] != t.E[i] and f_op[i] != t.F[i] for i in range(cd.n))


def test_tensor_mismatched_cartan():
    with pytest.raises(ModuleConstructionError):
        tensor(make_irreducible(A1, (1,)), make_irreducible(A2, (1, 0)))


def test_tensor_weight_convolution():
    a = make_irreducible(A2, (1, 0))
    b = make_irreducible(A2, (1, 1))
    t = tensor(a, b)
    mult = t.weight_multiplicities()
    conv = {}
    for wa, ma in a.weight_multiplicities().items():
        for wb, mb in b.weight_multiplicities().items():
            w = tuple(x + y for x, y in zip(wa, wb))
            conv[w] = conv.get(w, 0) + ma * mb
    assert mult == conv
    verify_module(t)


# -- highest-weight solves and decomposition ------------------------------------------

def test_hw_vectors_a1_square():
    v = make_irreducible(A1, (1,))
    t = tensor(v, v)
    top = highest_weight_vectors(t, (2,))
    assert len(top) == 1 and v_eq(top[0], {0: ONE})
    sing = highest_weight_vectors(t, (0,))
    assert len(sing) == 1
    s = sing[0]
    # solution is proportional to b_-(x)b_+ + c b_+(x)b_- with c = -q
    # (hand derivation: Delta(E)(x b_+b_- + y b_-b_+) = (x + q y) b_+b_+)
    scale = s[2]  # coefficient of b_-(x)b_+
    normalized = v_scale(s, scale.inv())
    assert normalized == {2: ONE, 1: -Q}
    assert highest_weight_vectors(t, (5,)) == []


def test_hw_vector_of_irreducible_is_the_pin():
    m = make_irreducible(B2, (1, 0))
    got = highest_weight_vectors(m, (1, 0))
    assert len(got) == 1 and v_eq(got[0], m.hw_vector())


def test_isotypic_a1_square():
    v = make_irreducible(A1, (1,))
    dec = isotypic_decomposition(tensor(v, v))
    assert [(c.nu, len(c.basis)) for c in dec.components] == [((2,), 3), ((0,), 1)]
    # projection of b_+ (x) b_+ onto the top component is itself
    top = {0: ONE}
    assert v_eq(dec.project(top, 0), top)
    assert v_is_zero(dec.project(top, 1))


def test_isotypic_a2_3_otimes_3bar():
    dec = isotypic_decomposition(
        tensor(make_irreducible(A2, (1, 0)), make_irreducible(A2, (0, 1))))
    assert [(c.nu, len(c.basis)) for c in dec.components] == [((1, 1), 8), ((0, 0), 1)]


def test_isotypic_b2_spinor_square():
    v = make_irreducible(B2, (0, 1))
    dec = isotypic_decomposition(tensor(v, v))
    assert [(c.nu, len(c.basis)) for c in dec.components] == \
        [((0, 2), 10), ((1, 0), 5), ((0, 0), 1)]


def test_projections_resolve_identity():
    v = make_irreducible(A1, (1,))
    t = tensor(v, v)
    dec = isotypic_decomposition(t)
    for idx in range(t.dim):
        vec = {idx: ONE}
        back = {}
        for c in range(len(dec.components)):
            back = v_add(back, dec.project(vec, c))
        assert v_eq(back, vec)


@pytest.mark.parametrize("label,lam,mu", [("A2", (1, 1), (1, 0)),
                                          ("B2", (1, 0), (0, 1)),
                                          ("G2", (1, 0), (0, 1))])
def test_weight_split_projection_equals_isotypic_projection(label, lam, mu):
    cd = make_cartan(label)
    t = tensor(make_irreducible(cd, lam), make_irreducible(cd, mu))
    dec = isotypic_decomposition(t)
    for nu in t.weight_multiplicities():
        split = weight_split(t, nu)
        block = [k for k, c in enumerate(dec.components) if c.nu == nu]
        assert len(split.hw_vectors) == len(block)
        for idx in t.weight_space(nu):
            x = {idx: ONE}
            assert split.hw_part(x) == dec.project(x, *block)


def test_weight_split_is_built_once_per_module_and_weight():
    t = tensor(make_irreducible(A2, (1, 0)), make_irreducible(A2, (1, 0)))
    assert weight_split(t, (0, 1)) is weight_split(t, [0, 1])
