"""R-matrices three ways, tensor pinning, the braiding, and the checkers."""

import gc
import json
import os
import weakref
from fractions import Fraction

import pytest

from qrmat import bases, rmatrix, uqmod
from qrmat.cartan import make_cartan
from qrmat.linalg import (SparseMatrix, flip_matrix, inverse, kron_matrix,
                          kron_vec, v_clean, v_eq)
from qrmat.qscalar import ONE, FieldElement
from qrmat.rmatrix import (RMatrixResult, based_irreducible,
                           based_tensor, braiding,
                           check_double_braiding, check_gamma_lemma,
                           check_hexagon, check_lemma_identities,
                           check_method_agreement, check_normalization,
                           check_scaling, check_ybe, system_on,
                           r_krls, r_matrix, r_oracle, r_theta,
                           scale_isotypic_block, _unique_solution)
from qrmat.sysmorph import (calibrate_braid_variant, gamma_spec, make_J,
                            make_Tw0, theta_spec, transport, tw0_spec)
from qrmat.uqmod import InternalConsistencyError, make_irreducible, tensor

A1 = make_cartan("A1")
A2 = make_cartan("A2")
B2 = make_cartan("B2")
G2 = make_cartan("G2")

CARTANS = {"A1": A1, "A2": A2, "B2": B2, "G2": G2}
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

_memo = {}


def based_of(label, hw):
    key = (label, hw)
    if key not in _memo:
        _memo[key] = based_irreducible(make_irreducible(CARTANS[label], hw))
    return _memo[key]


def qp(e, c=1):
    return FieldElement.q_power(Fraction(e), c)


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def golden_bytes(name):
    with open(os.path.join(GOLDEN_DIR, name)) as f:
        return f.read()


# -- tensor pinning -----------------------------------------------------------


def test_a1_square_top_pin_is_hw_tensor_hw():
    bt = based_tensor(based_of("A1", (1,)), based_of("A1", (1,)))
    by_nu = {c.nu: c for c in bt.components}
    assert set(by_nu) == {(2,), (0,)}
    assert by_nu[(2,)].hw_vec == {0: ONE}


def test_a1_square_zero_weight_pin_ratio_is_minus_qinv():
    bt = based_tensor(based_of("A1", (1,)), based_of("A1", (1,)))
    pin = next(c.hw_vec for c in bt.components if c.nu == (0,))
    assert set(pin) == {1, 2}
    assert pin[2] / pin[1] == qp(-1, -1)


def test_a1_square_pins_match_golden():
    bt = based_tensor(based_of("A1", (1,)), based_of("A1", (1,)))
    pins = {}
    for c in bt.components:
        key = ",".join(str(x) for x in c.nu)
        pins[key] = [[t, c.hw_vec[t].to_json_obj()] for t in sorted(c.hw_vec)]
    assert canonical(pins) == golden_bytes("a1_omega_omega_pins.json")


def test_a2_fundamental_square_has_two_pins():
    bt = based_tensor(based_of("A2", (1, 0)), based_of("A2", (1, 0)))
    assert sorted(c.nu for c in bt.components) == [(0, 1), (2, 0)]


def test_pins_are_highest_weight_and_embeddings_intertwine():
    bt = based_tensor(based_of("B2", (1, 0)), based_of("B2", (0, 1)))
    assert sorted(c.nu for c in bt.components) == [(0, 1), (1, 1)]
    for c in bt.components:
        for i in range(bt.module.cartan.n):
            assert v_clean(bt.module.E[i].apply(c.hw_vec)) == {}
        phi = c.embed
        assert phi.column(0) == c.hw_vec


def test_summand_global_bases_are_built_on_first_read(monkeypatch):
    # r_theta reads the right factor's basis, for the tensor pins, and
    # only the summand pins of the tensor product; the lemma identities
    # read every summand's basis (the Theta eigenvalue rows)
    cd = make_cartan("B2")
    built = []
    real = rmatrix.compute_global_basis
    monkeypatch.setattr(rmatrix, "compute_global_basis",
                        lambda m: built.append(m) or real(m))
    bl = based_irreducible(make_irreducible(cd, (1, 0)))
    br = based_irreducible(make_irreducible(cd, (0, 1)))
    r_theta(bl, br)
    assert built == [br.module]
    bt = based_tensor(bl, br)
    assert check_lemma_identities(bt).passed
    assert built == [br.module] + [c.ref for c in bt.components]


def test_equal_factors_share_one_based_module_and_theta(monkeypatch):
    # one based module per module, so r_theta(b, b) transports Theta on
    # it once and once on the tensor product
    calls = []

    def counting(*args):
        calls.append(args[0])
        return transport(*args)

    monkeypatch.setattr(rmatrix, "transport", counting)
    m = make_irreducible(make_cartan("A2"), (1, 0))
    assert based_irreducible(m) is based_irreducible(m)
    r_theta(based_irreducible(m), based_irreducible(m))
    assert calls == [m, tensor(m, m)]


@pytest.mark.parametrize("label,hw", [
    ("A1", (1,)), ("A1", (2,)), ("A2", (1, 0)), ("A2", (0, 1)),
    ("A2", (1, 1)), ("B2", (1, 0)), ("B2", (0, 1)), ("G2", (0, 1)),
    ("G2", (1, 0))])
def test_factor_embedding_is_the_pin_scale_times_the_identity(label, hw):
    m = make_irreducible(CARTANS[label], hw)
    comp, = based_irreducible(m).components
    assert comp.embed == SparseMatrix.identity(m.dim)
    for z in rmatrix.RESCALE_COEFFS:
        comp, = rmatrix._rescaled_factor(m, z).components
        assert comp.embed == SparseMatrix.identity(m.dim).scale(z)


def test_based_tensor_is_cached_per_factor_pair():
    bl, br = based_of("A1", (1,)), based_of("A1", (2,))
    assert based_tensor(bl, br) is based_tensor(bl, br)


def test_based_tensor_and_braiding_die_with_their_factors():
    # check_scaling's rebuild pair: two fresh factors on one module, which
    # are tensored only with each other
    m = make_irreducible(A1, (1,))
    bl = rmatrix._based_at(m, m.hw_vector())
    br = rmatrix._based_at(m, m.hw_vector())
    bt = weakref.ref(based_tensor(bl, br))
    sigma = braiding(bl, br)
    assert braiding(bl, br) is sigma
    assert based_tensor(bl, br) is bt()
    del sigma
    gc.disable()
    try:
        # both are kept on the left factor, keyed by the right one, so
        # reference counting alone frees them with the pair
        del bl, br
        assert bt() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("label,lam,mu", [
    ("A2", (1, 0), (2, 0)),   # V(3,0) + V(1,1)
    ("B2", (1, 0), (1, 0)),   # V(2,0) + V(0,2) + V(0,0)
])
def test_each_irreducible_is_built_once_per_datum(label, lam, mu,
                                                  monkeypatch):
    built = []
    real = uqmod.verify_module
    monkeypatch.setattr(uqmod, "verify_module",
                        lambda m: built.append(m) or real(m))
    cd = make_cartan(label)
    bl = based_irreducible(make_irreducible(cd, lam))
    br = based_irreducible(make_irreducible(cd, mu))
    for method in ("theta", "krls", "oracle"):
        r_matrix(bl, br, method)
    # the routes build the factors only: no route reads a summand's V_nu
    assert built == list(dict.fromkeys([bl.module, br.module]))
    summands = based_tensor(bl, br).components
    refs = [c.ref for c in summands]
    assert [c.ref for c in summands] == refs
    assert all(c.ref is make_irreducible(cd, c.nu) for c in summands)
    assert len(built) == len(set(built)) == \
        len({lam, mu} | {c.nu for c in summands})


def test_based_tensor_rejects_a_split_missing_a_highest_weight_vector(
        monkeypatch):
    # A2 V(1,0) (x) V(1,0) = V(2,0) + V(0,1); lose the (0,1) pin's vector
    cd = make_cartan("A2")
    bl = based_irreducible(make_irreducible(cd, (1, 0)))
    real = uqmod.highest_weight_vectors
    monkeypatch.setattr(
        uqmod, "highest_weight_vectors",
        lambda m, nu: real(m, nu)[1:] if tuple(nu) == (0, 1)
        else real(m, nu))
    with pytest.raises(InternalConsistencyError, match="do not add up"):
        based_tensor(bl, bl)


# -- the three constructions --------------------------------------------------


def test_r_oracle_a1_square_matches_golden():
    ro = r_oracle(based_of("A1", (1,)), based_of("A1", (1,)))
    assert ro.serialize() + "\n" == golden_bytes("a1_omega_omega_r.json")


def test_r_a1_square_diagonal_and_single_off_diagonal():
    ro = r_oracle(based_of("A1", (1,)), based_of("A1", (1,)))
    entries = {(r, c): x for r, c, x in ro.matrix.to_triplets()}
    assert entries[(0, 0)] == qp("1/2")
    assert entries[(1, 1)] == qp("-1/2")
    assert entries[(2, 2)] == qp("-1/2")
    assert entries[(3, 3)] == qp("1/2")
    off = {k: v for k, v in entries.items() if k[0] != k[1]}
    assert off == {(1, 2): qp("1/2") - qp("-3/2")}


@pytest.mark.parametrize("label,lam,mu", [
    ("A1", (1,), (1,)),
    ("A1", (1,), (2,)),
    ("A1", (2,), (1,)),
    ("A1", (3,), (2,)),
    ("A2", (1, 0), (0, 1)),
    ("B2", (0, 1), (0, 1)),
    ("G2", (0, 1), (0, 1)),
    ("G2", (1, 0), (0, 1)),
])
def test_three_methods_agree_entrywise(label, lam, mu):
    bl, br = based_of(label, lam), based_of(label, mu)
    rt = r_theta(bl, br)
    assert rt.matrix == r_krls(bl, br).matrix
    assert rt.matrix == r_oracle(bl, br).matrix


def test_g2_adjoint_square_oracle_matches_krls():
    # 602 unknowns in one sparse solve
    b = based_of("G2", (1, 0))
    assert r_krls(b, b).matrix == r_oracle(b, b).matrix


def test_r_matrix_dispatch_and_unknown_method():
    bl = based_of("A1", (1,))
    assert r_matrix(bl, bl, "oracle").method == "oracle"
    with pytest.raises(ValueError):
        r_matrix(bl, bl, "pbw")


def test_result_rejects_weight_grading_violation():
    bl = based_of("A1", (1,))
    bad = SparseMatrix.identity(4).add(
        SparseMatrix(4, 4, {0: {1: ONE}}))
    with pytest.raises(InternalConsistencyError):
        RMatrixResult(bad, "theta", bl, bl)


def test_serialization_is_deterministic_across_rebuilds():
    bl, br = based_of("A1", (1,)), based_of("A1", (2,))
    base = r_theta(bl, br).serialize()
    a1 = make_cartan("A1")  # a fresh datum builds its modules afresh
    fresh = r_theta(based_irreducible(make_irreducible(a1, (1,))),
                    based_irreducible(make_irreducible(a1, (2,)))).serialize()
    assert fresh == base


# -- normalization and the krls pieces ----------------------------------------


def test_krls_prefactor_exponent_on_a1_is_half():
    assert A1.bilinear((1,), (1,)) == Fraction(1, 2)
    ro = r_krls(based_of("A1", (1,)), based_of("A1", (1,)))
    assert ro.matrix.rows[0][0] == qp("1/2")


@pytest.mark.parametrize("label,lam,mu", [
    ("A1", (1,), (1,)),
    ("A1", (2,), (1,)),
    ("A2", (1, 0), (0, 1)),
])
def test_r_scales_hw_tensor_basis_rows(label, lam, mu):
    bl, br = based_of(label, lam), based_of(label, mu)
    rep = check_normalization(bl, br)
    assert rep.passed, rep.counterexamples


def test_normalization_reports_at_most_three_counterexamples(monkeypatch):
    v2 = based_of("A1", (2,))
    br = based_tensor(v2, v2)  # V(4) + V(2) + V(0)
    monkeypatch.setattr(rmatrix, "r_theta", lambda bl, br: RMatrixResult(
        SparseMatrix.identity(bl.module.dim * br.module.dim).scale(qp(7)),
        "theta", bl, br))
    # every row fails, in each of the three summands of the right factor
    assert len(check_normalization(v2, br).counterexamples) == 3


def test_normalization_wants_irreducible_left_factor():
    bt = based_tensor(based_of("A1", (1,)), based_of("A1", (1,)))
    with pytest.raises(ValueError):
        check_normalization(bt, based_of("A1", (1,)))


def test_braid_product_conjugate_fixes_hw_tensor_every_basis_vector():
    # the pin-free product (T^-1 (x) T^-1) Delta(T) alone, no prefactor
    bl, br = based_of("A1", (2,)), based_of("A1", (1,))
    big = tensor(bl.module, br.module)
    prod = kron_matrix(inverse(make_Tw0(bl.module).matrix),
                       inverse(make_Tw0(br.module).matrix)) \
        @ make_Tw0(big).matrix
    hw = bl.components[0].hw_vec
    for b in range(br.module.dim):
        x = kron_vec(hw, {b: ONE}, br.module.dim)
        assert v_eq(v_clean(prod.apply(x)), x)


def test_jtw0_conjugate_equals_r_theta():
    # X = J T_w0 is pin-free; (X^-1 (x) X^-1) Delta(X) is the same R
    bl, br = based_of("A2", (1, 0)), based_of("A2", (0, 1))
    big = tensor(bl.module, br.module)

    def x_of(m):
        return make_J(m).compose(make_Tw0(m))

    mat = kron_matrix(x_of(bl.module).inverse().matrix,
                      x_of(br.module).inverse().matrix) @ x_of(big).matrix
    assert mat == r_theta(bl, br).matrix


# -- the braiding -------------------------------------------------------------


def test_theta_commutor_is_flip_after_r_theta():
    bl, br = based_of("A1", (1,)), based_of("A1", (2,))
    want = flip_matrix(bl.module.dim, br.module.dim) @ r_theta(bl, br).matrix
    assert braiding(bl, br) == want
    assert braiding(bl, br) is braiding(bl, br)


def test_identity_system_flip_fails_to_intertwine(monkeypatch):
    # with r_theta replaced by the identity the braiding is the bare Flip,
    # the commutor of the identity system, which fails to intertwine on
    # generic pairs; factors on a fresh datum keep a kept braiding from
    # answering
    a1 = make_cartan("A1")
    bl = based_irreducible(make_irreducible(a1, (1,)))
    br = based_irreducible(make_irreducible(a1, (2,)))
    monkeypatch.setattr(rmatrix, "r_theta", lambda left, right: RMatrixResult(
        SparseMatrix.identity(left.module.dim * right.module.dim),
        "identity", left, right))
    with pytest.raises(InternalConsistencyError):
        braiding(bl, br)


@pytest.mark.parametrize("label,lam,mu", [
    ("A1", (1,), (2,)),
    ("A2", (1, 0), (0, 1)),
    ("A2", (1, 0), (1, 1)),
    ("B2", (1, 0), (0, 1)),
])
def test_flip_after_r_oracle_intertwines(label, lam, mu):
    # r_oracle returns its solution unchecked; the solve decides this
    bl, br = based_of(label, lam), based_of(label, mu)
    sigma = flip_matrix(bl.module.dim, br.module.dim) \
        @ r_oracle(bl, br).matrix
    assert rmatrix._intertwiner_failures(
        sigma, tensor(bl.module, br.module),
        tensor(br.module, bl.module)) == []


@pytest.mark.parametrize("limit", [3, 50])
def test_intertwiner_k_decision_matches_the_products(limit):
    # a cell joining two weight spaces breaks the K squares; the diagonal
    # decision must report exactly what the multiplied-out squares do
    m = make_irreducible(A2, (1, 1))
    r, c = next((r, c) for r in range(m.dim) for c in range(m.dim)
                if m.weights[r] != m.weights[c])
    rows = {i: {i: ONE} for i in range(m.dim)}
    rows[r][c] = FieldElement.q_power(1)
    mat = SparseMatrix(m.dim, m.dim, rows)
    want = []
    for i in range(m.cartan.n):
        for label, x in ((f"E_{i + 1}", m.E[i]), (f"F_{i + 1}", m.F[i]),
                         (f"K_{i + 1}", m.k_i(i, 1))):
            want += rmatrix._matrix_counterexamples(
                f"intertwiner {label}", mat @ x, x @ mat, limit)
    got = rmatrix._intertwiner_failures(mat, m, m, limit)
    assert got == want[:limit]
    assert any(ce["check"].startswith("intertwiner K_") for ce in got)


# -- systems on based modules -------------------------------------------------


def test_system_on_transports_once_and_keeps_the_map(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1].name)
        return transport(*args)

    monkeypatch.setattr(rmatrix, "transport", counting)
    bm = based_irreducible(make_irreducible(make_cartan("A1"), (2,)))
    first = system_on(bm, theta_spec())
    assert system_on(bm, theta_spec()) is first
    assert calls == ["theta"]
    assert system_on(bm, gamma_spec()) is not first
    assert calls == ["theta", "gamma"]


def test_wrong_sign_theta_is_kept_apart_from_the_honest_one():
    bm = based_irreducible(make_irreducible(A1, (1,)))
    honest = system_on(bm, theta_spec())
    wrong = system_on(bm, theta_spec(wrong_sign=True))
    assert wrong is not honest and wrong != honest
    assert (honest.provenance, wrong.provenance) == ("theta",
                                                     "theta-wrong-sign")
    assert system_on(bm, theta_spec()) is honest


# -- checkers: pass cases -----------------------------------------------------


@pytest.mark.parametrize("triple", [
    (("A1", (1,)), ("A1", (1,)), ("A1", (1,))),
    (("A1", (1,)), ("A1", (2,)), ("A1", (1,))),
    (("A2", (1, 0)), ("A2", (1, 0)), ("A2", (0, 1))),
])
def test_hexagon_both_equalities(triple):
    bu, bv, bw = (based_of(*t) for t in triple)
    rep = check_hexagon(bu, bv, bw)
    assert rep.passed, rep.counterexamples


def test_tensor_bracketings_share_action_matrices():
    u = based_of("A1", (1,)).module
    v = based_of("A1", (2,)).module
    left = tensor(tensor(u, v), u)
    right = tensor(u, tensor(v, u))
    for i in range(u.cartan.n):
        assert left.E[i] == right.E[i]
        assert left.F[i] == right.F[i]
    assert left.weights == right.weights


@pytest.mark.parametrize("label,hw", [
    ("A1", (1,)), ("A1", (2,)), ("A2", (1, 0)), ("B2", (0, 1))])
def test_ybe_braid_relation(label, hw):
    rep = check_ybe(based_of(label, hw))
    assert rep.passed, rep.counterexamples


def test_ybe_compares_all_64_entries_on_a1_fundamental():
    s = braiding(based_of("A1", (1,)), based_of("A1", (1,)))
    cube = kron_matrix(s, SparseMatrix.identity(2))
    assert cube.nrows == cube.ncols == 8


@pytest.mark.parametrize("label,lam,mu", [
    ("A1", (1,), (2,)),
    ("A2", (1, 0), (0, 1)),
    ("B2", (1, 0), (0, 1)),
])
def test_gamma_lemma_on_pairs(label, lam, mu):
    rep = check_gamma_lemma(based_of(label, lam), based_of(label, mu))
    assert rep.passed, rep.counterexamples


@pytest.mark.parametrize("label,hw", [
    ("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 0))])
def test_lemma_identities_on_irreducibles(label, hw):
    rep = check_lemma_identities(based_of(label, hw))
    assert rep.passed, rep.counterexamples


def test_lemma_identities_on_a_tensor_module():
    bt = based_tensor(based_of("A1", (1,)), based_of("A1", (2,)))
    rep = check_lemma_identities(bt)
    assert rep.passed, rep.counterexamples


def test_tensor_tw0_transport_from_tensor_pins_matches_braid_product():
    bt = based_tensor(based_of("A1", (1,)), based_of("A1", (2,)))
    transported = transport(bt.module, tw0_spec(),
                            [c.lowest_element() for c in bt.components],
                            [c.hw_vec for c in bt.components])
    assert transported.matrix == make_Tw0(bt.module).matrix


def test_method_agreement_with_rescaled_pins():
    rep = check_method_agreement(based_of("A1", (1,)), based_of("A1", (1,)))
    assert rep.passed, rep.counterexamples


def test_scaling_independence_per_side():
    rep = check_scaling(based_of("A1", (1,)), based_of("A1", (2,)))
    assert rep.passed, rep.counterexamples


def test_warm_scaling_checks_build_no_crystal_or_global_basis(monkeypatch):
    # a rescaled factor reads its module's one global basis, so once the
    # factors are built no check lifts, verifies or keeps another
    bl, br = based_of("A1", (1,)), based_of("A1", (2,))
    check_scaling(bl, br)
    check_method_agreement(bl, br)
    verified = []
    real = bases.verify_global_basis
    monkeypatch.setattr(bases, "verify_global_basis",
                        lambda gb: verified.append(gb) or real(gb))
    assert check_scaling(bl, br).passed
    assert check_method_agreement(bl, br).passed
    assert verified == []


def test_each_rescaled_factor_is_built_once_per_module_and_coefficient():
    m = make_irreducible(make_cartan("A2"), (1, 0))
    factors = [rmatrix._rescaled_factor(m, z) for z in rmatrix.RESCALE_COEFFS]
    for z, bm in zip(rmatrix.RESCALE_COEFFS, factors):
        assert rmatrix._rescaled_factor(m, z) is bm
    assert len(set(factors)) == len(rmatrix.RESCALE_COEFFS)
    assert based_irreducible(m) not in factors


def test_warm_checks_transport_only_the_rebuild(monkeypatch):
    # the rescaled factors keep their Theta and tensor products, so a warm
    # check_scaling transports Theta only on the fresh rebuild's left and
    # right factors and their tensor product, and check_method_agreement
    # on nothing
    a2 = make_cartan("A2")
    bl = based_irreducible(make_irreducible(a2, (1, 0)))
    br = based_irreducible(make_irreducible(a2, (0, 1)))
    check_scaling(bl, br)
    check_method_agreement(bl, br)
    calls = []

    def counting(*args):
        calls.append(args[0])
        return transport(*args)

    monkeypatch.setattr(rmatrix, "transport", counting)
    assert check_scaling(bl, br).passed
    assert calls == [bl.module, br.module, tensor(bl.module, br.module)]
    del calls[:]
    assert check_method_agreement(bl, br).passed
    assert calls == []


def test_scaled_pin_with_an_unscaled_embedding_fails_scaling(monkeypatch):
    # the pin alone rescaled: the right factor's basis elements, and with
    # them the tensor pins, stay put while its Theta twists by z / bar(z);
    # factors on a fresh datum, so their rescaled factors, which their
    # modules keep, are built with the fault in place
    real = rmatrix.BasedComponent.embed.fget

    def unscaled(c):
        if c.module.hw_index is None:  # a tensor summand
            return real(c)
        return real(rmatrix.BasedComponent(c.module, c.nu,
                                           c.module.hw_vector()))

    monkeypatch.setattr(rmatrix.BasedComponent, "embed", property(unscaled))
    a1 = make_cartan("A1")
    rep = check_scaling(based_irreducible(make_irreducible(a1, (1,))),
                        based_irreducible(make_irreducible(a1, (2,))))
    assert not rep.passed
    assert {ce["check"].split(" by ")[0] for ce in rep.counterexamples} \
        == {"rescale right pin"}


def test_double_braiding_scalars_match_golden():
    rep, scalars = check_double_braiding(based_of("A1", (1,)),
                                         based_of("A1", (1,)))
    assert rep.passed, rep.counterexamples
    assert canonical(scalars) == golden_bytes(
        "a1_omega_omega_double_braiding.json")


def test_double_braiding_scalar_values_a1_square():
    _, scalars = check_double_braiding(based_of("A1", (1,)),
                                       based_of("A1", (1,)))
    by_nu = {tuple(s["component"]): FieldElement.from_json_obj(s["scalar"])
             for s in scalars}
    assert by_nu[(2,)] == qp(1)
    assert by_nu[(0,)] == qp(-3)


# -- checkers: negative controls ----------------------------------------------


def test_wrong_theta_exponent_sign_breaks_agreement():
    rep = check_method_agreement(based_of("A1", (1,)), based_of("A1", (2,)),
                                 fault="theta-sign")
    assert not rep.passed
    ce = rep.counterexamples[0]
    assert ce["check"] == "theta vs krls"
    assert ce["lhs"] != ce["rhs"]


def test_scaled_isotypic_block_breaks_hexagon():
    rep = check_hexagon(based_of("A1", (1,)), based_of("A1", (2,)),
                        based_of("A1", (1,)), fault="scale-block")
    assert not rep.passed
    assert rep.counterexamples


def test_unknown_perturbation_rejected():
    with pytest.raises(ValueError):
        check_hexagon(based_of("A1", (1,)), based_of("A1", (1,)),
                      based_of("A1", (1,)), fault="typo")


@pytest.mark.parametrize("check,fault", [
    ("method-agreement", "scale-block"),
    ("method-agreement", "wrong-flip"),
    ("hexagon", "theta-sign"),
    ("hexagon", "wrong-flip"),
    ("ybe", "theta-sign"),
])
def test_each_check_rejects_a_fault_it_does_not_support(check, fault):
    v = based_of("A1", (1,))
    run = {"method-agreement": lambda: check_method_agreement(v, v, fault),
           "hexagon": lambda: check_hexagon(v, v, v, fault),
           "ybe": lambda: check_ybe(v, fault)}[check]
    with pytest.raises(ValueError, match=fault):
        run()


def test_wrong_flip_side_fails_module_map_half_of_ybe():
    rep = check_ybe(based_of("A1", (1,)), fault="wrong-flip")
    assert not rep.passed
    assert rep.counterexamples[0]["check"].startswith("sigma module map")


def test_scale_isotypic_block_changes_exactly_one_block():
    bl, br = based_of("A1", (1,)), based_of("A1", (1,))
    bt = based_tensor(bl, br)
    r = r_theta(bl, br).matrix
    twisted = scale_isotypic_block(r, bt, 0, qp(1))
    assert twisted != r
    assert scale_isotypic_block(twisted, bt, 0, qp(-1)) == r


@pytest.mark.parametrize("factors,index", [
    ((("A1", (1,)), ("A1", (1,))), 0),
    ((("A1", (1,)), ("A1", (1,))), 1),
    # V(1)^(x)3 = V(3) + 2 V(1): a block of two summands
    ((("A1", (1,)),) * 3, 0),
    ((("A1", (1,)),) * 3, 1),
    ((("A1", (1,)),) * 3, 2),
    ((("A2", (1, 0)), ("A2", (1, 1))), 1),
    ((("B2", (0, 1)), ("B2", (0, 1))), 0),
    ((("B2", (0, 1)), ("B2", (0, 1))), 2),
])
def test_scale_isotypic_block_matches_the_isotypic_oracle(factors, index):
    # the twist is z on the isotypic block of summand index and 1 on the
    # rest, whichever basis spans the summands
    bt = based_of(*factors[0])
    for factor in factors[1:]:
        bt = based_tensor(bt, based_of(*factor))
    z = qp(1)
    dim = bt.module.dim
    twist = scale_isotypic_block(SparseMatrix.identity(dim), bt, index, z)
    dec = uqmod.isotypic_decomposition(bt.module)
    nu = dec.components[index].nu
    rows = {}
    for k, (lo, hi) in enumerate(dec.slices):
        for t in range(lo, hi):
            rows[t] = {t: z if dec.components[k].nu == nu else ONE}
    want = dec.change @ SparseMatrix(dim, dim, rows) @ dec.change_inv
    assert twist == want


def test_passing_checks_subtract_nothing(monkeypatch):
    # equality is structural; a subtraction runs only to list the entries
    # of a comparison that has already failed
    cd = make_cartan("A1")
    # building a module subtracts to form the [E, F] side of its relations,
    # so V(2) and the summands of V(2) (x) V(2) are built first, and the
    # braid certification builds its probe V(1)
    calibrate_braid_variant(cd)
    m, _, _ = (make_irreducible(cd, (k,)) for k in (2, 0, 4))
    bm = based_irreducible(m)

    def no_sub(self, other):
        raise AssertionError("a passing check subtracted")
    monkeypatch.setattr(SparseMatrix, "sub", no_sub)
    c = bm.components[0]
    for spec in (theta_spec(), gamma_spec()):
        assert transport(m, spec, c.hw_vec, spec.pin(c)) == \
            system_on(bm, spec)
    for rep in (check_lemma_identities(bm), check_ybe(bm)):
        assert rep.passed, rep.counterexamples
    monkeypatch.undo()
    bl = based_irreducible(make_irreducible(cd, (1,)))
    for rep in (check_method_agreement(bl, bm, fault="theta-sign"),
                check_ybe(bm, fault="scale-block"),
                check_ybe(bm, fault="wrong-flip")):
        assert not rep.passed and rep.counterexamples


# -- the oracle's solver ------------------------------------------------------


def test_sparse_solver_unique_point():
    rows = [({0: ONE, 1: ONE}, qp(1)), ({1: ONE}, qp(2)),
            ({0: ONE, 1: ONE}, qp(1))]
    x = _unique_solution(rows, 2)
    assert x[1] == qp(2)
    assert x[0] == qp(1) - qp(2)


def test_sparse_solver_rejects_inconsistent_system():
    rows = [({0: ONE}, ONE), ({0: ONE}, qp(1))]
    with pytest.raises(InternalConsistencyError):
        _unique_solution(rows, 1)


def test_sparse_solver_rejects_underdetermined_system():
    with pytest.raises(InternalConsistencyError):
        _unique_solution([({0: ONE, 1: ONE}, ONE)], 2)


def test_sparse_solver_rejects_zero_rhs_mismatch():
    rows = [({0: ONE}, ONE), ({}, qp(1))]
    with pytest.raises(InternalConsistencyError):
        _unique_solution(rows, 1)
