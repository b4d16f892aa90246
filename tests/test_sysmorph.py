"""Transported morphisms: bar, theta, gamma, J, T_w0, braid operators."""

import weakref
from fractions import Fraction

import pytest

import qrmat.sysmorph as sysmorph
from qrmat.bases import compute_global_basis
from qrmat.cartan import make_cartan
from qrmat.linalg import SparseMatrix, v_eq, v_scale
from qrmat.qscalar import ONE, FieldElement
from qrmat.rmatrix import based_irreducible, based_tensor, system_on
from qrmat.sysmorph import (MorphismSpec, TransportedMap, bar_spec,
                            braid_operator, braid_relations_hold,
                            calibrate_braid_variant, gamma_spec,
                            generator_sides, identity_spec, j_spec, k_2rho,
                            make_J, make_Tw0, theta_spec,
                            transport, tw0_spec, verify_compatibility)
from qrmat.uqmod import (InternalConsistencyError,
                         ModuleConstructionError, make_irreducible, tensor)

A1 = make_cartan("A1")
A2 = make_cartan("A2")
B2 = make_cartan("B2")

CARTANS = {"A1": A1, "A2": A2, "B2": B2}
ACCEPTANCE_MODULES = [
    ("A1", (1,)), ("A1", (2,)), ("A1", (3,)),
    ("A2", (1, 0)), ("A2", (0, 1)), ("A2", (1, 1)),
    ("B2", (1, 0)), ("B2", (0, 1)),
]

_memo = {}


def module_of(label, hw):
    key = (label, hw)
    if key not in _memo:
        _memo[key] = make_irreducible(CARTANS[label], hw)
    return _memo[key]


def gb_of(label, hw):
    return compute_global_basis(module_of(label, hw))


def theta_of(m):
    return system_on(based_irreducible(m), theta_spec())


def gamma_of(m):
    return system_on(based_irreducible(m), gamma_spec())


def bar_of(m):
    return system_on(based_irreducible(m), bar_spec())


def theta_pinned(m, z):
    """Theta transported from the honest pin target scaled by z."""
    pin = m.hw_vector()
    return transport(m, theta_spec(), pin,
                     v_scale(theta_of(m).apply(pin), z))


def qp(e, c=1):
    return FieldElement.q_power(Fraction(e), c)


def rho(cd):
    return tuple(1 for _ in range(cd.n))


# -- explicit values on the smallest module ----------------------------------


def test_theta_on_a1_fundamental_global_basis():
    gb = gb_of("A1", (1,))
    theta = theta_of(gb.module)
    assert v_eq(theta.apply(gb.elements[0]), v_scale(gb.elements[0], qp("1/4")))
    assert v_eq(theta.apply(gb.elements[1]), v_scale(gb.elements[1], qp("-3/4")))


def test_j_on_a1_fundamental_is_q34_qm14():
    m = module_of("A1", (1,))
    assert make_J(m).matrix.to_triplets() == [
        (0, 0, qp("3/4")), (1, 1, qp("-1/4"))]


def test_k2rho_on_a1_fundamental_is_q_qinv():
    m = module_of("A1", (1,))
    assert k_2rho(m).matrix.to_triplets() == [(0, 0, qp(1)), (1, 1, qp(-1))]


def test_weight_diagonal_maps_are_built_once_per_module(monkeypatch):
    m = make_irreducible(make_cartan("A2"), (1, 1))
    checked = []
    real = sysmorph.verify_compatibility
    monkeypatch.setattr(sysmorph, "verify_compatibility",
                        lambda t, s: checked.append(s) or real(t, s))
    assert make_J(m) is make_J(m)
    assert k_2rho(m) is k_2rho(m)
    assert checked == [j_spec()]


def test_gamma_swaps_extreme_global_basis_elements_a1():
    gb = gb_of("A1", (1,))
    gamma = gamma_of(gb.module)
    assert v_eq(gamma.apply(gb.elements[0]), gb.elements[1])


def test_tw0_sends_lowest_to_highest_with_unit_coefficient():
    for label, hw in ACCEPTANCE_MODULES:
        gb = gb_of(label, hw)
        tw0 = make_Tw0(gb.module)
        assert v_eq(tw0.apply(gb.elements[gb.low_vertex]),
                    gb.module.hw_vector()), (label, hw)


# -- the identity chain relating gamma, theta, bar, J, T_w0 ------------------


@pytest.mark.parametrize("label,hw", ACCEPTANCE_MODULES)
def test_gamma_equals_bar_after_inverse_tw0(label, hw):
    m = module_of(label, hw)
    gamma = gamma_of(m)
    assert gamma == bar_of(m).compose(make_Tw0(m).inverse())


@pytest.mark.parametrize("label,hw", ACCEPTANCE_MODULES)
def test_theta_equals_k2rho_bar_j(label, hw):
    m = module_of(label, hw)
    assert theta_of(m) == k_2rho(m).compose(bar_of(m).compose(make_J(m)))


@pytest.mark.parametrize("label,hw", ACCEPTANCE_MODULES)
def test_j_diagonal_matches_transported_j(label, hw):
    m = module_of(label, hw)
    direct = make_J(m)
    via_pin = transport(m, j_spec(), m.hw_vector(),
                        direct.apply(m.hw_vector()))
    assert direct == via_pin


@pytest.mark.parametrize("label,hw", ACCEPTANCE_MODULES)
def test_theta_is_diagonal_on_the_global_basis(label, hw):
    gb = gb_of(label, hw)
    m = gb.module
    theta = theta_of(m)
    for b in gb.elements:
        mu = m.weights[next(iter(b))]
        e = -m.cartan.bilinear(mu, mu) / 2 + m.cartan.bilinear(mu, rho(m.cartan))
        assert v_eq(theta.apply(b), v_scale(b, qp(e)))


@pytest.mark.parametrize("label,hw", ACCEPTANCE_MODULES)
def test_gamma_inverse_theta_equals_j_tw0(label, hw):
    m = module_of(label, hw)
    lhs = gamma_of(m).inverse().compose(theta_of(m))
    rhs = make_J(m).compose(make_Tw0(m))
    assert lhs == rhs


@pytest.mark.parametrize("label,hw", ACCEPTANCE_MODULES)
def test_theta_is_an_involution(label, hw):
    theta = theta_of(module_of(label, hw))
    assert theta.compose(theta).is_identity()


def test_bar_fixes_the_standard_basis_of_irreducibles():
    # the construction basis comes from F-words with bar-fixed structure
    # constants, so the module bar is exactly coefficient-wise bar
    for label, hw in [("A1", (3,)), ("A2", (1, 1)), ("B2", (1, 0))]:
        b = bar_of(module_of(label, hw))
        assert b.bar_linear and b.matrix.is_identity()


def test_gamma_composed_with_inverse_is_identity():
    gb = gb_of("A2", (1, 1))
    gamma = gamma_of(gb.module)
    assert gamma.inverse().compose(gamma).is_identity()
    assert gamma.compose(gamma.inverse()).is_identity()


# -- braid operators ----------------------------------------------------------


def _braid_family(kind, e):
    """Coefficient of u_(mstr-n) in T_i(u_n) for Lusztig's T'/T''_{i,e}:
    kind "A" is the package's sign pattern, "B" the other one."""
    def coefficient(d, mstr, n):
        if kind == "A":
            sign = -1 if (mstr - n) % 2 else 1
            return FieldElement.q_power(
                Fraction(e * d * (mstr - n) * (n + 1)), sign)
        sign = -1 if n % 2 else 1
        return FieldElement.q_power(Fraction(e * d * n * (mstr - n + 1)),
                                    sign)
    return coefficient


# the braid families other than the one the package uses ("A+1")
WRONG_BRAID_FAMILIES = {"A-1": _braid_family("A", -1),
                        "B+1": _braid_family("B", 1),
                        "B-1": _braid_family("B", -1)}


def test_braid_variant_families_on_a1_fundamental(monkeypatch):
    t = braid_operator(module_of("A1", (1,)), 0)
    assert t.column(0) == {1: qp(1, -1)}
    assert t.column(1) == {0: ONE}
    for family, col0, col1 in (("B+1", {1: ONE}, {0: qp(1, -1)}),
                               ("A-1", {1: qp(-1, -1)}, {0: ONE})):
        monkeypatch.setattr(sysmorph, "_braid_coefficient",
                            WRONG_BRAID_FAMILIES[family])
        t = braid_operator(make_irreducible(make_cartan("A1"), (1,)), 0)
        assert (t.column(0), t.column(1)) == (col0, col1)


def omega_1(cd):
    return tuple(int(k == 0) for k in range(cd.n))


ALL_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


def test_braid_calibration_selects_one_variant(monkeypatch):
    # the one braid family in code passes on every type the package builds
    monkeypatch.setattr(sysmorph, "_braid_certified", set())
    for label in ALL_TYPES:
        assert calibrate_braid_variant(make_cartan(label)) is None
    assert sysmorph._braid_certified == {make_cartan(label).A
                                         for label in ALL_TYPES}


def test_make_tw0_certifies_the_braid_action_first(monkeypatch):
    monkeypatch.setattr(sysmorph, "_braid_certified", set())
    make_Tw0(module_of("A2", (1, 1)))
    assert sysmorph._braid_certified == {A2.A}


@pytest.mark.parametrize("family", sorted(WRONG_BRAID_FAMILIES))
@pytest.mark.parametrize("label", ALL_TYPES)
def test_wrong_braid_family_fails_certification(monkeypatch, label, family):
    # a fresh datum, so its probe module caches no braid operator yet
    monkeypatch.setattr(sysmorph, "_braid_certified", set())
    monkeypatch.setattr(sysmorph, "_braid_coefficient",
                        WRONG_BRAID_FAMILIES[family])
    cd = make_cartan(label)
    with pytest.raises(InternalConsistencyError):
        calibrate_braid_variant(cd)
    assert sysmorph._braid_certified == set()
    with pytest.raises(InternalConsistencyError):
        make_Tw0(make_irreducible(cd, omega_1(cd)))


def test_braid_relations_on_rank_two_types():
    assert braid_relations_hold(module_of("A2", (1, 1)))
    assert braid_relations_hold(module_of("B2", (1, 0)))


def test_braid_operator_maps_weight_spaces_by_simple_reflection():
    m = module_of("B2", (0, 1))
    for i in range(m.cartan.n):
        t = braid_operator(m, i)
        for col in range(m.dim):
            target = m.cartan.reflect(i, m.weights[col])
            for r in t.column(col):
                assert m.weights[r] == target


@pytest.mark.parametrize("label,hw", [("A1", (2,)), ("A2", (1, 1)),
                                      ("B2", (0, 1)), ("A2", (1, 0)),
                                      ("A2", (2, 1)), ("B2", (1, 0)),
                                      ("B2", (1, 1))])
def test_braid_product_tw0_equals_transported_tw0(label, hw):
    gb = gb_of(label, hw)
    m = gb.module
    low = gb.elements[gb.low_vertex]
    # F kills the lowest pin, so only transport's E fallback leaves it
    assert all(m.F[i].apply(low) == {} for i in range(m.cartan.n))
    assert make_Tw0(m) == transport(m, tw0_spec(), low, m.hw_vector())


def test_tw0_braid_product_works_on_tensor_modules():
    tm = tensor(module_of("A2", (1, 0)), module_of("A2", (0, 1)))
    tw0 = make_Tw0(tm)
    assert list(verify_compatibility(tw0, tw0_spec())) == []
    # weight spaces land on the w0-reflected weight
    for col in range(tm.dim):
        target = tm.cartan.apply_w0(tm.weights[col])
        for r in tw0.matrix.column(col):
            assert tm.weights[r] == target


# -- transport mechanics -------------------------------------------------------


def test_transport_of_identity_spec_is_identity():
    m = module_of("A2", (1, 1))
    t = transport(m, identity_spec(), m.hw_vector(), m.hw_vector())
    assert t.is_identity()


def test_transport_rejects_pins_that_do_not_generate():
    tm = tensor(module_of("A1", (1,)), module_of("A1", (1,)))
    pin = {0: ONE}  # highest vector of the three dimensional component
    with pytest.raises(ModuleConstructionError):
        transport(tm, identity_spec(), pin, pin)


@pytest.mark.parametrize("which", ["highest", "lowest"])
def test_transport_rejects_pins_of_one_tensor_summand(which):
    # the pins of one summand generate that summand only, along F and E
    bt = based_tensor(based_irreducible(module_of("A2", (1, 0))),
                      based_irreducible(module_of("A2", (1, 0))))
    assert len(bt.components) == 2
    comp = bt.components[0]
    if which == "highest":
        spec, src, dst = identity_spec(), comp.hw_vec, comp.hw_vec
    else:
        spec, src, dst = tw0_spec(), comp.lowest_element(), comp.hw_vec
    with pytest.raises(ModuleConstructionError, match="pins do not generate"):
        transport(bt.module, spec, src, dst)


def test_transport_rejects_zero_pin():
    m = module_of("A1", (1,))
    with pytest.raises(ModuleConstructionError):
        transport(m, identity_spec(), {}, {})


def test_transport_detects_impossible_pin_target():
    # theta fixes weights, so pinning hw onto a different weight vector
    # cannot commute with the K action
    m = module_of("A1", (2,))
    with pytest.raises(InternalConsistencyError):
        transport(m, theta_spec(), m.hw_vector(), {1: ONE})


def test_transport_detects_inconsistent_pin_pair():
    # the second pin's source is twice the first's, its target is not
    m = module_of("A1", (2,))
    hw = m.hw_vector()
    with pytest.raises(InternalConsistencyError,
                       match="inconsistent on propagated pair 1"):
        transport(m, identity_spec(), [hw, v_scale(hw, qp(0, 2))], [hw, hw])


def test_compose_tracks_bar_linearity():
    m = module_of("A1", (2,))
    theta = theta_of(m)
    J = make_J(m)
    assert theta.compose(theta).bar_linear is False
    assert theta.compose(J).bar_linear is True
    assert J.compose(J).bar_linear is False
    v = {2: qp(3)}
    assert v_eq(theta.compose(J).apply(v), theta.apply(J.apply(v)))
    assert v_eq(J.compose(theta).apply(v), J.apply(theta.apply(v)))


def test_inverse_is_kept_on_the_map():
    m = module_of("A1", (2,))
    gamma = gamma_of(m)
    assert gamma.inverse() is gamma.inverse()
    # the map alone holds its inverse, so dropping the map frees both
    tmap = TransportedMap(m, make_J(m).matrix.scale(qp(1)), False, "qJ")
    ref = weakref.ref(tmap.inverse())
    del tmap
    assert ref() is None


def test_bar_linear_inverse_inverts_pointwise():
    gb = gb_of("A2", (1, 0))
    gamma = gamma_of(gb.module)
    v = {0: qp(2), 2: ONE + qp(1)}
    assert v_eq(gamma.inverse().apply(gamma.apply(v)), v)


# -- compatibility verification and its limits --------------------------------


def test_verify_compatibility_flags_tampered_weight_space():
    m = module_of("A1", (2,))
    tw0 = make_Tw0(m)
    rows = {r: {} for r in range(m.dim)}
    for r, c, x in tw0.matrix.to_triplets():
        rows[r][c] = x
    rows.setdefault(1, {})[1] = rows.get(1, {}).get(1, ONE - ONE) + qp(1)
    tampered = TransportedMap(m, SparseMatrix(m.dim, m.dim, rows), False)
    assert list(verify_compatibility(tampered, tw0_spec())) != []


def _product_messages(tmap, spec):
    """The compatibility failures as every square multiplied out, K rows
    included: the oracle of the diagonal K decision."""
    m, a = tmap.module, tmap.matrix
    out = []
    for i in range(m.cartan.n):
        for label, mat, img in (
                (f"E_{i + 1}", m.E[i], spec.e_image(m, i)),
                (f"F_{i + 1}", m.F[i], spec.f_image(m, i)),
                (f"K_{i + 1}", m.k_i(i, 1), spec.k_image(m, i))):
            lhs = a @ (mat.bar_entries() if tmap.bar_linear else mat)
            rhs = img @ a
            bad = sorted({c for _, c, _ in lhs.sub(rhs).to_triplets()})
            out += [f"{label} compatibility fails at basis vector {c}"
                    for c in bad]
    return out


def _across_weights(tmap):
    """tmap plus q at one cell joining two weight spaces."""
    m = tmap.module
    r, c = next((r, c) for r in range(m.dim) for c in range(m.dim)
                if m.weights[r] != m.weights[c])
    rows = {r2: dict(row) for r2, row in tmap.matrix.rows.items()}
    rows.setdefault(r, {})[c] = rows.get(r, {}).get(c, ONE - ONE) + qp(1)
    return TransportedMap(m, SparseMatrix(m.dim, m.dim, rows),
                          tmap.bar_linear)


@pytest.mark.parametrize("which", ["theta", "tw0"])
def test_diagonal_k_decision_matches_the_products(which):
    # one bar-linear and one q-linear system, each tampered across two
    # weight spaces, which breaks the K squares
    m = module_of("A2", (1, 1))
    spec, honest = ((theta_spec(), theta_of(m)) if which == "theta"
                    else (tw0_spec(), make_Tw0(m)))
    tampered = _across_weights(honest)
    got = list(verify_compatibility(tampered, spec))
    assert got == _product_messages(tampered, spec)
    assert any(msg.startswith("K_") for msg in got)
    assert list(verify_compatibility(honest, spec)) == []


def test_non_diagonal_k_image_is_refused_when_the_sides_are_built():
    m = module_of("A1", (2,))
    skew = MorphismSpec("skew-k", False,
                        lambda mod, i: mod.E[i], lambda mod, i: mod.F[i],
                        lambda mod, i: mod.k_i(i, 1).add(mod.E[i]))
    with pytest.raises(InternalConsistencyError, match="not diagonal"):
        generator_sides(m, skew)
    with pytest.raises(InternalConsistencyError, match="not diagonal"):
        transport(m, skew, m.hw_vector(), m.hw_vector())


def test_verify_compatibility_wants_the_systems_linearity():
    m = module_of("A1", (2,))
    with pytest.raises(ValueError, match="q-linear map"):
        list(verify_compatibility(theta_of(m), tw0_spec()))


def test_systems_are_distinct_keys():
    factories = (identity_spec, bar_spec, theta_spec,
                 lambda: theta_spec(True), gamma_spec, tw0_spec, j_spec)
    specs = [f() for f in factories]
    assert len({s.name for s in specs}) == 7
    assert len(set(specs)) == 7
    for f in factories:
        assert f() == f() and len({f(), f()}) == 1
    # the theta-sign control rests on the two thetas being two maps
    bm = based_irreducible(module_of("A1", (1,)))
    assert system_on(bm, theta_spec()) != system_on(bm, theta_spec(True))


def test_generator_sides_are_built_once_per_module_and_system():
    m = module_of("A1", (2,))
    sides = generator_sides(m, theta_spec())
    assert generator_sides(m, theta_spec()) is sides
    # bar-linear systems share the module's barred generators, and an
    # image that is the module's own matrix is not copied
    bar_sides = generator_sides(m, bar_spec())
    assert bar_sides[0][0][0] is sides[0][0][0]
    assert bar_sides[0][0][1] is m.E[0]


def test_scaled_pin_commutes_with_the_action_but_shifts_eigenvalues():
    # scaling the pin composes theta with a module endomorphism, so the
    # compatibility square still commutes and cannot flag it; the global
    # basis eigenvalue row is what detects it
    gb = gb_of("A1", (2,))
    m = gb.module
    q = qp(1)
    scaled = theta_pinned(m, q)
    assert list(verify_compatibility(scaled, theta_spec())) == []
    assert scaled.compose(scaled).is_identity()  # q bar(q) = 1
    honest = theta_of(m)
    assert scaled != honest
    b = gb.elements[1]
    mu = m.weights[next(iter(b))]
    e = -m.cartan.bilinear(mu, mu) / 2 + m.cartan.bilinear(mu, rho(m.cartan))
    assert not v_eq(scaled.apply(b), v_scale(b, qp(e)))
    assert v_eq(scaled.apply(b), v_scale(b, qp(e + 1)))


def test_non_monomial_pin_scaling_breaks_the_involution():
    m = module_of("A1", (2,))
    z = ONE + qp(1)
    scaled = theta_pinned(m, z)
    assert list(verify_compatibility(scaled, theta_spec())) == []
    assert not scaled.compose(scaled).is_identity()  # z bar(z) != 1


def test_theta_pin_covariance():
    # pin target scaled by z rescales the whole map by z
    m = module_of("A2", (1, 1))
    honest = theta_of(m)
    for z in (qp(1), ONE + qp(1), FieldElement.from_int(2) - qp(-1)):
        scaled = theta_pinned(m, z)
        assert scaled.matrix == honest.matrix.scale(z)
