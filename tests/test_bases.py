"""Crystal graphs, Kashiwara operators, global bases, tensor crystals."""

import hashlib
import json
import os
from fractions import Fraction

import pytest

import qrmat.bases as bases
import qrmat.rmatrix as rmatrix
from qrmat.bases import (Frame, GlobalBasis,
                         compute_global_basis, cross_validate_tensor_crystal,
                         crystal_graph, certify_signature_rule,
                         kashiwara_operators, tensor_crystal)
from qrmat.cartan import make_cartan
from qrmat.cli import _canon
from qrmat.linalg import inverse, v_bar, v_clean, v_eq, v_scale
from qrmat.qscalar import ONE, FieldElement, Q, QLaurent
from qrmat.rmatrix import based_irreducible, based_tensor
from qrmat.sysmorph import braid_operator
from qrmat.uqmod import (InternalConsistencyError,
                         ModuleConstructionError, make_irreducible,
                         tensor)

A1 = make_cartan("A1")
A2 = make_cartan("A2")
B2 = make_cartan("B2")


def fe(terms):
    return FieldElement(QLaurent(terms))


def q_plus_qinv():
    return fe([(1, 1), (-1, 1)])


# -- Kashiwara operators -----------------------------------------------------


def test_ftilde_on_a1_string_is_divided_power_step():
    m = make_irreducible(A1, (2,))
    _, ft = kashiwara_operators(m, 0)
    # e1 = F hw = [1] F^(1) hw, so Ftilde e1 = F^(2) hw = e2 / [2]
    assert ft.column(0) == {1: ONE}
    assert ft.column(1) == {2: q_plus_qinv().inv()}
    assert ft.column(2) == {}


def test_etilde_kills_highest_weight_vector():
    m = make_irreducible(A1, (3,))
    et, _ = kashiwara_operators(m, 0)
    assert et.column(0) == {}


def test_kashiwara_operators_satisfy_string_calculus():
    m = make_irreducible(A2, (1, 1))
    for i in range(2):
        et, ft = kashiwara_operators(m, i)
        # EtildeFtilde projects along string bottoms, so these are the
        # basis-free identities
        assert ft @ et @ ft == ft
        assert et @ ft @ et == et


def test_string_operators_respect_weight_grading():
    m = make_irreducible(B2, (1, 1))
    for i in range(2):
        et, ft = kashiwara_operators(m, i)
        for j in range(m.dim):
            for r in ft.column(j):
                assert m.weights[r] == m.weight_plus_alpha(m.weights[j], i, -1)
            for r in et.column(j):
                assert m.weights[r] == m.weight_plus_alpha(m.weights[j], i, +1)


def test_tensor_module_strings_have_rank_one_ftilde_on_zero_weight():
    m = make_irreducible(A1, (1,))
    t = tensor(m, m)
    _, ft = kashiwara_operators(t, 0)
    # weight 0 of V_w (x) V_w meets one 3-string and one 1-string;
    # Ftilde kills the singlet direction, so its restriction has rank 1
    zero_cols = t.weight_space((0,))
    images = [ft.column(j) for j in zero_cols]
    nonzero = [v for v in images if v]
    assert len(nonzero) >= 1
    from qrmat.linalg import SparseMatrix, rank
    mat = SparseMatrix.from_columns(images, t.dim)
    assert rank(mat) == 1


# -- crystal graphs ----------------------------------------------------------


def test_a1_crystal_is_a_chain():
    m = make_irreducible(A1, (3,))
    g = crystal_graph(m)
    assert g.size == 4
    assert g.f_edges == {(0, 0): 1, (1, 0): 2, (2, 0): 3}
    assert g.highest() == [0]
    assert g.lowest() == [3]
    assert [g.eps(v, 0) for v in range(4)] == [0, 1, 2, 3]
    assert [g.phi(v, 0) for v in range(4)] == [3, 2, 1, 0]


def test_a2_adjoint_crystal_counts_and_axioms():
    m = make_irreducible(A2, (1, 1))
    g = crystal_graph(m)
    assert g.size == 8
    assert sorted(g.weights).count((0, 0)) == 2
    assert g.highest() == [0]
    assert len(g.lowest()) == 1
    assert g.weight(g.lowest()[0]) == (-1, -1)
    for (v, i), w in g.f_edges.items():
        assert g.e(w, i) == v


def test_crystal_vertex_count_matches_dimension():
    for cd, hw in [(A1, (4,)), (A2, (2, 0)), (A2, (1, 1)), (B2, (1, 0)),
                   (B2, (0, 1)), (B2, (1, 1))]:
        m = make_irreducible(cd, hw)
        assert crystal_graph(m).size == m.dim


def test_crystal_eps_phi_match_weight_pairing():
    m = make_irreducible(B2, (1, 1))
    g = crystal_graph(m)
    for v in range(g.size):
        for i in range(2):
            assert g.phi(v, i) - g.eps(v, i) == g.weight(v)[i]


def test_crystal_dot_output_is_deterministic():
    m = make_irreducible(A2, (1, 0))
    g = crystal_graph(m)
    dot = g.to_dot()
    assert dot == crystal_graph(m).to_dot()
    assert 'v0 -> v1 [label="1"]' in dot
    assert dot.startswith("digraph crystal {")


# -- lattice frames ----------------------------------------------------------


def test_frame_rejects_rank_deficient_spanning_set():
    with pytest.raises(InternalConsistencyError):
        Frame([0, 1], [{0: ONE}])


def test_frame_residue_detects_pole():
    fr = Frame([0], [{0: ONE}])
    with pytest.raises(InternalConsistencyError):
        fr.residue(fr.coords({0: Q}))  # q has a pole at infinity


def test_frame_echelon_prefers_dominant_vector():
    # {v, q^-1 v + w} and {v, w} span the same lattice
    v1 = {0: ONE}
    v2 = {0: fe([(-1, 1)]), 1: ONE}
    fr = Frame([0, 1], bases._echelon_lattice_basis([v1, v2]))
    assert fr.residue(fr.coords({1: ONE})) == (Fraction(0), Fraction(1))


def test_frame_inverts_its_matrix_once(monkeypatch):
    calls = []
    real = bases.inverse

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(bases, "inverse", counting)
    v1 = {0: ONE, 1: Q}
    v2 = {1: ONE}
    fr = Frame([0, 1], [v1, v2])
    assert fr.coords(v1) == [ONE, 0]
    assert fr.coords(v2) == [0, ONE]
    assert fr.coords({0: ONE}) == [ONE, -Q]
    assert fr.coords({1: Q}) == [0, Q]
    assert len(calls) == 1


def test_frame_rejects_dependent_vectors():
    fr = Frame([0, 1], [{0: ONE, 1: ONE}, {0: Q, 1: Q}])
    with pytest.raises(InternalConsistencyError):
        fr.coords({0: ONE})


# -- global bases ------------------------------------------------------------


def test_a1_global_basis_is_divided_powers():
    for n in range(1, 5):
        m = make_irreducible(A1, (n,))
        gb = compute_global_basis(m)
        for k in range(n + 1):
            want = v_clean(m.divided_power("F", 0, k).apply(m.hw_vector()))
            assert v_eq(gb.elements[k], want)


def test_a2_fundamental_global_basis_is_monomial():
    m = make_irreducible(A2, (1, 0))
    gb = compute_global_basis(m)
    assert gb.elements == [{0: ONE}, {1: ONE}, {2: ONE}]
    assert gb.monomial_words == [(), ((0, 1),), ((1, 1), (0, 1))]


def test_a2_adjoint_global_basis_zero_weight_is_two_monomials():
    m = make_irreducible(A2, (1, 1))
    gb = compute_global_basis(m)
    g = gb.crystal
    zero = [v for v in range(g.size) if g.weight(v) == (0, 0)]
    assert len(zero) == 2
    hw = m.hw_vector()
    words = {tuple(gb.monomial_words[v]) for v in zero}
    assert words == {((0, 1), (1, 1)), ((1, 1), (0, 1))}
    for v in zero:
        assert v_eq(gb.elements[v],
                    bases._apply_divided_word(m, gb.monomial_words[v], hw))


def test_global_basis_elements_are_bar_fixed():
    m = make_irreducible(B2, (1, 1))
    gb = compute_global_basis(m)
    for g in gb.elements:
        assert v_eq(v_bar(g), g)


def test_global_basis_scales_with_the_pin():
    # the factor pinned at z b_lambda: its elements are z G(b), fixed by
    # the bar of that pin, v_bar twisted by z / bar(z)
    m = make_irreducible(A2, (1, 1))
    plain = compute_global_basis(m)
    for z in [Q, fe([(0, 1), (1, 1)]), fe([(0, 2), (-1, -1)])]:
        comp, = rmatrix._rescaled_factor(m, z).components
        assert comp.hw_vec == {0: z}
        for v in range(m.dim):
            g = comp.basis_element(v)
            assert v_eq(g, v_scale(plain.elements[v], z))
            assert v_eq(v_scale(v_bar(g), z / z.bar()), g)
            assert not v_eq(v_bar(g), g)


def _monomials_at(gb, wt):
    hw = gb.module.hw_vector()
    return [bases._apply_divided_word(gb.module, gb.monomial_words[u], hw)
            for u in range(gb.crystal.size) if gb.crystal.weight(u) == wt]


def test_window_solve_agrees_with_fast_path():
    m = make_irreducible(A2, (1, 1))
    gb = compute_global_basis(m)
    g = gb.crystal
    for v in range(m.dim):
        wt = g.weight(v)
        got = bases._triangular_solve(g.frames[wt], _monomials_at(gb, wt),
                                      g.residues[v], f"vertex {v}")
        assert v_eq(got, gb.elements[v])


def test_window_solve_gets_one_generator_per_vertex(monkeypatch):
    m = make_irreducible(make_cartan("A2"), (2, 1))  # fresh: nothing cached
    seen = []
    real = bases._window_solve

    def spy(gens, gcoords, frame, *rest):
        seen.append((len(gens), m.weights[frame.rows[0]]))
        return real(gens, gcoords, frame, *rest)

    monkeypatch.setattr(bases, "_window_solve", spy)
    g = compute_global_basis(m).crystal
    assert seen
    for ngens, wt in seen:
        assert ngens == sum(1 for u in range(g.size) if g.weight(u) == wt)
        assert ngens == 2


def test_global_basis_refuses_tensor_modules():
    m = make_irreducible(A1, (1,))
    t = tensor(m, m)
    with pytest.raises(ModuleConstructionError):
        compute_global_basis(t)


def test_global_basis_detects_tampered_element():
    m = make_irreducible(A2, (1, 1))
    gb = compute_global_basis(m)
    bad = GlobalBasis.__new__(GlobalBasis)
    bad.__dict__.update(gb.__dict__)
    bad.elements = list(gb.elements)
    bad.elements[3] = v_scale(gb.elements[3], fe([(1, 1)]))  # q-stretch
    with pytest.raises(InternalConsistencyError):
        bases.verify_global_basis(bad)


# -- tensor crystals ---------------------------------------------------------


def test_signature_rule_is_certified_once_per_cartan_matrix(monkeypatch):
    monkeypatch.setattr(bases, "_signature_certified", set())
    calls = []
    real = bases._algebraic_pair_edges

    def counting(bv, bw):
        calls.append(bv.cartan.A)
        return real(bv, bw)

    monkeypatch.setattr(bases, "_algebraic_pair_edges", counting)
    b = crystal_graph(make_irreducible(A1, (1,)))
    tensor_crystal(b, b)
    tensor_crystal(b, b)
    certify_signature_rule(make_cartan("A1"))  # a fresh datum, same matrix
    assert calls == [A1.A]
    certify_signature_rule(A2)
    assert calls == [A1.A, A2.A]


def _mirrored_pair_edges(bv, bw):
    """The signature rule with the factors' roles swapped: f acts on the
    left factor when phi(b) <= eps(a)."""
    f_edges = {}
    for a in range(bv.size):
        for b in range(bw.size):
            for i in range(bv.cartan.n):
                if bw.phi(b, i) <= bv.eps(a, i):
                    fa = bv.f(a, i)
                    if fa is not None:
                        f_edges[(a * bw.size + b, i)] = fa * bw.size + b
                else:
                    fb = bw.f(b, i)
                    if fb is not None:
                        f_edges[(a * bw.size + b, i)] = a * bw.size + fb
    return f_edges


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_mirrored_signature_rule_fails_the_residue_comparison(monkeypatch,
                                                              label):
    cd = make_cartan(label)
    b = crystal_graph(make_irreducible(cd, tuple(int(k == 0)
                                                 for k in range(cd.n))))
    honest = bases._pair_crystal(b, b)
    bases._check_signature_rule(b, b, honest)
    monkeypatch.setattr(bases, "_signature_certified", set())
    monkeypatch.setattr(bases, "_pair_edges", _mirrored_pair_edges)
    mirrored = bases._pair_crystal(b, b)
    assert mirrored.f(0, 0) != honest.f(0, 0)
    with pytest.raises(InternalConsistencyError,
                       match="signature rule disagrees"):
        bases._check_signature_rule(b, b, mirrored)
    with pytest.raises(InternalConsistencyError,
                       match="signature rule disagrees"):
        certify_signature_rule(cd)
    assert bases._signature_certified == set()


def test_a1_tensor_crystal_highest_vertices():
    m = make_irreducible(A1, (1,))
    b = crystal_graph(m)
    t = tensor_crystal(b, b)
    assert t.size == 4
    highs = {t.labels[h] for h in t.highest()}
    assert highs == {(0, 0), (0, 1)}
    assert {t.weight(h) for h in t.highest()} == {(2,), (0,)}


def test_a2_tensor_crystal_of_fundamentals():
    m = make_irreducible(A2, (1, 0))
    b = crystal_graph(m)
    t = cross_validate_tensor_crystal(b, b)
    assert t.size == 9
    highs = sorted(t.weight(h) for h in t.highest())
    assert highs == [(0, 1), (2, 0)]


def test_tensor_crystal_cross_validation_covers_mixed_pair():
    v = crystal_graph(make_irreducible(A1, (2,)))
    w = crystal_graph(make_irreducible(A1, (1,)))
    t = cross_validate_tensor_crystal(v, w)
    assert t.size == 6
    assert sorted(t.weight(h) for h in t.highest()) == [(1,), (3,)]


def test_b2_tensor_crystal_cross_validation():
    v = crystal_graph(make_irreducible(B2, (1, 0)))
    w = crystal_graph(make_irreducible(B2, (0, 1)))
    t = cross_validate_tensor_crystal(v, w)
    assert t.size == 20
    assert sorted(t.weight(h) for h in t.highest()) == [(0, 1), (1, 1)]


def test_tensor_crystal_axioms_hold():
    b1 = crystal_graph(make_irreducible(A2, (1, 0)))
    b2 = crystal_graph(make_irreducible(A2, (0, 1)))
    t = tensor_crystal(b1, b2)
    for v in range(t.size):
        for i in range(2):
            assert t.phi(v, i) - t.eps(v, i) == t.weight(v)[i]


# -- highest weight sets -----------------------------------------------------


def highest_weight_set(vlam, vmu, nu):
    """S^nu: the vertices b of the right crystal with b_lambda (x) b
    highest of weight nu in the pair crystal."""
    pair = tensor_crystal(crystal_graph(vlam), crystal_graph(vmu))
    return sorted(pair.labels[h][1] for h in pair.highest()
                  if pair.weight(h) == tuple(nu))


def summand_weights(vlam, vmu):
    """The highest weights of the summands based_tensor pins, with
    multiplicity."""
    bt = based_tensor(based_irreducible(vlam), based_irreducible(vmu))
    return sorted(c.nu for c in bt.components)


def test_a1_highest_weight_sets_match_clebsch_gordan():
    v = make_irreducible(A1, (1,))
    assert highest_weight_set(v, v, (2,)) == [0]
    assert highest_weight_set(v, v, (0,)) == [1]
    assert summand_weights(v, v) == [(0,), (2,)]


def test_a2_highest_weight_sets_on_adjoint_pair():
    v = make_irreducible(A2, (1, 1))
    # 8 (x) 8 = 27 + 10 + 10bar + 8 + 8 + 1
    want = {(2, 2): 1, (1, 1): 2, (0, 0): 1, (3, 0): 1, (0, 3): 1}
    for nu, k in want.items():
        assert len(highest_weight_set(v, v, nu)) == k
    assert summand_weights(v, v) == sorted(
        nu for nu, k in want.items() for _ in range(k))


def test_highest_weight_set_vertices_carry_the_right_weight():
    v = make_irreducible(A2, (1, 0))
    w = make_irreducible(A2, (0, 1))
    s = highest_weight_set(v, w, (0, 0))
    assert len(s) == 1
    b = s[0]
    lam = (1, 0)
    mu_b = crystal_graph(w).weight(b)
    assert tuple(a + c for a, c in zip(lam, mu_b)) == (0, 0)
    assert summand_weights(v, w) == [(0, 0), (1, 1)]


def test_global_basis_with_a_repeated_element_raises():
    gb = compute_global_basis(make_irreducible(A2, (1, 0)))
    elements = [gb.elements[0]] + gb.elements[:-1]
    with pytest.raises(InternalConsistencyError, match="linearly dependent"):
        GlobalBasis(gb.module, gb.crystal, elements, gb.monomial_words)


def test_string_matrix_is_factored_once_per_module_and_node(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a.nrows)
        return inverse(a)

    monkeypatch.setattr(bases, "inverse", counting)
    m = make_irreducible(make_cartan("A2"), (1, 1))
    n_weights = len(m.weight_multiplicities())
    kashiwara_operators(m, 0)
    assert len(calls) == n_weights
    braid_operator(m, 0)
    kashiwara_operators(m, 1)
    assert len(calls) == 2 * n_weights


def test_singular_string_matrix_raises(monkeypatch):
    def singular(a):
        raise ValueError("singular")

    monkeypatch.setattr(bases, "inverse", singular)
    m = make_irreducible(make_cartan("A1"), (2,))
    with pytest.raises(InternalConsistencyError,
                       match="string vectors do not span weight space"):
        kashiwara_operators(m, 0)


# -- global bases beyond the benchmark catalog -------------------------------

GOLDEN_DIGESTS = os.path.join(os.path.dirname(__file__), "golden",
                              "global_basis_digests.json")


def test_global_basis_digests_match_golden():
    """SHA-256 of the canonical JSON (as `qrmat canonical-basis` prints it)
    for modules outside the benchmark catalog, rank 3 included."""
    with open(GOLDEN_DIGESTS) as f:
        want = json.load(f)
    got = {}
    for key in want:
        label, hw = key[:-1].split(" V(")
        cd = make_cartan(label)
        gb = compute_global_basis(
            make_irreducible(cd, tuple(int(x) for x in hw.split(","))))
        got[key] = hashlib.sha256(
            _canon(gb.to_json_obj()).encode()).hexdigest()
    assert got == want
