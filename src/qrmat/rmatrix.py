"""Exact R-matrices on tensor products, three independent ways.

A BasedModule is a module with a chosen global basis, materialized as one
highest weight pin per irreducible summand; the embedding of the abstract
V_nu into the summand follows from the pin.  based_tensor produces the
canonical based structure on a tensor product: each pin is the isotypic
projection of (left hw pin) (x) (right global basis element) for the
elements singled out by the highest weight vertices of the combinatorial
pair crystal.

The three constructions:

  r_theta   (Theta^-1 (x) Theta^-1) Delta(Theta), with Theta transported
            from the pins of each factor and of the tensor product;
  r_krls    weight prefactor q^((wt v, wt w)) times
            (T_w0^-1 (x) T_w0^-1) Delta(T_w0), all braid products, no pins;
            the T_i of V (x) W come from the factors' T_i, so no string
            of V (x) W is solved;
  r_oracle  the unique total-weight-preserving operator with diagonal
            q^((wt v, wt w)) and strictly-dominance-triangular off-diagonal
            part such that Flip o R intertwines the module actions.

They must agree exactly; the checkers (method agreement, hexagon,
Yang-Baxter, the Gamma identity, normalization row, double braiding,
scaling independence) report counterexamples with both sides' values.
The braiding sigma_{V,W} = Flip o r_theta is the one commutor, and
based_tensor the one decomposition of V (x) W: the scale-block fault
injector reads its summands, and the isotypic decomposition in uqmod is
left to the tests as an independent oracle.

Every built object has one owner and lives as long as it does.  The
Cartan datum owns each V_nu, and a module its crystal graph, global basis,
weight splits, tensor products with right factors, J and K_2rho, its based
irreducible and one rescaled factor per coefficient of the scaling checks,
all in the owner's one store (uqmod.derived).  A based
summand is its module, weight and pin; it derives its V_nu, that
module's global basis and its embedding into the module in its own store,
on first read, so r_theta, which reads only the right factor's basis,
builds and verifies no other.  A factor whose pin the scaling checks
rescale by z reads its module's one global basis through its embedding,
z times the identity, so no crystal or global basis is built twice; its
Theta, embedding and tensor products are built once, like the based
irreducible's.  Only the rebuild of check_scaling is fresh on every call.
A based module owns, in its store, the maps of every system transported
on it (system_on, keyed by the system: Theta, Gamma, bar and the
wrong-sign Theta of the negative control) and, keyed by the right
factor, its based tensor products and braidings (based_tensor,
braiding); the rebuild pair of check_scaling is tensored only with
itself, so its products die with it.  The module under a based
module owns the sides of each system's compatibility squares
(sysmorph.generator_sides), so the based modules that check_scaling
rebuilds on one module transport against sides built once.
Nothing is keyed by object identity at module level, so objects a caller
drops are freed.
"""

import json
from typing import Callable, Dict, List, Optional, Tuple

from .bases import GlobalBasis, compute_global_basis, crystal_graph, tensor_crystal
from .cartan import CartanDatum
from .linalg import (SparseMatrix, Vec, diagonal_square_columns, flip_matrix,
                     inverse, kron_matrix, kron_vec, rref, v_clean, v_eq,
                     v_is_zero, v_scale)
from .qscalar import ONE, ZERO, FieldElement
from .sysmorph import (MorphismSpec, TransportedMap, bar_spec, gamma_spec,
                       k_2rho, make_J, make_Tw0, theta_spec, transport)
from .uqmod import (InternalConsistencyError, Module, derived,
                    make_irreducible, summand_order_key, tensor, weight_split)

WeightT = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Based modules: a module plus the pins of a chosen global basis
# ---------------------------------------------------------------------------

class BasedComponent:
    """One irreducible summand: its module, its weight nu and its pin, the
    highest global basis element inside the module.  The rest follows
    from the pin: the datum's V_nu (ref), that module's global basis
    (ref_gb) and the intertwiner from V_nu into the module (embed), each
    built on first read and kept on the component; a summand whose basis
    no request reads never builds or verifies them.
    """

    def __init__(self, module: Module, nu: WeightT, hw_vec: Vec):
        self.module = module
        self.nu = tuple(int(x) for x in nu)
        self.hw_vec = hw_vec
        self._derived: dict = {}

    @property
    @derived
    def ref(self) -> Module:
        return make_irreducible(self.module.cartan, self.nu)

    @property
    @derived
    def ref_gb(self) -> GlobalBasis:
        return compute_global_basis(self.ref)

    @property
    @derived
    def embed(self) -> SparseMatrix:
        """The intertwiner V_nu -> module sending each F-word of V_nu's pin
        to that F-word of this pin: the identity at a factor's own pin, z
        times it at z b_lambda."""
        cols = [self.module.apply_f_word(wd, self.hw_vec)
                for wd in self.ref.words]
        phi = SparseMatrix.from_columns(cols, self.module.dim)
        if _intertwiner_failures(phi, self.ref, self.module):
            raise InternalConsistencyError(
                "component embedding is not an intertwiner")
        return phi

    def basis_element(self, vertex: int) -> Vec:
        """The global basis element of this summand at a crystal vertex."""
        return v_clean(self.embed.apply(self.ref_gb.elements[vertex]))

    def lowest_element(self) -> Vec:
        return self.basis_element(self.ref_gb.low_vertex)


class BasedModule:
    """A module with a chosen global basis, held as per-summand pins."""

    def __init__(self, module: Module, components: List[BasedComponent]):
        self.module = module
        self.components = components
        self._derived: dict = {}

    @property
    def cartan(self) -> CartanDatum:
        return self.module.cartan

    def describe(self) -> str:
        return "+".join("V(" + ",".join(str(x) for x in c.nu) + ")"
                        for c in self.components)

    def __repr__(self):
        return f"BasedModule({self.describe()}, dim={self.module.dim})"


def _based_at(m: Module, pin: Vec) -> BasedModule:
    """The irreducible m based at a multiple of its highest weight vector."""
    return BasedModule(m, [BasedComponent(m, m.weights[m.hw_index], pin)])


@derived
def based_irreducible(m: Module) -> BasedModule:
    """The irreducible m based at its own pin, built once and kept on m."""
    return _based_at(m, m.hw_vector())


@derived
def based_tensor(bl: BasedModule, br: BasedModule) -> BasedModule:
    """The canonical based structure on the tensor product.

    For each pair of summands and each highest weight vertex (0, b) of
    their combinatorial pair crystal, the pin of weight nu is the
    component of (left pin) (x) (right basis element b), a vector of
    weight nu, in ker E along im F (uqmod.weight_split): its nu-isotypic
    projection, a highest weight vector in the class the crystal
    predicts.  The crystal's multiplicities must equal dim (ker E)_nu at
    every dominant weight.  Built once per factor pair and kept on the
    left factor, keyed by the right one.
    """
    big = tensor(bl.module, br.module)
    comps: List[BasedComponent] = []
    for lcomp in bl.components:
        lcry = crystal_graph(lcomp.ref)
        for rcomp in br.components:
            rcry = crystal_graph(rcomp.ref)
            pair = tensor_crystal(lcry, rcry)
            # tensor_crystal certifies a highest left factor, and vertex 0
            # is the one highest vertex of the irreducible left crystal
            for enc in pair.highest():
                b = enc % rcry.size
                nu = tuple(int(x) for x in pair.weight(enc))
                x = kron_vec(lcomp.hw_vec, rcomp.basis_element(b),
                             br.module.dim)
                h = weight_split(big, nu).hw_part(x)
                if v_is_zero(h):
                    raise InternalConsistencyError(
                        f"isotypic projection of the predicted pin for "
                        f"weight {nu} is zero")
                comps.append(BasedComponent(big, nu, h))
    counts: Dict[WeightT, int] = {}
    for c in comps:
        counts[c.nu] = counts.get(c.nu, 0) + 1
    hw_counts = {nu: len(weight_split(big, nu).hw_vectors)
                 for nu in big.weight_multiplicities()
                 if big.cartan.is_dominant(nu)}
    if counts != {nu: k for nu, k in hw_counts.items() if k}:
        raise InternalConsistencyError(
            f"crystal predicts multiplicities {counts} but the highest "
            f"weight vectors give {hw_counts}")
    return BasedModule(big, comps)


# ---------------------------------------------------------------------------
# Transported systems on based modules
# ---------------------------------------------------------------------------

@derived
def system_on(bm: BasedModule, spec: MorphismSpec) -> TransportedMap:
    """The map of the system spec on a based module: transported from each
    summand pin to spec.pin of that summand, and kept on the based module,
    keyed by the system."""
    return transport(bm.module, spec, [c.hw_vec for c in bm.components],
                     [spec.pin(c) for c in bm.components])


def tensor_of_maps(t1: TransportedMap, t2: TransportedMap,
                   big: Module) -> TransportedMap:
    if t1.bar_linear != t2.bar_linear:
        raise ValueError("tensor of maps wants matching linearity")
    return TransportedMap(big, kron_matrix(t1.matrix, t2.matrix),
                          t1.bar_linear,
                          f"({t1.provenance} (x) {t2.provenance})")


def _generator_pairs(src: Module, dst: Module):
    """(label, source action, target action, both diagonal) per generator."""
    for i in range(src.cartan.n):
        yield f"E_{i + 1}", src.E[i], dst.E[i], False
        yield f"F_{i + 1}", src.F[i], dst.F[i], False
        yield f"K_{i + 1}", src.k_i(i, 1), dst.k_i(i, 1), True


def _intertwiner_failures(mat: SparseMatrix, src: Module, dst: Module,
                          limit: int = 3) -> List[dict]:
    """The first limit cells where mat X_src != X_dst mat; a K square is
    multiplied out only where its diagonal decision finds a failure."""
    out: List[dict] = []
    for label, s_mat, d_mat, diagonal in _generator_pairs(src, dst):
        if diagonal and not diagonal_square_columns(mat, s_mat, d_mat):
            continue
        out.extend(_matrix_counterexamples(
            f"intertwiner {label}", mat @ s_mat, d_mat @ mat, limit))
        if len(out) >= limit:
            break
    return out[:limit]


def _matrix_counterexamples(label: str, lhs: SparseMatrix, rhs: SparseMatrix,
                            limit: int = 3) -> List[dict]:
    if lhs == rhs:
        return []
    diff = lhs.sub(rhs)
    out = []
    for r, c, _ in diff.to_triplets()[:limit]:
        out.append({"check": label, "row": r, "col": c,
                    "lhs": lhs.rows.get(r, {}).get(c, ZERO).to_json_obj(),
                    "rhs": rhs.rows.get(r, {}).get(c, ZERO).to_json_obj()})
    return out


# ---------------------------------------------------------------------------
# The three R-matrix constructions
# ---------------------------------------------------------------------------

class RMatrixResult:
    """An R-matrix on V (x) W in the left-major tensor basis."""

    def __init__(self, matrix: SparseMatrix, method: str,
                 left: BasedModule, right: BasedModule):
        self.matrix = matrix
        self.method = method
        self.left = left
        self.right = right
        self.cartan = left.cartan
        big = tensor(left.module, right.module)
        for r, c, _ in matrix.to_triplets():
            if big.weights[r] != big.weights[c]:
                raise InternalConsistencyError(
                    f"{method} R-matrix entry ({r},{c}) breaks the total "
                    f"weight grading")

    def apply(self, v: Vec) -> Vec:
        return v_clean(self.matrix.apply(v))

    def _weights_obj(self, bm: BasedModule):
        if len(bm.components) == 1:
            return [int(x) for x in bm.components[0].nu]
        return [[int(x) for x in c.nu] for c in bm.components]

    def to_json_obj(self) -> dict:
        dl, dr = self.left.module.dim, self.right.module.dim
        return {
            "method": self.method,
            "cartan": self.cartan.to_json_obj(),
            "lambda": self._weights_obj(self.left),
            "mu": self._weights_obj(self.right),
            "basis_order": [[t // dr, t % dr] for t in range(dl * dr)],
            "entries": [[r, c, x.to_json_obj()]
                        for r, c, x in self.matrix.to_triplets()],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))


def _pair_weight_diag(ml: Module, mr: Module) -> SparseMatrix:
    """q^((wt v, wt w)) on each v (x) w of the tensor basis."""
    cd = ml.cartan
    return SparseMatrix.diagonal([FieldElement.q_power(cd.bilinear(a, b))
                                  for a in ml.weights for b in mr.weights])


def r_theta(bl: BasedModule, br: BasedModule,
            wrong_sign: bool = False) -> RMatrixResult:
    """(Theta^-1 (x) Theta^-1) Delta(Theta): the composite of bar-linear
    maps, hence an honest q-linear matrix."""
    bt = based_tensor(bl, br)
    tv, tw, tt = (system_on(bm, theta_spec(wrong_sign))
                  for bm in (bl, br, bt))
    comp = tensor_of_maps(tv.inverse(), tw.inverse(), bt.module).compose(tt)
    if comp.bar_linear:
        raise InternalConsistencyError("Theta composite is not q-linear")
    return RMatrixResult(comp.matrix, "theta", bl, br)


def r_krls(bl: BasedModule, br: BasedModule) -> RMatrixResult:
    """Weight prefactor times (T_w0^-1 (x) T_w0^-1) Delta(T_w0).

    The quadratic Cartan prefactor acts on v (x) w as q^((wt v, wt w));
    every T_w0 is the calibrated braid product, so no global basis or pin
    enters this construction.  Delta(T_w0) is the braid product on the
    tensor module, whose T_i are (T_i (x) T_i) Theta_i of the factors'
    (sysmorph.braid_operator), so it builds no kernel or inverse of
    V (x) W; it is still verified against C_{T_w0}.
    """
    big = tensor(bl.module, br.module)
    tl = make_Tw0(bl.module)
    tr = make_Tw0(br.module)
    tt = make_Tw0(big)
    pre = _pair_weight_diag(bl.module, br.module)
    mat = (pre @ kron_matrix(tl.inverse().matrix, tr.inverse().matrix)
           @ tt.matrix)
    return RMatrixResult(mat, "krls", bl, br)


def _unique_solution(rows: List[Tuple[Vec, FieldElement]],
                     n_unknowns: int) -> List[FieldElement]:
    """Unique solution of a sparse exact linear system, or raise."""
    pivots, rest = rref([{**coeffs, n_unknowns: rhs} if rhs else coeffs
                         for coeffs, rhs in rows], n_unknowns)
    if rest:
        raise InternalConsistencyError(
            "triangular intertwiner system is inconsistent (solution "
            "space is empty); this signals a conventions bug")
    if len(pivots) != n_unknowns:
        raise InternalConsistencyError(
            f"triangular intertwiner system is underdetermined "
            f"({n_unknowns - len(pivots)} free parameters); this signals a "
            f"conventions bug")
    return [pivots[j].get(n_unknowns, ZERO) for j in range(n_unknowns)]


def r_oracle(bl: BasedModule, br: BasedModule) -> RMatrixResult:
    """The unique R with diagonal q^((wt v, wt w)), off-diagonal part
    supported on strictly dominance-higher left-factor weights within each
    total weight space, such that Flip o R intertwines the actions.

    Any two solutions would differ by a unitriangular automorphism acting
    as a scalar on each isotypic component, forcing the scalar to be 1;
    the solver checks the solution point is unique outright.
    """
    ml, mr = bl.module, br.module
    big = tensor(ml, mr)
    wv = tensor(mr, ml)
    cd = big.cartan
    dl, dr = ml.dim, mr.dim

    by_total: Dict[WeightT, List[int]] = {}
    for t in range(big.dim):
        by_total.setdefault(big.weights[t], []).append(t)
    unknowns: List[Tuple[int, int]] = []
    for t in range(big.dim):
        low = ml.weights[t // dr]
        for s in by_total[big.weights[t]]:
            high = ml.weights[s // dr]
            if high != low and cd.dominance_leq(low, high):
                unknowns.append((s, t))

    p = flip_matrix(dl, dr)
    p_inv = flip_matrix(dr, dl)
    d_mat = _pair_weight_diag(ml, mr)

    rows: Dict[tuple, Dict[int, FieldElement]] = {}
    rhs: Dict[tuple, FieldElement] = {}
    gens = [(g, big.E[i] if g == "E" else big.F[i],
             p_inv @ (wv.E[i] if g == "E" else wv.F[i]) @ p)
            for i in range(cd.n) for g in ("E", "F")]
    for gnum, (_, m_mat, m2_mat) in enumerate(gens):
        m2_cols = m2_mat.transpose()
        for k, (s, t) in enumerate(unknowns):
            for c, mv in m_mat.rows.get(t, {}).items():
                rows.setdefault((gnum, s, c), {})
                rows[(gnum, s, c)][k] = rows[(gnum, s, c)].get(k, ZERO) + mv
            for r, m2v in m2_cols.rows.get(s, {}).items():
                rows.setdefault((gnum, r, t), {})
                rows[(gnum, r, t)][k] = rows[(gnum, r, t)].get(k, ZERO) - m2v
        rhs_mat = (m2_mat @ d_mat).sub(d_mat @ m_mat)
        for r, c, x in rhs_mat.to_triplets():
            rhs[(gnum, r, c)] = x
            rows.setdefault((gnum, r, c), {})
    # the answer does not depend on the equation order, but the cost does:
    # rref pivots each equation on its first surviving unknown as it
    # arrives, and in sorted order (generator, row, column) G2
    # V(1,0) (x) V(1,0) solves in 0.2-0.4 s where three shuffles of the
    # same equations took 5, 9 and 34 s
    system = [( {k: v for k, v in rows[key].items() if not v.is_zero()},
                rhs.get(key, ZERO)) for key in sorted(rows)]
    x = _unique_solution(system, len(unknowns))

    out_rows = {t: dict(row) for t, row in d_mat.rows.items()}
    for k, (s, t) in enumerate(unknowns):
        if not x[k].is_zero():
            out_rows.setdefault(s, {})[t] = x[k]
    # Flip o R intertwines without a further check: the system holds every
    # entry of M2 R = R M for each E_i and F_i, and _unique_solution raises
    # on any inconsistent row, so the returned R satisfies them exactly;
    # K_i commutes with Flip o R since R and the flip keep total weight
    mat = SparseMatrix(big.dim, big.dim, out_rows)
    return RMatrixResult(mat, "oracle", bl, br)


_R_BUILDERS: Dict[str, Callable[[BasedModule, BasedModule], RMatrixResult]] \
    = {"theta": r_theta, "krls": r_krls, "oracle": r_oracle}


def r_matrix(bl: BasedModule, br: BasedModule,
             method: str = "theta") -> RMatrixResult:
    try:
        builder = _R_BUILDERS[method]
    except KeyError:
        raise ValueError(f"unknown R-matrix method {method!r}") from None
    return builder(bl, br)


# ---------------------------------------------------------------------------
# The braiding
# ---------------------------------------------------------------------------

@derived
def braiding(bl: BasedModule, br: BasedModule) -> SparseMatrix:
    """sigma_{V,W} = Flip o r_theta: V (x) W -> W (x) V, verified as an
    intertwiner and kept on the left factor, keyed by the right one."""
    sigma = flip_matrix(bl.module.dim, br.module.dim) @ r_theta(bl, br).matrix
    fails = _intertwiner_failures(sigma, tensor(bl.module, br.module),
                                  tensor(br.module, bl.module))
    if fails:
        raise InternalConsistencyError(
            "braiding does not intertwine the actions: "
            + json.dumps(fails[0]))
    return sigma


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------

class CheckReport:
    def __init__(self, name: str, counterexamples: List[dict]):
        self.name = name
        self.counterexamples = counterexamples
        self.passed = not counterexamples

    def to_json_obj(self) -> dict:
        return {"name": self.name, "pass": self.passed,
                "counterexamples": self.counterexamples}

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"CheckReport({self.name}: {state})"


RESCALE_COEFFS: Tuple[FieldElement, ...] = (
    FieldElement.q_power(1),
    ONE + FieldElement.q_power(1),
    FieldElement.from_int(2) - FieldElement.q_power(-1),
)


@derived
def _rescaled_factor(m: Module, z: FieldElement) -> BasedModule:
    """The irreducible m based at the pin z b_lambda, built once per
    coefficient and kept on m; the scaling checks pass only the fixed
    RESCALE_COEFFS, so m keeps at most three.  Its Theta, embedding and
    based tensor products are therefore built and verified once too.  Its
    embedding sends the F-words of b_lambda to those of z b_lambda, so it
    is z times the identity, and its basis elements are the module's one
    global basis read through it, z G(b).

    The global basis of the pin z v (v = b_lambda) is z G(b).  G(b) is
    fixed by the bar involution, lies in the crystal lattice L of v with
    residue b, and is integral over v.  The pin z v has the lattice zL and
    the bar involution that fixes its F-words, v_bar twisted by z/bar(z),
    which fixes z G(b).  The frames of zL are z times those of L, so z G(b)
    has the coordinates in zL that G(b) has in L, hence residue b; and
    z G(b) is integral over z v.  These four conditions determine the
    element, so z G(b) is the basis element of the pin z v at vertex b.
    """
    return _based_at(m, v_scale(m.hw_vector(), z))


# the faults each check can inject, keyed by its report (and suite) name
FAULTS: Dict[str, Tuple[str, ...]] = {
    "method-agreement": ("theta-sign",),
    "hexagon": ("scale-block",),
    "ybe": ("scale-block", "wrong-flip"),
}


def _fault(fault: Optional[str], check: str) -> Optional[str]:
    """fault, once it is None or one of the faults FAULTS lists for check."""
    if fault is not None and fault not in FAULTS[check]:
        raise ValueError(f"unknown fault {fault!r}")
    return fault


def check_method_agreement(bl: BasedModule, br: BasedModule,
                           fault: Optional[str] = None) -> CheckReport:
    """r_theta == r_krls == r_oracle entrywise, and r_theta is invariant
    under rescaling both factor pins by each fixed test coefficient.

    fault="theta-sign" builds r_theta from the wrong-sign Theta; the
    report must then carry a counterexample.
    """
    rt = r_theta(bl, br, wrong_sign=bool(_fault(fault, "method-agreement")))
    rk = r_krls(bl, br)
    ro = r_oracle(bl, br)
    ces: List[dict] = []
    ces += _matrix_counterexamples("theta vs krls", rt.matrix, rk.matrix)
    ces += _matrix_counterexamples("theta vs oracle", rt.matrix, ro.matrix)
    if not ces:
        for z in RESCALE_COEFFS:
            redo = r_theta(_rescaled_factor(bl.module, z),
                           _rescaled_factor(br.module, z))
            ces += _matrix_counterexamples(
                f"rescaled pins by {z}", redo.matrix, rt.matrix)
    return CheckReport("method-agreement", ces)


def check_scaling(bl: BasedModule, br: BasedModule) -> CheckReport:
    """Identical r_theta under rescaling each hw pin separately, and the
    component Theta scales by exactly z/bar(z).  Entries are canonical, so
    equal matrices serialize to the same bytes."""
    base = r_theta(bl, br).matrix
    # this check exists to rebuild: fresh based modules at the factors' own
    # pins, not the kept ones, so each request transports their Theta anew
    redo = r_theta(_based_at(bl.module, bl.module.hw_vector()),
                   _based_at(br.module, br.module.hw_vector()))
    ces = _matrix_counterexamples("rebuild determinism", redo.matrix, base)
    theta = theta_spec()
    theta_base = {"left": system_on(bl, theta), "right": system_on(br, theta)}
    for z in RESCALE_COEFFS:
        twist = z / z.bar()
        for side in ("left", "right"):
            bl2 = _rescaled_factor(bl.module, z) if side == "left" else bl
            br2 = _rescaled_factor(br.module, z) if side == "right" else br
            scaled = system_on(bl2 if side == "left" else br2, theta)
            want = theta_base[side].matrix.scale(twist)
            ces += _matrix_counterexamples(
                f"theta component scaling z={z} {side}",
                scaled.matrix, want)
            ces += _matrix_counterexamples(
                f"rescale {side} pin by {z}", r_theta(bl2, br2).matrix, base)
    return CheckReport("scaling", ces)


def scale_isotypic_block(mat: SparseMatrix, bt: BasedModule, index: int,
                         z: FieldElement) -> SparseMatrix:
    """mat composed with z times the isotypic projector of the summand
    index of bt (in summand_order_key order) plus the projector onto the
    rest: a fault injector."""
    key = summand_order_key(bt.cartan)
    comps = sorted(bt.components, key=lambda c: key(c.nu))
    cols: List[Vec] = []
    coefs: List[FieldElement] = []
    for comp in comps:
        block = list(comp.embed.transpose().rows.values())
        cols.extend(block)
        coefs.extend([z if comp.nu == comps[index].nu else ONE] * len(block))
    change = SparseMatrix.from_columns(cols, bt.module.dim)
    return mat @ change @ SparseMatrix.diagonal(coefs) @ inverse(change)


def check_hexagon(bu: BasedModule, bv: BasedModule, bw: BasedModule,
                  fault: Optional[str] = None) -> CheckReport:
    """Both cabling equalities, with the tensor-object sides built from the
    tensor-product pins.

    fault="scale-block" multiplies one isotypic block of sigma_{V,W} by q
    before checking; the report must then carry a counterexample.
    """
    du, dv, dw = bu.module.dim, bv.module.dim, bw.module.dim
    s_vw = braiding(bv, bw)
    if _fault(fault, "hexagon"):
        s_vw = scale_isotypic_block(s_vw, based_tensor(bv, bw), 0,
                                    FieldElement.q_power(1))
    s_uw = braiding(bu, bw)
    s_uv = braiding(bu, bv)
    buv = based_tensor(bu, bv)
    bvw = based_tensor(bv, bw)
    s_uv_w = braiding(buv, bw)
    s_u_vw = braiding(bu, bvw)

    lhs1 = kron_matrix(s_uw, SparseMatrix.identity(dv)) \
        @ kron_matrix(SparseMatrix.identity(du), s_vw)
    lhs2 = kron_matrix(SparseMatrix.identity(dv), s_uw) \
        @ kron_matrix(s_uv, SparseMatrix.identity(dw))
    ces = _matrix_counterexamples("(s_UW x Id)(Id x s_VW) vs s_{UV,W}",
                                  lhs1, s_uv_w)
    ces += _matrix_counterexamples("(Id x s_UW)(s_UV x Id) vs s_{U,VW}",
                                   lhs2, s_u_vw)
    return CheckReport("hexagon", ces)


def check_ybe(bv: BasedModule, fault: Optional[str] = None) -> CheckReport:
    """sigma is a module map of V (x) V and satisfies the braid relation
    (s x Id)(Id x s)(s x Id) == (Id x s)(s x Id)(Id x s) on V^(x)3.

    fault="wrong-flip" composes the R-matrix with the flip on the wrong
    side.  That operator happens to satisfy the bare braid relation too,
    so the discriminating axiom is the module-map half of the braiding
    definition, which it fails.  fault="scale-block" multiplies one
    isotypic block of sigma by q; that stays a module map but breaks the
    braid relation.
    """
    fault = _fault(fault, "ybe")
    d = bv.module.dim
    bt = based_tensor(bv, bv)
    if fault == "wrong-flip":
        s = r_theta(bv, bv).matrix @ flip_matrix(d, d)
    else:
        s = braiding(bv, bv)
    if fault == "scale-block":
        s = scale_isotypic_block(s, bt, 0, FieldElement.q_power(1))
    ces = [dict(ce, check="sigma module map: " + ce["check"])
           for ce in _intertwiner_failures(s, bt.module, bt.module)]
    a = kron_matrix(s, SparseMatrix.identity(d))
    b = kron_matrix(SparseMatrix.identity(d), s)
    ces += _matrix_counterexamples("braid relation on V (x) V (x) V",
                                   a @ b @ a, b @ a @ b)
    return CheckReport("ybe", ces)


def check_gamma_lemma(bl: BasedModule, br: BasedModule) -> CheckReport:
    """(Gamma_V (x) Gamma_W) o Gamma_{V (x) W}^-1 acts as the identity."""
    bt = based_tensor(bl, br)
    gamma = gamma_spec()
    comp = tensor_of_maps(system_on(bl, gamma), system_on(br, gamma),
                          bt.module).compose(system_on(bt, gamma).inverse())
    ces: List[dict] = []
    if comp.bar_linear:
        ces.append({"check": "gamma composite linearity",
                    "lhs": "bar-linear", "rhs": "q-linear"})
    else:
        ces = _matrix_counterexamples(
            "(Gamma x Gamma) Gamma_VW^-1 vs identity", comp.matrix,
            SparseMatrix.identity(bt.module.dim))
    return CheckReport("gamma-lemma", ces)


def check_lemma_identities(bm: BasedModule) -> CheckReport:
    """The operator identities tying the symmetries together, on one
    based module:

      1. Gamma = bar o T_w0^-1
      2. Theta = K_2rho o bar o J
      3. J acts on each weight-mu vector by q^((mu,mu)/2 + (mu,rho))
      4. Theta acts on each global basis element of weight mu by
         q^(-(mu,mu)/2 + (mu,rho))
      5. Gamma^-1 Theta = J T_w0
      6. Theta o Theta = id
    """
    m = bm.module
    cd = bm.cartan
    theta = system_on(bm, theta_spec())
    gamma = system_on(bm, gamma_spec())
    bar = system_on(bm, bar_spec())
    tw0 = make_Tw0(m)
    jmap = make_J(m)
    ces: List[dict] = []

    def cmp(label, lhs: TransportedMap, rhs: TransportedMap):
        if lhs.bar_linear != rhs.bar_linear:
            ces.append({"check": label, "lhs": "bar-linearity mismatch",
                        "rhs": ""})
            return
        ces.extend(_matrix_counterexamples(label, lhs.matrix, rhs.matrix))

    cmp("Gamma vs bar o Tw0^-1", gamma, bar.compose(tw0.inverse()))
    cmp("Theta vs K2rho o bar o J", theta,
        k_2rho(m).compose(bar).compose(jmap))
    for t in range(m.dim):
        mu = m.weights[t]
        e = cd.bilinear(mu, mu) / 2 + cd.bilinear(mu, cd.rho)
        want = FieldElement.q_power(e)
        got = jmap.matrix.rows.get(t, {}).get(t, ZERO)
        if got != want:
            ces.append({"check": "J weight scalar", "row": t, "col": t,
                        "lhs": got.to_json_obj(), "rhs": want.to_json_obj()})
    for comp in bm.components:
        for vertex in range(comp.ref_gb.crystal.size):
            b = comp.basis_element(vertex)
            mu = m.weights[next(iter(b))]
            e = -cd.bilinear(mu, mu) / 2 + cd.bilinear(mu, cd.rho)
            want = v_scale(b, FieldElement.q_power(e))
            got = theta.apply(b)
            if not v_eq(got, want):
                ces.append({"check": "Theta global basis eigenvalue",
                            "vertex": vertex, "lhs": _vec_json(got),
                            "rhs": _vec_json(want)})
    cmp("Gamma^-1 Theta vs J Tw0", gamma.inverse().compose(theta),
        jmap.compose(tw0))
    comp2 = theta.compose(theta)
    if comp2.bar_linear:
        ces.append({"check": "Theta involution linearity",
                    "lhs": "bar-linear", "rhs": "q-linear"})
    else:
        ces.extend(_matrix_counterexamples(
            "Theta o Theta vs identity", comp2.matrix,
            SparseMatrix.identity(m.dim)))
    return CheckReport("lemma-identities", ces)


def check_normalization(bl: BasedModule, br: BasedModule) -> CheckReport:
    """R(b_lambda (x) c) = q^((lambda, wt c)) b_lambda (x) c for every
    global basis element c of the right factor."""
    if len(bl.components) != 1:
        raise ValueError("normalization row wants an irreducible left factor")
    result = r_theta(bl, br)
    lam = bl.components[0].nu
    hw = bl.components[0].hw_vec
    cd = bl.cartan
    dr = br.module.dim
    ces = []
    for comp in br.components:
        for vertex in range(comp.ref_gb.crystal.size):
            c_vec = comp.basis_element(vertex)
            wt = br.module.weights[next(iter(c_vec))]
            x = kron_vec(hw, c_vec, dr)
            got = result.apply(x)
            want = v_scale(x, FieldElement.q_power(cd.bilinear(lam, wt)))
            if not v_eq(got, want):
                ces.append({"check": "normalization row",
                            "vertex": vertex,
                            "lhs": _vec_json(got), "rhs": _vec_json(want)})
                if len(ces) == 3:
                    return CheckReport("normalization", ces)
    return CheckReport("normalization", ces)


def _vec_json(v: Vec) -> list:
    return [[t, v[t].to_json_obj()] for t in sorted(v)]


def check_double_braiding(bl: BasedModule, br: BasedModule
                          ) -> Tuple[CheckReport, List[dict]]:
    """sigma_{W,V} o sigma_{V,W} acts as a scalar on each summand of the
    based tensor product, highest first (uqmod.summand_order_key); the
    scalars are returned as data, not asserted."""
    sq = braiding(br, bl) @ braiding(bl, br)
    bt = based_tensor(bl, br)
    key = summand_order_key(bt.cartan)
    ces: List[dict] = []
    scalars: List[dict] = []
    for k, comp in enumerate(sorted(bt.components,
                                    key=lambda c: key(c.nu))):
        head = comp.hw_vec
        image = v_clean(sq.apply(head))
        t = next(iter(head))
        if t not in image:
            ces.append({"check": f"double braiding block {k}",
                        "lhs": _vec_json(image), "rhs": "scalar multiple"})
            continue
        scalar = image[t] / head[t]
        for vec in comp.embed.transpose().rows.values():
            got, want = v_clean(sq.apply(vec)), v_scale(vec, scalar)
            if not v_eq(got, want):
                ces.append({"check": f"double braiding block {k}",
                            "lhs": _vec_json(got), "rhs": _vec_json(want)})
                break
        scalars.append({"component": list(comp.nu), "index": k,
                        "scalar": scalar.to_json_obj()})
    return CheckReport("double-braiding", ces), scalars
