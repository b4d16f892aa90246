"""Integrable highest-weight modules and their tensor products.

A Module is a weight-graded vector space with sparse E_i / F_i actions over
FieldElement; K_H acts diagonally by q^(<H, wt>) and is derived from the
stored weights rather than stored itself.

V_lambda is built by the Shapovalov-radical method: span depth by depth with
F-monomials applied to a formal highest-weight vector, track the contravariant
form <F_i x, y> = <x, E_i y> exactly, and keep only candidates that enlarge
the rank of the form (the rest are expressed through the survivors). The
defining relations are then verified as matrix identities on the result; a
failure raises InternalConsistencyError rather than returning a bad module.

Tensor products use the coproduct

    E_i -> E_i (x) K_i + 1 (x) E_i,   F_i -> F_i (x) 1 + K_i^(-1) (x) F_i,

built as written from linalg's Kronecker products and the K_i^(+-1) each
factor keeps, on linalg's tensor basis (ordered pairs, left factor major).
A tensor product refers to its two factors, from which sysmorph builds its
braid operators.

What a module or a datum derives (K_i powers, divided powers, weight
splits, tensor products, V_lambda; in bases and sysmorph its strings,
crystal operators, crystal graph, global basis, braid operators and T_w0,
and a crystal's pair crystals; in rmatrix its based irreducible, a based
summand's V_nu, global basis and embedding, and a based module's
transported systems, based tensor products and braidings) is kept on it
by one decorator, derived, in the one store its class declares.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from typing import Dict, List, Optional, Sequence, Tuple

from .cartan import CartanDatum
from .linalg import (
    Echelon,
    SparseMatrix,
    Vec,
    inverse,
    kernel,
    kron_matrix,
    rref,
    v_add,
    v_clean,
    v_is_zero,
    v_scale,
)
from .qscalar import FieldElement, ONE, ZERO, q_int

WeightT = Tuple[int, ...]


class ModuleConstructionError(ValueError):
    """Bad inputs to a module constructor (non-dominant weight, mixed data)."""


class InternalConsistencyError(RuntimeError):
    """A verified-by-construction identity failed; results are untrustworthy."""


def _as_int_weight(wt: Sequence) -> WeightT:
    out = []
    for x in wt:
        f = Fraction(x)
        if f.denominator != 1:
            raise ModuleConstructionError(f"non-integral weight coordinate {x}")
        out.append(int(f))
    return tuple(out)


def derived(build):
    """Keep what build(owner, *args) returns on its owner.

    The first call with an owner and an argument tuple builds the object;
    every later one returns that same object from owner._derived, the one
    store each owner class declares.  The key is the builder and the
    positional arguments, so callers pass those in one normal form (see
    make_irreducible and weight_split).  What is kept lives as long as its
    owner and keeps its arguments alive as long.
    """
    @wraps(build)
    def get(owner, *args):
        store = owner._derived
        key = (build, args)
        if key not in store:
            store[key] = build(owner, *args)
        return store[key]
    return get


class Module:
    """Weight-graded module with exact sparse generator actions."""

    def __init__(self, cartan: CartanDatum, weights: Sequence[WeightT],
                 E: Dict[int, SparseMatrix], F: Dict[int, SparseMatrix],
                 provenance: str, hw_index: Optional[int] = None,
                 words: Optional[Sequence[Tuple[int, ...]]] = None,
                 factors: Optional[Tuple[Module, Module]] = None):
        self.cartan = cartan
        self.weights = tuple(_as_int_weight(w) for w in weights)
        self.dim = len(self.weights)
        self.E = E
        self.F = F
        self.provenance = provenance
        self.hw_index = hw_index
        self.words = tuple(words) if words is not None else None
        self.factors = factors
        self._weight_spaces: Dict[WeightT, List[int]] = {}
        for idx, w in enumerate(self.weights):
            self._weight_spaces.setdefault(w, []).append(idx)
        self._derived: dict = {}

    # -- structure ------------------------------------------------------------

    def weight_space(self, wt: Sequence) -> List[int]:
        return list(self._weight_spaces.get(tuple(int(x) for x in wt), []))

    def weight_multiplicities(self) -> Dict[WeightT, int]:
        return {w: len(ix) for w, ix in self._weight_spaces.items()}

    def weight_plus_alpha(self, wt: WeightT, i: int, sign: int = 1) -> WeightT:
        a = self.cartan.A
        return tuple(wt[k] + sign * a[k][i] for k in range(self.cartan.n))

    @derived
    def k_i(self, i: int, power: int) -> SparseMatrix:
        """K_i^power = K_{d_i H_i}^power, diagonal q^(power d_i <H_i, wt>);
        kept on the module and shared, so callers must not mutate it."""
        d = self.cartan.d[i]
        return SparseMatrix.diagonal([FieldElement.q_power(power * d * wt[i])
                                      for wt in self.weights])

    def hw_vector(self) -> Vec:
        if self.hw_index is None:
            raise ModuleConstructionError("module carries no pinned highest weight")
        return {self.hw_index: ONE}

    def apply_f_word(self, word: Sequence[int], v: Vec) -> Vec:
        """F_{word[0]} F_{word[1]} ... F_{word[-1]} v."""
        out = v
        for i in reversed(word):
            out = self.F[i].apply(out)
        return out

    @derived
    def divided_power(self, gen: str, i: int, n: int) -> SparseMatrix:
        """E_i^(n) or F_i^(n) = X^n / [n]_{q_i}!."""
        if n < 0:
            raise ValueError("divided power wants n >= 0")
        if n == 0:
            return SparseMatrix.identity(self.dim)
        prev = self.divided_power(gen, i, n - 1)
        mat = {"E": self.E, "F": self.F}[gen][i]
        return (mat @ prev).scale(q_int(n, self.cartan.d[i]).inv())

    def __repr__(self):
        return f"Module({self.provenance}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Irreducible construction
# ---------------------------------------------------------------------------

def make_irreducible(cartan: CartanDatum, hw: Sequence[int]) -> Module:
    """Construct V_lambda with its highest-weight pin at basis index 0.

    The module is built once per Cartan datum and highest weight and kept
    on the datum; later calls return that same module.  Only finite type
    is built, since only there is V_lambda finite-dimensional.
    """
    lam = _as_int_weight(hw)
    if len(lam) != cartan.n:
        raise ModuleConstructionError("weight length does not match rank")
    if any(x < 0 for x in lam):
        raise ModuleConstructionError(f"highest weight {lam} is not dominant")
    if not cartan.finite:
        raise ModuleConstructionError(
            "irreducible modules need a finite-type Cartan datum")
    return _irreducible(cartan, lam)


@derived
def _irreducible(cartan: CartanDatum, lam: WeightT) -> Module:
    n = cartan.n
    # per-basis bookkeeping, indexed by construction order
    weights: List[WeightT] = [lam]
    words: List[Tuple[int, ...]] = [()]
    e_cols: List[Dict[int, Vec]] = [{i: {} for i in range(n)}]  # E_i of each basis vec
    f_cols: List[Dict[int, Vec]] = [{}]                         # filled as depths close
    gram: Dict[Tuple[int, int], FieldElement] = {(0, 0): ONE}

    def gram_get(a: int, b: int) -> FieldElement:
        if weights[a] != weights[b]:
            return ZERO
        return gram.get((a, b)) or gram.get((b, a)) or ZERO

    def pair_with_vec(a: int, v: Vec) -> FieldElement:
        out = ZERO
        for b, c in v.items():
            g = gram_get(a, b)
            if not g.is_zero():
                out = out + g * c
        return out

    frontier = [0]
    while frontier:
        # candidates: (i, parent) in deterministic order -> F_i(parent)
        by_weight: Dict[WeightT, List[Tuple[int, int]]] = {}
        for parent in frontier:
            for i in range(n):
                wt = tuple(weights[parent][k] - cartan.A[k][i] for k in range(n))
                by_weight.setdefault(wt, []).append((i, parent))
        new_frontier: List[int] = []
        pending_f: Dict[Tuple[int, int], Vec] = {}
        for wt in sorted(by_weight):
            cands = by_weight[wt]
            # E_j of each candidate F_i(parent): F_i(E_j parent) + delta_ij [..] parent
            cand_e: List[Dict[int, Vec]] = []
            for i, parent in cands:
                e_of_c: Dict[int, Vec] = {}
                for j in range(n):
                    ej_par = e_cols[parent][j]
                    moved: Vec = {}
                    for b, c in ej_par.items():
                        fb = f_cols[b].get(i)
                        if fb:
                            moved = v_add(moved, v_scale(fb, c))
                    if i == j:
                        coef = q_int(weights[parent][i], cartan.d[i])
                        if not coef.is_zero():
                            moved = v_add(moved, {parent: coef})
                    e_of_c[j] = v_clean(moved)
                cand_e.append(e_of_c)
            # Gram of candidates via <F_i p, c> = <p, E_i c>
            m = len(cands)
            g = [[ZERO] * m for _ in range(m)]
            for a in range(m):
                ia, pa = cands[a]
                for b in range(a, m):
                    val = pair_with_vec(pa, cand_e[b][ia])
                    g[a][b] = val
                    g[b][a] = val
            # greedy selection in candidate order: c survives iff the Gram
            # block of the survivors and c is nonsingular, i.e. iff its
            # Schur complement against the (nonsingular) survivor block is
            # nonzero, which is c's own entry of its row reduced against the
            # survivor rows
            block = Echelon()
            selected = [c for c in range(m) if block.add(block.reduce(
                {b: x for b, x in enumerate(g[c]) if not x.is_zero()}),
                pivot=c)]
            # register survivors as new basis vectors
            new_ids: Dict[int, int] = {}
            for c_idx in selected:
                i, parent = cands[c_idx]
                bid = len(weights)
                new_ids[c_idx] = bid
                weights.append(wt)
                words.append((i,) + words[parent])
                e_cols.append(cand_e[c_idx])
                f_cols.append({})
                gram[(bid, bid)] = g[c_idx][c_idx]
                for other_idx, other_bid in new_ids.items():
                    if other_bid != bid:
                        gram[(other_bid, bid)] = g[other_idx][c_idx]
                pending_f[cands[c_idx]] = {bid: ONE}
                new_frontier.append(bid)
            # non-survivors: the reduced survivor rows are G_S^-1 G, so their
            # column c holds the x with G_S x = the pairings of c
            for c_idx in range(m):
                if c_idx not in new_ids:
                    pending_f[cands[c_idx]] = {
                        new_ids[r]: block.rows[r][c_idx] for r in selected
                        if c_idx in block.rows[r]}
        # freeze F on the previous depth
        for (i, parent), img in pending_f.items():
            f_cols[parent][i] = img
        for parent in frontier:
            for i in range(n):
                f_cols[parent].setdefault(i, {})
        frontier = new_frontier

    dim = len(weights)
    for bid in range(dim):
        for i in range(n):
            f_cols[bid].setdefault(i, {})  # deepest vectors map to zero

    E = {i: SparseMatrix.from_columns([e_cols[b][i] for b in range(dim)], dim)
         for i in range(n)}
    F = {i: SparseMatrix.from_columns([f_cols[b][i] for b in range(dim)], dim)
         for i in range(n)}
    mod = Module(cartan, weights, E, F, provenance="irreducible-with-hw-pin",
                 hw_index=0, words=words)
    verify_module(mod)
    return mod


# ---------------------------------------------------------------------------
# Relation checking
# ---------------------------------------------------------------------------

def verify_module(m: Module) -> None:
    """Exact checks of the defining relations; raises on any failure.

    K_H acts diagonally by q^(<H, wt>) on the stored weights, and the
    Drinfeld-Jimbo presentation asks for five relations:
      1. grading: E_i raises weights by alpha_i and F_i lowers them;
      2. conjugation: K_H E_i K_H^-1 = q^(<H, alpha_i>) E_i, and F_i with
         the sign reversed;
      3. [E_i, F_j] = delta_ij (K_i - K_i^-1)/(q_i - q_i^-1);
      4. the quantum Serre relations in E and in F;
      5. E_i and F_i act nilpotently.
    The grading check decides 1 and, through it, 2 and 5 (see below); 3
    and 4 are matrix identities compared entrywise.
    """
    cd = m.cartan
    n = cd.n
    # every nonzero E_i[r,c] has wt_r - wt_c = alpha_i, so
    # (K_{H_j} E_i K_{H_j}^-1)[r,c] = q^(A[j][i]) E_i[r,c] exactly (F_i
    # likewise with -alpha_i); and E_i^k[r,c] != 0 needs k + 1 weights of
    # the finite list in one alpha_i-string, so E_i and F_i vanish at the
    # length of the longest one
    for i in range(n):
        _check_weight_grading(m, m.E[i], i, +1)
        _check_weight_grading(m, m.F[i], i, -1)
    # [E_i, F_j] = delta_ij (K_i - K_i^-1)/(q_i - q_i^-1)
    for i in range(n):
        for j in range(n):
            lhs = (m.E[i] @ m.F[j]).sub(m.F[j] @ m.E[i])
            if i == j:
                qi = FieldElement.q_power(cd.d[i])
                denom = (qi - qi.inv()).inv()
                rhs = m.k_i(i, 1).sub(m.k_i(i, -1)).scale(denom)
            else:
                rhs = SparseMatrix.zeros(m.dim, m.dim)
            if lhs != rhs:
                raise InternalConsistencyError(f"[E_{i}, F_{j}] relation failed")
    # quantum Serre relations
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            top = 1 - cd.A[i][j]
            for gen in ("E", "F"):
                acc = SparseMatrix.zeros(m.dim, m.dim)
                mid = {"E": m.E, "F": m.F}[gen][j]
                for k in range(top + 1):
                    term = (m.divided_power(gen, i, k) @ mid) @ \
                        m.divided_power(gen, i, top - k)
                    acc = acc.add(term) if k % 2 == 0 else acc.sub(term)
                if not acc.is_zero():
                    raise InternalConsistencyError(
                        f"quantum Serre relation failed for {gen}, ({i},{j})")


def _check_weight_grading(m: Module, mat: SparseMatrix, i: int, sign: int) -> None:
    for r, row in mat.rows.items():
        for c in row:
            if m.weights[r] != m.weight_plus_alpha(m.weights[c], i, sign):
                raise InternalConsistencyError("weight grading violated")


# ---------------------------------------------------------------------------
# Tensor products
# ---------------------------------------------------------------------------

@derived
def tensor(m: Module, w: Module) -> Module:
    """V (x) W with the coproduct actions, on linalg's tensor basis.

    Built once per factor pair and kept on the left factor, under a key
    that holds w.  The result's factors are (m, w), which
    sysmorph.braid_operator reads; the reference makes no object live
    longer.
    """
    if m.cartan is not w.cartan:
        # allow equal-but-distinct data only if structurally identical
        if m.cartan.A != w.cartan.A or m.cartan.d != w.cartan.d:
            raise ModuleConstructionError("tensor factors use different Cartan data")
    one_m, one_w = SparseMatrix.identity(m.dim), SparseMatrix.identity(w.dim)
    E = {i: kron_matrix(m.E[i], w.k_i(i, 1)).add(kron_matrix(one_m, w.E[i]))
         for i in range(m.cartan.n)}
    F = {i: kron_matrix(m.F[i], one_w).add(kron_matrix(m.k_i(i, -1), w.F[i]))
         for i in range(m.cartan.n)}
    weights = [tuple(a + b for a, b in zip(x, y))
               for x in m.weights for y in w.weights]
    return Module(m.cartan, weights, E, F, provenance="tensor",
                  factors=(m, w))


def highest_weight_vectors(m: Module, nu: Sequence[int]) -> List[Vec]:
    """Basis of the joint E_i kernel inside the nu weight space."""
    nu = tuple(int(x) for x in nu)
    idx = m.weight_space(nu)
    if not idx:
        return []
    rows: List[Vec] = []
    for i in range(m.cartan.n):
        tgt = m.weight_space(m.weight_plus_alpha(nu, i))
        blk = m.E[i].restrict(tgt, idx)
        rows.extend(blk.rows[r] for r in sorted(blk.rows))
    out = []
    for kv in kernel(SparseMatrix(len(rows), len(idx), dict(enumerate(rows)))):
        out.append(v_clean({idx[local]: c for local, c in kv.items()}))
    return out


class WeightSplit:
    """M_nu = (ker E)_nu (+) (im F)_nu for one weight nu of a finite-
    dimensional module.

    A summand of highest weight above nu meets M_nu inside the image of
    F, and a summand of highest weight nu meets it in its highest weight
    vector, so the component of a weight-nu vector in ker E along im F is
    its nu-isotypic projection.
    """

    def __init__(self, hw_vectors: List[Vec], projector: SparseMatrix):
        self.hw_vectors = hw_vectors
        self.projector = projector

    def hw_part(self, v: Vec) -> Vec:
        """The ker E component of a weight-nu vector."""
        return v_clean(self.projector.apply(v))


def weight_split(m: Module, nu: Sequence[int]) -> WeightSplit:
    """The split of the nu weight space into ker E and im F, built once
    per module and weight; raises unless the two dimensions add up to the
    multiplicity and the parts are independent."""
    return _weight_split(m, tuple(int(x) for x in nu))


@derived
def _weight_split(m: Module, nu: WeightT) -> WeightSplit:
    idx = m.weight_space(nu)
    hw = highest_weight_vectors(m, nu)
    images: List[Vec] = []
    for i in range(m.cartan.n):
        src = m.weight_space(m.weight_plus_alpha(nu, i))
        images.extend(m.F[i].restrict(idx, src).transpose().rows.values())
    im_f = list(rref(images, len(idx))[0].values())
    if len(hw) + len(im_f) != len(idx):
        raise InternalConsistencyError(
            f"at weight {nu}, dim (ker E) = {len(hw)} and rank (im F) = "
            f"{len(im_f)} do not add up to the multiplicity {len(idx)}")
    pos = {t: k for k, t in enumerate(idx)}
    cols = [{pos[t]: c for t, c in v.items()} for v in hw] + im_f
    try:
        coords = inverse(SparseMatrix.from_columns(cols, len(idx)))
    except ValueError as exc:
        raise InternalConsistencyError(
            f"ker E and im F meet at weight {nu}") from exc
    # row r < len(hw) of coords reads off the coefficient of hw[r]
    to_hw = SparseMatrix(len(hw), m.dim, {
        r: {idx[c]: x for c, x in coords.rows.get(r, {}).items()}
        for r in range(len(hw))})
    projector = SparseMatrix.from_columns(hw, m.dim) @ to_hw
    return WeightSplit(hw, projector)


# ---------------------------------------------------------------------------
# Isotypic decomposition
# ---------------------------------------------------------------------------

class IsotypicComponent:
    def __init__(self, nu: WeightT, hw_vec: Vec, basis: List[Vec], ref: Module):
        self.nu = nu
        self.hw_vec = hw_vec
        self.basis = basis
        self.ref = ref  # the datum's V_nu, basis-aligned with `basis`

    def __repr__(self):
        return f"IsotypicComponent(nu={self.nu}, dim={len(self.basis)})"


class IsotypicDecomposition:
    def __init__(self, module: Module, components: List[IsotypicComponent]):
        self.module = module
        self.components = components
        cols: List[Vec] = []
        self.slices: List[Tuple[int, int]] = []
        for comp in components:
            start = len(cols)
            cols.extend(comp.basis)
            self.slices.append((start, len(cols)))
        if len(cols) != module.dim:
            raise InternalConsistencyError(
                f"components span {len(cols)} of {module.dim} dimensions")
        self.change = SparseMatrix.from_columns(cols, module.dim)
        try:
            self.change_inv = inverse(self.change)
        except ValueError as exc:
            raise InternalConsistencyError("component bases are dependent") from exc

    def project(self, v: Vec, *comp_indices: int) -> Vec:
        """Projection onto the given components along the others."""
        spans = [self.slices[k] for k in comp_indices]
        coords = self.change_inv.apply(v)
        kept = {t: c for t, c in coords.items()
                if any(lo <= t < hi for lo, hi in spans)}
        return v_clean(self.change.apply(kept))


def summand_order_key(cd: CartanDatum):
    """Sort key of highest weights nu, highest first: by descending height
    (the sum of the root coefficients of nu), then by coordinates."""
    def key(nu: WeightT):
        return (-sum(cd.root_coefficients(nu)), nu)
    return key


def isotypic_decomposition(m: Module) -> IsotypicDecomposition:
    """Split a completely reducible module into highest-weight components.

    Components are ordered by summand_order_key, highest first.  The
    package decomposes tensor products through rmatrix.based_tensor; this
    independent construction is kept as the oracle the tests compare
    against, and is rebuilt on every call.
    """
    dominant = sorted((wt for wt in m.weight_multiplicities()
                       if m.cartan.is_dominant(wt)),
                      key=summand_order_key(m.cartan))
    comps: List[IsotypicComponent] = []
    for nu in dominant:
        for hw in highest_weight_vectors(m, nu):
            ref = make_irreducible(m.cartan, nu)
            basis = [m.apply_f_word(wd, hw) for wd in ref.words]
            comps.append(IsotypicComponent(nu, hw, basis, ref))
    dec = IsotypicDecomposition(m, comps)
    _verify_decomposition(dec)
    return dec


def _verify_decomposition(dec: IsotypicDecomposition) -> None:
    m = dec.module
    for comp in dec.components:
        if not m.cartan.is_dominant(comp.nu):
            raise InternalConsistencyError("component weight is not dominant")
        if v_is_zero(comp.hw_vec):
            raise InternalConsistencyError("zero highest-weight vector")
        for i in range(m.cartan.n):
            if not v_is_zero(m.E[i].apply(comp.hw_vec)):
                raise InternalConsistencyError("component vector is not highest weight")
        # the word map is an intertwiner from the reference copy
        phi = SparseMatrix.from_columns(comp.basis, m.dim)
        for i in range(m.cartan.n):
            for ours, theirs in ((m.E[i], comp.ref.E[i]), (m.F[i], comp.ref.F[i])):
                if (ours @ phi) != (phi @ theirs):
                    raise InternalConsistencyError("component is not intertwined with V_nu")
        if comp.ref.weight_multiplicities() != \
                _basis_weight_mult(m, comp.basis):
            raise InternalConsistencyError("component weight multiplicities mismatch")


def _basis_weight_mult(m: Module, basis: List[Vec]) -> Dict[WeightT, int]:
    out: Dict[WeightT, int] = {}
    for v in basis:
        wts = {m.weights[k] for k in v}
        if len(wts) != 1:
            raise InternalConsistencyError("component basis vector is not homogeneous")
        (wt,) = wts
        out[wt] = out.get(wt, 0) + 1
    return out
