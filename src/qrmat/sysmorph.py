"""Module endomorphisms transported from algebra morphisms.

A MorphismSpec is a whole system of weight-preserving endomorphisms, one
per based module: how an algebra morphism C acts on the generators E_i,
F_i, K_i, whether it is q-linear or bar-linear, and the value it takes on
each summand's highest weight pin.  A system is known by its name: two
specs of one name are one system, so a system keys what a module derives
from it.  A TransportedMap is the unique endomorphism T of a module
satisfying T(X v) = C(X) T(v) for all generators X, pinned by its value
on one cyclic vector per component.  transport propagates the pins along
F-words, and along E-words only where F stalls, solves for the matrix in
one elimination that also checks every propagated pair, and reverifies
the compatibility square on every generator before returning.

Both read the sides of the squares from generator_sides, which each
module derives once per system: the source side X (bar(X) for a
bar-linear system, from the module's one _barred_generators) and the image
C(X) of every E_i and F_i, and the two diagonals of every K_i square.
The K rows need no product (see diagonal_square_columns in linalg).

Bar-linear maps are stored as (matrix, flag) with the convention "apply
coefficient-wise bar first, then the matrix"; composing two bar-linear maps
therefore yields a q-linear map with matrix M1 bar(M2).

Braid operators are Lusztig's T''_{i,1} (Introduction to Quantum Groups,
chapter 5): on z of weight mu with m = <H_i, mu>, the sum over
a - b + c = -m of (-1)^b q_i^(b - ac) E_i^(a) F_i^(b) E_i^(c) z, the
family with T_i E_i T_i^-1 = -F_i K_i, whose w0-product is compatible
with C_{T_w0}.  On a tensor product V (x) W (uqmod.tensor) T_i is
(T_i (x) T_i) Theta_i, from the factors' T_i and divided powers (the
factors' action corrected by the rank-one quasi-R-matrix, written here
for this package's coproduct), so no string of V (x) W is solved; on
every other module T_i reverses each i-string [u, F^(1)u, .., F^(m)u]
with signed q_i-power coefficients.  The tests compare the two rules,
and the string rule with the sum above, exactly.  The action is
certified on a probe module once per Cartan matrix before T_w0 is built,
and every T_w0 is checked against C_{T_w0}.
"""

from fractions import Fraction
from itertools import count, islice
from typing import (Any, Callable, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from .bases import compute_global_basis, operator_from_strings
from .cartan import CartanDatum
from .linalg import (Echelon, SparseMatrix, Vec, diagonal_square_columns,
                     inverse, kron_matrix, v_bar, v_clean, v_eq, v_is_zero,
                     v_scale)
from .qscalar import ONE, FieldElement
from .uqmod import (InternalConsistencyError, Module,
                    ModuleConstructionError, derived, make_irreducible)

ImageFn = Callable[[Module, int], SparseMatrix]
# value of the system on a based summand's highest weight pin; the summand
# (rmatrix.BasedComponent) carries its module, weight nu and pin hw_vec
PinFn = Callable[[Any], Vec]


class MorphismSpec:
    """A system of module maps: generator images of an algebra morphism,
    its linearity and its pin values.

    e_image, f_image and k_image give C(E_i), C(F_i) and C(K_i) on a
    module; pin gives the map's value on a based summand's highest weight
    pin, or is None for a morphism transported only from explicit pins.
    The name is the system: specs compare and hash by it, so every call
    of a factory below gives one key.
    """

    def __init__(self, name: str, bar_linear: bool,
                 e_image: ImageFn, f_image: ImageFn, k_image: ImageFn,
                 pin: Optional[PinFn] = None):
        self.name = name
        self.bar_linear = bar_linear
        self.e_image = e_image
        self.f_image = f_image
        self.k_image = k_image
        self.pin = pin

    def __eq__(self, other) -> bool:
        return isinstance(other, MorphismSpec) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self):
        kind = "bar-linear" if self.bar_linear else "q-linear"
        return f"MorphismSpec({self.name}, {kind})"


def _hw_pin(c) -> Vec:
    return c.hw_vec


def identity_spec() -> MorphismSpec:
    """The identity system; it fixes every pin."""
    return MorphismSpec(
        "identity", False,
        lambda m, i: m.E[i],
        lambda m, i: m.F[i],
        lambda m, i: m.k_i(i, 1),
        pin=_hw_pin)


def bar_spec() -> MorphismSpec:
    """E_i -> E_i, F_i -> F_i, K_i -> K_i^-1, bar-linear; the bar
    involution of a based module fixes every pin (hence every global basis
    element)."""
    return MorphismSpec(
        "bar", True,
        lambda m, i: m.E[i],
        lambda m, i: m.F[i],
        lambda m, i: m.k_i(i, -1),
        pin=_hw_pin)


@derived
def theta_exponent(cd: CartanDatum, nu: Tuple[int, ...]) -> Fraction:
    """-(nu,nu)/2 + (nu,rho): Theta's eigenvalue exponent on weight nu,
    kept on the datum."""
    return -cd.bilinear(nu, nu) / 2 + cd.bilinear(nu, cd.rho)


def theta_spec(wrong_sign: bool = False) -> MorphismSpec:
    """E_i -> E_i K_i^-1, F_i -> K_i F_i, K_i -> K_i^-1; bar-linear algebra
    involution and coalgebra anti-involution.  Each summand pin is an
    eigenvector with eigenvalue q^(-(nu,nu)/2 + (nu,rho)).

    wrong_sign flips the exponent to +(nu,nu)/2 - (nu,rho); this still
    transports (the flip is a per-summand scalar twist) and exists only as
    a fault to inject in negative controls, kept apart from the honest
    Theta under its own name.
    """
    sign = -1 if wrong_sign else 1

    def pin(c):
        e = sign * theta_exponent(c.module.cartan, c.nu)
        return v_scale(c.hw_vec, FieldElement.q_power(e))

    return MorphismSpec(
        "theta-wrong-sign" if wrong_sign else "theta", True,
        lambda m, i: m.E[i] @ m.k_i(i, -1),
        lambda m, i: m.k_i(i, 1) @ m.F[i],
        lambda m, i: m.k_i(i, -1),
        pin=pin)


def gamma_spec() -> MorphismSpec:
    """E_i -> -K_t F_t, F_i -> -E_t K_t^-1, K_i -> K_t with t = theta(i);
    bar-linear Hopf algebra automorphism.  Each summand pin maps to the
    lowest global basis element of its summand."""
    def e_im(m, i):
        t = m.cartan.theta[i]
        return -(m.k_i(t, 1) @ m.F[t])

    def f_im(m, i):
        t = m.cartan.theta[i]
        return -(m.E[t] @ m.k_i(t, -1))

    return MorphismSpec(
        "gamma", True, e_im, f_im,
        lambda m, i: m.k_i(m.cartan.theta[i], 1),
        pin=lambda c: c.lowest_element())


def tw0_spec() -> MorphismSpec:
    """E_i -> -F_t K_t, F_i -> -K_t^-1 E_t, K_i -> K_t^-1, t = theta(i);
    q-linear."""
    def e_im(m, i):
        t = m.cartan.theta[i]
        return -(m.F[t] @ m.k_i(t, 1))

    def f_im(m, i):
        t = m.cartan.theta[i]
        return -(m.k_i(t, -1) @ m.E[t])

    return MorphismSpec(
        "tw0", False, e_im, f_im,
        lambda m, i: m.k_i(m.cartan.theta[i], -1))


def j_spec() -> MorphismSpec:
    """E_i -> K_i E_i, F_i -> F_i K_i^-1, K_i -> K_i; q-linear."""
    return MorphismSpec(
        "j", False,
        lambda m, i: m.k_i(i, 1) @ m.E[i],
        lambda m, i: m.F[i] @ m.k_i(i, -1),
        lambda m, i: m.k_i(i, 1))


@derived
def _barred_generators(m: Module) -> Tuple[List[SparseMatrix],
                                          List[SparseMatrix]]:
    """bar(E_i) and bar(F_i), the source sides of every bar-linear system
    on m; a generator whose entries are bar-invariant is its own bar."""
    def barred(x: SparseMatrix) -> SparseMatrix:
        b = x.bar_entries()
        return x if b == x else b
    n = m.cartan.n
    return ([barred(m.E[i]) for i in range(n)],
            [barred(m.F[i]) for i in range(n)])


Sides = List[Tuple[SparseMatrix, SparseMatrix]]


@derived
def generator_sides(m: Module,
                    spec: MorphismSpec) -> Tuple[Sides, Sides, Sides]:
    """The sides of spec's compatibility squares A X' = C(X) A on m, built
    once and kept on m; the one place that evaluates a system's generator
    images.

    A map with matrix A satisfies T(X v) = C(X) T(v) for all v exactly
    when A X' = C(X) A, where X' is X for a q-linear system and bar(X) for
    a bar-linear one (T(v) = A bar(v)).  Returns three lists over i: the
    pairs (X', C(X)) of E_i, those of F_i, and the diagonal pairs
    (K_i', C(K_i)).  K_i is diagonal in q-powers, so bar(K_i) is K_i^-1,
    which the module already keeps, and no barred K is stored.  Raises
    when C(K_i) is not diagonal, since the K rows are decided on the
    diagonal.
    """
    n = m.cartan.n
    if spec.bar_linear:
        e_src, f_src = _barred_generators(m)
    else:
        e_src, f_src = m.E, m.F
    k = []
    for i in range(n):
        img = spec.k_image(m, i)
        if any(len(row) != 1 or r not in row for r, row in img.rows.items()):
            raise InternalConsistencyError(
                f"{spec.name} image of K_{i + 1} is not diagonal")
        k.append((m.k_i(i, -1 if spec.bar_linear else 1), img))
    return ([(e_src[i], spec.e_image(m, i)) for i in range(n)],
            [(f_src[i], spec.f_image(m, i)) for i in range(n)],
            k)


class TransportedMap:
    """Endomorphism of one module; bar-linear maps apply bar, then matrix.

    The inverse is computed once and kept on the map.
    """

    def __init__(self, module: Module, matrix: SparseMatrix, bar_linear: bool,
                 provenance: str = ""):
        if matrix.nrows != module.dim or matrix.ncols != module.dim:
            raise ValueError("matrix shape does not match the module")
        self.module = module
        self.matrix = matrix
        self.bar_linear = bar_linear
        self.provenance = provenance
        self._derived: dict = {}

    def apply(self, v: Vec) -> Vec:
        return v_clean(self.matrix.apply(v_bar(v) if self.bar_linear else v))

    def compose(self, other: "TransportedMap") -> "TransportedMap":
        """self after other."""
        if other.module is not self.module:
            raise ValueError("composition wants maps on one module")
        inner = (other.matrix.bar_entries() if self.bar_linear
                 else other.matrix)
        return TransportedMap(
            self.module, self.matrix @ inner,
            self.bar_linear != other.bar_linear,
            f"({self.provenance} o {other.provenance})")

    @derived
    def inverse(self) -> "TransportedMap":
        inv = inverse(self.matrix)
        if self.bar_linear:
            # y = A bar(x)  =>  x = bar(A)^-1-bar applied to y
            inv = inv.bar_entries()
        return TransportedMap(self.module, inv, self.bar_linear,
                              f"({self.provenance})^-1")

    def is_identity(self) -> bool:
        return not self.bar_linear and self.matrix.is_identity()

    def __eq__(self, other) -> bool:
        return (isinstance(other, TransportedMap)
                and self.module is other.module
                and self.bar_linear == other.bar_linear
                and self.matrix == other.matrix)

    def __repr__(self):
        kind = "bar-linear" if self.bar_linear else "q-linear"
        return f"TransportedMap({self.provenance or '?'}, {kind})"


def verify_compatibility(tmap: TransportedMap,
                         spec: MorphismSpec) -> Iterator[str]:
    """Exact check of T(X v) = C(X) T(v) on generators and basis vectors.

    Yields one description per failing (generator, basis vector) pair,
    lazily: a caller stops checking where it stops reading.  Nothing
    yielded means the compatibility square commutes.  The sides are the
    module's generator_sides of spec; the E and F squares are multiplied
    out, the K squares decided on the diagonal without a product.
    """
    if tmap.bar_linear != spec.bar_linear:
        raise ValueError(f"{spec.name} wants a "
                         f"{'bar' if spec.bar_linear else 'q'}-linear map")
    m = tmap.module
    a = tmap.matrix
    e_sides, f_sides, k_sides = generator_sides(m, spec)
    for i in range(m.cartan.n):
        for label, (src, img) in ((f"E_{i + 1}", e_sides[i]),
                                  (f"F_{i + 1}", f_sides[i])):
            lhs = a @ src
            rhs = img @ a
            if lhs != rhs:
                diff = lhs.sub(rhs)
                bad = sorted({c for _, c, _ in diff.to_triplets()})
                for col in bad:
                    yield f"{label} compatibility fails at basis vector {col}"
        for col in diagonal_square_columns(a, *k_sides[i]):
            yield f"K_{i + 1} compatibility fails at basis vector {col}"


def _normalize_pins(v0, w0) -> List[Tuple[Vec, Vec]]:
    if isinstance(v0, dict):
        v0, w0 = [v0], [w0]
    if len(v0) != len(w0):
        raise ValueError("pin source and target lists differ in length")
    return [(v_clean(dict(a)), v_clean(dict(b))) for a, b in zip(v0, w0)]


def transport(m: Module, spec: MorphismSpec,
              v0: Union[Vec, Sequence[Vec]],
              w0: Union[Vec, Sequence[Vec]]) -> TransportedMap:
    """The endomorphism compatible with spec sending each v0 to its w0.

    Pins are propagated along F-words (T(F x) = C(F) T(x)), and along E
    only when F stalls: highest weight pins generate their summands under
    F alone, lowest pins (the tw0_spec cross-check) need E.  The
    propagated pairs must span the module, which holds exactly when the
    pins generate it (one cyclic vector per component); if every new
    source has met E and F and the span is short, transport raises.
    Every pair enters one incremental elimination as the row (source |
    target), with bar(source) for a bar-linear spec and the target in
    columns dim + j.  A bar-linear spec holds each source barred from
    its pin on and moves it by the generator sides' bar(F_i) and
    bar(E_i), since bar(X s) = bar(X) bar(s).  Once the sources span, the
    kept rows are (I | A^T), whichever pairs entered; a pair whose source
    reduces to zero but leaves a target residual is inconsistent and
    raises.  The matrix is then verified against the full compatibility
    square on the same sides (verify_compatibility).
    """
    pins = _normalize_pins(v0, w0)
    if not pins or any(v_is_zero(s) for s, _ in pins):
        raise ModuleConstructionError("transport wants nonzero pin sources")
    e_sides, f_sides, _ = generator_sides(m, spec)
    dim = m.dim
    kept = Echelon()
    # (source, target), the source barred for a bar-linear spec
    pairs: List[Tuple[Vec, Vec]] = [(v_bar(s) if spec.bar_linear else s, t)
                                    for s, t in pins]

    def take(k: int) -> bool:
        """Enter pair k; True when its source is new to the span."""
        src, dst = pairs[k]
        r = kept.reduce({**src, **{dim + j: x for j, x in dst.items()}})
        if r and min(r) >= dim:
            raise InternalConsistencyError(
                f"transport of {spec.name} is inconsistent on propagated "
                f"pair {k}")
        return kept.add(r)

    # new sources that F, and E, have not yet been applied to
    f_todo = [k for k in range(len(pairs)) if take(k)]
    e_todo = list(f_todo)
    spanned = len(f_todo)
    while spanned < dim:
        if f_todo:
            frontier, gens, f_todo = f_todo, f_sides, []
        elif e_todo:
            frontier, gens, e_todo = e_todo, e_sides, []
        else:
            raise ModuleConstructionError(
                "pins do not generate the module under the E/F action")
        for idx in frontier:
            src, dst = pairs[idx]
            for act, img in gens:
                s2 = v_clean(act.apply(src))
                if v_is_zero(s2):
                    continue
                pairs.append((s2, v_clean(img.apply(dst))))
                if take(len(pairs) - 1):
                    f_todo.append(len(pairs) - 1)
                    e_todo.append(len(pairs) - 1)
                    spanned += 1

    # kept row p is (e_p | column p of A)
    cols = [{j - dim: x for j, x in kept.rows[p].items()} for p in range(dim)]
    return _verified(TransportedMap(m, SparseMatrix.from_columns(cols, dim),
                                    spec.bar_linear, spec.name),
                     spec, f"transport of {spec.name}")


def _verified(tmap: TransportedMap, spec: MorphismSpec,
              what: str) -> TransportedMap:
    """tmap, once its compatibility square with spec commutes; raises with
    the first three failures otherwise."""
    failures = list(islice(verify_compatibility(tmap, spec), 3))
    if failures:
        raise InternalConsistencyError(
            f"{what} violates compatibility: " + "; ".join(failures))
    return tmap


# ---------------------------------------------------------------------------
# The weight-diagonal maps; a system with pins (Theta, Gamma, bar) is
# transported on a based module by rmatrix.system_on
# ---------------------------------------------------------------------------

@derived
def make_J(m: Module) -> TransportedMap:
    """J: q-linear, diagonal q^((mu,mu)/2 + (mu,rho)) on the mu weight
    space; verified against the C_J compatibility square once per module,
    which keeps the map."""
    cd = m.cartan
    diag = SparseMatrix.diagonal([
        FieldElement.q_power(cd.bilinear(wt, wt) / 2 + cd.bilinear(wt, cd.rho))
        for wt in m.weights])
    return _verified(TransportedMap(m, diag, False, "J"),
                     j_spec(), "weight-diagonal J")


@derived
def k_2rho(m: Module) -> TransportedMap:
    """Multiplication by K_{2 H_rho}: diagonal q^(2 (rho, mu)), kept on the
    module."""
    cd = m.cartan
    diag = SparseMatrix.diagonal([
        FieldElement.q_power(2 * cd.bilinear(wt, cd.rho)) for wt in m.weights])
    return TransportedMap(m, diag, False, "K_2rho")


# ---------------------------------------------------------------------------
# Braid operators
# ---------------------------------------------------------------------------

# Cartan matrices whose braid action calibrate_braid_variant has certified.
# Keyed by the Cartan matrix, not by datum: the action depends on A alone
# (d is a function of A), and one certification then serves every datum of
# that type built later in the process, such as a fresh datum per request.
_braid_certified: Set[tuple] = set()


def _braid_coefficient(d: int, mstr: int, n: int) -> FieldElement:
    sign = -1 if (mstr - n) % 2 else 1
    return FieldElement.q_power(Fraction(d * (mstr - n) * (n + 1)), sign)


def _quasi_r(v: Module, w: Module, i: int) -> SparseMatrix:
    """Theta_i = sum_n q_i^(n(n-1)/2) (q_i - q_i^-1)^n [n]_i! E_i^(n) (x)
    F_i^(n) on V (x) W, the rank-one quasi-R-matrix (not the involution
    Theta); the sum stops at the first n where the divided power of
    either factor vanishes."""
    d = v.cartan.d[i]
    out = SparseMatrix.identity(v.dim * w.dim)
    coeff = ONE
    for n in count(1):
        e_n, f_n = v.divided_power("E", i, n), w.divided_power("F", i, n)
        if e_n.is_zero() or f_n.is_zero():
            return out
        # c_n = c_(n-1) q_i^(n-1) (q_i^n - q_i^-n)
        coeff = coeff * (FieldElement.q_power(d * (2 * n - 1))
                         - FieldElement.q_power(-d))
        out = out.add(kron_matrix(e_n, f_n).scale(coeff))


def _string_reversal(m: Module, i: int) -> SparseMatrix:
    """T_i on m by reversing every i-string: on a string [u_0, .., u_mstr]
    of divided powers, u_n maps to (-1)^(mstr-n) q_i^((mstr-n)(n+1))
    u_(mstr-n)."""
    d = m.cartan.d[i]

    def image(chain, n):
        mstr = len(chain) - 1
        return v_scale(chain[mstr - n], _braid_coefficient(d, mstr, n))

    return operator_from_strings(m, i, image)


@derived
def braid_operator(m: Module, i: int) -> SparseMatrix:
    """T_i: on a module built by uqmod.tensor (T_i (x) T_i) Theta_i, from
    its two factors and recursively so for iterated tensors, which builds
    no string of the tensor module; on any other module the string
    reversal, the family whose w0-product is compatible with C_{T_w0}.
    calibrate_braid_variant certifies it once per Cartan matrix, and
    make_Tw0 runs that first.
    """
    if m.factors is None:
        return _string_reversal(m, i)
    v, w = m.factors
    return kron_matrix(braid_operator(v, i),
                       braid_operator(w, i)) @ _quasi_r(v, w, i)


def _braid_order(cd: CartanDatum, i: int, j: int) -> int:
    return {0: 2, 1: 3, 2: 4, 3: 6}[cd.A[i][j] * cd.A[j][i]]


def braid_relations_hold(m: Module) -> bool:
    for i in range(m.cartan.n):
        for j in range(i + 1, m.cartan.n):
            k = _braid_order(m.cartan, i, j)
            ti, tj = braid_operator(m, i), braid_operator(m, j)
            lhs = SparseMatrix.identity(m.dim)
            rhs = SparseMatrix.identity(m.dim)
            for t in range(k):
                lhs = lhs @ (ti if t % 2 == 0 else tj)
                rhs = rhs @ (tj if t % 2 == 0 else ti)
            if lhs != rhs:
                return False
    return True


@derived
def _braid_product(m: Module) -> TransportedMap:
    """The w0-product of the T_i, verified against C_{T_w0}."""
    out = SparseMatrix.identity(m.dim)
    for i in m.cartan.w0_word:
        out = out @ braid_operator(m, i)
    return _verified(TransportedMap(m, out, False, "tw0-braid"),
                     tw0_spec(), "braid-product T_w0")


def calibrate_braid_variant(cd: CartanDatum) -> None:
    """Certify the braid action against C_{T_w0}, once per Cartan matrix.

    Probed on V_{omega_1}: the T_i must satisfy the braid relations, their
    w0-product the full compatibility square, and the product must send
    the lowest global basis element to the highest one on the nose.
    Raises InternalConsistencyError otherwise.  The square alone does not
    single the action out: on A1, A2, A3 and C3 the family with the other
    sign pattern and exponent sign passes it too, and only the
    lowest-to-highest normalization tells them apart.  The probe is an
    irreducible, so this certifies the string rule that every factor of a
    tensor module uses; a tensor module inherits it through the tensor
    rule, and its T_w0 is still checked against C_{T_w0} by _braid_product.
    """
    if cd.A in _braid_certified:
        return
    probe = make_irreducible(cd, tuple(1 if k == 0 else 0
                                       for k in range(cd.n)))
    if not braid_relations_hold(probe):
        raise InternalConsistencyError(
            "braid operators violate the braid relations on V_{omega_1}")
    gb = compute_global_basis(probe)
    if not v_eq(_braid_product(probe).apply(gb.elements[gb.low_vertex]),
                probe.hw_vector()):
        raise InternalConsistencyError(
            "braid-product T_w0 does not send the lowest global basis "
            "element of V_{omega_1} to the highest")
    _braid_certified.add(cd.A)


def make_Tw0(m: Module) -> TransportedMap:
    """T_w0: q-linear, sends the lowest global basis element to the highest.

    Composes the T_i along the reduced word of w0 (intrinsic: works on any
    integrable module; on a tensor module each T_i comes from its factors,
    so no string of the tensor module is solved) and verifies the product
    against C_{T_w0}, once per module, which keeps the map.  The
    certification checks the lowest-to-highest property on a probe
    module.  transport(m, tw0_spec(), lows, highs) builds the same map
    from explicit pins.
    """
    calibrate_braid_variant(m.cartan)
    return _braid_product(m)
