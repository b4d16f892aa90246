"""Crystal graphs and global (canonical) bases of integrable modules.

The crystal layer works with the lattice L = A-span of Kashiwara-operator
words applied to the highest weight vector, where A is the ring of rational
functions regular at q = infinity.  Each weight slice of L carries an exact
A-basis (a "frame") computed by valuation-pivoted elimination; residues of
vectors at q = infinity are taken in frame coordinates.  Crystal vertices are
residue classes, edges are residues of the Kashiwara operators.

The global basis lifts the crystal: one bar-fixed element per vertex, lying
in L with residue exactly that vertex, and integral (a Laurent combination of
divided-power F-monomials applied to the highest weight vector).  Those four
conditions determine each element uniquely, which is what makes the
construction self-certifying: every element is rechecked against all of them
plus the residue-edge conditions before a GlobalBasis is returned.
"""

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cartan import CartanDatum
from .linalg import (Echelon, SparseMatrix, Vec, inverse, kernel, kron_vec,
                     rank, solve, v_add, v_bar, v_clean, v_eq, v_is_zero,
                     v_scale)
from .qscalar import ONE, ZERO, FieldElement, QLaurent
from .uqmod import (InternalConsistencyError, Module, ModuleConstructionError,
                    derived, make_irreducible, tensor)

ResidueT = Tuple[Fraction, ...]
WeightT = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Lattice frames
# ---------------------------------------------------------------------------

def _echelon_lattice_basis(vecs: Sequence[Vec]) -> List[Vec]:
    """A-basis of the A-span of vecs (A = regular at infinity).

    Gaussian elimination where the pivot is always an entry of maximal degree
    at infinity, so every elimination coefficient is regular at infinity and
    the column operations are invertible over A.  Each basis vector is a
    remaining vector reduced against the pivots chosen before it.
    """
    kept = Echelon()
    work = [v_clean(v) for v in vecs]
    basis: List[Vec] = []
    while True:
        work = [v for v in map(kept.reduce, work) if v]
        if not work:
            return basis
        # the first entry of maximal degree at q = infinity, in work order
        # and then row order (canonical denominators tend to 1)
        _, neg_pos, neg_row = max((v[row].num.degree(), -pos, -row)
                                  for pos, v in enumerate(work) for row in v)
        pivot = work.pop(-neg_pos)
        basis.append(pivot)
        kept.add(pivot, -neg_row)


class Frame:
    """Exact A-basis of one weight slice of a lattice, with coordinate solves.

    The square basis matrix is inverted once, on the first solve, and every
    coordinate vector is then one sparse apply of that inverse.
    """

    def __init__(self, rows: Sequence[int], basis: Sequence[Vec]):
        self.rows = sorted(rows)
        self.pos = {r: t for t, r in enumerate(self.rows)}
        self.basis = list(basis)
        if len(self.basis) != len(self.rows):
            raise InternalConsistencyError(
                f"lattice slice has rank {len(self.basis)}, weight space has "
                f"dimension {len(self.rows)}")
        self.mat = SparseMatrix.from_columns(
            [self._local(v) for v in self.basis], len(self.rows))
        self._derived: dict = {}

    def _local(self, v: Vec) -> Vec:
        out = {}
        for r, x in v.items():
            if r not in self.pos:
                raise InternalConsistencyError(
                    f"vector leaves its weight space at row {r}")
            out[self.pos[r]] = x
        return out

    @derived
    def _inverse(self) -> SparseMatrix:
        try:
            return inverse(self.mat)
        except ValueError:
            raise InternalConsistencyError(
                "lattice frame vectors are linearly dependent") from None

    def coords(self, v: Vec) -> List[FieldElement]:
        sol = self._inverse().apply(self._local(v))
        return [sol.get(t, ZERO) for t in range(len(self.basis))]

    def in_lattice(self, coords: Sequence[FieldElement]) -> bool:
        return all(x.regular_at_infinity()[0] for x in coords)

    def residue(self, coords: Sequence[FieldElement], where: str = "") -> ResidueT:
        out = []
        for x in coords:
            ok, val = x.regular_at_infinity()
            if not ok:
                raise InternalConsistencyError(
                    f"vector has a pole at infinity relative to the lattice"
                    f"{' at ' + where if where else ''}")
            out.append(val)
        return tuple(out)


# ---------------------------------------------------------------------------
# Kashiwara operators via i-string decomposition
# ---------------------------------------------------------------------------

StringFrames = Dict[WeightT, Tuple[List[Tuple[int, int]], SparseMatrix]]


@derived
def string_chains(m: Module, i: int
                  ) -> Tuple[List[List[Vec]], StringFrames]:
    """i-string decomposition of m: chains [u, F_i^(1) u, ..., F_i^(mstr) u]
    over vectors u with E_i u = 0, spanning every weight space, and per
    weight space the (chain, n) of its string members with the inverse of
    their coordinate matrix, factored once and kept with the chains.

    The chain through a head of weight wt must have length <H_i, wt> + 1
    exactly; anything else means the module is not integrable and raises.
    """
    chains: List[List[Vec]] = []
    for wt in sorted(m.weight_multiplicities()):
        up = m.weight_plus_alpha(wt, i, +1)
        cols = m.weight_space(wt)
        block = m.E[i].restrict(m.weight_space(up), cols)
        for kv in kernel(block):
            head = v_clean({cols[t]: x for t, x in kv.items()})
            if v_is_zero(head):
                continue
            mstr = int(m.cartan.pairing(i, wt))
            if mstr < 0:
                raise InternalConsistencyError(
                    f"E_{i + 1}-highest vector at weight {wt} with negative "
                    f"pairing {mstr}; module is not integrable")
            chain = [v_clean(m.divided_power("F", i, n).apply(head))
                     for n in range(mstr + 1)]
            if any(v_is_zero(v) for v in chain) or not v_is_zero(
                    m.divided_power("F", i, mstr + 1).apply(head)):
                raise InternalConsistencyError(
                    f"i-string through weight {wt} does not have length "
                    f"{mstr + 1} for node {i + 1}")
            chains.append(chain)
    members: Dict[WeightT, List[Tuple[int, int]]] = {}
    for c, chain in enumerate(chains):
        for n, vec in enumerate(chain):
            members.setdefault(m.weights[next(iter(vec))], []).append((c, n))
    frames: StringFrames = {}
    for wt, mems in members.items():
        rows = m.weight_space(wt)
        if len(mems) != len(rows):
            raise InternalConsistencyError(
                f"string decomposition of weight space {wt} for node {i + 1} "
                f"has rank {len(mems)}, expected {len(rows)}")
        pos = {r: t for t, r in enumerate(rows)}
        smat = SparseMatrix.from_columns(
            [{pos[r]: x for r, x in chains[c][n].items()} for c, n in mems],
            len(rows))
        try:
            frames[wt] = (mems, inverse(smat))
        except ValueError:
            raise InternalConsistencyError(
                f"string vectors do not span weight space {wt}") from None
    return chains, frames


def operator_from_strings(m: Module, i: int, image_fn) -> SparseMatrix:
    """Matrix of the linear operator defined on i-string members.

    image_fn(chain, n) gives the image of the n-th divided-power member of
    a chain; the operator is extended linearly through the exact change of
    basis between string members and the module basis, weight space by
    weight space.  The strings through each weight space must form a basis
    of it.
    """
    chains, frames = string_chains(m, i)
    cols: List[Vec] = [{} for _ in range(m.dim)]
    for wt, (members, inv) in frames.items():
        images = [image_fn(chains[c], n) for c, n in members]
        for t, r in enumerate(m.weight_space(wt)):
            # column t of the inverse: the unit vector t in string members
            img: Vec = {}
            for k, x in inv.column(t).items():
                if images[k]:
                    img = v_add(img, v_scale(images[k], x))
            cols[r] = img
    return SparseMatrix.from_columns(cols, m.dim)


@derived
def kashiwara_operators(m: Module, i: int) -> Tuple[SparseMatrix, SparseMatrix]:
    """Matrices (Etilde, Ftilde) of the Kashiwara operators on all of m.

    On an i-string, Ftilde steps down one divided power and Etilde steps up
    one.
    """
    def f_image(chain, n):
        return chain[n + 1] if n + 1 < len(chain) else {}

    def e_image(chain, n):
        return chain[n - 1] if n > 0 else {}

    return (operator_from_strings(m, i, e_image),
            operator_from_strings(m, i, f_image))


# ---------------------------------------------------------------------------
# Crystal graphs
# ---------------------------------------------------------------------------

class CrystalGraph:
    """Finite crystal: weighted vertices, f/e edges, string lengths.

    For crystals computed from a module, vertices carry representative
    vectors, frame coordinates and residues; purely combinatorial crystals
    (tensor products of computed ones) carry factor labels instead.
    """

    def __init__(self, cartan: CartanDatum, weights: Sequence[WeightT],
                 f_edges: Dict[Tuple[int, int], int],
                 module: Optional[Module] = None,
                 reps: Optional[Sequence[Vec]] = None,
                 frames: Optional[Dict[WeightT, Frame]] = None,
                 residues: Optional[Sequence[ResidueT]] = None,
                 labels: Optional[Sequence[Tuple[int, int]]] = None):
        self.cartan = cartan
        self.weights = [tuple(w) for w in weights]
        self.size = len(self.weights)
        self.f_edges = dict(f_edges)
        self.e_edges: Dict[Tuple[int, int], int] = {}
        for (v, i), w in self.f_edges.items():
            if (w, i) in self.e_edges:
                raise InternalConsistencyError(
                    f"two f_{i + 1} edges end at vertex {w}")
            self.e_edges[(w, i)] = v
        self.module = module
        self.reps = list(reps) if reps is not None else None
        self.frames = frames
        self.residues = list(residues) if residues is not None else None
        self.labels = list(labels) if labels is not None else None
        self._derived: dict = {}
        self._eps = [tuple(self._walk(v, i, self.e_edges)
                           for i in range(cartan.n))
                     for v in range(self.size)]
        self._phi = [tuple(self._walk(v, i, self.f_edges)
                           for i in range(cartan.n))
                     for v in range(self.size)]
        self._check_axioms()

    def _walk(self, v: int, i: int, edges: Dict[Tuple[int, int], int]) -> int:
        steps = 0
        while (v, i) in edges:
            v = edges[(v, i)]
            steps += 1
            if steps > self.size:
                raise InternalConsistencyError("crystal edge cycle detected")
        return steps

    def _check_axioms(self) -> None:
        n = self.cartan.n
        for v in range(self.size):
            for i in range(n):
                w = self.f_edges.get((v, i))
                if w is not None:
                    if self.weights[w] != tuple(
                            a - b for a, b in zip(self.weights[v],
                                                  self.cartan.alpha(i))):
                        raise InternalConsistencyError(
                            f"f_{i + 1} edge {v}->{w} is not weight-graded")
                    if self.e_edges.get((w, i)) != v:
                        raise InternalConsistencyError(
                            f"f_{i + 1} edge {v}->{w} has no matching e edge")
                if self._phi[v][i] - self._eps[v][i] != self.cartan.pairing(
                        i, self.weights[v]):
                    raise InternalConsistencyError(
                        f"phi - eps does not match the weight pairing at "
                        f"vertex {v}, node {i + 1}")

    # -- structure -----------------------------------------------------------

    def f(self, v: int, i: int) -> Optional[int]:
        return self.f_edges.get((v, i))

    def e(self, v: int, i: int) -> Optional[int]:
        return self.e_edges.get((v, i))

    def eps(self, v: int, i: int) -> int:
        return self._eps[v][i]

    def phi(self, v: int, i: int) -> int:
        return self._phi[v][i]

    def weight(self, v: int) -> WeightT:
        return self.weights[v]

    def highest(self) -> List[int]:
        return [v for v in range(self.size)
                if all(e == 0 for e in self._eps[v])]

    def lowest(self) -> List[int]:
        return [v for v in range(self.size)
                if all(p == 0 for p in self._phi[v])]

    # -- export ---------------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph crystal {"]
        for v in range(self.size):
            label = ",".join(str(c) for c in self.weights[v])
            if self.labels is not None:
                a, b = self.labels[v]
                label = f"{a}*{b}|{label}"
            lines.append(f'  v{v} [label="{label}"];')
        for (v, i) in sorted(self.f_edges):
            lines.append(f'  v{v} -> v{self.f_edges[(v, i)]} '
                         f'[label="{i + 1}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "cartan": self.cartan.to_json_obj(),
            "vertices": [{"index": v, "weight": list(self.weights[v]),
                          "eps": list(self._eps[v]),
                          "phi": list(self._phi[v])}
                         for v in range(self.size)],
            "f_edges": [[v, i + 1, self.f_edges[(v, i)]]
                        for (v, i) in sorted(self.f_edges)],
            "highest": self.highest(),
        }


@derived
def crystal_graph(m: Module) -> CrystalGraph:
    """Crystal of an irreducible module, by breadth-first residue search
    from its pin.

    Vertex representatives are Kashiwara-word vectors; at each new weight the
    frame is the echelon A-basis of all candidates arriving there, and
    candidates are identified by their residue tuples.  The e-edge structure
    is afterwards reverified against the algebraic Etilde residues.
    """
    v0 = m.hw_vector()
    lam = m.weights[m.hw_index]

    ops = [kashiwara_operators(m, i) for i in range(m.cartan.n)]

    weights: List[WeightT] = [lam]
    reps: List[Vec] = [v0]
    frames: Dict[WeightT, Frame] = {lam: Frame(m.weight_space(lam), [v0])}
    residues: List[ResidueT] = [frames[lam].residue(frames[lam].coords(v0))]
    vertex_at: Dict[Tuple[WeightT, ResidueT], int] = {(lam, residues[0]): 0}
    f_edges: Dict[Tuple[int, int], int] = {}

    layer = [0]
    while layer:
        grouped: Dict[WeightT, List[Tuple[int, int, Vec]]] = {}
        for v in layer:
            for i in range(m.cartan.n):
                img = v_clean(ops[i][1].apply(reps[v]))
                if v_is_zero(img):
                    continue
                grouped.setdefault(
                    m.weight_plus_alpha(weights[v], i, -1), []).append(
                        (v, i, img))
        nxt: List[int] = []
        for wt in sorted(grouped):
            cand = grouped[wt]
            if wt in frames:
                raise InternalConsistencyError(
                    f"weight {wt} reached at two different depths")
            fr = Frame(m.weight_space(wt), _echelon_lattice_basis(
                [vec for _, _, vec in cand]))
            frames[wt] = fr
            for v, i, vec in cand:
                res = fr.residue(fr.coords(vec), f"Ftilde_{i + 1} of vertex {v}")
                if all(c == 0 for c in res):
                    continue  # falls into q^-1 L: no f-edge
                key = (wt, res)
                tgt = vertex_at.get(key)
                if tgt is None:
                    tgt = len(weights)
                    vertex_at[key] = tgt
                    weights.append(wt)
                    reps.append(vec)
                    residues.append(res)
                    nxt.append(tgt)
                f_edges[(v, i)] = tgt
        layer = nxt

    if len(weights) != m.dim:
        raise InternalConsistencyError(
            f"crystal has {len(weights)} vertices, module dimension {m.dim}")

    # algebraic verification of the e side
    e_expect: Dict[Tuple[int, int], int] = {}
    for (v, i), w in f_edges.items():
        e_expect[(w, i)] = v
    for v in range(len(weights)):
        for i in range(m.cartan.n):
            img = v_clean(ops[i][0].apply(reps[v]))
            up = m.weight_plus_alpha(weights[v], i, +1)
            parent = e_expect.get((v, i))
            if v_is_zero(img):
                if parent is not None:
                    raise InternalConsistencyError(
                        f"Etilde_{i + 1} kills vertex {v} but an f-edge "
                        f"arrives there")
                continue
            fr = frames.get(up)
            if fr is None:
                raise InternalConsistencyError(
                    f"Etilde_{i + 1} of vertex {v} lands outside the crystal")
            res = fr.residue(fr.coords(img), f"Etilde_{i + 1} of vertex {v}")
            want = residues[parent] if parent is not None else tuple(
                Fraction(0) for _ in res)
            if res != want:
                raise InternalConsistencyError(
                    f"Etilde_{i + 1} residue at vertex {v} disagrees with "
                    f"the crystal edge")

    graph = CrystalGraph(m.cartan, weights, f_edges, module=m, reps=reps,
                         frames=frames, residues=residues)
    if len(graph.highest()) != 1 or graph.highest()[0] != 0:
        raise InternalConsistencyError(
            "irreducible crystal must have exactly the pin as highest vertex")
    return graph


# ---------------------------------------------------------------------------
# Global bases
# ---------------------------------------------------------------------------

class GlobalBasis:
    """Bar-fixed lift of a crystal: one element per vertex."""

    def __init__(self, module: Module, crystal: CrystalGraph,
                 elements: Sequence[Vec], monomial_words):
        self.module = module
        self.crystal = crystal
        self.elements = list(elements)
        self.monomial_words = list(monomial_words)
        if rank(SparseMatrix.from_columns(self.elements, module.dim)) \
                != module.dim:
            raise InternalConsistencyError(
                "global basis elements are linearly dependent")
        lows = crystal.lowest()
        if len(lows) != 1:
            raise InternalConsistencyError(
                f"expected one lowest vertex, found {len(lows)}")
        self.low_vertex = lows[0]

    def to_json_obj(self) -> dict:
        return {
            "crystal": self.crystal.to_json_obj(),
            "elements": [sorted(
                ([r, x.to_json_obj()] for r, x in vec.items()),
                key=lambda p: p[0]) for vec in self.elements],
        }


def _adapted_word(crystal: CrystalGraph, v: int,
                  memo: Dict[int, Tuple[Tuple[int, int], ...]]
                  ) -> Tuple[Tuple[int, int], ...]:
    """Divided-power recipe for a vertex: peel full i-strings, lowest node
    index first."""
    if v in memo:
        return memo[v]
    if all(crystal.eps(v, i) == 0 for i in range(crystal.cartan.n)):
        memo[v] = ()
        return memo[v]
    i = min(j for j in range(crystal.cartan.n) if crystal.eps(v, j) > 0)
    a = crystal.eps(v, i)
    up = v
    for _ in range(a):
        up = crystal.e(up, i)
    memo[v] = ((i, a),) + _adapted_word(crystal, up, memo)
    return memo[v]


def _apply_divided_word(m: Module, word: Sequence[Tuple[int, int]],
                        v: Vec) -> Vec:
    out = v
    for i, a in reversed(list(word)):
        out = m.divided_power("F", i, a).apply(out)
    return v_clean(out)


def _fits_vertex(frame: Frame, coords: List[FieldElement],
                 want: ResidueT) -> bool:
    if not frame.in_lattice(coords):
        return False
    return tuple(x.regular_at_infinity()[1] for x in coords) == want


def _triangular_solve(frame: Frame, gens: List[Vec], want: ResidueT,
                      where: str) -> Vec:
    """Exact solve for the global element with residue want in frame.

    The element is written as a bar-symmetric Laurent-window combination of
    the generators gens, the adapted monomials of the crystal vertices at
    that weight (one per vertex); regularity at infinity and the residue pin
    become Q-linear conditions on the window coefficients.  Any solution
    satisfies all four characterizing conditions, so it is the element.  If
    the generators do not span the integral slice, no window solves and this
    raises "no bar-symmetric integral lift"; it never returns a wrong basis.
    """
    gcoords = [frame.coords(v) for v in gens]

    spread = 0  # integer part of the largest exponent size
    for row in gcoords:
        for x in row:
            if x.is_zero():
                continue
            n, d = x.num, x.den
            spread = max(spread, abs(n.pairs[-1][0]) // n.s,
                         abs(n.pairs[0][0]) // n.s, abs(d.pairs[0][0]) // d.s)
    window = spread + 2

    for _ in range(4):
        sol = _window_solve(gens, gcoords, frame, want, window)
        if sol is not None:
            return sol
        window *= 2
    raise InternalConsistencyError(
        f"no bar-symmetric integral lift found for {where}")


def _window_solve(gens: List[Vec], gcoords: List[List[FieldElement]],
                  frame: Frame, want: ResidueT, window: int) -> Optional[Vec]:
    nunk = len(gens) * (window + 1)

    def unk(w: int, n: int) -> int:
        return w * (window + 1) + n

    rows: List[Vec] = []
    rhs: List[FieldElement] = []
    for t in range(len(frame.basis)):
        den = ONE
        for w in range(len(gens)):
            x = gcoords[w][t]
            if not x.is_zero():
                den = den * FieldElement(x.den)
        numers: List[QLaurent] = []
        for w in range(len(gens)):
            prod = gcoords[w][t] * den
            if not prod.is_laurent():
                raise InternalConsistencyError(
                    "common denominator failed to clear a frame coordinate")
            numers.append(prod.num)
        # exponents as integers in units of 1/S; coefficient c of numers[w]
        # stands for c / numers[w].k
        dnum = den.num
        S = lcm(dnum.s, *(nm.s for nm in numers))
        dtop = dnum.pairs[-1][0] * (S // dnum.s)
        coeffs = [{e * (S // nm.s): c for e, c in nm.pairs} for nm in numers]
        # coefficient of q^e in sum_w z_w * numers[w], for e above the
        # regularity threshold, as a linear form in the window unknowns
        exps = {dtop}
        for cw in coeffs:
            for e in cw:
                for n in range(window + 1):
                    for s in ((n * S, -n * S) if n else (0,)):
                        if e + s >= dtop:
                            exps.add(e + s)
        for e in sorted(exps, reverse=True):
            row: Vec = {}
            for w, cw in enumerate(coeffs):
                for n in range(window + 1):
                    c = cw.get(e - n * S, 0) + (cw.get(e + n * S, 0) if n else 0)
                    if c:
                        u = unk(w, n)
                        row[u] = row.get(u, ZERO) + FieldElement.from_fraction(
                            Fraction(c, numers[w].k))
            row = v_clean(row)
            if e > dtop:
                if row:
                    rows.append(row)
                    rhs.append(ZERO)
            else:  # e == dtop: the residue row
                rows.append(row)
                rhs.append(FieldElement.from_fraction(
                    want[t] * Fraction(dnum.pairs[-1][1], dnum.k)))

    mat = SparseMatrix.from_triplets(
        len(rows), nunk,
        [(r, c, x) for r, row in enumerate(rows) for c, x in row.items()])
    sol = solve(mat, {r: x for r, x in enumerate(rhs) if not x.is_zero()})
    if sol is None:
        return None
    out: Vec = {}
    for w in range(len(gens)):
        z = ZERO
        for n in range(window + 1):
            a = sol.get(unk(w, n), ZERO)
            if a.is_zero():
                continue
            mono = FieldElement(QLaurent([(n, 1), (-n, 1)] if n else [(0, 1)]))
            z = z + a * mono
        if not z.is_zero():
            out = v_add(out, v_scale(gens[w], z))
    return v_clean(out)


@derived
def compute_global_basis(m: Module) -> GlobalBasis:
    """Global basis of an irreducible module, lifted from its pin.

    Stage 1 refuses a module whose E/F matrices are not bar-invariant; on
    one that is, the bar involution fixes every F-word of the pin, so it is
    the coefficient bar v_bar on coordinates.  Stage 2 builds the crystal
    and, once per vertex, its adapted word and the bar-fixed divided-power
    monomial of that word.  Stage 3 keeps monomials that already lift their
    vertex (in the lattice, residue on the nose) and replaces the rest
    through the exact window solve, whose generators are the monomials of
    the vertices at that weight, one per vertex.  Generators that do not
    span the integral slice make the solve raise; they never yield a wrong
    basis.  Every characterizing condition, bar-fixedness
    included, is decided once by verify_global_basis before the basis is
    returned, so a bug upstream surfaces as an error here, not as a wrong
    basis.
    """
    for i in range(m.cartan.n):
        for mat in (m.E[i], m.F[i]):
            if mat.bar_entries() != mat:
                raise ModuleConstructionError(
                    "global basis wants a module whose E/F matrices are "
                    "bar-invariant (irreducible construction form)")

    pin = m.hw_vector()
    crystal = crystal_graph(m)

    memo: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    words = [_adapted_word(crystal, v, memo) for v in range(crystal.size)]
    monomials = [_apply_divided_word(m, w, pin) for w in words]
    at_weight: Dict[WeightT, List[Vec]] = {}
    for v, g in enumerate(monomials):
        if v_is_zero(g):
            raise InternalConsistencyError(
                f"adapted monomial for vertex {v} vanishes")
        at_weight.setdefault(crystal.weights[v], []).append(g)
    elements: List[Vec] = []
    for v, g in enumerate(monomials):
        wt = crystal.weights[v]
        frame = crystal.frames[wt]
        want = crystal.residues[v]
        if not _fits_vertex(frame, frame.coords(g), want):
            g = _triangular_solve(frame, at_weight[wt], want,
                                  f"vertex {v} at weight {wt}")
        elements.append(g)

    gb = GlobalBasis(m, crystal, elements, words)
    verify_global_basis(gb)
    return gb


def verify_global_basis(gb: GlobalBasis) -> None:
    """Recheck every characterizing condition of a global basis.

    Raises InternalConsistencyError naming the offending vertex.
    """
    m = gb.module
    crystal = gb.crystal
    for v, g in enumerate(gb.elements):
        if not v_eq(v_bar(g), g):
            raise InternalConsistencyError(
                f"global basis element {v} is not bar-fixed")
        frame = crystal.frames[crystal.weights[v]]
        if not _fits_vertex(frame, frame.coords(g), crystal.residues[v]):
            raise InternalConsistencyError(
                f"global basis element {v} does not lift its vertex")
    # residues of the Kashiwara operators must reproduce the crystal edges
    for i in range(m.cartan.n):
        et, ft = kashiwara_operators(m, i)
        for mat, edges, sign in ((ft, crystal.f_edges, -1),
                                 (et, crystal.e_edges, +1)):
            for v, g in enumerate(gb.elements):
                img = v_clean(mat.apply(g))
                tgt = edges.get((v, i))
                if v_is_zero(img):
                    if tgt is not None:
                        raise InternalConsistencyError(
                            f"Kashiwara operator {i + 1} kills element {v} "
                            f"but the crystal has an edge")
                    continue
                wt2 = m.weight_plus_alpha(crystal.weights[v], i, sign)
                fr2 = crystal.frames.get(wt2)
                if fr2 is None:
                    raise InternalConsistencyError(
                        f"Kashiwara image of element {v} leaves the crystal")
                res = fr2.residue(fr2.coords(img),
                                  f"element {v}, node {i + 1}")
                want = crystal.residues[tgt] if tgt is not None else tuple(
                    Fraction(0) for _ in res)
                if res != want:
                    raise InternalConsistencyError(
                        f"Kashiwara residue of element {v} at node {i + 1} "
                        f"disagrees with the crystal edge")


# ---------------------------------------------------------------------------
# Tensor crystals
# ---------------------------------------------------------------------------

# Cartan matrices whose signature rule certify_signature_rule has checked.
# Keyed by the Cartan matrix, not by datum: the rule depends on A alone,
# and one certification then serves every datum of that type built later
# in the process, such as a fresh datum per request.
_signature_certified: Set[tuple] = set()


def _pair_edges(bv: CrystalGraph, bw: CrystalGraph
                ) -> Dict[Tuple[int, int], int]:
    """Signature-rule f edges on pairs, pair (a, b) being vertex
    a * bw.size + b: f acts on the left factor when phi(a) > eps(b)."""
    f_edges: Dict[Tuple[int, int], int] = {}
    for a in range(bv.size):
        for b in range(bw.size):
            for i in range(bv.cartan.n):
                if bv.phi(a, i) > bw.eps(b, i):
                    fa = bv.f(a, i)
                    if fa is not None:
                        f_edges[(a * bw.size + b, i)] = fa * bw.size + b
                else:
                    fb = bw.f(b, i)
                    if fb is not None:
                        f_edges[(a * bw.size + b, i)] = a * bw.size + fb
    return f_edges


def _pair_crystal(bv: CrystalGraph, bw: CrystalGraph) -> CrystalGraph:
    """The pair crystal of the signature rule, neither certified nor
    kept."""
    weights = []
    labels = []
    for a in range(bv.size):
        for b in range(bw.size):
            weights.append(tuple(x + y for x, y in zip(bv.weights[a],
                                                       bw.weights[b])))
            labels.append((a, b))
    return CrystalGraph(bv.cartan, weights, _pair_edges(bv, bw),
                        labels=labels)


def _algebraic_pair_edges(bv: CrystalGraph, bw: CrystalGraph):
    """Residues of the algebraic Kashiwara operators on the tensor module,
    as edge maps on factor-vertex pairs."""
    if bv.module is None or bw.module is None:
        raise ModuleConstructionError(
            "algebraic cross-check wants computed crystals")
    tm = tensor(bv.module, bw.module)
    pure = {(a, b): kron_vec(bv.reps[a], bw.reps[b], bw.module.dim)
            for a in range(bv.size) for b in range(bw.size)}
    by_wt: Dict[WeightT, List[Tuple[int, int]]] = {}
    for (a, b) in sorted(pure):
        wt = tuple(x + y for x, y in zip(bv.weights[a], bw.weights[b]))
        by_wt.setdefault(wt, []).append((a, b))
    frames: Dict[WeightT, Frame] = {}
    pair_at: Dict[Tuple[WeightT, ResidueT], Tuple[int, int]] = {}
    for wt, pairs in by_wt.items():
        fr = Frame(tm.weight_space(wt),
                   _echelon_lattice_basis([pure[p] for p in pairs]))
        frames[wt] = fr
        for p in pairs:
            r = fr.residue(fr.coords(pure[p]), f"pure tensor {p}")
            if (wt, r) in pair_at:
                raise InternalConsistencyError(
                    f"pure tensors {pair_at[(wt, r)]} and {p} have equal "
                    f"residues")
            pair_at[(wt, r)] = p

    def classify(vec: Vec, wt: WeightT, what: str):
        if v_is_zero(vec):
            return None
        fr = frames.get(wt)
        if fr is None:
            raise InternalConsistencyError(f"{what} leaves the weight grid")
        r = fr.residue(fr.coords(vec), what)
        if all(c == 0 for c in r):
            return None
        got = pair_at.get((wt, r))
        if got is None:
            raise InternalConsistencyError(
                f"{what} has a residue matching no pure tensor")
        return got

    n = tm.cartan.n
    f_map: Dict[Tuple[Tuple[int, int], int], Optional[Tuple[int, int]]] = {}
    e_map: Dict[Tuple[Tuple[int, int], int], Optional[Tuple[int, int]]] = {}
    for i in range(n):
        et, ft = kashiwara_operators(tm, i)
        for (a, b), vec in pure.items():
            wt = tuple(x + y for x, y in zip(bv.weights[a], bw.weights[b]))
            f_map[((a, b), i)] = classify(
                v_clean(ft.apply(vec)), tm.weight_plus_alpha(wt, i, -1),
                f"Ftilde_{i + 1} of pure tensor {(a, b)}")
            e_map[((a, b), i)] = classify(
                v_clean(et.apply(vec)), tm.weight_plus_alpha(wt, i, +1),
                f"Etilde_{i + 1} of pure tensor {(a, b)}")
    return f_map, e_map


def _check_signature_rule(bv: CrystalGraph, bw: CrystalGraph,
                          pair: CrystalGraph) -> None:
    """Raise unless the f and e edges of the pair crystal of bv and bw
    equal the residues of the algebraic Kashiwara operators on the tensor
    module at every pair and node."""
    alg_f, alg_e = _algebraic_pair_edges(bv, bw)
    for side, step, alg in (("f", pair.f, alg_f), ("e", pair.e, alg_e)):
        for ((a, b), i), want in alg.items():
            got = step(a * bw.size + b, i)
            if (None if got is None else divmod(got, bw.size)) != want:
                raise InternalConsistencyError(
                    f"signature rule disagrees with algebraic residues "
                    f"at pair {(a, b)}, node {i + 1} ({side} side)")


def certify_signature_rule(cd: CartanDatum) -> None:
    """Check the signature rule once per Cartan matrix, against the
    algebraic Kashiwara residues on V_{omega_1} tensor V_{omega_1}."""
    if cd.A in _signature_certified:
        return
    bp = crystal_graph(make_irreducible(cd, tuple(1 if k == 0 else 0
                                                  for k in range(cd.n))))
    _check_signature_rule(bp, bp, _pair_crystal(bp, bp))
    _signature_certified.add(cd.A)


@derived
def tensor_crystal(bv: CrystalGraph, bw: CrystalGraph) -> CrystalGraph:
    """Combinatorial crystal of a tensor product, via the signature rule
    (certified for the Cartan matrix by certify_signature_rule first).

    Pair (a, b) is vertex a * bw.size + b.  Every highest vertex has a
    highest left factor, or this raises.  Built once per factor pair and
    kept on the left factor, keyed by the right one.
    """
    if bv.cartan.A != bw.cartan.A:
        raise ModuleConstructionError("tensor crystal wants one Cartan datum")
    certify_signature_rule(bv.cartan)
    graph = _pair_crystal(bv, bw)
    for h in graph.highest():
        a, _ = graph.labels[h]
        if any(bv.eps(a, i) != 0 for i in range(bv.cartan.n)):
            raise InternalConsistencyError(
                f"highest pair vertex {graph.labels[h]} has a non-highest "
                f"left factor")
    return graph


def cross_validate_tensor_crystal(bv: CrystalGraph, bw: CrystalGraph) -> CrystalGraph:
    """Signature-rule crystal, rechecked edge by edge against the algebraic
    Kashiwara residues on the tensor module."""
    graph = tensor_crystal(bv, bw)
    _check_signature_rule(bv, bw, graph)
    return graph
