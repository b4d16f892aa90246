"""Sparse exact linear algebra over FieldElement.

Vectors are dicts index -> FieldElement with no stored zeros. Matrices keep
sparse rows. Solvers densify only the rows they touch; callers are expected
to restrict to weight blocks before solving, so eliminations stay small.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .qscalar import FieldElement, ONE, ZERO

Vec = Dict[int, FieldElement]


# -- vector helpers ----------------------------------------------------------

def v_clean(v: Vec) -> Vec:
    return {k: c for k, c in v.items() if not c.is_zero()}

def v_add(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, ZERO) + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out

def v_scale(a: Vec, c: FieldElement) -> Vec:
    if c.is_zero():
        return {}
    return {k: x * c for k, x in a.items()}

def v_sub(a: Vec, b: Vec) -> Vec:
    return v_add(a, v_scale(b, -ONE))

def v_is_zero(a: Vec) -> bool:
    return all(c.is_zero() for c in a.values())

def v_eq(a: Vec, b: Vec) -> bool:
    return v_is_zero(v_sub(a, b))

def v_bar(a: Vec) -> Vec:
    return {k: c.bar() for k, c in a.items()}


class SparseMatrix:
    """Sparse matrix over FieldElement; rows: dict row -> (dict col -> entry)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int,
                 rows: Optional[Dict[int, Dict[int, FieldElement]]] = None):
        self.nrows = nrows
        self.ncols = ncols
        clean: Dict[int, Dict[int, FieldElement]] = {}
        for i, row in (rows or {}).items():
            r = {j: c for j, c in row.items() if not c.is_zero()}
            if r:
                clean[i] = r
        self.rows = clean

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(n, n, {i: {i: ONE} for i in range(n)})

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "SparseMatrix":
        return SparseMatrix(nrows, ncols)

    @staticmethod
    def from_triplets(nrows: int, ncols: int,
                      trips: Iterable[Tuple[int, int, FieldElement]]) -> "SparseMatrix":
        rows: Dict[int, Dict[int, FieldElement]] = {}
        for i, j, c in trips:
            rows.setdefault(i, {})
            rows[i][j] = rows[i].get(j, ZERO) + c
        return SparseMatrix(nrows, ncols, rows)

    @staticmethod
    def from_columns(cols: Sequence[Vec], nrows: int) -> "SparseMatrix":
        rows: Dict[int, Dict[int, FieldElement]] = {}
        for j, col in enumerate(cols):
            for i, c in col.items():
                rows.setdefault(i, {})[j] = c
        return SparseMatrix(nrows, len(cols), rows)

    def entry(self, i: int, j: int) -> FieldElement:
        return self.rows.get(i, {}).get(j, ZERO)

    def column(self, j: int) -> Vec:
        return {i: row[j] for i, row in self.rows.items() if j in row}

    def apply(self, v: Vec) -> Vec:
        out: Dict[int, FieldElement] = {}
        for i, row in self.rows.items():
            acc = ZERO
            for j, c in row.items():
                x = v.get(j)
                if x is not None:
                    acc = acc + c * x
            if not acc.is_zero():
                out[i] = acc
        return out

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in compose")
        rows: Dict[int, Dict[int, FieldElement]] = {}
        for i, row in self.rows.items():
            acc: Dict[int, FieldElement] = {}
            for k, c in row.items():
                orow = other.rows.get(k)
                if not orow:
                    continue
                for j, d in orow.items():
                    s = acc.get(j, ZERO) + c * d
                    if s.is_zero():
                        acc.pop(j, None)
                    else:
                        acc[j] = s
            if acc:
                rows[i] = acc
        return SparseMatrix(self.nrows, other.ncols, rows)

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return self.compose(other)
        return NotImplemented

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        rows = {i: dict(r) for i, r in self.rows.items()}
        for i, r in other.rows.items():
            tgt = rows.setdefault(i, {})
            for j, c in r.items():
                s = tgt.get(j, ZERO) + c
                if s.is_zero():
                    tgt.pop(j, None)
                else:
                    tgt[j] = s
        return SparseMatrix(self.nrows, self.ncols, rows)

    def sub(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.add(other.scale(-ONE))

    def scale(self, c: FieldElement) -> "SparseMatrix":
        if c.is_zero():
            return SparseMatrix.zeros(self.nrows, self.ncols)
        return SparseMatrix(self.nrows, self.ncols,
                            {i: {j: x * c for j, x in r.items()}
                             for i, r in self.rows.items()})

    def map_entries(self, fn) -> "SparseMatrix":
        return SparseMatrix(self.nrows, self.ncols,
                            {i: {j: fn(x) for j, x in r.items()}
                             for i, r in self.rows.items()})

    def bar_entries(self) -> "SparseMatrix":
        return self.map_entries(lambda x: x.bar())

    def transpose(self) -> "SparseMatrix":
        rows: Dict[int, Dict[int, FieldElement]] = {}
        for i, r in self.rows.items():
            for j, c in r.items():
                rows.setdefault(j, {})[i] = c
        return SparseMatrix(self.ncols, self.nrows, rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_identity(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return self == SparseMatrix.identity(self.nrows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and \
            self.sub(other).is_zero()

    def __hash__(self):
        raise TypeError("SparseMatrix is not hashable")

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def to_triplets(self) -> List[Tuple[int, int, FieldElement]]:
        out = []
        for i in sorted(self.rows):
            for j in sorted(self.rows[i]):
                out.append((i, j, self.rows[i][j]))
        return out

    def restrict(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "SparseMatrix":
        """Submatrix with rows/cols reindexed by position in the given lists."""
        rpos = {g: k for k, g in enumerate(row_idx)}
        cpos = {g: k for k, g in enumerate(col_idx)}
        rows: Dict[int, Dict[int, FieldElement]] = {}
        for i, r in self.rows.items():
            if i not in rpos:
                continue
            sub = {cpos[j]: c for j, c in r.items() if j in cpos}
            if sub:
                rows[rpos[i]] = sub
        return SparseMatrix(len(row_idx), len(col_idx), rows)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# -- dense elimination core ---------------------------------------------------

def _to_dense(a: SparseMatrix) -> List[List[FieldElement]]:
    out = [[ZERO] * a.ncols for _ in range(a.nrows)]
    for i, r in a.rows.items():
        for j, c in r.items():
            out[i][j] = c
    return out


def _entry_cost(x: FieldElement) -> int:
    # pivot preference: fewer terms means less fill-in and smaller GCDs
    return len(x.num.pairs) + 2 * (len(x.den.pairs) - 1)


def _rref(dense: List[List[FieldElement]], ncols: int) -> List[int]:
    """In-place reduced row echelon form; returns pivot column per pivot row."""
    nrows = len(dense)
    pivots: List[int] = []
    r = 0
    for col in range(ncols):
        best, best_cost = None, None
        for i in range(r, nrows):
            x = dense[i][col]
            if not x.is_zero():
                c = _entry_cost(x)
                if best is None or c < best_cost:
                    best, best_cost = i, c
        if best is None:
            continue
        dense[r], dense[best] = dense[best], dense[r]
        inv = dense[r][col].inv()
        dense[r] = [x * inv if not x.is_zero() else x for x in dense[r]]
        for i in range(nrows):
            if i != r:
                f = dense[i][col]
                if not f.is_zero():
                    dense[i] = [a - f * b if not b.is_zero() else a
                                for a, b in zip(dense[i], dense[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(a: SparseMatrix) -> int:
    dense = _to_dense(a)
    return len(_rref(dense, a.ncols))


def kernel(a: SparseMatrix) -> List[Vec]:
    """Basis of the right nullspace."""
    dense = _to_dense(a)
    pivots = _rref(dense, a.ncols)
    pivot_set = set(pivots)
    free = [j for j in range(a.ncols) if j not in pivot_set]
    basis: List[Vec] = []
    for f in free:
        v: Vec = {f: ONE}
        for r, col in enumerate(pivots):
            c = dense[r][f]
            if not c.is_zero():
                v[col] = -c
        basis.append(v_clean(v))
    return basis


def solve(a: SparseMatrix, b: Vec) -> Optional[Vec]:
    """One particular solution of a x = b, or None if inconsistent."""
    sols = solve_many(a, [b])
    return sols[0]


def solve_many(a: SparseMatrix, bs: Sequence[Vec]) -> List[Optional[Vec]]:
    """Particular solutions for several right-hand sides at once."""
    k = len(bs)
    dense = _to_dense(a)
    for i in range(a.nrows):
        dense[i] = dense[i] + [bs[t].get(i, ZERO) for t in range(k)]
    pivots = _rref(dense, a.ncols)
    out: List[Optional[Vec]] = []
    for t in range(k):
        col = a.ncols + t
        # inconsistent iff a nonpivot row has a nonzero augmented entry
        bad = any(all(dense[r][j].is_zero() for j in range(a.ncols)) and
                  not dense[r][col].is_zero() for r in range(len(dense)))
        if bad:
            out.append(None)
            continue
        sol: Vec = {}
        for r, pc in enumerate(pivots):
            c = dense[r][col]
            if not c.is_zero():
                sol[pc] = c
        out.append(sol)
    return out


def solve_unique(a: SparseMatrix, b: Vec) -> Vec:
    """The unique solution of a x = b; raises if none or many."""
    sol = solve(a, b)
    if sol is None:
        raise ValueError("inconsistent linear system")
    if len(kernel(a)) != 0:
        raise ValueError("linear system is underdetermined")
    return sol


def inverse(a: SparseMatrix) -> SparseMatrix:
    if a.nrows != a.ncols:
        raise ValueError("only square matrices invert")
    n = a.nrows
    dense = _to_dense(a)
    for i in range(n):
        dense[i] = dense[i] + [ONE if j == i else ZERO for j in range(n)]
    pivots = _rref(dense, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    rows = {}
    for i in range(n):
        r = {j: dense[i][n + j] for j in range(n) if not dense[i][n + j].is_zero()}
        if r:
            rows[i] = r
    return SparseMatrix(n, n, rows)


def coords_in_basis(basis: Sequence[Vec], target: Vec, dim: int) -> Optional[Vec]:
    """Coordinates of target in the given (independent) list of vectors."""
    m = SparseMatrix.from_columns(basis, dim)
    return solve(m, target)
