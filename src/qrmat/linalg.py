"""Sparse exact linear algebra over FieldElement.

Vectors are dicts index -> FieldElement with no stored zeros. Matrices keep
sparse rows. `Echelon` is the one Gauss-Jordan loop: it reduces each
vector, in the caller's order, against the rows kept so far. `rref` is its
batch form, behind rank, kernel, solve and inverse. The reduced row
echelon form is unique, so no answer depends on the row order, but the
cost does: callers pass rows in their natural order (r_oracle's sorted
equations solve 15 to 100 times faster than shuffles of them). A caller that
reuses a matrix keeps its factorization (its inverse) rather than solving
again.

Scalars have one canonical form and no zeros are stored, so equality of
vectors and matrices is structural and subtracts nothing; subtraction only
lists where a failed comparison differs.

The tensor products (kron_vec, kron_matrix) and the flip fix the one basis
of V (x) W: the pair (a, b) has index a * dim(W) + b, left factor major.

Clean rows: a SparseMatrix stores no zero entry and no empty row. The public
constructor enforces this by scanning what it is given. `_of_clean_rows`
trusts its caller instead and is used only where the rows cannot hold a
zero: products that drop their cancellations, a transpose, a nonzero scale,
and the entrywise maps (negation, bar), which send nonzero to nonzero.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .qscalar import FieldElement, ONE, ZERO

Vec = Dict[int, FieldElement]


# -- vector helpers ----------------------------------------------------------

def v_clean(v: Vec) -> Vec:
    return {k: c for k, c in v.items() if c.num.pairs}

def v_add(a: Vec, b: Vec) -> Vec:
    out = dict(a)
    for k, c in b.items():
        x = out.get(k)
        s = c if x is None else x + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out

def v_scale(a: Vec, c: FieldElement) -> Vec:
    if c.is_zero():
        return {}
    return {k: x * c for k, x in a.items()}

def v_is_zero(a: Vec) -> bool:
    return not any(c.num.pairs for c in a.values())

def v_eq(a: Vec, b: Vec) -> bool:
    return v_clean(a) == v_clean(b)

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
            r = {j: c for j, c in row.items() if c.num.pairs}
            if r:
                clean[i] = r
        self.rows = clean

    @staticmethod
    def _of_clean_rows(nrows: int, ncols: int,
                       rows: Dict[int, Dict[int, FieldElement]]) -> "SparseMatrix":
        # the caller guarantees no zero entry and no empty row
        out = object.__new__(SparseMatrix)
        out.nrows, out.ncols, out.rows = nrows, ncols, rows
        return out

    @staticmethod
    def diagonal(entries: Sequence[FieldElement]) -> "SparseMatrix":
        """The square matrix with these diagonal entries, in order."""
        return SparseMatrix(len(entries), len(entries),
                            {i: {i: x} for i, x in enumerate(entries)})

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix.diagonal([ONE] * n)

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "SparseMatrix":
        return SparseMatrix(nrows, ncols)

    @staticmethod
    def from_triplets(nrows: int, ncols: int,
                      trips: Iterable[Tuple[int, int, FieldElement]]) -> "SparseMatrix":
        rows: Dict[int, Dict[int, FieldElement]] = {}
        for i, j, c in trips:
            row = rows.setdefault(i, {})
            x = row.get(j)
            row[j] = c if x is None else x + c
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
            acc = None
            for j, c in row.items():
                x = v.get(j)
                if x is not None:
                    acc = c * x if acc is None else acc + c * x
            if acc is not None and acc.num.pairs:
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
                    x = acc.get(j)
                    if x is None:
                        acc[j] = c * d
                        continue
                    s = x + c * d
                    if s.num.pairs:
                        acc[j] = s
                    else:
                        del acc[j]
            if acc:
                rows[i] = acc
        return SparseMatrix._of_clean_rows(self.nrows, other.ncols, rows)

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
                x = tgt.get(j)
                s = c if x is None else x + c
                if s.is_zero():
                    tgt.pop(j, None)
                else:
                    tgt[j] = s
        return SparseMatrix(self.nrows, self.ncols, rows)

    def sub(self, other: "SparseMatrix") -> "SparseMatrix":
        return self.add(-other)

    def __neg__(self) -> "SparseMatrix":
        return self.map_entries(FieldElement.__neg__)

    def scale(self, c: FieldElement) -> "SparseMatrix":
        if c.is_zero():
            return SparseMatrix.zeros(self.nrows, self.ncols)
        return self.map_entries(lambda x: x * c)

    def map_entries(self, fn) -> "SparseMatrix":
        """Apply fn to every stored entry; fn must send nonzero to nonzero."""
        return SparseMatrix._of_clean_rows(
            self.nrows, self.ncols,
            {i: {j: fn(x) for j, x in r.items()} for i, r in self.rows.items()})

    def bar_entries(self) -> "SparseMatrix":
        return self.map_entries(FieldElement.bar)

    def transpose(self) -> "SparseMatrix":
        rows: Dict[int, Dict[int, FieldElement]] = {}
        for i, r in self.rows.items():
            for j, c in r.items():
                rows.setdefault(j, {})[i] = c
        return SparseMatrix._of_clean_rows(self.ncols, self.nrows, rows)

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
            self.rows == other.rows

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


# -- tensor products -----------------------------------------------------------

def kron_vec(a: Vec, b: Vec, right_dim: int) -> Vec:
    """a (x) b; right_dim is the dimension of b's space."""
    out: Vec = {}
    for x, cx in a.items():
        for y, cy in b.items():
            out[x * right_dim + y] = cx * cy
    return v_clean(out)


def kron_matrix(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a (x) b."""
    rows: Dict[int, Dict[int, FieldElement]] = {}
    for ra, rowa in a.rows.items():
        for rb, rowb in b.rows.items():
            out = rows.setdefault(ra * b.nrows + rb, {})
            for ca, va in rowa.items():
                for cb, vb in rowb.items():
                    out[ca * b.ncols + cb] = va * vb
    return SparseMatrix(a.nrows * b.nrows, a.ncols * b.ncols, rows)


def flip_matrix(dl: int, dr: int) -> SparseMatrix:
    """V (x) W -> W (x) V on basis indices: a*dr + b maps to b*dl + a."""
    rows = {}
    for a in range(dl):
        for b in range(dr):
            rows[b * dl + a] = {a * dr + b: ONE}
    return SparseMatrix(dl * dr, dl * dr, rows)


def diagonal_square_columns(a: SparseMatrix, d1: SparseMatrix,
                            d2: SparseMatrix) -> List[int]:
    """The columns, ascending, at which A D1 and D2 A differ, for diagonal
    D1 and D2, with no product formed.

    (A D1)_rc = A_rc D1_cc and (D2 A)_rc = D2_rr A_rc, so the two differ
    at (r, c) by A_rc (D1_cc - D2_rr), which is nonzero exactly when
    A_rc != 0 and D1_cc != D2_rr, since a field has no zero divisors.  A
    stores only its nonzero entries, and a diagonal entry that is not
    stored is zero.
    """
    def diag(d: SparseMatrix, i: int) -> FieldElement:
        return d.rows.get(i, {}).get(i, ZERO)
    bad = set()
    for r, row in a.rows.items():
        x = diag(d2, r)
        bad.update(c for c in row if diag(d1, c) != x)
    return sorted(bad)


# -- sparse Gauss-Jordan core --------------------------------------------------

def _eliminate(row: Vec, f: FieldElement, prow: Vec) -> None:
    """row -= f * prow in place, dropping the zeros it makes."""
    # f * b, not (-f) * b: the products elsewhere share f * b's memo key,
    # and keying by -f costs more GCD cancellations
    for j, b in prow.items():
        x = row.get(j)
        x = -(f * b) if x is None else x + -(f * b)
        if x.num.pairs:
            row[j] = x
        else:
            row.pop(j, None)


class Echelon:
    """Incremental Gauss-Jordan, the one elimination loop of the package.

    Each kept row is 1 at its pivot (stored without that entry) and 0 at
    every other kept pivot, so reducing a vector against the kept rows is
    order-free and, once the pivots are the columns of a nonsingular block,
    the kept rows are that block's inverse times the rows it was given.
    """

    def __init__(self):
        self.rows: Dict[int, Vec] = {}

    def reduce(self, v: Vec) -> Vec:
        out = dict(v)
        for p in [p for p in v if p in self.rows]:
            _eliminate(out, out.pop(p), self.rows[p])
        return out

    def add(self, r: Vec, pivot: Optional[int] = None) -> bool:
        """Keep r, a vector its caller has reduced, if it is nonzero (at
        pivot, when one is given)."""
        if pivot is None:
            if not r:
                return False
            pivot = min(r)
        elif pivot not in r:
            return False
        inv = r[pivot].inv()
        r = {j: x * inv for j, x in r.items() if j != pivot}
        for row in self.rows.values():
            f = row.pop(pivot, None)
            if f is not None:
                _eliminate(row, f, r)
        self.rows[pivot] = r
        return True


def rref(rows: Iterable[Vec], ncols: int) -> Tuple[Dict[int, Vec], List[Vec]]:
    """Reduced row echelon form of sparse rows; pivots only below ncols.

    Columns from ncols on (right-hand sides, an identity block) are carried
    along.  Each row is reduced in the caller's order and kept at its first
    surviving column below ncols, or set aside as a rest row if none
    survives.  Returns the pivot rows by ascending pivot, each 1 at its
    pivot and 0 at every other, and the nonzero rest rows.  Each pivot is
    the first column of a vector in the row space, so the pivots and the
    pivot rows below ncols are the unique echelon form; their carried
    entries are unique wherever the rest rows vanish, which is all a
    consistent solve reads.
    """
    kept, rest = Echelon(), []
    for row in rows:
        r = kept.reduce(row)
        lead = min(r, default=ncols)
        if lead < ncols:
            kept.add(r, lead)
        elif r:
            rest.append(r)
    return {p: {**kept.rows[p], p: ONE} for p in sorted(kept.rows)}, rest


def _rows(a: SparseMatrix) -> List[Vec]:
    return [a.rows.get(i, {}) for i in range(a.nrows)]


def rank(a: SparseMatrix) -> int:
    return len(rref(_rows(a), a.ncols)[0])


def kernel(a: SparseMatrix) -> List[Vec]:
    """Basis of the right nullspace, one vector per free column."""
    pivots, _ = rref(_rows(a), a.ncols)
    basis: List[Vec] = []
    for f in range(a.ncols):
        if f not in pivots:
            v: Vec = {f: ONE}
            for col, row in pivots.items():
                if f in row:
                    v[col] = -row[f]
            basis.append(v)
    return basis


def solve(a: SparseMatrix, b: Vec) -> Optional[Vec]:
    """One particular solution of a x = b, or None if inconsistent."""
    sols = solve_many(a, [b])
    return sols[0]


def solve_many(a: SparseMatrix, bs: Sequence[Vec]) -> List[Optional[Vec]]:
    """Particular solutions (free unknowns 0) for several right-hand sides.

    Raises ValueError on a nonzero right-hand side entry at a row that a
    does not have."""
    n = a.ncols
    rows = _rows(a)
    for t, b in enumerate(bs):
        for i, x in b.items():
            if x.is_zero():
                continue
            if not 0 <= i < a.nrows:
                raise ValueError(f"right-hand side {t} has an entry at row "
                                 f"{i}, outside the {a.nrows} rows")
            rows[i] = {**rows[i], n + t: x}
    pivots, rest = rref(rows, n)
    bad = {j for r in rest for j in r}
    return [None if n + t in bad else
            {col: row[n + t] for col, row in pivots.items() if n + t in row}
            for t in range(len(bs))]


def inverse(a: SparseMatrix) -> SparseMatrix:
    if a.nrows != a.ncols:
        raise ValueError("only square matrices invert")
    n = a.nrows
    pivots, _ = rref([{**r, n + i: ONE} for i, r in enumerate(_rows(a))], n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return SparseMatrix(n, n, {i: {j - n: x for j, x in row.items() if j >= n}
                               for i, row in pivots.items()})

