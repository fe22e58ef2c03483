"""Dense exact matrices and row reduction over the rationals.

Entries are ints and Fractions, mixed freely; any other entry that
reaches a division raises ContractViolation, with no floating-point or
fraction-field fallback.  ``SparseEchelon`` is the one elimination
engine: rref, rank, kernels, solving, quotients and the determinant all
run through it.  Pivoting always takes the first nonzero entry in column
order, so every result here is deterministic.

All values are immutable after construction and every operation is a
pure function, so callers may parallelize independent calls freely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation


def _div(a, b):
    if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
        raise ContractViolation(
            f"exact linear algebra takes int and Fraction entries, not "
            f"{type(a).__name__} / {type(b).__name__}")
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


@dataclass(frozen=True)
class Matrix:
    """Row-major dense matrix; entries.length == rows * cols."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ContractViolation(
                f"matrix with {self.rows}x{self.cols} shape but "
                f"{len(self.entries)} entries")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "Matrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ContractViolation("ragged rows")
        return Matrix(n, m, tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(1 if i == j else 0
                                  for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def column(vec) -> "Matrix":
        vec = tuple(vec)
        return Matrix(len(vec), 1, vec)

    @staticmethod
    def row_vector(vec) -> "Matrix":
        vec = tuple(vec)
        return Matrix(1, len(vec), vec)

    # -- access -------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j::self.cols]

    def rows_list(self):
        return [self.row(i) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ContractViolation("matrix addition shape mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ContractViolation("matrix subtraction shape mismatch")
        return Matrix(self.rows, self.cols,
                      tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ContractViolation(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            obase = i * m
            for t in range(k):
                a = self.entries[base + t]
                if not a:
                    continue
                rb = t * m
                for j in range(m):
                    b = other.entries[rb + j]
                    if b:
                        out[obase + j] = out[obase + j] + a * b
        return Matrix(n, m, tuple(out))

    def apply(self, vec) -> tuple:
        """Matrix-vector product as a tuple."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise ContractViolation("matrix-vector length mismatch")
        out = [0] * self.rows
        for j, v in enumerate(vec):
            if not v:
                continue
            for i in range(self.rows):
                a = self.entries[i * self.cols + j]
                if a:
                    out[i] = out[i] + a * v
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.entries[j * self.cols + i]
                            for i in range(self.cols) for j in range(self.rows)))

    def det(self):
        """Exact determinant from the shared echelon engine.

        Each row is reduced against the rows before it, which leaves the
        determinant unchanged; the reduced rows form a triangular matrix
        up to the column permutation given by their pivots.
        """
        if not self.is_square:
            raise ContractViolation("determinant of a non-square matrix")
        eng = SparseEchelon()
        acc = 1
        order = []
        for i in range(self.rows):
            row = eng.reduce(_row_to_dict(self.row(i)))
            if not row:
                return 0
            p = min(row)
            acc = acc * row[p]
            order.append(p)
            eng.insert(row)
        inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
        return -acc if inversions % 2 else acc

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ContractViolation("inverse of a non-square matrix")
        n = self.rows
        aug = [list(self.row(i)) + [1 if j == i else 0 for j in range(n)]
               for i in range(n)]
        red, pivots = _rref_rows(aug)
        if pivots != list(range(n)):
            raise ContractViolation("matrix is singular")
        return Matrix.from_rows([r[n:] for r in red[:n]])

    def tolist(self):
        return [list(self.row(i)) for i in range(self.rows)]


def mat_lincomb(pairs, rows: int, cols: int) -> Matrix:
    """Sum of coeff * matrix over (coeff, Matrix) pairs, skipping zeros."""
    out = [0] * (rows * cols)
    for c, m in pairs:
        if not c:
            continue
        for idx, x in enumerate(m.entries):
            if x:
                out[idx] = out[idx] + c * x
    return Matrix(rows, cols, tuple(out))


# ---------------------------------------------------------------------------
# sparse reduced-echelon engine


class SparseEchelon:
    """Incrementally maintained reduced row-echelon basis of a row space.

    Rows are dicts {column: value}.  Pivot rows are normalized to 1 and
    fully reduced against each other, so the stored rows are exactly the
    nonzero rows of the RREF of everything inserted so far.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot column -> row dict

    def reduce(self, row: dict) -> dict:
        """Return row reduced against the current basis (a fresh dict)."""
        row = {c: v for c, v in row.items() if v}
        for c in [c for c in row if c in self.rows]:
            f = row.get(c)
            if not f:
                continue
            for c2, v2 in self.rows[c].items():
                nv = row.get(c2, 0) - f * v2
                if nv:
                    row[c2] = nv
                elif c2 in row:
                    del row[c2]
        return row

    def insert(self, row: dict):
        """Insert a row; return its pivot column, or None if dependent."""
        row = self.reduce(row)
        if not row:
            return None
        p = min(row)
        inv = row[p]
        row = {c: _div(v, inv) for c, v in row.items()}
        for r in self.rows.values():
            f = r.get(p)
            if f:
                for c2, v2 in row.items():
                    nv = r.get(c2, 0) - f * v2
                    if nv:
                        r[c2] = nv
                    elif c2 in r:
                        del r[c2]
        self.rows[p] = row
        return p

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def kernel(self, ncols: int) -> list:
        """Basis of the vectors over columns < ncols that every row annihilates.

        One tuple per free (non-pivot) column f: 1 at f, minus the f-entry
        of each pivot row at that row's pivot, so the basis is canonical.
        """
        basis = []
        for f in range(ncols):
            if f in self.rows:
                continue
            v = [0] * ncols
            v[f] = 1
            for p, row in self.rows.items():
                c = row.get(f)
                if c:
                    v[p] = -c
            basis.append(tuple(v))
        return basis


def _row_to_dict(row) -> dict:
    return {j: v for j, v in enumerate(row) if v}


def _echelon(rows) -> SparseEchelon:
    eng = SparseEchelon()
    for r in rows:
        eng.insert(_row_to_dict(r))
    return eng


def _rref_rows(rows):
    """RREF of a list-of-lists; returns (rows as lists, pivot columns)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    eng = _echelon(rows)
    pivots = eng.pivots()
    out = []
    for p in pivots:
        d = eng.rows[p]
        out.append([d.get(j, 0) for j in range(ncols)])
    for _ in range(len(rows) - len(pivots)):
        out.append([0] * ncols)
    return out, pivots


@dataclass(frozen=True)
class RrefResult:
    matrix: Matrix
    pivots: tuple


def rref(m: Matrix) -> RrefResult:
    """Reduced row-echelon form and pivot columns.

    The row space is preserved and pivot columns are strictly increasing.
    """
    red, pivots = _rref_rows(m.rows_list())
    flat = tuple(x for row in red for x in row)
    return RrefResult(Matrix(m.rows, m.cols, flat), tuple(pivots))


def kernel_basis(m: Matrix) -> list:
    """Basis of the right kernel {v : m v = 0} as a list of tuples.

    The count always equals cols - rank; the vectors come from the free
    columns of the RREF, so the basis is canonical.
    """
    return _echelon(m.rows_list()).kernel(m.cols)


def solve_linear(m: Matrix, b):
    """Solve m x = b; returns (particular, kernel basis) or None.

    The full solution set is particular + span(kernel basis).  Raises on
    dimension mismatch; returns None exactly when the system is
    inconsistent.
    """
    b = tuple(b)
    if len(b) != m.rows:
        raise ContractViolation(
            f"right-hand side of length {len(b)} for {m.rows} equations")
    aug = m.cols  # augmented column index
    eng = SparseEchelon()
    for i, bi in enumerate(b):
        row = _row_to_dict(m.row(i))
        if bi:
            row[aug] = bi
        eng.insert(row)
    if aug in eng.rows:
        return None
    x = [0] * m.cols
    for p, row in eng.rows.items():
        x[p] = row.get(aug, 0)
    return tuple(x), eng.kernel(m.cols)


def quotient_basis(ambient_dim: int, relations):
    """Canonical basis data for ambient / span(relations).

    Returns (representative indices, projection matrix).  Representatives
    are the non-pivot coordinates of the relation row space; the
    projection sends ambient coordinates to quotient coordinates and
    annihilates exactly span(relations).
    """
    reps, proj_cols = sparse_quotient(
        ambient_dim, [_row_to_dict(r) for r in relations])
    q = len(reps)
    ents = [0] * (q * ambient_dim)
    for j, col in enumerate(proj_cols):
        for i, v in col.items():
            ents[i * ambient_dim + j] = v
    return reps, Matrix(q, ambient_dim, tuple(ents))


def sparse_quotient(ambient_dim: int, relation_rows):
    """Sparse form of quotient_basis: (representatives, projection columns).

    projection_columns[j] is a dict {quotient coordinate: value} giving the
    class of ambient basis vector j.
    """
    eng = SparseEchelon()
    for r in relation_rows:
        if any(c >= ambient_dim for c in r):
            raise ContractViolation("relation vector longer than ambient")
        eng.insert(r)
    pivot_set = set(eng.rows)
    reps = [j for j in range(ambient_dim) if j not in pivot_set]
    rep_pos = {r: i for i, r in enumerate(reps)}
    cols = []
    for j in range(ambient_dim):
        if j in pivot_set:
            cols.append({rep_pos[c]: -v for c, v in eng.rows[j].items()
                         if c != j})
        else:
            cols.append({rep_pos[j]: 1})
    return reps, cols


def find_invertible_in_affine_family(particular: Matrix, directions,
                                     *, trials: int = 32, seed: int = 0,
                                     coeff_bound: int = 10**6):
    """Search particular + span(directions) for an invertible matrix.

    The positive direction is exact: any returned matrix has nonzero
    determinant, certified by exact elimination.  The negative direction
    is randomized-complete: if some point of the family is invertible,
    each random trial misses with probability at most n / (2*coeff_bound+1)
    (Schwartz-Zippel, since det is a polynomial of degree <= n in the
    coefficients), so None after the default 32 trials is wrong with
    probability below 1e-160 for the sizes used here.
    """
    directions = list(directions)
    n = particular.rows
    if not particular.is_square or any(
            d.rows != n or d.cols != n for d in directions):
        raise ContractViolation("affine family must consist of equal square matrices")
    if particular.det():
        return particular
    if not directions:
        return None
    rng = random.Random(seed)
    for _ in range(trials):
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in directions]
        cand = mat_lincomb([(1, particular)] + list(zip(coeffs, directions)),
                           n, n)
        if cand.det():
            return cand
    return None


def rank(m: Matrix) -> int:
    return _echelon(m.rows_list()).rank
