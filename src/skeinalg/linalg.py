"""Dense exact matrices and row reduction over the rationals.

Entries are ints and Fractions, mixed freely; any other entry in a
Matrix row or right-hand side that enters elimination, a product or a
linear combination raises ContractViolation, with no floating-point or
fraction-field fallback.  All arithmetic runs on Python ints: each
Matrix scales its entries to one common denominator once, each
TensorMap its constants, and the engine keeps primitive integer rows;
Fractions appear only where values are read out.

The integer image of a matrix is a pair (den, ints), den > 0, whose
values are ints[k] / den.  ``product_image`` is the one product kernel
and ``lincomb_image`` the one linear-combination kernel; each returns
a raw image, neither divided nor reduced.  ``Matrix @`` and ``apply``
divide a product image, and ``mat_lincomb`` a combination image, once
into normalised entries; ``+``, ``-`` and ``scale`` call ``mat_lincomb``,
which checks the shapes of a combination.  ``same_image`` compares two
images by cross-multiplication, so a law check compares products and
combinations without reading a value out.  The one entry-size cap,
MATRIX_POWER_MAX_ENTRY_BITS, sits where ``Matrix @``, ``apply`` and a
``TensorMap`` call read a product out, so a power, word product or
tensor pointing that explodes fails fast.
``relation_rows`` builds the rows (P tensor 1 - 1 tensor Q) e(i, j) of
the tensor quotient and the intertwiner solver from the images, each a
positive multiple of the exact row.  Only this module reads den and
ints; callers elsewhere pass images back here.  ``TensorMap`` is the one
bilinear kernel: the algebra product and the tensor_over quotient map
are both TensorMaps.  Products, combinations, bilinear images and
determinants return normalised entries: an int where the value is
integral, a reduced Fraction otherwise.  ``SparseEchelon`` is the one
elimination engine: rank, kernels, solving, quotients, the inverse and
the determinant all run through it, each matrix entering it as the
rows of its image, and what they read out of it is a Fraction for
every nonzero entry of a reduced row and int 0 elsewhere.  The
determinant reduces the rows of a matrix's image and divides by
den ** n once.  Pivoting always takes the first nonzero entry in column
order, so every result here is deterministic.

All values are immutable after construction and every operation is a
pure function, so callers may parallelize independent calls freely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import ContractViolation, int_arg


def _check_exact(values):
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise ContractViolation(
                f"exact linear algebra takes int and Fraction entries, not "
                f"{type(v).__name__}")


def _scaled(values):
    """(D, ints): the lcm D of the denominators of values, and values times D.

    Raises ContractViolation on any entry that is neither an int nor a
    Fraction.  Values that are all ints come back uncopied, with D = 1.
    """
    kinds = set(map(type, values))
    if kinds <= {int}:
        return 1, values
    if not kinds <= {int, Fraction}:
        _check_exact(values)  # lets int and Fraction subclasses through
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    return den, tuple([v.numerator * (den // d) for v, d in zip(values, dens)])


def _unscaled(den: int, ints) -> tuple:
    """The ints divided by den, each an int if integral, else a reduced Fraction."""
    if den == 1:
        return tuple(ints)
    return tuple(Fraction(x, den) if x % den else x // den for x in ints)


# 2467 decimal digits: every entry of a product stays printable (Python
# refuses str() of an int beyond 4300 digits) and each product stays fast
MATRIX_POWER_MAX_ENTRY_BITS = 1 << 13


def _product_values(den: int, ints) -> tuple:
    """_unscaled(den, ints) for the image of a product, held to
    MATRIX_POWER_MAX_ENTRY_BITS: ContractViolation once an entry's
    numerator or denominator outgrows it.

    A reduced entry is never larger than its image, so the entries are
    read one by one only when den or the largest |int| is past the bound.
    """
    out = _unscaled(den, ints)
    bound = MATRIX_POWER_MAX_ENTRY_BITS
    if ints and max(den, max(ints), -min(ints)).bit_length() > bound and any(
            max(x.numerator.bit_length(), x.denominator.bit_length()) > bound
            for x in out):
        raise ContractViolation(
            f"product entries outgrow MATRIX_POWER_MAX_ENTRY_BITS = {bound} bits")
    return out


@dataclass(frozen=True)
class Matrix:
    """Row-major dense matrix; entries.length == rows * cols."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        rows, cols, entries = self.rows, self.cols, self.entries
        int_arg(rows, "matrix rows")
        int_arg(cols, "matrix cols")
        # a list of entries would compare equal to the tuple but not hash
        if type(entries) is not tuple:
            raise ContractViolation(
                f"matrix entries must be a tuple, got {type(entries).__name__}")
        if len(entries) != rows * cols:
            raise ContractViolation(
                f"matrix with {rows}x{cols} shape but {len(entries)} entries")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, computed once."""
        return hash((self.rows, self.cols, self.entries))

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
    def from_cols(cols, rows: int) -> "Matrix":
        """The rows x len(cols) matrix whose j-th column is cols[j]."""
        cols = list(cols)
        if any(len(c) != rows for c in cols):
            raise ContractViolation("ragged columns")
        return Matrix(rows, len(cols), tuple(x for r in zip(*cols) for x in r))

    @staticmethod
    def identity(n: int) -> "Matrix":
        int_arg(n, "matrix size")   # before range(n)
        return Matrix(n, n, tuple(1 if i == j else 0
                                  for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (0,) * (int_arg(rows, "matrix rows")
                                          * int_arg(cols, "matrix cols")))

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
        return self.row(i)[int_arg(j, "matrix column", 0, self.cols - 1)]

    def row(self, i: int) -> tuple:
        i = int_arg(i, "matrix row", 0, self.rows - 1)
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        j = int_arg(j, "matrix column", 0, self.cols - 1)
        return self.entries[j::self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @cached_property
    def _ints(self) -> tuple:
        """_scaled(entries), computed once per matrix: (D, ints)."""
        return _scaled(self.entries)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return mat_lincomb([(1, self), (1, other)], self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return mat_lincomb([(1, self), (-1, other)], self.rows, self.cols)

    def scale(self, c) -> "Matrix":
        return mat_lincomb([(c, self)], self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.rows, other.cols,
                      _product_values(*product_image(self, other)))

    def apply(self, vec) -> tuple:
        """Matrix-vector product as a tuple, normalised like a product."""
        return _product_values(*product_image(self, Matrix.column(vec)))

    def det(self):
        """Exact determinant from the shared echelon engine, normalised:
        an int where integral, else a reduced Fraction.

        Each row of the integer image is reduced against the rows before
        it, which leaves the determinant unchanged; the reduced rows form
        a triangular matrix up to the column permutation given by their
        pivots.  The engine returns each reduced row times a known scale;
        the scales and den ** n are divided out once.
        """
        if not self.is_square:
            raise ContractViolation("determinant of a non-square matrix")
        n = self.rows
        den, ints = self._ints
        eng = SparseEchelon()
        num, scale = 1, den ** n
        order = []
        for i in range(n):
            row = ints[i * n:(i + 1) * n]
            s, row = eng.reduce({j: v for j, v in enumerate(row) if v})
            if not row:
                return 0
            p = min(row)
            num *= row[p]
            scale *= s
            order.append(p)
            eng.insert(row)
        inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
        return _unscaled(scale, (-num if inversions % 2 else num,))[0]

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ContractViolation("inverse of a non-square matrix")
        n = self.rows
        eng = _image_echelon(self, [{n + i: 1} for i in range(n)])
        # [m | I] always has rank n; m is invertible iff no pivot lies in I
        if eng.pivots() != list(range(n)):
            raise ContractViolation("matrix is singular")
        return Matrix(n, n, tuple(eng.value(i, n + j)
                                  for i in range(n) for j in range(n)))

    def tolist(self):
        return [list(self.row(i)) for i in range(self.rows)]


# ---------------------------------------------------------------------------
# integer images: (den, ints) holds the values ints[k] / den, den > 0


def matrix_image(m: Matrix) -> tuple:
    """The integer image of m, computed once per matrix.

    Raises ContractViolation on an entry that is neither an int nor a
    Fraction.
    """
    return m._ints


def product_image(a: Matrix, b: Matrix) -> tuple:
    """The integer image of a @ b: the product of the factors' images over
    the product of their denominators, neither divided nor reduced."""
    if a.cols != b.rows:
        raise ContractViolation(
            f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    n, k, m = a.rows, a.cols, b.cols
    da, left = a._ints
    db, right = b._ints
    out = [0] * (n * m)
    for i in range(n):
        base = i * k
        obase = i * m
        for t in range(k):
            x = left[base + t]
            if not x:
                continue
            rb = t * m
            for j in range(m):
                y = right[rb + j]
                if y:
                    out[obase + j] += x * y
    return da * db, out


def lincomb_image(pairs, rows: int, cols: int) -> tuple:
    """The integer image of the sum of coeff * matrix over (coeff, Matrix)
    pairs, skipping zero coefficients: summed on ints over the lcm of the
    matrices' denominators, neither divided nor reduced.  An inexact
    coefficient or entry raises ContractViolation, under a zero
    coefficient too."""
    pairs = list(pairs)
    dc, coeffs = _scaled([c for c, _ in pairs])
    images = [m._ints for _, m in pairs]   # read under a zero coefficient too
    terms = [(c, im) for c, im in zip(coeffs, images) if c]
    den = lcm(*(d for _, (d, _) in terms))
    out = [0] * (rows * cols)
    for c, (d, ents) in terms:
        c *= den // d
        for idx, x in enumerate(ents):
            if x:
                out[idx] += c * x
    return dc * den, out


def same_image(x, y) -> bool:
    """Whether the integer images x and y of one shape hold equal values.

    The ints are compared as they are when the denominators agree, and
    cross-multiplied by each other's denominator otherwise; nothing is
    divided.
    """
    dx, xs = x
    dy, ys = y
    if dx == dy:
        return list(xs) == list(ys)
    g = gcd(dx, dy)
    dx //= g
    dy //= g
    return [a * dy for a in xs] == [b * dx for b in ys]


def relation_rows(p: Matrix, q: Matrix, transposed: bool = False) -> list:
    """The nonzero images (P tensor 1 - 1 tensor Q) e(i, j) as sparse int rows.

    P is the square matrix p, or its transpose if transposed, and Q is
    the square matrix q; e(i, j) is coordinate i * q.rows + j.  The rows
    are built from the integer images, P scaled by Q's denominator and Q
    by P's, so each is the exact row times a positive int and the rows
    span the same space.
    """
    if not (p.is_square and q.is_square):
        raise ContractViolation("relation rows need square matrices")
    dp, pints = p._ints
    dq, qints = q._ints
    n, m = p.rows, q.rows
    # column i of P scaled by dq as (k * m, entry) pairs, and column j of
    # Q scaled by dp as (l, entry) pairs
    pcols = [pints[i * n:(i + 1) * n] if transposed else pints[i::n]
             for i in range(n)]
    pnz = [[(k * m, dq * v) for k, v in enumerate(col) if v] for col in pcols]
    qnz = [[(l, dp * v) for l, v in enumerate(qints[j::m]) if v]
           for j in range(m)]
    rows = []
    for i, pi in enumerate(pnz):
        base = i * m
        for j, qj in enumerate(qnz):
            row = {kq + j: v for kq, v in pi}
            for l, v in qj:
                key = base + l
                nv = row.get(key, 0) - v
                if nv:
                    row[key] = nv
                elif key in row:
                    del row[key]
            if row:
                rows.append(row)
    return rows


def matrix_power(m: Matrix, t: int) -> Matrix:
    """m to the power t >= 0 by repeated squaring, in O(log t) products.

    Every product is held to MATRIX_POWER_MAX_ENTRY_BITS, so a power whose
    entries explode raises ContractViolation after O(log t) products.
    """
    if not m.is_square:
        raise ContractViolation("power of a non-square matrix")
    int_arg(t, "matrix power t")
    out = None
    while True:
        if t & 1:
            out = m if out is None else out @ m
        t >>= 1
        if not t:
            return Matrix.identity(m.rows) if out is None else out
        m = m @ m


def mat_lincomb(pairs, rows: int, cols: int) -> Matrix:
    """Sum of coeff * matrix over (coeff, Matrix) pairs, skipping zeros.

    lincomb_image divided once into normalised entries, like a product; a
    term that is not a pair, or whose matrix is not rows x cols, or an
    inexact value raises ContractViolation.
    """
    # before lincomb_image builds [0] * (rows * cols)
    int_arg(rows, "matrix rows")
    int_arg(cols, "matrix cols")
    pairs = list(pairs)
    try:
        bad = any((m.rows, m.cols) != (rows, cols) for _, m in pairs)
    except (TypeError, ValueError):  # a term that is not a pair
        bad = True
    if bad:
        raise ContractViolation(f"a combination term is not {rows}x{cols}")
    return Matrix(rows, cols, _unscaled(*lincomb_image(pairs, rows, cols)))


class TensorMap:
    """The bilinear map m: Q^p x Q^q -> Q^dim, m(e_i, e_j) = images[i*q + j].

    Each image is given by its nonzero (k, c) pairs, c the coefficient of
    e_k.  The constants are scaled to ints over their common denominator
    once, here; each call scales its arguments, runs on ints and divides
    once, so values come back normalised like a product.  An inexact
    argument, or one of the wrong length, raises ContractViolation.
    """

    def __init__(self, p: int, q: int, dim: int, images):
        images = tuple(images)
        if len(images) != p * q:
            raise ContractViolation(f"{len(images)} images for {p} x {q} pairs")
        self.p, self.q, self.dim = p, q, dim
        self._den, ints = _scaled([c for pairs in images for _, c in pairs])
        ints = iter(ints)
        self._images = tuple(tuple((k, next(ints)) for k, _ in pairs)
                             for pairs in images)

    def __call__(self, x, y) -> tuple:
        """Coordinates of m(x, y), for x in Q^p and y in Q^q."""
        if (len(x), len(y)) != (self.p, self.q):
            raise ContractViolation("vector lengths do not fit the map")
        dx, x = _scaled(x)
        dy, y = _scaled(y)
        q, images = self.q, self._images
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                base = i * q
                for j, yj in enumerate(y):
                    if yj:
                        f = xi * yj
                        for k, c in images[base + j]:
                            out[k] += f * c
        return _product_values(self._den * dx * dy, out)

    def partial(self, x, first: bool = True) -> Matrix:
        """The matrix of y -> m(x, y), or of y -> m(y, x) if not first."""
        p, q = self.p, self.q
        n, size = (q, p) if first else (p, q)
        if len(x) != size:
            raise ContractViolation("vector length does not fit the map")
        dx, x = _scaled(x)
        out = [0] * (self.dim * n)
        for a, xa in enumerate(x):
            if xa:
                # column b is the image of e_b
                row = (self._images[a * q:(a + 1) * q] if first
                       else self._images[a::q])
                for b, pairs in enumerate(row):
                    for k, c in pairs:
                        out[k * n + b] += xa * c
        return Matrix(self.dim, n, _unscaled(self._den * dx, out))


# ---------------------------------------------------------------------------
# sparse reduced-echelon engine


def _eliminate(r: dict, c: int, pivot_row: dict) -> int:
    """r <- (d/g) r - (r[c]/g) pivot_row in place, for d = pivot_row[c] > 0
    and g = gcd(r[c], d), so r[c] becomes 0; returns the factor d/g."""
    a, d = r[c], pivot_row[c]
    g = gcd(a, d)
    a, d = a // g, d // g
    if d != 1:
        for k in r:
            r[k] *= d
    for k, v in pivot_row.items():
        nv = r.get(k, 0) - a * v
        if nv:
            r[k] = nv
        else:
            del r[k]
    return d


class SparseEchelon:
    """Incrementally maintained reduced row-echelon basis of a row space,
    fraction-free.

    Rows are dicts {column: value} of ints and Fractions; any other value
    raises ContractViolation.  Each stored row is a primitive integer
    dict: its entries have gcd 1, its pivot (smallest column) is positive,
    and every other stored row is zero at that pivot.  Divided by its
    pivot, it is a nonzero row of the RREF of everything inserted so far.
    Values are divided out only when read (``value``), in the style of
    Bareiss (Math. Comp. 22, 1968) and Cohen (GTM 138, section 2.2).
    """

    def __init__(self):
        self.rows: dict = {}  # pivot column -> primitive int row dict

    def reduce(self, row: dict):
        """(s, r): an int s > 0 and the fresh int dict r, s times row
        reduced against the current basis by one _eliminate step per
        pivot column of the row."""
        den, ints = _scaled(list(row.values()))
        r = {c: v for c, v in zip(row, ints) if v}
        # stored rows are zero at each other's pivots, so each step leaves
        # the other pivot columns of r as they were
        for c in [c for c in r if c in self.rows]:
            den *= _eliminate(r, c, self.rows[c])
        return den, r

    def insert(self, row: dict):
        """Insert a row; return its pivot column, or None if dependent."""
        _, row = self.reduce(row)
        if not row:
            return None
        p = min(row)
        g = gcd(*row.values())
        if row[p] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        for r in self.rows.values():
            if p in r:
                # row is zero at r's pivot, which stays positive; r is made
                # primitive again
                _eliminate(r, p, row)
                h = gcd(*r.values())
                if h != 1:
                    for c in r:
                        r[c] //= h
        self.rows[p] = row
        return p

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)[1]

    def value(self, p: int, c: int):
        """Entry c of the RREF row with pivot p: a Fraction, or int 0."""
        row = self.rows[p]
        v = row.get(c)
        return Fraction(v, row[p]) if v else 0

    def kernel(self, ncols: int) -> list:
        """Basis of the vectors over columns < ncols that every row annihilates.

        One tuple per free (non-pivot) column f: 1 at f, minus the f-entry
        of each RREF row at that row's pivot, so the basis is canonical.
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
                    v[p] = Fraction(-c, row[p])
            basis.append(tuple(v))
        return basis

    def solve(self, ncols: int):
        """Solve the inserted rows as equations in the columns < ncols.

        Column ncols holds the right-hand side.  Returns (particular,
        kernel basis) with every free variable of the particular solution
        zero, or None when the equations are inconsistent.
        """
        if ncols in self.rows:
            return None
        x = [0] * ncols
        for p in self.rows:
            x[p] = self.value(p, ncols)
        return tuple(x), self.kernel(ncols)


def _image_echelon(m: Matrix, extra=None) -> SparseEchelon:
    """The engine loaded with the rows of m's integer image.

    Row i is den times row i of m, extended by den times extra[i], a dict
    of columns past m.cols; each is a positive multiple of the exact row,
    so the span and the RREF read out of the engine are those of m.
    """
    (den, ints), c = m._ints, m.cols
    eng = SparseEchelon()
    for i in range(m.rows):
        row = {j: v for j, v in enumerate(ints[i * c:(i + 1) * c]) if v}
        if extra:
            row.update((k, den * v) for k, v in extra[i].items())
        eng.insert(row)
    return eng


def kernel_basis(m: Matrix) -> list:
    """Basis of the right kernel {v : m v = 0} as a list of tuples.

    The count always equals cols - rank; the vectors come from the free
    columns of the RREF, so the basis is canonical.
    """
    return _image_echelon(m).kernel(m.cols)


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
    _check_exact(b)
    return _image_echelon(m, [{m.cols: bi} for bi in b]).solve(m.cols)


def sparse_quotient(ambient_dim: int, relation_rows):
    """Canonical basis data for ambient / span(relation_rows).

    relation_rows are dicts {ambient coordinate: value}.  Returns
    (representatives, projection columns): the representatives are the
    non-pivot coordinates of the relation row space, and
    projection_columns[j] is a dict {quotient coordinate: value} giving
    the class of ambient basis vector j.  The projection annihilates
    exactly span(relation_rows).  A coordinate that is not an int in
    0..ambient_dim-1 raises ContractViolation.
    """
    eng = SparseEchelon()
    for r in relation_rows:
        if not all(type(c) is int and 0 <= c < ambient_dim for c in r):
            for c in r:
                if type(c) is int and c >= ambient_dim:
                    raise ContractViolation("relation vector longer than ambient")
                int_arg(c, "relation coordinate", 0, ambient_dim - 1)
        eng.insert(r)
    pivot_set = set(eng.rows)
    reps = [j for j in range(ambient_dim) if j not in pivot_set]
    rep_pos = {r: i for i, r in enumerate(reps)}
    cols = []
    for j in range(ambient_dim):
        if j in pivot_set:
            cols.append({rep_pos[c]: -eng.value(j, c) for c in eng.rows[j]
                         if c != j})
        else:
            cols.append({rep_pos[j]: 1})
    return reps, cols


# find_invertible_in_affine_family draws each coefficient from
# [-SEARCH_COEFF_BOUND, SEARCH_COEFF_BOUND], in at most SEARCH_TRIALS trials
SEARCH_COEFF_BOUND = 10**6
SEARCH_TRIALS = 32


def find_invertible_in_affine_family(particular: Matrix, directions,
                                     *, seed: int = 0):
    """Search particular + span(directions) for an invertible matrix.

    The positive direction is exact: any returned matrix has nonzero
    determinant, certified by exact elimination.  The negative direction
    is randomized-complete: if some point of the family is invertible,
    each random trial misses with probability at most
    n / (2*SEARCH_COEFF_BOUND+1) (Schwartz-Zippel, since det is a
    polynomial of degree <= n in the coefficients), so None after
    SEARCH_TRIALS trials is wrong with probability at most
    (n / (2*SEARCH_COEFF_BOUND+1))**SEARCH_TRIALS, below 1e-160 for the
    sizes used here.
    """
    int_arg(seed, "search seed", None)   # None would seed from the OS
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
    for _ in range(SEARCH_TRIALS):
        coeffs = [rng.randint(-SEARCH_COEFF_BOUND, SEARCH_COEFF_BOUND)
                  for _ in directions]
        cand = mat_lincomb([(1, particular)] + list(zip(coeffs, directions)),
                           n, n)
        if cand.det():
            return cand
    return None


def rank(m: Matrix) -> int:
    return _image_echelon(m).rank
