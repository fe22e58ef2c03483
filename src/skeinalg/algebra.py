"""Finite-dimensional associative unital algebras over the rationals.

An algebra is given by its structure constants (the coefficient c of
basis vector k in the product e_i * e_j) together with the coordinate
vector of the unit.  Only this module reads how they are stored:
mult[i][j] holds the nonzero (k, c) pairs of e_i e_j, k ascending, so
equal tables compare and hash equal; other modules read dense
coordinates from ``basis_product``.  Construction checks the unit laws
on every basis index and associativity on every basis pair times each
generator.

The generators of an algebra are basis indices S such that the unit and
the left-nested words ((e_s1 e_s2) ...) e_sk in S span it.  A rule that
must hold for all a in A, and holds for 1, is checked on S alone when
the set T of elements where it holds is closed under z -> z e_s for
every s in S: induction on word length puts every left-nested word in
T, and linearity puts their span, A, in T.  Each check that runs over S
says in its docstring why its T is closed that way.  Nothing is skipped
and nothing is trusted: ``make_algebra`` proves that S generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import ContractViolation, ValidationError, int_arg
from .linalg import (Matrix, SparseEchelon, TensorMap, _check_exact,
                     matrix_image, product_image, same_image)

# algebras past this dimension are refused before any table is built:
# 64 is End(V) for dim V = 8, as for TENSOR_MAX_AMBIENT_DIM
ALGEBRA_MAX_DIM = 64


@dataclass(frozen=True)
class Algebra:
    dim: int
    mult: tuple   # mult[i][j] = nonzero (k, c) pairs of e_i e_j, k ascending
    unit: tuple
    # basis indices that generate the algebra (see the module docstring);
    # they follow from mult and unit, so == and hash ignore them
    generators: tuple = field(compare=False, repr=False)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the compared fields, computed once."""
        return hash((self.dim, self.mult, self.unit))

    def basis_product(self, i: int, j: int) -> tuple:
        """Coordinates of e_i e_j."""
        out = [0] * self.dim
        for k, c in self.mult[i][j]:
            out[k] = c
        return tuple(out)

    @cached_property
    def _product(self) -> TensorMap:
        """The product as a bilinear map, its constants scaled once."""
        return TensorMap(self.dim, self.dim, self.dim,
                         (pairs for row in self.mult for pairs in row))

    def multiply(self, x, y) -> tuple:
        """Product of two coordinate vectors, normalised as a Matrix product.

        One call of the TensorMap of the structure constants; an inexact
        entry of x or y raises ContractViolation.
        """
        return self._product(x, y)

    def left_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> x * y."""
        return self._product.partial(x)

    def right_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> y * x."""
        return self._product.partial(x, first=False)

    @cached_property
    def _regular(self) -> tuple:
        """(left, right): the multiplication matrices of the basis
        elements on each side, built once per algebra."""
        basis = [_unit_vec(self.dim, i) for i in range(self.dim)]
        return (tuple(self.left_mult_matrix(e) for e in basis),
                tuple(self.right_mult_matrix(e) for e in basis))

    def left_regular(self) -> tuple:
        """Left multiplication matrices of the basis elements."""
        return self._regular[0]

    def right_regular(self) -> tuple:
        """Right multiplication matrices of the basis elements."""
        return self._regular[1]

    def is_invertible_element(self, x) -> bool:
        # one-sided inverses are two-sided in finite dimension, so a unit
        # is exactly an element whose left multiplication is invertible
        return bool(self.left_mult_matrix(x).det())


def _unit_vec(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def _combine(terms) -> dict:
    """Sum of c * p over the (c, pairs p) in terms, as {k: c} without zeros."""
    out = {}
    for c, pairs in terms:
        for k, d in pairs:
            out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


def _generating_indices(mult, unit: dict, candidates) -> tuple:
    """Greedy generators: the candidates first, then every index in order.

    An index is kept when e_i is not yet in the span of the unit and the
    left-nested words in the indices kept before it.  The span is closed
    under right multiplication by every kept index, and only by that, so
    associativity is never assumed.  Every e_i ends up in the span, so
    the kept indices always generate.
    """
    span = SparseEchelon()
    words = []   # a spanning set of words, each multiplied by every generator
    gens = []

    def times(w, s):   # w e_s, for w as {k: coefficient}
        return _combine((v, mult[k][s]) for k, v in w.items())

    def close(queue):
        while queue:
            w = queue.pop()
            if span.insert(w) is not None:
                words.append(w)
                queue.extend(times(w, s) for s in gens)

    close([unit])
    for i in list(candidates) + [i for i in range(len(mult)) if i not in candidates]:
        if span.contains({i: 1}):
            continue
        gens.append(i)
        close([{i: 1}] + [times(w, i) for w in words])
    return tuple(gens)


def _check_dim(n) -> int:
    """n, if it is an algebra dimension: an int from 0 to ALGEBRA_MAX_DIM."""
    if int_arg(n, "algebra dimension") > ALGEBRA_MAX_DIM:
        raise ContractViolation(
            f"algebra dimension {n} exceeds ALGEBRA_MAX_DIM = {ALGEBRA_MAX_DIM}")
    return n


def _build_algebra(n: int, products, unit, candidates=()) -> Algebra:
    """make_algebra for the algebra of dimension n whose nonzero structure
    constants are the (i, j, k, c) in products, each (i, j, k) once.

    Nothing is read from products, unit or candidates before n passes
    ALGEBRA_MAX_DIM, so callers may pass them lazily.
    """
    _check_dim(n)
    unit, candidates = tuple(unit), tuple(candidates)
    for s in candidates:   # a negative one would index from the end
        int_arg(s, "generator candidate", 0, n - 1)
    table = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, k, c in products:
        table[i][j][k] = c
    mult = tuple(tuple(tuple(sorted(p.items())) for p in row) for row in table)
    unit_pairs = tuple((k, u) for k, u in enumerate(unit) if u)
    gens = _generating_indices(mult, dict(unit_pairs), candidates)
    # associativity: (e_i e_j) e_s == e_i (e_j e_s)
    for i, row in enumerate(mult):
        for j, eij in enumerate(row):
            for s in gens:
                ejs = mult[j][s]
                if (eij or ejs) and (_combine((c, mult[k][s]) for k, c in eij)
                                     != _combine((c, row[k]) for k, c in ejs)):
                    raise ValidationError(
                        f"associativity fails at basis indices (i,j,k)=({i},{j},{s})")
    for j in range(n):
        if _combine((u, mult[k][j]) for k, u in unit_pairs) != {j: 1}:
            raise ValidationError(f"left unit law fails at basis index {j}")
        if _combine((u, mult[j][k]) for k, u in unit_pairs) != {j: 1}:
            raise ValidationError(f"right unit law fails at basis index {j}")
    return Algebra(n, mult, unit, gens)


def make_algebra(structure_constants, unit, *, candidates=()) -> Algebra:
    """Validate and build an Algebra from a dense [n][n][n] array of
    structure constants, [i][j][k] the coefficient of e_k in e_i e_j.

    The generators are found greedily, trying ``candidates`` first; a
    candidate is kept only where the greedy would keep it.  Associativity
    (e_i e_j) e_s = e_i (e_j e_s) is checked for every basis pair (i, j)
    and every generator s, and the unit laws on every basis index.  That
    is all of associativity: T = {z : (xy)z = x(yz) for all x, y} holds 1
    by the unit laws and each generator by the check, and if z is in T
    then so is z s, since (xy)(zs) = ((xy)z)s = (x(yz))s = x((yz)s) =
    x(y(zs)), each step the check for s or z in T.  The words are
    left-nested, so the argument does not assume associativity.

    Raises ContractViolation past ALGEBRA_MAX_DIM before the array is
    read, and ValidationError naming the offending index tuple when
    associativity or a unit law fails.
    """
    planes, unit = list(structure_constants), tuple(unit)
    n = len(planes)

    def products():   # read by _build_algebra once n has passed the cap
        if len(unit) != n or any(len(p) != n or any(len(r) != n for r in p)
                                 for p in planes):
            raise ContractViolation("structure constant array has inconsistent shape")
        _check_exact(unit)
        for i, plane in enumerate(planes):
            for j, row in enumerate(plane):
                _check_exact(row)
                yield from ((i, j, k, c) for k, c in enumerate(row) if c)

    return _build_algebra(n, products(), unit, candidates)


# typed, so that True and 2.0 miss the entries of 1 and 2 and are refused
@lru_cache(maxsize=None, typed=True)
def matrix_algebra(n: int) -> Algebra:
    """The algebra of n x n matrices on the elementary-matrix basis.

    Basis index (i, j) is flattened to i * n + j, and
    E(i,j) E(k,l) = delta(j,k) E(i,l); the unit is the identity matrix.
    The cyclic steps E(i, i+1 mod n), for i < n, are the generator
    candidates, and for n >= 2 the greedy keeps all n of them: their
    left-nested words are the E(i,j) with i != j and, once round the
    cycle, the E(i,i).  Past ALGEBRA_MAX_DIM, for n >= 9, it raises
    before it builds anything.
    """
    int_arg(n, "matrix_algebra n", 1)
    products = ((i * n + j, j * n + l, i * n + l, 1)
                for i in range(n) for j in range(n) for l in range(n))
    unit = (1 if k // n == k % n else 0 for k in range(n * n))
    steps = (i * n + (i + 1) % n for i in range(n))
    return _build_algebra(n * n, products, unit, steps)


def field_algebra() -> Algebra:
    """The ground field as a one-dimensional algebra."""
    return matrix_algebra(1)


def product_field_algebra(n: int) -> Algebra:
    """The split commutative algebra Q^n with coordinatewise product."""
    _check_dim(n)   # before [1] * n
    return _build_algebra(n, ((i, i, i, 1) for i in range(n)), [1] * n)


def truncated_poly_algebra(n: int) -> Algebra:
    """Q[x] / x^n on the basis 1, x, ..., x^(n-1)."""
    _check_dim(n)   # before range(n)
    products = ((i, j, i + j, 1) for i in range(n) for j in range(n - i))
    return _build_algebra(n, products, _unit_vec(n, 0))


def upper_triangular_algebra() -> Algebra:
    """The 3-dimensional algebra of upper-triangular 2x2 matrices.

    Basis: E(0,0), E(0,1), E(1,1) in that order.
    """
    # the nonzero products of basis elements, each a basis element
    products = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 2, 1, 1), (2, 2, 2, 1)]
    return _build_algebra(3, products, (1, 0, 1))


def algebra_direct_sum(a: Algebra, b: Algebra) -> Algebra:
    products = ((i + d, j + d, k + d, c) for alg, d in ((a, 0), (b, a.dim))
                for i, row in enumerate(alg.mult)
                for j, pairs in enumerate(row) for k, c in pairs)
    return _build_algebra(a.dim + b.dim, products, a.unit + b.unit)


def transport_algebra(alg: Algebra, s: Matrix) -> Algebra:
    """The same algebra expressed in the basis given by the columns of s."""
    if not s.is_square or s.rows != alg.dim:
        raise ContractViolation("change of basis must be square of the algebra dimension")
    sinv = s.inverse()
    cols = [s.col(i) for i in range(alg.dim)]
    products = ((i, j, k, c) for i, x in enumerate(cols) for j, y in enumerate(cols)
                for k, c in enumerate(sinv.apply(alg.multiply(x, y))) if c)
    return _build_algebra(alg.dim, products, sinv.apply(alg.unit))


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class AlgebraHom:
    """A unital algebra homomorphism source -> target, as a matrix on coordinates."""

    source: Algebra
    target: Algebra
    matrix: Matrix


def make_hom(source: Algebra, target: Algebra, matrix: Matrix) -> AlgebraHom:
    """Validate unitality, and multiplicativity on basis times generator.

    f(e_i e_s) = f(e_i) f(e_s) for every basis index i and every generator
    s of the source gives f(xy) = f(x) f(y) for all x, y: the set of z
    with f(xz) = f(x) f(z) for all x holds 1 by unitality, and with z it
    holds z s, since f(x(zs)) = f((xz)s) = f(xz) f(s) = f(x) f(z) f(s) =
    f(x) f(zs).  For each s the equations over all i are one matrix
    identity, M R(e_s) = R(f(e_s)) M, with M the matrix of f and R(x) the
    matrix of right multiplication by x: column i of the left side is
    f(e_i e_s) and of the right side f(e_i) f(e_s).  Both sides, and f(1)
    with the target's unit, are compared as integer images.
    """
    if (matrix.rows, matrix.cols) != (target.dim, source.dim):
        raise ContractViolation(
            f"hom matrix must be {target.dim}x{source.dim}, got "
            f"{matrix.rows}x{matrix.cols}")
    matrix_image(matrix)  # raises ContractViolation on an inexact entry
    if not same_image(product_image(matrix, Matrix.column(source.unit)),
                      matrix_image(Matrix.column(target.unit))):
        raise ValidationError("homomorphism does not preserve the unit")
    for s in source.generators:
        lhs = product_image(matrix, source.right_mult_matrix(
            _unit_vec(source.dim, s)))
        rhs = product_image(target.right_mult_matrix(matrix.col(s)), matrix)
        if not same_image(lhs, rhs):
            raise ValidationError(f"multiplicativity fails at generator {s},"
                                  f" at some basis pair (i,j)=(i,{s})")
    return AlgebraHom(source, target, matrix)


def identity_hom(alg: Algebra) -> AlgebraHom:
    return AlgebraHom(alg, alg, Matrix.identity(alg.dim))


def compose_homs(g: AlgebraHom, f: AlgebraHom) -> AlgebraHom:
    """g after f."""
    if f.target != g.source:
        raise ContractViolation("homomorphisms are not composable")
    return AlgebraHom(f.source, g.target, g.matrix @ f.matrix)


def flatten_matrix(m: Matrix) -> tuple:
    """Coordinates of an n x n matrix in the elementary basis of matrix_algebra(n)."""
    return tuple(m.entries)


def conjugation_hom(n: int, u: Matrix) -> AlgebraHom:
    """The conjugation automorphism a -> u^-1 a u of matrix_algebra(n).

    This is the Heisenberg-evolution direction: with modulation fixing the
    source algebra to act on the left through the homomorphism, it is the
    modulation of this map that is isomorphic to the regular bimodule
    pointed by u (via left multiplication by u).  Rescaling u by a nonzero
    scalar leaves the map unchanged.
    """
    if (u.rows, u.cols) != (n, n):
        raise ContractViolation("conjugating element has wrong shape")
    uinv = u.inverse()
    alg = matrix_algebra(n)
    cols = [flatten_matrix(uinv @ Matrix(n, n, _unit_vec(n * n, k)) @ u)
            for k in range(n * n)]
    return make_hom(alg, alg, Matrix.from_cols(cols, n * n))


def scalar_inclusion_hom(target: Algebra) -> AlgebraHom:
    """The unique unital homomorphism from the ground field."""
    return make_hom(field_algebra(), target, Matrix.column(target.unit))


def hom_from_images(source: Algebra, target: Algebra, images) -> AlgebraHom:
    """Build and validate a hom from the images of the basis vectors."""
    cols = [tuple(v) for v in images]
    if len(cols) != source.dim or any(len(c) != target.dim for c in cols):
        raise ContractViolation("wrong number or length of basis images")
    return make_hom(source, target, Matrix.from_cols(cols, target.dim))

