"""Finite-dimensional associative unital algebras over the rationals.

An algebra is given by structure constants c[i][j][k] (the coefficient of
basis vector k in the product e_i * e_j) together with the coordinate
vector of the unit.  Construction checks the unit laws on every basis
index and associativity on every basis pair times each generator.

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
from functools import lru_cache

from .errors import ContractViolation, ValidationError
from .linalg import Matrix, SparseEchelon, _check_exact


@dataclass(frozen=True)
class Algebra:
    dim: int
    mult: tuple   # mult[i][j][k] = coefficient of e_k in e_i e_j
    unit: tuple
    # basis indices that generate the algebra (see the module docstring);
    # they follow from mult and unit, so == and hash ignore them
    generators: tuple = field(compare=False, repr=False)

    def basis_product(self, i: int, j: int) -> tuple:
        return self.mult[i][j]

    def multiply(self, x, y) -> tuple:
        """Product of two coordinate vectors."""
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                for k, c in enumerate(self.mult[i][j]):
                    if c:
                        out[k] = out[k] + f * c
        return tuple(out)

    def left_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> x * y."""
        cols = [self.multiply(x, _unit_vec(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_cols(cols, self.dim)

    def right_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> y * x."""
        cols = [self.multiply(_unit_vec(self.dim, j), x) for j in range(self.dim)]
        return Matrix.from_cols(cols, self.dim)

    def left_regular(self) -> list:
        """Left multiplication matrices of the basis elements."""
        return [self.left_mult_matrix(_unit_vec(self.dim, i))
                for i in range(self.dim)]

    def right_regular(self) -> list:
        return [self.right_mult_matrix(_unit_vec(self.dim, i))
                for i in range(self.dim)]

    def is_invertible_element(self, x) -> bool:
        # one-sided inverses are two-sided in finite dimension, so a unit
        # is exactly an element whose left multiplication is invertible
        return bool(self.left_mult_matrix(x).det())


def _unit_vec(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def _right_times(mult, x, s: int) -> tuple:
    """x e_s for a coordinate vector x."""
    out = [0] * len(mult)
    for k, xk in enumerate(x):
        if xk:
            for t, c in enumerate(mult[k][s]):
                if c:
                    out[t] = out[t] + xk * c
    return tuple(out)


def _generating_indices(mult, unit, candidates=()) -> tuple:
    """Greedy generators: the candidates first, then every index in order.

    An index is kept when e_i is not yet in the span of the unit and the
    left-nested words in the indices kept before it.  The span is closed
    under right multiplication by every kept index, and only by that, so
    associativity is never assumed.  Every e_i ends up in the span, so
    the kept indices always generate.
    """
    n = len(mult)
    span = SparseEchelon()
    words = []   # a spanning set of words, each multiplied by every generator
    gens = []

    def close(queue):
        while queue:
            w = queue.pop()
            if span.insert({k: v for k, v in enumerate(w) if v}) is not None:
                words.append(w)
                queue.extend(_right_times(mult, w, s) for s in gens)

    close([tuple(unit)])
    for i in list(candidates) + [i for i in range(n) if i not in candidates]:
        if span.contains({i: 1}):
            continue
        gens.append(i)
        close([_unit_vec(n, i)] + [_right_times(mult, w, i) for w in words])
    return tuple(gens)


def make_algebra(structure_constants, unit, *, candidates=()) -> Algebra:
    """Validate and build an Algebra from raw structure constants.

    The generators are found greedily, trying ``candidates`` first; a
    candidate is kept only where the greedy would keep it.  Associativity
    (e_i e_j) e_s = e_i (e_j e_s) is checked for every basis pair (i, j)
    and every generator s, and the unit laws on every basis index.  That
    is all of associativity: T = {z : (xy)z = x(yz) for all x, y} holds 1
    by the unit laws and each generator by the check, and if z is in T
    then so is z s, since (xy)(zs) = ((xy)z)s = (x(yz))s = x((yz)s) =
    x(y(zs)), each step the check for s or z in T.  The words are
    left-nested, so the argument does not assume associativity.

    Raises ValidationError naming the offending index tuple when
    associativity or a unit law fails.
    """
    mult = tuple(tuple(tuple(row) for row in plane) for plane in structure_constants)
    unit = tuple(unit)
    n = len(mult)
    if len(unit) != n or any(len(p) != n or any(len(r) != n for r in p)
                             for p in mult):
        raise ContractViolation("structure constant array has inconsistent shape")
    _check_exact(c for plane in mult for row in plane for c in row)
    _check_exact(unit)
    alg = Algebra(n, mult, unit, _generating_indices(mult, unit, candidates))
    # associativity: (e_i e_j) e_s == e_i (e_j e_s)
    for i in range(n):
        for j in range(n):
            eij = mult[i][j]
            for s in alg.generators:
                left = _right_times(mult, eij, s)
                right = alg.multiply(_unit_vec(n, i), mult[j][s])
                if left != right:
                    raise ValidationError(
                        f"associativity fails at basis indices (i,j,k)=({i},{j},{s})")
    for j in range(n):
        ej = _unit_vec(n, j)
        if alg.multiply(unit, ej) != ej:
            raise ValidationError(f"left unit law fails at basis index {j}")
        if alg.multiply(ej, unit) != ej:
            raise ValidationError(f"right unit law fails at basis index {j}")
    return alg


@lru_cache(maxsize=None)
def matrix_algebra(n: int) -> Algebra:
    """The algebra of n x n matrices on the elementary-matrix basis.

    Basis index (i, j) is flattened to i * n + j, and
    E(i,j) E(k,l) = delta(j,k) E(i,l); the unit is the identity matrix.
    E(i,i+1) and E(i+1,i) are the first generator candidates, and the
    greedy keeps all 2(n-1) of them.
    """
    if n < 1:
        raise ContractViolation("matrix_algebra needs n >= 1")
    d = n * n
    mult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mult[i * n + j][k * n + l][i * n + l] = 1
    unit = [0] * d
    for i in range(n):
        unit[i * n + i] = 1
    steps = [k for i in range(n - 1) for k in (i * n + i + 1, (i + 1) * n + i)]
    return make_algebra(mult, unit, candidates=steps)


def field_algebra() -> Algebra:
    """The ground field as a one-dimensional algebra."""
    return matrix_algebra(1)


def product_field_algebra(n: int) -> Algebra:
    """The split commutative algebra Q^n with coordinatewise product."""
    mult = [[[1 if i == j == k else 0 for k in range(n)]
             for j in range(n)] for i in range(n)]
    return make_algebra(mult, [1] * n)


def truncated_poly_algebra(n: int) -> Algebra:
    """Q[x] / x^n on the basis 1, x, ..., x^(n-1)."""
    mult = [[[1 if i + j == k else 0 for k in range(n)]
             for j in range(n)] for i in range(n)]
    return make_algebra(mult, _unit_vec(n, 0))


def upper_triangular_algebra() -> Algebra:
    """The 3-dimensional algebra of upper-triangular 2x2 matrices.

    Basis: E(0,0), E(0,1), E(1,1) in that order.
    """
    prods = {  # (a, b) -> c for nonzero products of basis elements
        (0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2,
    }
    mult = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b), c in prods.items():
        mult[a][b][c] = 1
    return make_algebra(mult, (1, 0, 1))


def algebra_direct_sum(a: Algebra, b: Algebra) -> Algebra:
    n = a.dim + b.dim
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                mult[i][j][k] = a.mult[i][j][k]
    for i in range(b.dim):
        for j in range(b.dim):
            for k in range(b.dim):
                mult[a.dim + i][a.dim + j][a.dim + k] = b.mult[i][j][k]
    unit = tuple(a.unit) + tuple(b.unit)
    return make_algebra(mult, unit)


def transport_algebra(alg: Algebra, s: Matrix) -> Algebra:
    """The same algebra expressed in the basis given by the columns of s."""
    if not s.is_square or s.rows != alg.dim:
        raise ContractViolation("change of basis must be square of the algebra dimension")
    sinv = s.inverse()
    n = alg.dim
    mult = []
    for i in range(n):
        plane = []
        fi = s.col(i)
        for j in range(n):
            prod = alg.multiply(fi, s.col(j))
            plane.append(tuple(sinv.apply(prod)))
        mult.append(tuple(plane))
    unit = tuple(sinv.apply(alg.unit))
    return make_algebra(mult, unit)


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class AlgebraHom:
    """A unital algebra homomorphism source -> target, as a matrix on coordinates."""

    source: Algebra
    target: Algebra
    matrix: Matrix

    def apply(self, x) -> tuple:
        return self.matrix.apply(x)


def make_hom(source: Algebra, target: Algebra, matrix: Matrix) -> AlgebraHom:
    """Validate unitality, and multiplicativity on basis times generator.

    f(e_i e_s) = f(e_i) f(e_s) for every basis index i and every generator
    s of the source gives f(xy) = f(x) f(y) for all x, y: the set of z
    with f(xz) = f(x) f(z) for all x holds 1 by unitality, and with z it
    holds z s, since f(x(zs)) = f((xz)s) = f(xz) f(s) = f(x) f(z) f(s) =
    f(x) f(zs).
    """
    if (matrix.rows, matrix.cols) != (target.dim, source.dim):
        raise ContractViolation(
            f"hom matrix must be {target.dim}x{source.dim}, got "
            f"{matrix.rows}x{matrix.cols}")
    _check_exact(matrix.entries)
    f = AlgebraHom(source, target, matrix)
    if f.apply(source.unit) != tuple(target.unit):
        raise ValidationError("homomorphism does not preserve the unit")
    images = [matrix.col(i) for i in range(source.dim)]
    for i in range(source.dim):
        for s in source.generators:
            lhs = f.apply(source.basis_product(i, s))
            rhs = target.multiply(images[i], images[s])
            if lhs != rhs:
                raise ValidationError(
                    f"multiplicativity fails at basis pair (i,j)=({i},{s})")
    return f


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
    cols = []
    for i in range(n):
        for j in range(n):
            e = Matrix(n, n, tuple(1 if (r, c) == (i, j) else 0
                                   for r in range(n) for c in range(n)))
            cols.append(flatten_matrix(uinv @ e @ u))
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

