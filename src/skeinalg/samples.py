"""Seeded random example generators for self-tests and property tests.

Random associative algebras cannot be sampled from raw structure
constants (associativity is a closed condition), so algebras are drawn
from a constructive family (split semisimple pieces, truncated
polynomials, triangular matrices) and disguised by a random change of
basis.  Homomorphism pairs come from canonical maps composed with random
conjugations, which covers both conjugate and non-conjugate pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (Algebra, AlgebraHom, algebra_direct_sum, compose_homs,
                      field_algebra, hom_from_images, identity_hom, make_hom,
                      matrix_algebra, product_field_algebra,
                      scalar_inclusion_hom, transport_algebra,
                      truncated_poly_algebra, upper_triangular_algebra)
from .linalg import Matrix
from .tqft1d import System, make_system, make_word


def random_fraction(rng, bound: int = 3) -> Fraction:
    q = rng.randint(1, 3)
    return Fraction(rng.randint(-bound * q, bound * q), q)


def random_matrix(rng, rows: int, cols: int, bound: int = 3) -> Matrix:
    return Matrix(rows, cols,
                  tuple(random_fraction(rng, bound) for _ in range(rows * cols)))


def random_invertible(rng, n: int, bound: int = 3) -> Matrix:
    while True:
        m = random_matrix(rng, n, n, bound)
        if m.det():
            return m


def random_singular(rng, n: int, bound: int = 3) -> Matrix:
    if n == 1:
        return Matrix.zeros(1, 1)
    m = random_matrix(rng, n, n, bound).tolist()
    src = rng.randrange(n)
    dst = rng.randrange(n)
    while dst == src:
        dst = rng.randrange(n)
    # |c| <= 1 keeps the scaled row inside the entry bound
    q = rng.randint(1, 3)
    c = Fraction(rng.randint(-q, q), q)
    m[dst] = [c * x for x in m[src]]
    return Matrix.from_rows(m)


def random_system(rng, max_dim: int = 3, singular_step: bool = False) -> System:
    n = rng.randint(1, max_dim)
    step = random_singular(rng, n) if singular_step else random_matrix(rng, n, n)
    states = {str(i): tuple(rng.randint(-3, 3) for _ in range(n))
              for i in range(2)}
    costates = {str(i): tuple(rng.randint(-3, 3) for _ in range(n))
                for i in range(2)}
    observables = {str(i): random_matrix(rng, n, n) for i in range(2)}
    return make_system(n, step, states, costates, observables)


def random_closed_word(rng, max_len: int = 6):
    """A closed word w[.] ... v[.] with up to max_len generators."""
    middle = rng.randint(0, max(0, max_len - 2))
    gens = [("w", str(rng.randrange(2)))]
    for _ in range(middle):
        if rng.random() < 0.5:
            gens.append(("u", rng.randint(1, 3)))
        else:
            gens.append(("a", str(rng.randrange(2))))
    gens.append(("v", str(rng.randrange(2))))
    return make_word(gens)


# ---------------------------------------------------------------------------
# algebras and homomorphisms


def _base_algebra(rng, max_dim: int) -> Algebra:
    options = [field_algebra(), product_field_algebra(2),
               truncated_poly_algebra(2)]
    if max_dim >= 3:
        options += [product_field_algebra(3), truncated_poly_algebra(3),
                    upper_triangular_algebra()]
    if max_dim >= 4:
        options += [matrix_algebra(2), product_field_algebra(4),
                    algebra_direct_sum(product_field_algebra(2),
                                       truncated_poly_algebra(2))]
    return rng.choice(options)


def random_algebra(rng, max_dim: int = 4, disguise: bool = True) -> Algebra:
    alg = _base_algebra(rng, max_dim)
    if disguise and alg.dim > 1:
        s = random_invertible(rng, alg.dim, bound=2)
        alg = transport_algebra(alg, s)
    return alg


def random_inner_automorphism(rng, alg: Algebra) -> AlgebraHom:
    """Conjugation a -> b^-1 a b by a random unit b."""
    n = alg.dim
    for _ in range(64):
        b = tuple(rng.randint(-2, 2) for _ in range(n))
        lb = alg.left_mult_matrix(b)
        if lb.det():
            rb = alg.right_mult_matrix(b)
            # a -> b^-1 a b acts on coordinates as L_b^-1 R_b
            return make_hom(alg, alg, lb.inverse() @ rb)
    return identity_hom(alg)


def random_hom_pair(rng, max_dim: int = 4):
    """Two parallel unital homomorphisms f, g : A -> B with random disguises.

    Mixes conjugate pairs (invertible intertwiner exists) with genuinely
    non-conjugate ones such as distinct projections out of a split
    commutative algebra.
    """
    style = rng.randrange(5)
    if style == 0:
        # endomorphisms of one algebra: two inner automorphisms
        b = random_algebra(rng, max_dim)
        f = random_inner_automorphism(rng, b)
        g = random_inner_automorphism(rng, b)
        return f, g
    if style == 1:
        # scalars into anything: unique map, trivially conjugate
        b = random_algebra(rng, max_dim)
        a = field_algebra()
        f = make_hom(a, b, Matrix.column(b.unit))
        return f, compose_homs(random_inner_automorphism(rng, b), f)
    if style == 2:
        # coordinate projections Q^n -> Q: equal iff same coordinate
        n = rng.randint(2, min(4, max_dim))
        a = product_field_algebra(n)
        b = field_algebra()
        i, j = rng.randrange(n), rng.randrange(n)
        f = make_hom(a, b, Matrix(1, n, tuple(1 if k == i else 0 for k in range(n))))
        g = make_hom(a, b, Matrix(1, n, tuple(1 if k == j else 0 for k in range(n))))
        return f, g
    if style == 3:
        # coordinate permutations of Q^n: conjugate only when equal
        n = rng.randint(2, min(4, max_dim))
        a = product_field_algebra(n)
        perm = list(range(n))
        rng.shuffle(perm)
        images = [tuple(1 if k == perm[i] else 0 for k in range(n))
                  for i in range(n)]
        f = identity_hom(a)
        g = hom_from_images(a, a, images)
        return f, g
    # truncated polynomials: x -> c1 x + c2 x^2 + ..., unit iff c1 != 0
    n = rng.randint(2, min(4, max_dim))
    a = truncated_poly_algebra(n)

    def rand_endo():
        c = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-2, 2)
                                            for _ in range(n - 2)]
        x_img = (0,) + tuple(c)
        images = [a.unit]
        power = a.unit
        for _ in range(n - 1):
            power = a.multiply(power, x_img)
            images.append(power)
        return hom_from_images(a, a, images)

    return rand_endo(), rand_endo()


def random_composable_hom_pair(rng, max_dim: int = 3):
    """f : A -> B and g : B -> C suitable for functoriality checks."""
    style = rng.randrange(3)
    if style == 0:
        b = random_algebra(rng, max_dim)
        return (compose_homs(random_inner_automorphism(rng, b),
                             scalar_inclusion_hom(b)),
                random_inner_automorphism(rng, b))
    if style == 1:
        b = random_algebra(rng, max_dim)
        f = random_inner_automorphism(rng, b)
        g = random_inner_automorphism(rng, b)
        return f, g
    n = rng.randint(2, min(3, max_dim))
    a = product_field_algebra(n)
    i = rng.randrange(n)
    proj = make_hom(a, field_algebra(),
                    Matrix(1, n, tuple(1 if k == i else 0 for k in range(n))))
    g_tail = scalar_inclusion_hom(a)
    if rng.random() < 0.5:
        return proj, compose_homs(random_inner_automorphism(rng, a), g_tail)
    return g_tail, proj


def random_braid(rng, max_crossings: int = 6, max_strands: int = 4):
    n = rng.randint(2, max_strands)
    k = rng.randint(1, max_crossings)
    word = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k)]
    return word, n
