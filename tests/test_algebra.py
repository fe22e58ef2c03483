import random
import time
from fractions import Fraction

import pytest

from skeinalg.algebra import (ALGEBRA_MAX_DIM, algebra_direct_sum, compose_homs,
                              conjugation_hom, field_algebra, flatten_matrix,
                              hom_from_images, identity_hom, make_algebra,
                              make_hom, matrix_algebra, product_field_algebra,
                              transport_algebra, truncated_poly_algebra,
                              upper_triangular_algebra)
from skeinalg.errors import ContractViolation, ValidationError
from skeinalg.linalg import Matrix
from skeinalg.samples import random_algebra, random_invertible


def test_ground_field():
    k = make_algebra([[[1]]], [1])
    assert k.dim == 1
    assert k.multiply((2,), (3,)) == (6,)


def test_make_algebra_rejects_floats():
    for mult, unit in (([[[1.0]]], [1]), ([[[1]]], [1.0]),
                       ([[[1.0]]], [1.0])):
        with pytest.raises(ContractViolation, match="float"):
            make_algebra(mult, unit)


def test_make_hom_rejects_floats():
    k = field_algebra()
    with pytest.raises(ContractViolation, match="float"):
        make_hom(k, k, Matrix(1, 1, (1.0,)))
    # the same check covers the constructors that build through make_hom
    qq = product_field_algebra(2)
    with pytest.raises(ContractViolation, match="float"):
        hom_from_images(qq, qq, [(1.0, 0), (0, 1)])


def test_product_field():
    a = product_field_algebra(2)
    assert a.unit == (1, 1)
    assert a.multiply((1, 2), (3, 4)) == (3, 8)


def test_bad_unit_rejected():
    with pytest.raises(ValidationError, match="unit law"):
        make_algebra([[[1]]], [2])


def test_dimension_cap_fails_before_the_shape_check():
    n = ALGEBRA_MAX_DIM + 1
    with pytest.raises(ContractViolation, match="ALGEBRA_MAX_DIM"):
        make_algebra([[]] * n, [0] * n)
    n = ALGEBRA_MAX_DIM
    with pytest.raises(ContractViolation, match="inconsistent shape"):
        make_algebra([[]] * n, [0] * n)


def test_constructors_past_the_cap_raise_at_once():
    assert matrix_algebra(8).dim == ALGEBRA_MAX_DIM
    start = time.perf_counter()
    for build in (lambda: matrix_algebra(9), lambda: matrix_algebra(10 ** 6),
                  lambda: algebra_direct_sum(matrix_algebra(8),
                                             field_algebra())):
        with pytest.raises(ContractViolation, match="ALGEBRA_MAX_DIM"):
            build()
    assert time.perf_counter() - start < 0.5


def _nonassociative_table():
    # truncated polynomials with x^2 * x corrupted to x instead of 0:
    # (x x) x = x but x (x x) = 0
    z = [0, 0, 0]
    e = lambda k: [1 if i == k else 0 for i in range(3)]
    return [
        [e(0), e(1), e(2)],
        [e(1), e(2), z],
        [e(2), e(1), z],
    ]


def test_nonassociative_rejected():
    with pytest.raises(ValidationError, match="associativity"):
        make_algebra(_nonassociative_table(), [1, 0, 0])


def test_validation_error_names_indices():
    try:
        make_algebra(_nonassociative_table(), [1, 0, 0])
    except ValidationError as exc:
        assert "i,j,k" in str(exc)


def test_matrix_algebra_small():
    assert matrix_algebra(1).dim == 1
    m2 = matrix_algebra(2)
    assert m2.dim == 4
    # E(0,1) E(1,0) = E(0,0): flat indices 1, 2 -> 0
    e01 = (0, 1, 0, 0)
    e10 = (0, 0, 1, 0)
    assert m2.multiply(e01, e10) == (1, 0, 0, 0)
    assert m2.multiply(e10, e01) == (0, 0, 0, 1)


def test_matrix_algebra_three_validates():
    assert matrix_algebra(3).dim == 9


def test_matrix_algebra_rejects_zero():
    with pytest.raises(Exception):
        matrix_algebra(0)


def test_direct_sum_and_triangular():
    a = algebra_direct_sum(field_algebra(), matrix_algebra(2))
    assert a.dim == 5
    t = upper_triangular_algebra()
    # E(0,1) is a square-zero element
    assert t.multiply((0, 1, 0), (0, 1, 0)) == (0, 0, 0)


def test_truncated_poly():
    a = truncated_poly_algebra(3)
    x = (0, 1, 0)
    assert a.multiply(x, x) == (0, 0, 1)
    assert a.multiply(a.multiply(x, x), x) == (0, 0, 0)


def test_transport_preserves_validity():
    rng = random.Random(3)
    for _ in range(10):
        a = random_algebra(rng, max_dim=4)
        assert a.dim >= 1  # constructor validated


def test_identity_hom_and_compose():
    m2 = matrix_algebra(2)
    f = identity_hom(m2)
    g = compose_homs(f, f)
    assert g.matrix == Matrix.identity(4)


def test_hom_validation_rejects_non_multiplicative():
    qq = product_field_algebra(2)
    with pytest.raises(ValidationError):
        make_hom(qq, qq, Matrix.from_rows([[1, 1], [0, 1]]))


def test_hom_validation_rejects_non_unital():
    qq = product_field_algebra(2)
    with pytest.raises(ValidationError, match="unit"):
        make_hom(qq, qq, Matrix.from_rows([[1, 0], [0, 0]]))


def test_hom_unit_check_reads_no_value_out():
    # Q on the basis e = k * 1, so e e = k e and 1 = e / k: the unit's
    # denominator is past MATRIX_POWER_MAX_ENTRY_BITS, and the unit check
    # compares integer images, so the inclusion of Q is still a hom
    k = 7 ** 3000
    big = make_algebra([[[k]]], [Fraction(1, k)])
    f = make_hom(field_algebra(), big, Matrix(1, 1, (Fraction(1, k),)))
    assert f.matrix.entries == big.unit
    with pytest.raises(ValidationError, match="unit"):
        make_hom(field_algebra(), big, Matrix(1, 1, (Fraction(2, k),)))


def test_swap_hom_valid():
    qq = product_field_algebra(2)
    sw = make_hom(qq, qq, Matrix.from_rows([[0, 1], [1, 0]]))
    assert sw.matrix.apply((1, 2)) == (2, 1)


def test_conjugation_hom_is_automorphism():
    rng = random.Random(11)
    for n in (2, 3):
        u = random_invertible(rng, n)
        f = conjugation_hom(n, u)
        assert f.source == matrix_algebra(n)
        # conjugation by the unit is the identity
        assert conjugation_hom(n, Matrix.identity(n)).matrix == Matrix.identity(n * n)
        # f(uv-flat of identity) stays the identity
        assert f.matrix.apply(flatten_matrix(Matrix.identity(n))) == \
            flatten_matrix(Matrix.identity(n))


def test_conjugation_scale_invariance():
    u = Matrix.from_rows([[1, 2], [0, 1]])
    assert conjugation_hom(2, u) == conjugation_hom(2, u.scale(7))


def test_hom_from_images_permutation():
    a = product_field_algebra(3)
    g = hom_from_images(a, a, [(0, 1, 0), (0, 0, 1), (1, 0, 0)])
    assert g.matrix.apply((1, 2, 3)) == (3, 1, 2)


def test_transported_hom_stays_valid():
    rng = random.Random(13)
    qq = product_field_algebra(2)
    s = random_invertible(rng, 2)
    b = transport_algebra(qq, s)
    assert b.multiply(b.unit, (1, 2)) == (1, 2)


def test_cached_hashes_are_the_field_hashes():
    """Matrix and Algebra hash once, to the value of their compared fields."""
    m2 = matrix_algebra(2)
    assert hash(m2) == hash((m2.dim, m2.mult, m2.unit))
    u = Matrix(2, 2, (1, Fraction(1, 2), 0, 1))
    assert hash(u) == hash((2, 2, (1, Fraction(1, 2), 0, 1)))
    # equal values hash equal whatever the entry types
    assert hash(Matrix(1, 2, (Fraction(2), 0))) == hash(Matrix(1, 2, (2, 0)))
    assert hash(transport_algebra(m2, Matrix.identity(4))) == hash(m2)
