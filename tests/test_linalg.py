import random
from fractions import Fraction

import pytest

from oracles import laplace_det
from skeinalg.errors import ContractViolation
from skeinalg.laurent import LaurentPoly
from skeinalg.linalg import (Matrix, find_invertible_in_affine_family,
                             kernel_basis, quotient_basis, rank, rref,
                             solve_linear)


def rand_matrix(rng, rows, cols):
    return Matrix(rows, cols,
                  tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                        for _ in range(rows * cols)))


def in_rowspace(m, v):
    """Membership oracle: v is in the row space of m iff m^T x = v is solvable."""
    return solve_linear(m.transpose(), v) is not None


def test_rref_identity_is_fixed():
    got = rref(Matrix.identity(2))
    assert got.matrix == Matrix.identity(2)
    assert got.pivots == (0, 1)


def test_rref_rank_one():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    got = rref(m)
    assert got.matrix == Matrix.from_rows([[1, 2], [0, 0]])
    assert got.pivots == (0,)


def test_rref_preserves_rowspace_random():
    rng = random.Random(5)
    for _ in range(25):
        m = rand_matrix(rng, 5, 7)
        r = rref(m).matrix
        for i in range(m.rows):
            assert in_rowspace(r, m.row(i))
            assert in_rowspace(m, r.row(i))
        assert list(rref(m).pivots) == sorted(rref(m).pivots)


def test_rref_idempotent_random():
    rng = random.Random(6)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        r = rref(m).matrix
        assert rref(r).matrix == r


def test_rref_empty_matrices():
    assert rref(Matrix.zeros(0, 3)).matrix == Matrix.zeros(0, 3)
    assert rref(Matrix.zeros(3, 0)).pivots == ()


def test_kernel_examples():
    assert len(kernel_basis(Matrix.zeros(3, 3))) == 3
    assert kernel_basis(Matrix.identity(4)) == []
    (v,) = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert v[0] * 1 + v[1] * 1 == 0 and any(v)


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == m.cols
        for v in ker:
            assert not any(m.apply(v))


def test_solve_identity():
    got = solve_linear(Matrix.identity(3), (1, 2, 3))
    assert got == ((1, 2, 3), [])


def test_solve_inconsistent():
    assert solve_linear(Matrix.from_rows([[1, 0], [1, 0]]), (1, 2)) is None


def test_solve_underdetermined():
    x0, ker = solve_linear(Matrix.from_rows([[1, 1]]), (3,))
    assert x0[0] + x0[1] == 3
    assert len(ker) == 1
    assert ker[0][0] + ker[0][1] == 0


def test_solve_dimension_mismatch():
    with pytest.raises(ContractViolation):
        solve_linear(Matrix.identity(2), (1, 2, 3))
    # entries outside Q are malformed input too: floats and Laurent
    # polynomials are rejected, never reduced in floats or a fraction field
    a = LaurentPoly.gen()
    for bad in (Matrix.from_rows([[0.5, 1], [1, 3]]),
                Matrix.from_rows([[a, 1], [1, a ** -1]])):
        for call in (rank, rref, kernel_basis, Matrix.det,
                     lambda m: solve_linear(m, (1, 0))):
            with pytest.raises(ContractViolation):
                call(bad)
    with pytest.raises(ContractViolation):
        solve_linear(Matrix.identity(2), (0.5, 1))


def test_quotient_trivial():
    reps, proj = quotient_basis(3, [])
    assert reps == [0, 1, 2]
    assert proj == Matrix.identity(3)


def test_quotient_one_relation():
    reps, proj = quotient_basis(2, [(1, -1)])
    assert len(reps) == 1
    assert proj.apply((1, 0)) == proj.apply((0, 1))


def test_quotient_two_relations():
    rng = random.Random(9)
    for _ in range(10):
        rels = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2)]
        if rank(Matrix.from_rows(rels)) != 2:
            continue
        reps, proj = quotient_basis(4, rels)
        assert len(reps) == 2
        # projection composed with inclusion of representatives is the identity
        for k, r in enumerate(reps):
            e = tuple(1 if i == r else 0 for i in range(4))
            img = proj.apply(e)
            assert img == tuple(1 if i == k else 0 for i in range(2))
        for rel in rels:
            assert not any(proj.apply(rel))


def test_quotient_projection_annihilates_exactly():
    rng = random.Random(10)
    for _ in range(10):
        amb = rng.randint(2, 6)
        rels = [tuple(rng.randint(-2, 2) for _ in range(amb))
                for _ in range(rng.randint(1, amb))]
        reps, proj = quotient_basis(amb, rels)
        assert rank(proj) == amb - rank(Matrix.from_rows(rels))


def test_det_matches_laplace_oracle():
    rng = random.Random(12)
    cases = []
    for n in range(1, 6):
        for _ in range(4):
            dense = rand_matrix(rng, n, n)
            cases.append(dense)
            cases.append(Matrix(n, n, tuple(x if rng.random() < 0.3 else 0
                                            for x in dense.entries)))
            if n >= 2:
                rows = dense.rows_list()
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                rows[-1] = tuple(c * x - y for x, y in zip(rows[0], rows[-2]))
                cases.append(Matrix.from_rows(rows))
            perm = list(range(n))
            rng.shuffle(perm)
            cases.append(Matrix.from_rows([[1 if j == perm[i] else 0
                                            for j in range(n)]
                                           for i in range(n)]))
    # the cases reach the singular branch and both permutation signs
    assert any(not m.det() for m in cases)
    assert {m.det() for m in cases} >= {1, -1}
    for m in cases:
        assert m.det() == laplace_det(m.rows_list())
    assert Matrix.zeros(0, 0).det() == 1
    with pytest.raises(ContractViolation):
        Matrix.zeros(2, 3).det()


def test_find_invertible_identity():
    assert find_invertible_in_affine_family(Matrix.identity(3), []) \
        == Matrix.identity(3)


def test_find_invertible_zero_family():
    assert find_invertible_in_affine_family(Matrix.zeros(2, 2), []) is None


def test_find_invertible_scalar_line():
    got = find_invertible_in_affine_family(Matrix.zeros(2, 2),
                                           [Matrix.identity(2)])
    assert got is not None
    assert got.det() != 0
    assert got[0, 1] == 0 and got[0, 0] == got[1, 1]


def test_find_invertible_deterministic():
    dirs = [Matrix.from_rows([[1, 0], [0, 0]]), Matrix.from_rows([[0, 0], [0, 1]])]
    a = find_invertible_in_affine_family(Matrix.zeros(2, 2), dirs, seed=3)
    b = find_invertible_in_affine_family(Matrix.zeros(2, 2), dirs, seed=3)
    assert a == b

