import random
import time
from fractions import Fraction

import pytest

from oracles import (adjugate_inverse, dense_multiply, dense_table,
                     fraction_det, fraction_echelon, fraction_inverse,
                     fraction_matmul, fraction_quotient,
                     fraction_relation_rows, fraction_rref, fraction_solve,
                     laplace_det)
from skeinalg.algebra import (make_algebra, matrix_algebra, transport_algebra,
                              truncated_poly_algebra, upper_triangular_algebra)
from skeinalg.errors import ContractViolation
from skeinalg.laurent import LaurentPoly
from skeinalg.linalg import (MATRIX_POWER_MAX_ENTRY_BITS, SEARCH_TRIALS, Matrix,
                             TensorMap, find_invertible_in_affine_family,
                             kernel_basis, lincomb_image, mat_lincomb,
                             matrix_image, matrix_power, product_image, rank,
                             relation_rows, same_image, solve_linear,
                             sparse_quotient)


def rand_matrix(rng, rows, cols):
    return Matrix(rows, cols,
                  tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                        for _ in range(rows * cols)))


def test_kernel_examples():
    assert len(kernel_basis(Matrix.zeros(3, 3))) == 3
    assert kernel_basis(Matrix.identity(4)) == []
    (v,) = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert v[0] * 1 + v[1] * 1 == 0 and any(v)


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
    # a float row that reduces to zero is never divided, and a float zero
    # is never stored; both are rejected when the matrix is built
    a = LaurentPoly.monomial(1, 1)
    for bad in ([[0.5, 1], [1, 3]], [[1, 2], [0.5, 1.0]], [[1, 0.0], [0, 1]],
                [[a, 1], [1, a ** -1]]):
        for call in (rank, kernel_basis, Matrix.det,
                     lambda m: solve_linear(m, (1, 0))):
            with pytest.raises(ContractViolation):
                call(Matrix.from_rows(bad))
    for rhs in ((0.5, 1), (1, 1.0), (0.0, 1)):
        with pytest.raises(ContractViolation):
            solve_linear(Matrix.from_rows([[1, 0], [1, 0]]), rhs)


def test_quotient_trivial():
    reps, proj = sparse_quotient(3, [])
    assert reps == [0, 1, 2]
    assert proj == [{0: 1}, {1: 1}, {2: 1}]


def test_quotient_rejects_a_relation_longer_than_ambient():
    sparse_quotient(3, [{2: 1}])
    with pytest.raises(ContractViolation, match="longer than ambient"):
        sparse_quotient(3, [{0: 1, 3: 1}])
    # each was once dropped, read as coordinate 1 or a bare TypeError
    for row in ({-1: 1}, {0: 1, -2: 1}, {1.0: 1}, {True: 1}, {"a": 1}):
        with pytest.raises(ContractViolation,
                           match="relation coordinate must be an int in 0..2"):
            sparse_quotient(3, [row])


def test_quotient_one_relation():
    reps, proj = sparse_quotient(2, [{0: 1, 1: -1}])
    assert len(reps) == 1
    assert proj[0] == proj[1]


def _class(proj, v):
    """The quotient coordinates of ambient vector v under the projection
    columns proj."""
    out = {}
    for j, x in enumerate(v):
        for i, c in proj[j].items():
            out[i] = out.get(i, 0) + c * x
    return {i: c for i, c in out.items() if c}


def test_quotient_two_relations():
    rng = random.Random(9)
    for _ in range(10):
        rels = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2)]
        if rank(Matrix.from_rows(rels)) != 2:
            continue
        reps, proj = sparse_quotient(
            4, [{j: x for j, x in enumerate(r) if x} for r in rels])
        assert len(reps) == 2
        # projection composed with inclusion of representatives is the identity
        for k, r in enumerate(reps):
            assert proj[r] == {k: 1}
        for rel in rels:
            assert _class(proj, rel) == {}


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
                rows = dense.tolist()
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
        assert m.det() == laplace_det(m.tolist())
    assert Matrix.zeros(0, 0).det() == 1
    with pytest.raises(ContractViolation):
        Matrix.zeros(2, 3).det()


def test_inverse_matches_adjugate_oracle():
    rng = random.Random(31)
    checked = 0
    for n in range(1, 6):
        for _ in range(6):
            dense = rand_matrix(rng, n, n)
            sparse = Matrix(n, n, tuple(x if rng.random() < 0.4 else 0
                                        for x in dense.entries))
            for m in (dense, sparse):
                rows = m.tolist()
                if not laplace_det(rows):
                    continue
                assert m.inverse() == Matrix.from_rows(adjugate_inverse(rows))
                assert m @ m.inverse() == Matrix.identity(n)
                checked += 1
    assert checked >= 40
    # a zero leading entry forces a pivot from a later row
    swap = Matrix.from_rows([[0, 2], [3, 1]])
    assert swap.inverse() == Matrix.from_rows(adjugate_inverse(swap.tolist()))
    assert Matrix.zeros(0, 0).inverse() == Matrix.zeros(0, 0)
    singular = Matrix.from_rows([[1, 2, 3], [0, 1, 1], [1, 3, 4]])
    assert laplace_det(singular.tolist()) == 0
    with pytest.raises(ContractViolation, match="singular"):
        singular.inverse()
    with pytest.raises(ContractViolation, match="non-square"):
        Matrix.zeros(2, 3).inverse()


def _mixed_entry(rng, kind):
    """An int, a Fraction, or either at random, with small values."""
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    if kind == "int":
        return rng.randint(-4, 4)
    # integral Fractions such as Fraction(4, 2) included
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6)))


def test_matmul_matches_the_fraction_oracle():
    rng = random.Random(1701)
    shapes = [(0, 3, 2), (2, 3, 0), (3, 0, 2), (0, 0, 0)]
    shapes += [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(60)]
    for n, k, m in shapes:
        for kind in ("int", "fraction", "mixed"):
            a = Matrix(n, k, tuple(_mixed_entry(rng, kind) for _ in range(n * k)))
            b = Matrix(k, m, tuple(_mixed_entry(rng, kind) for _ in range(k * m)))
            # [a | a] times [b ; -b]: every entry is a sum that cancels to zero
            aa = Matrix(n, 2 * k, tuple(x for i in range(n)
                                        for x in a.row(i) + a.row(i)))
            bb = Matrix(2 * k, m, b.entries + b.scale(-1).entries)
            for x, y in ((a, b), (aa, bb)):
                got = x @ y
                assert got == fraction_matmul(x, y)
                assert (got.rows, got.cols) == (n, m)
                for v in got.entries:
                    assert type(v) is (int if v.denominator == 1 else Fraction)
            assert (aa @ bb).entries == (0,) * (n * m)
    # all-int factors come back as ints, large ones included
    big = Matrix(2, 2, (10 ** 40, -3, 7, 10 ** 30))
    assert big @ big == fraction_matmul(big, big)
    assert all(type(v) is int for v in (big @ big).entries)


def test_matmul_rejects_inexact_entries():
    # a float entry once gave a float product: Matrix(2, 2, (1.5, 0, 0, 1))
    # squared had 2.25 at (0, 0)
    a = LaurentPoly.monomial(1, 1)
    ident = Matrix.identity(2).entries
    for bad in ((1.5, 0, 0, 1), (1, 0.0, 0, 1), (Fraction(1, 2), 0, 0, 1.0),
                (a, 0, 0, 1)):
        for x, y in ((bad, bad), (bad, ident), (ident, bad)):
            with pytest.raises(ContractViolation, match="int and Fraction"):
                Matrix(2, 2, x) @ Matrix(2, 2, y)


def test_matrix_power_matches_repeated_products():
    rng = random.Random(21)
    dense = rand_matrix(rng, 4, 4)
    singular = Matrix.from_rows([[1, 2, 3], [Fraction(1, 2), 1, Fraction(3, 2)],
                                 [0, -1, 4]])
    assert singular.det() == 0
    for m in (dense, singular):
        naive = Matrix.identity(m.rows)
        for t in range(41):
            assert matrix_power(m, t) == naive
            naive = naive @ m
    for bad in (-1, 2.0, True):
        with pytest.raises(ContractViolation):
            matrix_power(dense, bad)
    with pytest.raises(ContractViolation):
        matrix_power(Matrix.zeros(2, 3), 2)


def test_matrix_power_fails_fast_on_exponential_growth():
    fib = Matrix(2, 2, (2, 1, 1, 1))
    start = time.perf_counter()
    with pytest.raises(ContractViolation, match="MATRIX_POWER_MAX_ENTRY_BITS"):
        matrix_power(fib, 10 ** 9)
    assert time.perf_counter() - start < 2
    halves = Matrix(2, 2, (Fraction(1, 2), 0, 0, 1))
    with pytest.raises(ContractViolation, match="MATRIX_POWER_MAX_ENTRY_BITS"):
        matrix_power(halves, 10 ** 9)
    # a denominator of MATRIX_POWER_MAX_ENTRY_BITS bits exactly is fine
    t = MATRIX_POWER_MAX_ENTRY_BITS - 1
    assert matrix_power(halves, t)[0, 0] == Fraction(1, 2 ** t)
    # linear growth never comes near the bound
    assert matrix_power(Matrix(2, 2, (1, 1, 0, 1)), 10 ** 9)[0, 1] == 10 ** 9


def test_matrix_power_bounds_the_reduced_entries():
    """The bound falls at the same t as on repeated Fraction products.

    The 25 denominators are distinct primes, so the common denominator of
    a power is larger than any one reduced entry's, by about 90 bits near
    the bound: a bound checked on the integers over that denominator
    would trip at a smaller t.
    """
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))]
    rng = random.Random(17)
    m = Matrix(5, 5, tuple(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), p)
                           for p in primes))

    def bits(power):
        return max(max(x.numerator.bit_length(), x.denominator.bit_length())
                   for x in power.entries)

    power, t = m, 1
    while bits(power) <= MATRIX_POWER_MAX_ENTRY_BITS:
        below, power, t = power, fraction_matmul(power, m), t + 1
    start = time.perf_counter()
    assert matrix_power(m, t - 1) == below
    with pytest.raises(ContractViolation, match="MATRIX_POWER_MAX_ENTRY_BITS"):
        matrix_power(m, t)
    assert time.perf_counter() - start < 2


def test_the_entry_bits_cap_holds_products_and_nothing_else():
    """@, apply and a TensorMap call read a product out under the cap;
    combinations, partial maps and det read theirs out uncapped."""
    for x in (3 ** 3000, Fraction(-1, 3 ** 3000)):   # 4755 bits each
        square = x * x                                   # 9510 bits
        one = Matrix(1, 1, (x,))
        times = TensorMap(1, 1, 1, [[(0, x)]])
        for product in (lambda: one @ one, lambda: one.apply((x,)),
                        lambda: times((x,), (1,)),
                        lambda: TensorMap(1, 1, 1, [[(0, 1)]])((x,), (x,))):
            with pytest.raises(ContractViolation,
                               match="MATRIX_POWER_MAX_ENTRY_BITS"):
                product()
        assert mat_lincomb([(x, one)], 1, 1) == Matrix(1, 1, (square,))
        assert times.partial((x,)) == Matrix(1, 1, (square,))
        assert times.partial((x,), first=False) == Matrix(1, 1, (square,))
        assert Matrix(2, 2, (x, 0, 0, x)).det() == square
        # under the cap, each product reads out as before
        assert one @ Matrix(1, 1, (1,)) == one
        assert one.apply((1,)) == (x,) and times((1,), (1,)) == (x,)


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


def test_find_invertible_runs_search_trials_determinants(monkeypatch):
    # rank-1 directions: no point of the family is invertible
    calls = []
    det = Matrix.det

    def counted(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counted)
    dirs = [Matrix.from_rows([[1, 0], [0, 0]]), Matrix.from_rows([[0, 1], [0, 0]])]
    assert find_invertible_in_affine_family(Matrix.zeros(2, 2), dirs) is None
    # the particular point, then one candidate per trial
    assert len(calls) == 1 + SEARCH_TRIALS


def test_find_invertible_deterministic():
    dirs = [Matrix.from_rows([[1, 0], [0, 0]]), Matrix.from_rows([[0, 0], [0, 1]])]
    a = find_invertible_in_affine_family(Matrix.zeros(2, 2), dirs, seed=3)
    b = find_invertible_in_affine_family(Matrix.zeros(2, 2), dirs, seed=3)
    assert a == b



def _same(got, want):
    """Equal entry by entry, in value and in type."""
    got, want = list(got), list(want)
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


def _normalised(x):
    return type(x) is (int if x.denominator == 1 else Fraction)


def _deficient(rng, rows, cols, kind):
    """A rows x cols matrix, often rank-deficient: zero, repeated and
    combined rows, and sparse ones."""
    out = []
    for _ in range(rows):
        style = rng.random()
        if out and style < 0.3:
            a, b = rng.choice(out), rng.choice(out)
            c = _mixed_entry(rng, kind)
            out.append(tuple(c * x - y for x, y in zip(a, b)))
        elif style < 0.4:
            out.append((0,) * cols)
        else:
            out.append(tuple(_mixed_entry(rng, kind) if rng.random() < 0.7 else 0
                             for _ in range(cols)))
    return Matrix(rows, cols, tuple(x for r in out for x in r))


def test_elimination_matches_the_fraction_engine():
    rng = random.Random(1919)
    singular = inconsistent = 0
    for _ in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 7)
        m = _deficient(rng, rows, cols, rng.choice(("int", "fraction", "mixed")))
        assert rank(m) == len(fraction_rref(m)[1])
        kernel = fraction_echelon(m.tolist()).kernel(m.cols)
        assert len(kernel_basis(m)) == len(kernel)
        for v, w in zip(kernel_basis(m), kernel):
            _same(v, w)
        # a right-hand side in the column space, then one that may not be
        x = tuple(_mixed_entry(rng, "mixed") for _ in range(cols))
        for b in (m.apply(x), tuple(_mixed_entry(rng, "mixed") for _ in range(rows))):
            got, want = solve_linear(m, b), fraction_solve(m, b)
            assert (got is None) == (want is None)
            if got is None:
                inconsistent += 1
                continue
            _same(got[0], want[0])
            assert len(got[1]) == len(want[1])
            for v, w in zip(got[1], want[1]):
                _same(v, w)
        reps, got_cols = sparse_quotient(
            cols, [{j: v for j, v in enumerate(r) if v} for r in m.tolist()])
        want_reps, want_cols = fraction_quotient(cols, m.tolist())
        assert reps == want_reps
        assert got_cols == want_cols
        for c, w in zip(got_cols, want_cols):
            _same(c.items(), w.items())
        if rows == cols:
            det = m.det()
            assert det == fraction_det(m) and _normalised(det)
            inverse = fraction_inverse(m)
            if inverse is None:
                singular += 1
                assert det == 0
                with pytest.raises(ContractViolation, match="singular"):
                    m.inverse()
            else:
                _same(m.inverse().entries, inverse.entries)
    # the seeded cases reach the rank-deficient and inconsistent branches
    assert singular >= 5 and inconsistent >= 20


def test_det_with_unrelated_large_denominators_matches_laplace():
    rng = random.Random(300)
    for trial in range(6):
        rows = [[Fraction(rng.getrandbits(300) - (1 << 299),
                          rng.getrandbits(300) | 1 << 299) for _ in range(5)]
                for _ in range(5)]
        if trial % 3 == 2:
            # a combination of two rows: singular
            c = Fraction(rng.getrandbits(300), rng.getrandbits(300) | 1)
            rows[4] = [c * x + y for x, y in zip(rows[0], rows[2])]
        det = Matrix.from_rows(rows).det()
        assert det == laplace_det(rows)
        assert _normalised(det)
        assert (det == 0) == (trial % 3 == 2)


def test_algebra_multiply_matches_the_dense_oracle():
    rng = random.Random(1905)
    bases = (matrix_algebra(2), upper_triangular_algebra(),
             truncated_poly_algebra(3))
    checked = 0
    for base in bases:
        for _ in range(3):
            while True:
                s = Matrix(base.dim, base.dim,
                           tuple(_mixed_entry(rng, "mixed")
                                 for _ in range(base.dim ** 2)))
                if s.det():
                    break
            # the transported algebra rebuilt with every constant a
            # Fraction, integral ones included
            moved = transport_algebra(base, s)
            alg = make_algebra(
                [[[Fraction(c) for c in row] for row in plane]
                 for plane in dense_table(moved)],
                [Fraction(u) for u in moved.unit])
            table = dense_table(alg)
            assert any(type(c) is Fraction
                       for row in alg.mult for pairs in row for _, c in pairs)
            for _ in range(8):
                x, y = (tuple(_mixed_entry(rng, "mixed") for _ in range(alg.dim))
                        for _ in range(2))
                got = alg.multiply(x, y)
                assert got == dense_multiply(table, x, y)
                assert all(_normalised(v) for v in got)
                e = [tuple(int(i == j) for i in range(alg.dim))
                     for j in range(alg.dim)]
                assert alg.left_mult_matrix(x) == Matrix.from_cols(
                    [dense_multiply(table, x, ej) for ej in e], alg.dim)
                assert alg.right_mult_matrix(x) == Matrix.from_cols(
                    [dense_multiply(table, ej, x) for ej in e], alg.dim)
                checked += 1
    assert checked == 72


def test_mat_lincomb_and_multiply_reject_inexact_values():
    # both once computed in floats: mat_lincomb([(0.5, I)]) had 0.5 entries
    ident = Matrix.identity(2)
    for pairs in (lambda: [(0.5, ident)], lambda: [(1, ident), (0.0, ident)],
                  lambda: [(1, Matrix(2, 2, (1, 0, 0, 0.5)))],
                  lambda: [(LaurentPoly.monomial(1, 1), ident)]):
        with pytest.raises(ContractViolation, match="int and Fraction"):
            mat_lincomb(pairs(), 2, 2)
    alg = matrix_algebra(2)
    one = alg.unit
    for bad in ((1.0, 0, 0, 1), (1, 0.0, 0, 1), (0.5, 0, 0, 0)):
        for x, y in ((bad, one), (one, bad)):
            with pytest.raises(ContractViolation, match="int and Fraction"):
                alg.multiply(x, y)
        # TensorMap.partial scales its argument once, with the same guard
        for mult_matrix in (alg.left_mult_matrix, alg.right_mult_matrix):
            with pytest.raises(ContractViolation, match="int and Fraction"):
                mult_matrix(bad)


def test_tensor_map_refuses_vectors_of_the_wrong_length():
    # a vector of the wrong length is refused, never padded or cut
    alg = matrix_algebra(2)
    for x, y in (((1, 0, 0), alg.unit), (alg.unit, (1, 0, 0, 1, 0))):
        with pytest.raises(ContractViolation, match="do not fit"):
            alg.multiply(x, y)
    for mult_matrix in (alg.left_mult_matrix, alg.right_mult_matrix):
        with pytest.raises(ContractViolation, match="does not fit"):
            mult_matrix((1, 0, 0))
    with pytest.raises(ContractViolation, match="3 images for 2 x 2 pairs"):
        TensorMap(2, 2, 1, [()] * 3)


def test_mat_lincomb_sums_over_a_common_denominator():
    rng = random.Random(77)
    for _ in range(40):
        mats = [Matrix(2, 3, tuple(_mixed_entry(rng, "mixed") for _ in range(6)))
                for _ in range(rng.randint(0, 4))]
        coeffs = [_mixed_entry(rng, "mixed") for _ in mats]
        got = mat_lincomb(zip(coeffs, mats), 2, 3)
        want = [sum((c * m.entries[i] for c, m in zip(coeffs, mats)), 0)
                for i in range(6)]
        assert list(got.entries) == want
        assert all(_normalised(v) for v in got.entries)


def test_matrix_methods_match_the_fraction_routes():
    """apply, +, -, scale and the elimination read-outs on seeded mixes of
    ints and Fractions, against the entrywise Fraction loops and the
    oracle engine: equal values, arithmetic normalised, and every
    elimination read-out of the oracle's type."""
    rng = random.Random(2424)
    singular = 0
    for _ in range(200):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        kind = rng.choice(("int", "fraction", "mixed"))
        a, b = (_deficient(rng, rows, cols, kind) for _ in range(2))
        c = _mixed_entry(rng, "mixed")
        x = tuple(_mixed_entry(rng, kind) for _ in range(cols))
        ab = list(zip(a.entries, b.entries))
        for got, want in (
                (a.apply(x), fraction_matmul(a, Matrix.column(x)).entries),
                ((a + b).entries, tuple(p + q for p, q in ab)),
                ((a - b).entries, tuple(p - q for p, q in ab)),
                (a.scale(c).entries, tuple(c * p for p in a.entries))):
            assert got == want and all(_normalised(v) for v in got)
        assert rank(a) == len(fraction_rref(a)[1])
        kernel = fraction_echelon(a.tolist()).kernel(cols)
        assert len(kernel_basis(a)) == len(kernel)
        for v, w in zip(kernel_basis(a), kernel):
            _same(v, w)
        y = tuple(_mixed_entry(rng, "mixed") for _ in range(rows))
        for rhs in (a.apply(x), y):
            got, want = solve_linear(a, rhs), fraction_solve(a, rhs)
            assert (got is None) == (want is None)
            if got is not None:
                _same(got[0], want[0])
                assert len(got[1]) == len(want[1])
                for v, w in zip(got[1], want[1]):
                    _same(v, w)
        if rows == cols:
            inverse = fraction_inverse(a)
            if inverse is None:
                singular += 1
                with pytest.raises(ContractViolation, match="singular"):
                    a.inverse()
            else:
                _same(a.inverse().entries, inverse.entries)
    assert singular >= 5
    # a float entry, vector or scalar raises, a float zero and a zero
    # coefficient included
    ident = Matrix.identity(2)
    for bad in (1.5, 0.0):
        def m():
            return Matrix(2, 2, (1, bad, 0, 1))
        for call in (lambda: m().apply((1, 1)), lambda: ident.apply((bad, 1)),
                     lambda: m() + ident, lambda: ident + m(),
                     lambda: m() - ident, lambda: ident - m(),
                     lambda: m().scale(2), lambda: m().scale(0),
                     lambda: ident.scale(bad)):
            with pytest.raises(ContractViolation, match="int and Fraction"):
                call()


# small primes and unrelated larger ones, so images differ in denominator
_IMAGE_DENS = (1, 2, 3, 4, 6, 7, 101, 103, 107)


def _fractions(values):
    return [Fraction(v) for v in values]


def test_same_image_agrees_with_fraction_equality():
    """Images of one shape built by different kernels, over unequal and
    unreduced denominators, are equal exactly when their values are."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.integers(-6, 6),
                      st.builds(Fraction, st.integers(-12, 12),
                                st.sampled_from(_IMAGE_DENS)))

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(st.lists(entry, max_size=9), st.data())
    def check(xs, data):
        n = len(xs)
        # the same values written differently: an integral Fraction for an
        # int and back, and at most one entry moved
        ys = [data.draw(st.sampled_from(
            (x, Fraction(x)) + ((int(x),) if x == int(x) else ())))
            for x in xs]
        if n and data.draw(st.booleans()):
            k = data.draw(st.integers(0, n - 1))
            ys[k] += data.draw(st.sampled_from(
                [Fraction(s, d) for s in (-1, 1) for d in _IMAGE_DENS]))
        k = data.draw(st.sampled_from(_IMAGE_DENS))
        c = data.draw(entry)
        z = Matrix(1, n, tuple(data.draw(entry) for _ in range(n)))
        # 1/k times k*ys, plus c z - c z: the denominator picks up k and the
        # denominators of c and z
        y_img = lincomb_image([(Fraction(1, k), Matrix(1, n, tuple(
            k * y for y in ys))), (c, z), (-c, z)], 1, n)
        x_img = matrix_image(Matrix(1, n, tuple(xs)))
        want = _fractions(xs) == _fractions(ys)
        assert same_image(x_img, y_img) is want
        assert same_image(y_img, x_img) is want
        assert same_image(x_img, matrix_image(Matrix(1, n, tuple(ys)))) is want

    check()
    # zero matrices, all-int matrices and integral Fractions
    zero = Matrix.zeros(2, 3)
    assert same_image(matrix_image(zero), lincomb_image([], 2, 3))
    assert same_image(lincomb_image([(Fraction(1, 7), zero)], 2, 3),
                      matrix_image(zero))
    ints = Matrix(2, 2, (1, -2, 0, 5))
    assert matrix_image(ints) == (1, ints.entries)
    assert same_image(matrix_image(ints), matrix_image(
        Matrix(2, 2, (Fraction(4, 4), Fraction(-4, 2), Fraction(0), 5))))
    assert same_image(product_image(ints, Matrix.identity(2)),
                      matrix_image(ints))
    assert same_image(matrix_image(Matrix(1, 2, (Fraction(4, 2), 1))),
                      matrix_image(Matrix(1, 2, (2, 1))))
    assert not same_image(matrix_image(Matrix(1, 2, (Fraction(4, 2), 1))),
                          matrix_image(Matrix(1, 2, (2, Fraction(1, 2)))))
    half = Matrix(1, 1, (Fraction(1, 2),))
    assert same_image(product_image(half, Matrix(1, 1, (4,))),
                      matrix_image(Matrix(1, 1, (Fraction(4, 2),))))


def test_product_and_lincomb_images_hold_the_fraction_values():
    rng = random.Random(2120)
    for _ in range(40):
        n, k, m = (rng.randint(0, 4) for _ in range(3))
        a = Matrix(n, k, tuple(_mixed_entry(rng, "mixed") for _ in range(n * k)))
        b = Matrix(k, m, tuple(_mixed_entry(rng, "mixed") for _ in range(k * m)))
        den, ints = product_image(a, b)
        want = fraction_matmul(a, b).entries
        assert den > 0 and all(type(x) is int for x in ints)
        assert [Fraction(x, den) for x in ints] == _fractions(want)
        _same((a @ b).entries, [Fraction(x, den) if x % den else x // den
                                for x in ints])
        coeffs = [_mixed_entry(rng, "mixed") for _ in range(3)]
        mats = [a, a.scale(Fraction(1, 3)), Matrix.zeros(n, k)]
        den, ints = lincomb_image(zip(coeffs, mats), n, k)
        want = [sum((c * mat.entries[i] for c, mat in zip(coeffs, mats)), 0)
                for i in range(n * k)]
        assert [Fraction(x, den) for x in ints] == _fractions(want)


def _relation_entry(rng):
    if rng.random() < 0.4:
        return 0
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-5, 5), rng.choice(_IMAGE_DENS))


def test_relation_rows_span_the_fraction_built_rows():
    """The integer relation rows are the Fraction-built rows of the same
    (i, j), each times a positive int, in the tensor layout and in the
    transposed intertwiner layout; so both give the same RREF."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.integers(0, 2 ** 32 - 1))
    def check(seed):
        rng = random.Random(seed)
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        pm, qm = (Matrix.zeros(n, n) if rng.random() < 0.1 else
                  Matrix(n, n, tuple(_relation_entry(rng) for _ in range(n * n)))
                  for n in (p, q))
        for transposed in (False, True):
            got = relation_rows(pm, qm, transposed)
            want = fraction_relation_rows(
                [pm.row(i) if transposed else pm.col(i) for i in range(p)],
                [qm.col(j) for j in range(q)])
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.keys() == w.keys()
                assert all(type(v) is int for v in g.values())
                ratios = {Fraction(g[c]) / w[c] for c in g}
                assert len(ratios) == 1 and ratios.pop() > 0
            assert fraction_echelon(got).rows == fraction_echelon(want).rows

    check()
    with pytest.raises(ContractViolation, match="square"):
        relation_rows(Matrix.zeros(2, 3), Matrix.identity(2))


def test_det_reads_every_entry_before_it_eliminates():
    # a zero first row once returned 0 before the float under it was read
    for rows in ([[0, 0], [0.5, 1]], [[1, 0], [0, 0.0]]):
        with pytest.raises(ContractViolation, match="float"):
            Matrix.from_rows(rows).det()
