"""sympy as an independent oracle for matrix products, the elimination
engine and Laurent products."""

import random
from fractions import Fraction

import pytest

from skeinalg.errors import ContractViolation
from skeinalg.laurent import LaurentPoly
from skeinalg.linalg import Matrix, kernel_basis, rank

sympy = pytest.importorskip("sympy")


def _random_rational_matrix(rng, rows, cols):
    """Rank at most a random r: a product of rows x r and r x cols factors."""
    r = rng.randint(0, min(rows, cols))

    def factor(a, b):
        return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(b)] for _ in range(a)]

    left, right = factor(rows, r), factor(r, cols)
    return [[sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def _to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in row] for row in rows])


def _from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def test_products_agree_with_sympy():
    rng = random.Random(1303)
    for _ in range(60):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a = _random_rational_matrix(rng, n, k)
        b = _random_rational_matrix(rng, k, m)
        got = Matrix.from_rows(a) @ Matrix.from_rows(b)
        want = _to_sympy(a) * _to_sympy(b)
        assert got.tolist() == [[_from_sympy(x) for x in want.row(i)]
                                for i in range(n)]


def test_elimination_agrees_with_sympy():
    rng = random.Random(1301)
    singular = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            cols = rows
        entries = _random_rational_matrix(rng, rows, cols)
        m, s = Matrix.from_rows(entries), _to_sympy(entries)
        assert rank(m) == s.rank()
        assert len(kernel_basis(m)) == len(s.nullspace())
        if rows != cols:
            continue
        det = m.det()
        assert det == _from_sympy(s.det())
        if det:
            assert m.inverse().tolist() == [
                [_from_sympy(x) for x in s.inv().row(i)] for i in range(rows)]
        else:
            singular += 1
            with pytest.raises(ContractViolation, match="singular"):
                m.inverse()
    assert singular >= 5


def test_laurent_products_agree_with_sympy():
    rng = random.Random(1302)
    a = sympy.Symbol("A")
    shift = 40  # clears every negative exponent below

    def random_poly():
        return LaurentPoly.from_dict({rng.randint(-9, 9): rng.randint(-5, 5)
                                      for _ in range(rng.randint(0, 5))})

    def to_sympy(p):
        return sum((c * a ** e for e, c in p.to_dict().items()), sympy.Integer(0))

    for _ in range(60):
        p, q = random_poly(), random_poly()
        expanded = sympy.expand(to_sympy(p) * to_sympy(q) * a ** shift)
        want = {e - shift: int(c)
                for (e,), c in sympy.Poly(expanded, a).terms() if c}
        assert (p * q).to_dict() == want
