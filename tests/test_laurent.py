import random
from fractions import Fraction

import pytest

from skeinalg.errors import ContractViolation
from skeinalg.laurent import LaurentPoly
from skeinalg.tl import delta


def P(d):
    return LaurentPoly.from_dict(d)


def test_exponents_and_coefficients_must_be_ints():
    # a zero of the wrong type is refused too, not dropped as a zero term
    for bad in ({0: 1.5}, {0.5: 1}, {0: Fraction(1, 2)}, {0: Fraction(2)},
                {True: 1}, {0: True}, {"1": 1}, {0: 0.0}, {0.5: 0},
                {0: Fraction(0)}, {0: False}, {1: 2, 0.5: 0}, {"1": 1, 0: 1}):
        with pytest.raises(ContractViolation, match="are ints"):
            LaurentPoly.from_dict(bad)
    with pytest.raises(ContractViolation, match="are ints"):
        LaurentPoly.constant(False)
    for bad in ((Fraction(1, 2), 1), (1, 1.0), (1.0, 0)):
        with pytest.raises(ContractViolation, match="are ints"):
            LaurentPoly.monomial(*bad)
    for bad in (((0, 2.0),), ((0, True),), ((1.0, 1),)):
        with pytest.raises(ContractViolation, match="are ints"):
            LaurentPoly(bad)
    # a bool is not coerced to a constant, so == with one stays False
    assert LaurentPoly.constant(1) != True  # noqa: E712


def test_canonical_form_drops_zeros():
    p = P({2: 1, 0: 0, -1: 3})
    assert p.terms == ((-1, 3), (2, 1))
    assert P({}) == 0
    assert not P({1: 0})


def test_directly_built_terms_must_be_canonical():
    # unsorted terms printed like A^2 + 1 but were unequal to it, and a
    # zero term printed as -0*A and was truthy
    for bad in (((2, 1), (0, 1)), ((1, 0),), ((0, 1), (0, 2))):
        with pytest.raises(ContractViolation, match="strictly increasing"):
            LaurentPoly(bad)
    p = LaurentPoly(((0, 1), (2, 1)))
    assert p == P({0: 1, 2: 1}) and hash(p) == hash(P({0: 1, 2: 1}))


def test_equality_is_coefficientwise():
    assert P({1: 2, -3: 1}) == P({-3: 1, 1: 2})
    assert P({1: 2}) != P({1: 3})
    assert P({0: 5}) == 5
    assert P({}) == 0


def test_constants_hash_like_the_ints_they_equal():
    for c in (3, -1, 1):
        assert P({0: c}) == c and hash(P({0: c})) == hash(c)
    assert P({}) == 0 and hash(P({})) == hash(0)
    assert len({P({0: 3}), 3}) == 1
    assert {3: "x"}.get(P({0: 3})) == "x"
    assert {0: "z"}.get(P({})) == "z"
    assert {P({}): "z"}.get(0) == "z"


def test_addition_and_cancellation():
    assert P({2: 1}) + P({2: -1}) == 0
    assert P({1: 1}) + 1 == P({0: 1, 1: 1})
    assert 1 - P({0: 1}) == 0


def test_multiplication():
    a = LaurentPoly.monomial(1, 1)
    assert a * a == P({2: 1})
    assert (a + 1) * (a - 1) == P({2: 1, 0: -1})
    delta = P({2: -1, -2: -1})
    assert delta * delta == P({4: 1, 0: 2, -4: 1})


def _convolution(p, q):
    out = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return P(out)


def test_monomial_products_match_convolution():
    rng = random.Random(20261018)
    monomials = [P({e: c}) for e in (-5, 0, 3) for c in (-3, -1, 1, 2)]
    others = monomials + [P({}), P({2: -1, -2: -1})] + \
        [P({rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(4)})
         for _ in range(30)]
    for m in monomials:
        for p in others:
            for x, y in ((m, p), (p, m)):
                got = x * y
                assert got.terms == _convolution(x, y).terms
    for k in (-1, 0, 1, 7):
        for p in others:
            want = _convolution(p, P({0: k})).terms
            assert (p * k).terms == (k * p).terms == want


def test_evaluate_at_zero_needs_no_negative_exponent():
    assert P({0: 3, 2: 1}).evaluate(Fraction(0)) == 3
    assert P({}).evaluate(Fraction(0)) == 0
    assert P({-1: 2, 1: 1}).evaluate(Fraction(1, 2)) == Fraction(9, 2)
    for p in (P({-1: 1, 0: 2}), P({-2: 1})):
        with pytest.raises(ContractViolation, match="negative exponents"):
            p.evaluate(Fraction(0))
        with pytest.raises(ContractViolation, match="negative exponents"):
            p.evaluate(0)


def test_evaluate_is_exact_at_ints():
    got = delta().evaluate(2)
    assert got == Fraction(-17, 4) and type(got) is Fraction
    got = P({-1: 3}).evaluate(True)
    assert got == 3 and type(got) is Fraction
    for bad in (2.0, "2", None):
        with pytest.raises(ContractViolation, match="int or a Fraction"):
            P({-1: 3}).evaluate(bad)


def test_powers_and_unit_inverse():
    a = LaurentPoly.monomial(1, 1)
    assert a ** 0 == 1
    assert a ** 5 == P({5: 1})
    assert a ** -3 == P({-3: 1})
    minus_a3 = P({3: -1})
    assert minus_a3 ** -1 == P({-3: -1})
    assert minus_a3 ** -2 == P({-6: 1})
    with pytest.raises(ContractViolation):
        (a + 1) ** -1
    # a monomial whose coefficient is not +-1 is no unit
    for non_unit in (P({1: 2}), P({0: -3})):
        assert non_unit.unit_inverse() is None
        with pytest.raises(ContractViolation,
                           match="negative power of a non-unit"):
            non_unit ** -1
    for bad in (2.0, "2", True, Fraction(2)):
        with pytest.raises(ContractViolation, match="Laurent exponent must be an int"):
            delta() ** bad
    for base in (P({2: -1, -2: -1}), a + 2, minus_a3):
        product = LaurentPoly.constant(1)
        for n in range(13):
            assert base ** n == product
            product = product * base
    for unit in (a, minus_a3, P({-2: -1}), P({0: -1})):
        product = LaurentPoly.constant(1)
        for n in range(13):
            assert unit ** -n == product
            assert unit ** -n * unit ** n == 1
            product = product * unit.unit_inverse()


def test_power_multiplies_at_most_bit_length_plus_popcount(monkeypatch):
    d = P({2: -1, -2: -1})
    calls = []
    mul = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    for n in range(1, 65):
        calls.clear()
        d ** n
        assert len(calls) <= n.bit_length() - 1 + bin(n).count("1")
    calls.clear()
    d ** 0
    assert not calls


def test_mirror_and_rename():
    p = P({3: -1, -1: 2})
    assert p.mirrored() == P({-3: -1, 1: 2})
    assert p.text("q") == "-q^3 + 2*q^-1"
    assert p.text() == str(p) == "-A^3 + 2*A^-1"
    assert P({}).text("q") == "0"


def test_str_matches_convention():
    assert str(P({2: -1, -2: -1})) == "-A^2 - A^-2"
    assert str(P({0: 3, 1: -1})) == "-A + 3"
    assert str(P({})) == "0"


def test_ring_axioms_property():
    """Ring axioms and powers on sparse polynomials, monomials included, so
    both the monomial fast path and the general product are exercised."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = st.dictionaries(st.integers(-40, 40), st.integers(-9, 9),
                            max_size=5).map(P)
    units = st.builds(LaurentPoly.monomial, st.sampled_from((1, -1)),
                      st.integers(-40, 40))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(polys, polys, polys, units, st.integers(0, 7))
    def check(p, q, r, u, n):
        zero, one = LaurentPoly(), LaurentPoly.constant(1)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p + zero == p and p * one == p and p * zero == zero
        assert p - p == zero and p + (-p) == zero
        product = one
        for _ in range(n):
            product = product * p
        assert p ** n == product
        assert u ** -n * u ** n == one

    check()
