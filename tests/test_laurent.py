import random

import pytest

from skeinalg.errors import ContractViolation
from skeinalg.laurent import LaurentPoly


def P(d, var="A"):
    return LaurentPoly.from_dict(d, var)


def test_canonical_form_drops_zeros():
    p = P({2: 1, 0: 0, -1: 3})
    assert p.terms == ((-1, 3), (2, 1))
    assert P({}) == 0
    assert not P({1: 0})


def test_equality_is_coefficientwise():
    assert P({1: 2, -3: 1}) == P({-3: 1, 1: 2})
    assert P({1: 2}) != P({1: 3})
    assert P({0: 5}) == 5
    assert P({}) == 0
    # across variables: unequal, zero excepted, and usable as dict keys
    a, q = LaurentPoly.gen("A"), LaurentPoly.gen("q")
    assert a != q
    assert P({}) == P({}, "q")
    with pytest.raises(KeyError):
        {a: 1}[q]


def test_addition_and_cancellation():
    assert P({2: 1}) + P({2: -1}) == 0
    assert P({1: 1}) + 1 == P({0: 1, 1: 1})
    assert 1 - P({0: 1}) == 0


def test_multiplication():
    a = LaurentPoly.gen()
    assert a * a == P({2: 1})
    assert (a + 1) * (a - 1) == P({2: 1, 0: -1})
    delta = P({2: -1, -2: -1})
    assert delta * delta == P({4: 1, 0: 2, -4: 1})


def test_powers_and_unit_inverse():
    a = LaurentPoly.gen()
    assert a ** 0 == 1
    assert a ** 5 == P({5: 1})
    assert a ** -3 == P({-3: 1})
    minus_a3 = P({3: -1})
    assert minus_a3 ** -1 == P({-3: -1})
    assert minus_a3 ** -2 == P({-6: 1})
    with pytest.raises(ContractViolation):
        (a + 1) ** -1


def test_mirror_and_rename():
    p = P({3: -1, -1: 2})
    assert p.mirrored() == P({-3: -1, 1: 2})
    assert p.renamed("q").var == "q"
    with pytest.raises(ContractViolation):
        p + p.renamed("q")


def test_str_matches_convention():
    assert str(P({2: -1, -2: -1})) == "-A^2 - A^-2"
    assert str(P({0: 3, 1: -1})) == "-A + 3"
    assert str(P({})) == "0"


def test_ring_axioms_randomized():
    # exponents confined to [-6, 6] per the canonical-form contract
    rng = random.Random(20240811)
    for _ in range(200):
        p, q, r = (P({rng.randint(-6, 6): rng.randint(-5, 5) for _ in range(4)})
                   for _ in range(3))
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)

