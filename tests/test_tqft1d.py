import random
from fractions import Fraction

import pytest

from skeinalg.algebra import matrix_algebra
from skeinalg.bimodule import bimodule_iso_pointed, regular_bimodule
from skeinalg.errors import ContractViolation, LabelNotFound, ParseError
from skeinalg import tqft1d
from skeinalg.linalg import Matrix, matrix_power
from skeinalg.samples import random_closed_word, random_system
from skeinalg.tqft1d import (EMPTY, PT, SpacetimeWord, compare_pictures,
                             eval_heisenberg, eval_pictures, eval_schrodinger,
                             make_word, make_system, parse_word)


def example_system():
    return make_system(2, Matrix.from_rows([[1, 1], [0, 1]]),
                       states={"0": (0, 1)}, costates={"0": (0, 1)})


def test_parse_closed_word():
    w = parse_word("w[0] . u(2) . v[0]")
    assert len(w) == 3
    assert w.source == EMPTY and w.target == EMPTY
    assert w.is_closed


def test_parse_rejects_noncomposable():
    with pytest.raises(ContractViolation, match="positions 0 and 1"):
        parse_word("v[0] . v[0]")


def test_parse_group_law_word():
    w = parse_word("u(1) . u(2)")
    assert w.source == PT and w.target == PT


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_word("u(0)")
    with pytest.raises(ParseError):
        parse_word("w[0] v[0]")
    with pytest.raises(ParseError):
        parse_word("")
    with pytest.raises(ParseError):
        parse_word("x[0]")
    # a duration past Python's digit limit for int(str)
    with pytest.raises(ParseError, match="at position 7"):
        parse_word("w[0] . u(" + "1" * 5000 + ") . v[0]")


def test_make_word_rejects_bad_durations():
    for t in (0, -3, 2.5, True, "2"):
        with pytest.raises(ContractViolation, match="duration"):
            make_word([("w", "0"), ("u", t), ("v", "0")])
    assert make_word([("u", 1)]).gens == (("u", 1),)


def test_make_word_rejects_unknown_generators():
    for gens in ([("x", "0")], [("w", "0"), ("x", "1")], [("u",)]):
        with pytest.raises(ContractViolation, match="kind"):
            make_word(gens)


def test_huge_duration_by_squaring():
    # a unipotent step: u(t) = [[1, t], [0, 1]], so w.u(t).v picks out t
    sys = make_system(2, Matrix.from_rows([[1, 1], [0, 1]]),
                      states={"x": (0, 1)}, costates={"y": (1, 0)})
    rep = compare_pictures(sys, parse_word("w[y] . u(2000000) . v[x]"))
    assert rep.agree
    assert rep.schrodinger_value == rep.heisenberg_value == 2000000


def test_eval_schrodinger_group_law():
    sys = example_system()
    assert eval_schrodinger(sys, parse_word("u(1).u(2)")) == \
        eval_schrodinger(sys, parse_word("u(3)"))


def test_eval_schrodinger_empty_word():
    sys = example_system()
    assert eval_schrodinger(sys, SpacetimeWord((), PT)) == Matrix.identity(2)
    assert eval_schrodinger(sys, SpacetimeWord((), EMPTY)) == Matrix.identity(1)


def test_make_system_rejects_floats():
    def half():
        return Matrix.from_rows([[0.5, 0], [0, 1]])
    ident = Matrix.identity(2)
    for call in (lambda: make_system(2, half()),
                 lambda: make_system(2, ident, states={"0": (0.5, 1)}),
                 lambda: make_system(2, ident, costates={"0": (1, 0.0)}),
                 lambda: make_system(2, ident, observables={"0": half()})):
        with pytest.raises(ContractViolation, match="float"):
            call()


def test_eval_schrodinger_example_scalar():
    sys = example_system()
    m = eval_schrodinger(sys, parse_word("w[0].u(1).v[0]"))
    assert m == Matrix.from_rows([[1]])


def test_unknown_label():
    sys = example_system()
    with pytest.raises(LabelNotFound):
        eval_schrodinger(sys, parse_word("w[9].v[0]"))


def test_eval_heisenberg_empty_word():
    sys = example_system()
    h = eval_heisenberg(sys, SpacetimeWord((), PT))
    assert h == regular_bimodule(matrix_algebra(2))


def test_eval_heisenberg_single_state():
    sys = example_system()
    h = eval_heisenberg(sys, make_word((("v", "0"),)))
    assert h.dim == 2
    assert h.left == matrix_algebra(2)
    assert h.pointing == (0, 1)


def test_picture_equivalence_example():
    rep = compare_pictures(example_system(), parse_word("w[0].u(1).v[0]"))
    assert rep.agree
    assert rep.schrodinger_value == 1
    assert rep.heisenberg_value == 1


def test_picture_equivalence_no_evolution():
    sys = make_system(3, Matrix.identity(3),
                      states={"0": (1, 2, 3)}, costates={"0": (1, 0, 2)})
    rep = compare_pictures(sys, parse_word("w[0].v[0]"))
    assert rep.agree
    assert rep.schrodinger_value == 7


def test_picture_equivalence_non_invertible_step():
    sys = make_system(2, Matrix.from_rows([[1, 0], [0, 0]]),
                      states={"0": (1, 1)}, costates={"0": (2, 5)})
    rep = compare_pictures(sys, parse_word("w[0].u(3).v[0]"))
    assert rep.agree
    assert rep.schrodinger_value == 2


def test_compare_rejects_open_word():
    with pytest.raises(ContractViolation):
        compare_pictures(example_system(), parse_word("u(1)"))


def test_functoriality_under_splits():
    rng = random.Random(103)
    for _ in range(6):
        sys = random_system(rng, max_dim=2)
        word = random_closed_word(rng, max_len=5)
        k = rng.randint(1, len(word.gens) - 1)
        left = SpacetimeWord(word.gens[:k])
        right = SpacetimeWord(word.gens[k:])
        assert eval_schrodinger(sys, word) == \
            eval_schrodinger(sys, left) @ eval_schrodinger(sys, right)


def test_heisenberg_functoriality_under_splits():
    from skeinalg.bimodule import tensor_over

    rng = random.Random(104)
    for _ in range(4):
        sys = random_system(rng, max_dim=2)
        word = random_closed_word(rng, max_len=5)
        k = rng.randint(1, len(word.gens) - 1)
        left = SpacetimeWord(word.gens[:k])
        right = SpacetimeWord(word.gens[k:])
        glued = tensor_over(eval_heisenberg(sys, left),
                            eval_heisenberg(sys, right))
        assert bimodule_iso_pointed(glued, eval_heisenberg(sys, word)) \
            is not None


def test_group_law_heisenberg_pointed_iso():
    sys = example_system()
    h1 = eval_heisenberg(sys, parse_word("u(1).u(2)"))
    h2 = eval_heisenberg(sys, parse_word("u(3)"))
    assert bimodule_iso_pointed(h1, h2) is not None


def test_eval_pictures_matches_each_picture_alone():
    rng = random.Random(1616)
    for k in range(20):
        sys = random_system(rng)
        gens = random_closed_word(rng).gens
        # closed, then without the state, the costate or both
        start, stop = [(0, None), (0, -1), (1, None), (1, -1)][k % 4]
        word = make_word(gens[start:stop])
        assert eval_pictures(sys, word) == (eval_schrodinger(sys, word),
                                            eval_heisenberg(sys, word))


def test_compare_pictures_computes_each_power_once(monkeypatch):
    calls = []

    def counted(m, t):
        calls.append(t)
        return matrix_power(m, t)

    monkeypatch.setattr(tqft1d, "matrix_power", counted)
    sys = make_system(2, Matrix.from_rows([[1, 1], [0, 1]]),
                      states={"x": (0, 1)}, costates={"y": (1, 0)},
                      observables={"b": Matrix.from_rows([[2, 0], [1, 1]])})
    word = parse_word("w[y] . u(3) . a[b] . u(3) . a[b] . u(5) . v[x]")
    rep = compare_pictures(sys, word)
    assert rep.agree
    assert sorted(calls) == [3, 5]
    # each picture on its own still computes its own powers
    calls.clear()
    assert eval_schrodinger(sys, word)[0, 0] == rep.schrodinger_value
    assert eval_heisenberg(sys, word).pointing == (rep.heisenberg_value,)
    assert sorted(calls) == [3, 3, 5, 5]


def test_make_system_needs_an_int_dimension():
    for dim_v in (True, False, "2", 2.0, Fraction(2), None, 0, -1):
        with pytest.raises(
                ContractViolation,
                match="dimension of the space of states must be an int >= 1"):
            make_system(dim_v, Matrix.identity(2 if dim_v == 2 else 1))
    assert make_system(2, Matrix.identity(2)).dim_v == 2
