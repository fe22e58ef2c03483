import random

import pytest

from skeinalg.algebra import (conjugation_hom, identity_hom, matrix_algebra)
from skeinalg.bimodule import (annihilator_left, bimodule_iso_pointed,
                               end_morphism, regular_bimodule)
from skeinalg.errors import ContractViolation, LabelNotFound, ParseError
from skeinalg.linalg import Matrix
from skeinalg.samples import (random_closed_word, random_invertible,
                              random_system)
from skeinalg.tqft1d import (EMPTY, PT, SpacetimeWord, compare_pictures,
                             eval_heisenberg, eval_schrodinger, make_word,
                             parse_word, system_from_heisenberg_data,
                             make_system)


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
    ident, half = Matrix.identity(2), Matrix.from_rows([[0.5, 0], [0, 1]])
    for step, data in ((half, {}),
                       (ident, {"states": {"0": (0.5, 1)}}),
                       (ident, {"costates": {"0": (1, 0.0)}}),
                       (ident, {"observables": {"0": half}})):
        with pytest.raises(ContractViolation, match="float"):
            make_system(2, step, **data)


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


def test_system_from_heisenberg_data_identity():
    m2 = matrix_algebra(2)
    table = system_from_heisenberg_data(m2, identity_hom(m2), t_max=3)
    for t in (1, 2, 3):
        assert bimodule_iso_pointed(table[("u", t)],
                                    regular_bimodule(m2)) is not None


def test_system_from_heisenberg_data_conjugation():
    rng = random.Random(109)
    u = random_invertible(rng, 2)
    m2 = matrix_algebra(2)
    table = system_from_heisenberg_data(m2, conjugation_hom(2, u), t_max=2)
    assert bimodule_iso_pointed(table[("u", 1)], end_morphism(u)) is not None


def test_system_from_heisenberg_data_ideals_and_elements():
    m2 = matrix_algebra(2)
    ideal = annihilator_left(2, (1, 0))
    table = system_from_heisenberg_data(
        m2, identity_hom(m2), t_max=1,
        left_ideals={"0": ideal}, elements={"0": (1, 0, 0, 1)})
    q = table[("v", "0")]
    assert q.dim == 2
    assert any(q.pointing)
    assert table[("a", "0")] == regular_bimodule(m2)


def test_system_from_heisenberg_data_ideal_quotient_past_dim_16():
    m5 = matrix_algebra(5)
    # E(i,0) for i < 5 span the left ideal of matrices supported on column 0
    column0 = [tuple(int(k == i * 5) for k in range(25)) for i in range(5)]
    table = system_from_heisenberg_data(m5, identity_hom(m5), t_max=1,
                                        left_ideals={"c": column0})
    q = table[("v", "c")]
    assert q.dim == 20
    assert q.left == m5 and any(q.pointing)
