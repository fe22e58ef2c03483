"""Generating sets of algebras, the checks that run over them, and the
sparse table they run on.

The constructors check each "for all a" rule on basis elements times
generators; ``oracles.py`` keeps the all-pairs loops they replaced, and
the properties here require both routes to accept or reject alike.  It
also keeps the dense triple loop for products, and tables read densely
through ``basis_product``, to check the sparse table against.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import (all_pairs_algebra_ok, all_pairs_bimodule_ok,
                     all_pairs_hom_ok, dense_multiply, dense_table,
                     word_span_rank)
from skeinalg.algebra import (algebra_direct_sum, field_algebra, make_algebra,
                              make_hom, matrix_algebra, product_field_algebra,
                              transport_algebra, truncated_poly_algebra,
                              upper_triangular_algebra)
from skeinalg.bimodule import (end_morphism, make_bimodule, modulate,
                               regular_bimodule, tensor_over)
from skeinalg.errors import ContractViolation, ValidationError
from skeinalg.jsonio import algebra_from_json, algebra_to_json
from skeinalg.linalg import Matrix, mat_lincomb
from skeinalg.samples import (random_algebra, random_hom_pair,
                              random_invertible, random_matrix)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SKEW = Matrix.from_rows([[1, 1, 0], [0, 1, 2], [1, 0, 1]])

CONSTRUCTED = {
    **{f"M{n}": (lambda n=n: matrix_algebra(n)) for n in range(1, 6)},
    **{f"Q^{n}": (lambda n=n: product_field_algebra(n)) for n in range(1, 5)},
    **{f"Q[x]/x^{n}": (lambda n=n: truncated_poly_algebra(n))
       for n in range(1, 5)},
    "UT2": upper_triangular_algebra,
    "Q+M2": lambda: algebra_direct_sum(field_algebra(), matrix_algebra(2)),
    "M2+Q[x]/x^2": lambda: algebra_direct_sum(matrix_algebra(2),
                                              truncated_poly_algebra(2)),
    "UT2 transported": lambda: transport_algebra(upper_triangular_algebra(),
                                                 SKEW),
    "M2 transported": lambda: transport_algebra(
        matrix_algebra(2), Matrix.from_rows([[1, 0, 1, 0], [0, 1, 0, 0],
                                             [2, 0, 1, 0], [0, 1, 1, 1]])),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_generators_span_the_algebra(name):
    alg = CONSTRUCTED[name]()
    assert word_span_rank(alg, alg.generators) == alg.dim


def test_matrix_algebra_generators_are_the_steps():
    assert field_algebra().generators == ()
    assert matrix_algebra(3).generators == (1, 5, 6)
    assert matrix_algebra(5).generators == (1, 7, 13, 19, 20)
    for n in range(2, 6):
        alg = matrix_algebra(n)
        assert [divmod(s, n) for s in alg.generators] == \
            [(i, (i + 1) % n) for i in range(n)]
        assert word_span_rank(alg, alg.generators) == n * n


def test_generators_ignored_by_eq_and_hash():
    m2 = matrix_algebra(2)
    # the default order keeps E(0,0) as well: three generators, not two
    plain = make_algebra(dense_table(m2), m2.unit)
    assert plain.generators != m2.generators
    assert plain == m2 and hash(plain) == hash(m2)
    assert replace(m2, generators=(0, 1, 2, 3)) == m2
    assert hash(replace(m2, generators=())) == hash(m2)
    assert repr(plain) == repr(m2)


def test_candidates_are_not_trusted():
    q3 = product_field_algebra(3)
    # index 0 alone does not generate Q^3; the greedy adds what is missing
    alg = make_algebra(dense_table(q3), q3.unit, candidates=(0, 0))
    assert alg.generators[0] == 0
    assert word_span_rank(alg, alg.generators) == 3


@pytest.mark.parametrize("candidates", [(-1,), (7,), (3,), (True,), (1.0,),
                                        ("0",), (0, -3)])
def test_candidates_outside_the_basis_are_refused(candidates):
    # -1 would pick e_2 by negative indexing, and 7 would escape as IndexError
    q3 = product_field_algebra(3)
    with pytest.raises(ContractViolation, match="generator candidate must be an int in 0..2"):
        make_algebra(dense_table(q3), q3.unit, candidates=candidates)


# -- the sparse table against dense routes --------------------------------------


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.randoms(use_true_random=False), st.integers(1, 5))
def test_multiply_matches_the_dense_loop(rng, n):
    # disguised algebras have dense tables; M_n tables are monomial
    alg = random_algebra(rng, 4) if n == 1 else matrix_algebra(n)

    def vec():
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     if rng.random() < 0.7 else 0 for _ in range(alg.dim))

    x, y = vec(), vec()
    assert alg.multiply(x, y) == dense_multiply(dense_table(alg), x, y)


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_json_round_trip_keeps_the_table(name):
    alg = CONSTRUCTED[name]()
    back = algebra_from_json(algebra_to_json(alg))
    assert back == alg and hash(back) == hash(alg)


@pytest.mark.parametrize("name", sorted(CONSTRUCTED))
def test_dense_input_gives_the_constructed_table(name):
    alg = CONSTRUCTED[name]()
    # explicit Fraction zeros, and every other constant a Fraction too
    mult = [[[Fraction(c) for c in row] for row in plane]
            for plane in dense_table(alg)]
    again = make_algebra(mult, alg.unit)
    assert again.mult == alg.mult and hash(again) == hash(alg)


def test_dense_integral_fractions_give_the_sparse_table():
    # Q^2 on the basis 2 e0, e1: (2 e0)(2 e0) = 2 (2 e0)
    scaled = transport_algebra(product_field_algebra(2),
                               Matrix.from_rows([[2, 0], [0, 1]]))
    dense = [[[Fraction(2, 1), 0], [0, Fraction(0)]],
             [[0, 0], [Fraction(0), Fraction(1)]]]
    alg = make_algebra(dense, [Fraction(1, 2), 1])
    assert alg == scaled and hash(alg) == hash(scaled)


# -- corrupting only what the generators do not reach directly ---------------


def test_corrupt_non_generator_action_is_rejected():
    m3 = matrix_algebra(3)
    e00, e11 = 0, 4
    assert e00 not in m3.generators and e11 not in m3.generators
    reg = regular_bimodule(m3)
    left = list(reg.left_action)
    # L(E00) + X and L(E11) - X keep L(1) = I, so only the products can tell
    x = m3.left_mult_matrix(tuple(int(k == 1) for k in range(9)))
    left[e00] = left[e00] + x
    left[e11] = left[e11] - x
    assert not all_pairs_bimodule_ok(m3, m3, left, reg.right_action)
    with pytest.raises(ValidationError, match=r"basis pair \(\d+,\d+\)"):
        make_bimodule(m3, m3, left, reg.right_action, reg.pointing)


def test_corrupt_non_generator_product_is_rejected():
    m3 = matrix_algebra(3)
    mult = dense_table(m3)
    # E(0,2) E(2,0) = E(0,0) becomes 0: neither factor is a generator, and
    # no unit law involves the product
    mult[2][6][0] = 0
    assert not all_pairs_algebra_ok(mult, m3.unit)
    with pytest.raises(ValidationError, match=r"\(i,j,k\)"):
        make_algebra(mult, m3.unit, candidates=(1, 3, 5, 7))


def test_corrupt_non_generator_image_is_rejected():
    m2 = matrix_algebra(2)
    ident = Matrix.identity(4)
    # f(E00) = E00 + E01 and f(E11) = E11 - E01: still unital
    entries = list(ident.entries)
    entries[1 * 4 + 0] = 1
    entries[1 * 4 + 3] = -1
    bad = Matrix(4, 4, tuple(entries))
    assert not all_pairs_hom_ok(m2, m2, bad)
    with pytest.raises(ValidationError, match=r"basis pair \(i,j\)"):
        make_hom(m2, m2, bad)


# -- the differential property --------------------------------------------------


def _unit_first(rng, alg):
    """alg in a random basis whose first vector is the unit."""
    while True:
        cols = [alg.unit] + [tuple(rng.randint(-2, 2) for _ in range(alg.dim))
                             for _ in range(alg.dim - 1)]
        s = Matrix.from_cols(cols, alg.dim)
        if s.det():
            return transport_algebra(alg, s)


def _nudge(rng, value):
    return value + rng.choice((-2, -1, 1, Fraction(1, 2)))


def _accepts(build):
    try:
        build()
    except ValidationError:
        return False
    return True


def _corrupt_table(rng, alg, corruptions, unit_laws=True):
    """alg's table with the unit first and some constants nudged; with
    unit_laws, only products of two non-unit basis vectors change."""
    alg = _unit_first(rng, alg)
    n = alg.dim
    mult = dense_table(alg)
    lo = 1 if unit_laws and n > 1 else 0
    for _ in range(corruptions):
        i, j, k = rng.randrange(lo, n), rng.randrange(lo, n), rng.randrange(n)
        mult[i][j][k] = _nudge(rng, mult[i][j][k])
    return mult, list(alg.unit)


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(st.randoms(use_true_random=False), st.integers(0, 3),
                  st.booleans())
def test_algebra_routes_agree(rng, corruptions, unit_laws):
    mult, unit = _corrupt_table(rng, random_algebra(rng, 4, disguise=False),
                                corruptions, unit_laws)
    if not unit_laws and rng.random() < 0.3:
        unit[rng.randrange(len(unit))] = _nudge(rng, 0)
    assert _accepts(lambda: make_algebra(mult, unit)) == \
        all_pairs_algebra_ok(mult, unit)


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(st.randoms(use_true_random=False), st.integers(0, 2))
def test_hom_routes_agree(rng, corruptions):
    f, _ = random_hom_pair(rng, max_dim=4)
    a, b = f.source, f.target
    entries = list(f.matrix.entries)
    for _ in range(corruptions):
        # add v w^T with w . unit = 0, so the unit still maps to the unit
        v = [rng.randint(-1, 1) for _ in range(b.dim)]
        w = [rng.randint(-1, 1) for _ in range(a.dim)]
        k = next((k for k, u in enumerate(a.unit) if u), 0)
        w[k] -= Fraction(sum(x * u for x, u in zip(w, a.unit)), a.unit[k])
        for r in range(b.dim):
            for c in range(a.dim):
                entries[r * a.dim + c] += v[r] * w[c]
    mat = Matrix(b.dim, a.dim, tuple(entries))
    assert _accepts(lambda: make_hom(a, b, mat)) == all_pairs_hom_ok(a, b, mat)


def _bimodule_sample(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return regular_bimodule(random_algebra(rng, max_dim=4))
    if kind == 1:
        return modulate(random_hom_pair(rng, max_dim=4)[0])
    if kind == 2:
        return end_morphism(random_matrix(rng, rng.randint(1, 2),
                                          rng.randint(1, 3)))
    n = rng.randint(1, 2)
    return tensor_over(end_morphism(random_invertible(rng, n)),
                       end_morphism(random_matrix(rng, n, 2)))


def _corrupt_actions(rng, alg, actions):
    """Add X to one action and take it back where the unit sees it."""
    actions = list(actions)
    m = actions[0].rows
    x = Matrix(m, m, tuple(rng.choice((0, 0, 0, 1, -1)) for _ in range(m * m)))
    i = rng.randrange(alg.dim)
    actions[i] = actions[i] + x
    if alg.unit[i]:
        others = [j for j in range(alg.dim) if j != i and alg.unit[j]]
        if others:
            j = rng.choice(others)
            actions[j] = actions[j] - x.scale(Fraction(alg.unit[i], alg.unit[j]))
    return actions


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(st.randoms(use_true_random=False),
                  st.sampled_from(("none", "left", "right", "both")))
def test_bimodule_routes_agree(rng, corrupt):
    mod = _bimodule_sample(rng)
    left, right = mod.left_action, mod.right_action
    if corrupt in ("left", "both"):
        left = _corrupt_actions(rng, mod.left, left)
    if corrupt in ("right", "both"):
        right = _corrupt_actions(rng, mod.right, right)
    assert _accepts(lambda: make_bimodule(mod.left, mod.right, left, right,
                                          mod.pointing)) == \
        all_pairs_bimodule_ok(mod.left, mod.right, left, right)


def test_corruptions_reach_the_product_checks():
    """Many corruptions above keep the unit laws or the unit actions, so
    that only the product checks can reject them."""
    rng = random.Random(0)
    tables = modules = 0
    for _ in range(30):
        mult, unit = _corrupt_table(rng, random_algebra(rng, 4, disguise=False), 1)
        tables += not all_pairs_algebra_ok(mult, unit)
        mod = regular_bimodule(random_algebra(rng, max_dim=4))
        left = _corrupt_actions(rng, mod.left, mod.left_action)
        unit_ok = mat_lincomb(zip(mod.left.unit, left), mod.dim, mod.dim) == \
            Matrix.identity(mod.dim)
        modules += unit_ok and not all_pairs_bimodule_ok(
            mod.left, mod.right, left, mod.right_action)
    assert tables >= 10 and modules >= 10
