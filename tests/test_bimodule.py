import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from oracles import (fraction_bimodule_failure, fraction_map_failure,
                     hom_space_actions)
from skeinalg.algebra import (conjugation_hom, field_algebra,
                              flatten_matrix, identity_hom, make_hom,
                              matrix_algebra, product_field_algebra,
                              scalar_inclusion_hom, transport_algebra,
                              upper_triangular_algebra)
from skeinalg import bimodule
from skeinalg.bimodule import (TENSOR_MAX_AMBIENT_DIM,
                               _affine_intertwiner_space, bimodule_iso_pointed,
                               bimodule_iso_unpointed, conjugator_between,
                               end_compose_check, end_morphism, make_bimodule,
                               make_bimodule_map, modulate, regular_bimodule,
                               tensor_over)
from skeinalg.errors import ContractViolation, ValidationError
from skeinalg.linalg import Matrix
from skeinalg.samples import (random_composable_hom_pair, random_fraction,
                              random_hom_pair, random_invertible,
                              random_matrix)


def test_modulate_identity_is_regular():
    m2 = matrix_algebra(2)
    assert modulate(identity_hom(m2)) == regular_bimodule(m2)


def test_modulate_from_scalars():
    b = matrix_algebra(2)
    m = modulate(scalar_inclusion_hom(b))
    assert m.left == field_algebra()
    assert m.dim == 4
    assert m.pointing == b.unit
    # the left action of the field is scalar multiplication
    assert m.left_action[0] == Matrix.identity(4)


def test_modulate_conjugation_lemma():
    """The modulation of a -> u^-1 a u is the regular bimodule pointed by u."""
    u = Matrix.from_rows([[1, 1], [0, 1]])
    m2 = matrix_algebra(2)
    w = bimodule_iso_pointed(modulate(conjugation_hom(2, u)),
                             regular_bimodule(m2, pointing=flatten_matrix(u)))
    assert w is not None
    assert w.matrix.det() != 0


def test_pointing_zero_vs_unit_absent():
    m2 = matrix_algebra(2)
    got = bimodule_iso_pointed(regular_bimodule(m2),
                               regular_bimodule(m2, pointing=(0, 0, 0, 0)))
    assert got is None


def test_iso_pointed_identity_case():
    m2 = matrix_algebra(2)
    r = regular_bimodule(m2)
    w = bimodule_iso_pointed(r, r)
    assert w is not None
    assert w.matrix.apply(r.pointing) == tuple(r.pointing)


def test_bad_bimodule_rejected():
    m2 = matrix_algebra(2)
    bad = [Matrix.identity(4)] * 3 + [Matrix.zeros(4, 4)]
    with pytest.raises(ValidationError):
        make_bimodule(m2, m2, bad, m2.right_regular(), m2.unit)


def _count_action_checks(monkeypatch):
    """A list that gains one entry per one-sided law check make_bimodule runs."""
    calls = []
    check = bimodule._action_failure

    def counted(alg, action, m, left):
        calls.append(left)
        return check(alg, action, m, left)

    monkeypatch.setattr(bimodule, "_action_failure", counted)
    bimodule._regular_failure.cache_clear()
    return calls


def test_regular_actions_are_checked_once_per_algebra(monkeypatch):
    calls = _count_action_checks(monkeypatch)
    m3 = matrix_algebra(3)
    regular_bimodule(m3)
    assert sorted(calls) == [False, True]  # one check per side
    regular_bimodule(m3, pointing=(0,) * 9)
    assert sorted(calls) == [False, True]
    # a conjugation's left action is not the regular one: checked per call
    f = conjugation_hom(3, Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    for k in (1, 2):
        modulate(f)
        assert calls.count(True) == 1 + k and calls.count(False) == 1


def test_an_equal_copy_of_a_regular_action_passes_and_a_corrupt_one_fails(
        monkeypatch):
    calls = _count_action_checks(monkeypatch)
    m3 = matrix_algebra(3)
    regular_bimodule(m3)
    copy = [Matrix(a.rows, a.cols, tuple(a.entries)) for a in m3.right_regular()]
    assert copy == list(m3.right_regular())
    assert not any(a is b for a, b in zip(copy, m3.right_regular()))
    checks = len(calls)
    make_bimodule(m3, m3, m3.left_regular(), copy, m3.unit)
    assert len(calls) == checks  # compared by value: the memo answers
    # E(0,0) is no generator, so only a product reaches its matrix
    x = m3.right_mult_matrix(tuple(int(k == 1) for k in range(9)))
    copy[0] = copy[0] + x
    copy[4] = copy[4] - x
    with pytest.raises(ValidationError, match="right action is not "
                       r"anti-multiplicative at basis pair \(\d+,\d+\)"):
        make_bimodule(m3, m3, m3.left_regular(), copy, m3.unit)
    assert calls[checks:] == [False]
    copy[0] = Matrix.zeros(9, 9)
    with pytest.raises(ValidationError, match="right action of the unit is "
                       "not the identity"):
        make_bimodule(m3, m3, m3.left_regular(), copy, m3.unit)


def test_both_sides_broken_reports_the_left_product_before_the_right_unit():
    m3 = matrix_algebra(3)
    # the left action keeps its unit law and fails a product at E(0,0),
    # which is no generator; the right action fails its unit law
    x = m3.left_mult_matrix(tuple(int(k == 1) for k in range(9)))
    left = list(m3.left_regular())
    left[0] = left[0] + x
    left[4] = left[4] - x
    right = list(m3.right_regular())
    right[0] = Matrix.zeros(9, 9)
    want = fraction_bimodule_failure(m3, m3, left, right)
    assert want.startswith("left action is not multiplicative at basis pair")
    assert _outcome(lambda: make_bimodule(m3, m3, left, right, m3.unit)) == want


def test_make_bimodule_rejects_floats():
    k = field_algebra()
    for left, right, point in (((1,), (1,), (0.5,)),
                               ((1.0,), (1,), (1,)),
                               ((1,), (1.0,), (1,))):
        with pytest.raises(ContractViolation, match="float"):
            make_bimodule(k, k, [Matrix(1, 1, left)], [Matrix(1, 1, right)],
                          point)
    with pytest.raises(ContractViolation, match="float"):
        end_morphism(Matrix(1, 1, (0.5,)))


def test_make_bimodule_reads_every_action_image_before_any_law_check(
        monkeypatch):
    m2 = matrix_algebra(2)
    left, right = list(m2.left_regular()), list(m2.right_regular())
    # the zero left action of e0 breaks the unit law, which is never reached
    left[0] = Matrix.zeros(4, 4)
    for bad in (0.5, 0.0):
        for acts in (left, right):
            kept = acts[-1]
            with pytest.raises(ContractViolation, match="int and Fraction"):
                acts[-1] = Matrix(4, 4, kept.entries[:-1] + (bad,))
                make_bimodule(m2, m2, left, right, m2.unit)
            acts[-1] = kept
    with pytest.raises(ValidationError, match="unit"):
        make_bimodule(m2, m2, left, right, m2.unit)

    def law_check(*args):
        raise AssertionError("law check ran")

    for name in ("lincomb_image", "product_image", "same_image"):
        monkeypatch.setattr(bimodule, name, law_check)
    k = field_algebra()
    for la, ra in (((1.0,), (1,)), ((1,), (0.0,))):
        with pytest.raises(ContractViolation, match="float"):
            make_bimodule(k, k, [Matrix(1, 1, la)], [Matrix(1, 1, ra)], (1,))


def test_make_bimodule_map_reads_the_matrix_before_any_law_check():
    # over M1 no generator runs a product and 1.0 * 1 == 1 passed the
    # pointing check, so Matrix(1, 1, (1.0,)) was once accepted as a map
    r1 = regular_bimodule(matrix_algebra(1))
    r2 = regular_bimodule(matrix_algebra(2))
    ident = Matrix.identity(4).entries
    for m, n, bad in ((r1, 1, (1.0,)),
                      (r2, 4, ident[:1] + (0.0,) + ident[2:])):
        with pytest.raises(ContractViolation, match="float"):
            make_bimodule_map(m, m, Matrix(n, n, bad))
    assert make_bimodule_map(r1, r1, Matrix(1, 1, (1,))).matrix[0, 0] == 1


# unrelated primes: no two denominators of one matrix share a factor
_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149)


def _prime_invertible(rng, n):
    while True:
        s = Matrix(n, n, tuple(rng.randint(-1, 1) + Fraction(
            rng.randint(-3, 3), rng.choice(_PRIMES)) for _ in range(n * n)))
        if s.det():
            return s


def _transported(b, s):
    """b carried along the change of basis s: a valid bimodule with
    fractional actions and the pointed isomorphism s from b to it."""
    sinv = s.inverse()
    return make_bimodule(b.left, b.right, [s @ a @ sinv for a in b.left_action],
                         [s @ a @ sinv for a in b.right_action],
                         s.apply(b.pointing))


def _moved(mat, idx, delta):
    ents = list(mat.entries)
    ents[idx] += delta
    return Matrix(mat.rows, mat.cols, tuple(ents))


def _outcome(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


def test_validation_matches_the_fraction_oracle_on_near_misses():
    """make_bimodule and make_bimodule_map accept and reject valid
    bimodules with prime denominators, and copies with one action, map or
    pointing entry moved by 1/p, exactly as the Fraction oracle does."""
    rng = random.Random(2111)
    u2 = _prime_invertible(rng, 2)
    bases = [regular_bimodule(matrix_algebra(2)),
             regular_bimodule(upper_triangular_algebra()),
             regular_bimodule(product_field_algebra(2)),
             regular_bimodule(transport_algebra(matrix_algebra(2),
                                                _prime_invertible(rng, 4))),
             modulate(conjugation_hom(2, u2)),
             modulate(make_hom(product_field_algebra(2), matrix_algebra(2),
                               Matrix.from_cols([(1, 0, 0, 0), (0, 0, 0, 1)],
                                                4)))]
    seen = []
    for base in bases:
        s = _prime_invertible(rng, base.dim)
        good = _transported(base, s)
        assert any(type(x) is Fraction and x.denominator > 100
                   for a in good.left_action + good.right_action
                   for x in a.entries)
        for b in (base, good):
            assert fraction_bimodule_failure(b.left, b.right, b.left_action,
                                             b.right_action) is None
        assert fraction_map_failure(base, good, s) is None
        make_bimodule_map(base, good, s)
        for _ in range(20):
            acts = {"left": list(good.left_action),
                    "right": list(good.right_action)}
            side = rng.choice(("left", "right"))
            k = rng.randrange(len(acts[side]))
            delta = Fraction(rng.choice((-1, 1)), rng.choice(_PRIMES))
            acts[side][k] = _moved(acts[side][k],
                                   rng.randrange(good.dim ** 2), delta)
            want = fraction_bimodule_failure(good.left, good.right,
                                             acts["left"], acts["right"])
            got = _outcome(lambda: make_bimodule(
                good.left, good.right, acts["left"], acts["right"],
                good.pointing))
            assert got == want
            seen.append(want)
            # the map, and the target's pointing, each moved by 1/p
            target, matrix = good, s
            if rng.random() < 0.5:
                matrix = _moved(s, rng.randrange(s.rows * s.cols), delta)
            else:
                target = replace(good, pointing=tuple(
                    x + delta * (i == 0) for i, x in enumerate(good.pointing)))
            want = fraction_map_failure(base, target, matrix)
            got = _outcome(lambda: make_bimodule_map(base, target, matrix))
            assert got == want
            seen.append(want)
    kinds = {w.split(" at ")[0] if w else None for w in seen}
    assert {"left action of the unit is not the identity",
            "left action is not multiplicative",
            "right action is not anti-multiplicative",
            "map fails to intertwine the left action",
            "map does not send pointing to pointing"} <= kinds


def test_bimodule_map_validation():
    m2 = matrix_algebra(2)
    r = regular_bimodule(m2)
    with pytest.raises(ValidationError, match="pointing"):
        make_bimodule_map(r, regular_bimodule(m2, pointing=(0, 0, 0, 0)),
                          Matrix.identity(4))


def test_tensor_middle_mismatch():
    m2, m3 = matrix_algebra(2), matrix_algebra(3)
    with pytest.raises(ContractViolation):
        tensor_over(regular_bimodule(m2), regular_bimodule(m3))


def test_tensor_over_field():
    """K-K bimodules tensor like plain vector spaces: dims multiply."""
    k = field_algebra()
    ident = Matrix.identity(2)
    m = make_bimodule(k, k, [ident], [ident], (1, 0))
    ident3 = Matrix.identity(3)
    n = make_bimodule(k, k, [ident3], [ident3], (0, 1, 0))
    t = tensor_over(m, n)
    assert t.dim == 6
    assert t.pointing == (0, 1, 0, 0, 0, 0)


def test_tensor_over_rejects_an_inexact_pointing():
    # the memo builds the quotient from blank pointings, so only the
    # pointing step sees these; a float zero was once skipped there
    k = field_algebra()
    ident = Matrix.identity(2)
    m = make_bimodule(k, k, [ident], [ident], (1, Fraction(1, 2)))
    for point in ((0.5, 1), (1, 0.0), (Fraction(1, 3), 2.5)):
        bad = replace(m, pointing=point)
        for m1, m2 in ((bad, m), (m, bad)):
            with pytest.raises(ContractViolation, match="float"):
                tensor_over(m1, m2)
    # the exact pointing still goes through: (1, 1/2) tensor (1, 1/2)
    assert tensor_over(m, m).pointing == (1, Fraction(1, 2), Fraction(1, 2),
                                          Fraction(1, 4))


def test_tensor_past_the_ambient_cap_fails_before_any_relation(monkeypatch):
    k, qq = field_algebra(), product_field_algebra(2)
    assert qq.generators  # so tensor_over over qq builds relation rows

    def over_qq(n, side):
        """K-Q^2 (side 'right') or Q^2-K bimodule of dim n; e0 acts as 1."""
        ident = Matrix.identity(n)
        acts = [ident, Matrix.zeros(n, n)]
        if side == "right":
            return make_bimodule(k, qq, [ident], acts, (0,) * n)
        return make_bimodule(qq, k, acts, [ident], (0,) * n)

    def no_relations(p, q):
        raise AssertionError("relation rows built")

    monkeypatch.setattr(bimodule, "_relation_rows", no_relations)
    with pytest.raises(AssertionError, match="relation rows built"):
        tensor_over(over_qq(8, "right"), over_qq(8, "left"))
    assert 64 * 64 == TENSOR_MAX_AMBIENT_DIM
    for m, n in ((64, 65), (65, 64)):
        memo = bimodule._tensor_shape.cache_info()
        with pytest.raises(ContractViolation,
                           match="TENSOR_MAX_AMBIENT_DIM = 4096"):
            tensor_over(over_qq(m, "right"), over_qq(n, "left"))
        assert bimodule._tensor_shape.cache_info() == memo  # not consulted


def test_modulation_functoriality_explicit_witness():
    from oracles import modulation_witness

    rng = random.Random(23)
    for _ in range(10):
        f, g = random_composable_hom_pair(rng, max_dim=3)
        t, direct, mat = modulation_witness(f, g)
        witness = make_bimodule_map(t, direct, mat)  # validates exactly
        assert witness.matrix.det() != 0


def test_modulation_functoriality_conjugations_on_m2():
    """Composites of conjugation maps on the 2x2 matrix algebra."""
    from oracles import modulation_witness

    rng = random.Random(59)
    for _ in range(5):
        f = conjugation_hom(2, random_invertible(rng, 2))
        g = conjugation_hom(2, random_invertible(rng, 2))
        t, direct, mat = modulation_witness(f, g)
        witness = make_bimodule_map(t, direct, mat)
        assert witness.matrix.det() != 0
        assert bimodule_iso_pointed(t, direct) is not None


def test_iso_unpointed_conjugate_homs_present():
    rng = random.Random(29)
    m2 = matrix_algebra(2)
    for _ in range(5):
        u = random_invertible(rng, 2)
        f = identity_hom(m2)
        g = conjugation_hom(2, u)
        assert bimodule_iso_unpointed(modulate(f), modulate(g)) is not None
        assert conjugator_between(f, g) is not None


def test_iso_unpointed_swap_absent():
    qq = product_field_algebra(2)
    sw = make_hom(qq, qq, Matrix.from_rows([[0, 1], [1, 0]]))
    assert bimodule_iso_unpointed(modulate(identity_hom(qq)), modulate(sw)) is None
    assert conjugator_between(identity_hom(qq), sw) is None


def test_iso_unpointed_equal_homs_present():
    qq = product_field_algebra(2)
    got = bimodule_iso_unpointed(modulate(identity_hom(qq)),
                                 modulate(identity_hom(qq)))
    assert got is not None


def _intertwines(x, m1, m2):
    return all(x @ a1 == a2 @ x
               for a1, a2 in zip(m1.left_action + m1.right_action,
                                 m2.left_action + m2.right_action))


def test_affine_intertwiner_space_solves_its_equations():
    """Every point the solver returns intertwines, checked by products.

    Hom-space pairs end_morphism(f), end_morphism(g) have only the scalars
    as intertwiners, so one direction is expected, and a pointed solution
    exists whenever g is a multiple of f.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def check(seed, hom_space):
        rng = random.Random(seed)
        if hom_space:
            f = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            parallel = rng.random() < 0.5
            g = (f.scale(random_fraction(rng)) if parallel
                 else random_matrix(rng, f.rows, f.cols))
            m1, m2 = end_morphism(f), end_morphism(g)
        else:
            f, g = random_hom_pair(rng, max_dim=3)
            m1, m2 = modulate(f), modulate(g)
        for pointed in (False, True):
            space = _affine_intertwiner_space(m1, m2, pointed)
            if hom_space and (not pointed or parallel):
                assert space is not None
            if space is None:
                assert pointed
                continue
            particular, directions = space
            assert _intertwines(particular, m1, m2)
            assert all(_intertwines(d, m1, m2) for d in directions)
            if hom_space and not pointed:
                assert len(directions) == 1
            if pointed:
                assert particular.apply(m1.pointing) == m2.pointing
                assert not any(x for d in directions
                               for x in d.apply(m1.pointing))

    check()


def test_end_morphism_identity_is_regular():
    ident = Matrix.identity(2)
    assert end_morphism(ident) == regular_bimodule(matrix_algebra(2))


def test_end_morphism_shapes_and_sides():
    f = Matrix.from_rows([[1, 2, 0], [0, 1, 1]])  # V of dim 3 -> W of dim 2
    m = end_morphism(f)
    assert m.left == matrix_algebra(2)
    assert m.right == matrix_algebra(3)
    assert m.dim == 6
    assert m.pointing == flatten_matrix(f)


@pytest.mark.parametrize("nw,nv", [(1, 1), (1, 3), (3, 1), (2, 3), (3, 2),
                                   (4, 4)])
def test_end_morphism_matches_kronecker_oracle(nw, nv):
    f = random_matrix(random.Random(nw * 10 + nv), nw, nv)
    m = end_morphism(f)
    left, right = hom_space_actions(nw, nv)
    assert m.left == matrix_algebra(nw) and m.right == matrix_algebra(nv)
    assert m.dim == nw * nv
    assert list(m.left_action) == left and list(m.right_action) == right
    assert m.pointing == flatten_matrix(f)


@pytest.mark.parametrize("nw,nv", [(2, 3), (3, 2)])
def test_end_morphism_actions_pass_validation(nw, nv):
    f = random_matrix(random.Random(5), nw, nv)
    m = end_morphism(f)
    again = make_bimodule(m.left, m.right, m.left_action, m.right_action,
                          m.pointing)
    assert again == m


def test_end_morphism_same_shape_shares_actions_not_pointing():
    rng = random.Random(8)
    f, g = random_matrix(rng, 2, 3), random_matrix(rng, 2, 3)
    assert f != g
    mf, mg = end_morphism(f), end_morphism(g)
    assert (mf.left, mf.right, mf.left_action, mf.right_action) == \
        (mg.left, mg.right, mg.left_action, mg.right_action)
    assert mf.pointing == flatten_matrix(f)
    assert mg.pointing == flatten_matrix(g)


def test_end_morphism_rejects_dim_zero():
    with pytest.raises(ContractViolation):
        end_morphism(Matrix.zeros(0, 2))


def test_end_morphism_invertible_matches_conjugation():
    u = Matrix.from_rows([[2, 1], [1, 1]])
    got = bimodule_iso_pointed(end_morphism(u),
                               modulate(conjugation_hom(2, u)))
    assert got is not None


def test_end_morphism_zero_map():
    z = Matrix.zeros(2, 2)
    m = end_morphism(z)
    assert m.pointing == (0, 0, 0, 0)
    t = tensor_over(m, end_morphism(Matrix.identity(2)))
    assert all(x == 0 for x in t.pointing)


def test_end_compose_identity():
    rep = end_compose_check(Matrix.identity(2), Matrix.identity(2))
    assert rep.passed


def test_end_compose_random():
    rng = random.Random(31)
    for _ in range(6):
        f = random_matrix(rng, 2, 2)
        g = random_matrix(rng, 2, 2)
        rep = end_compose_check(f, g)
        assert rep.passed
        assert rep.witness is not None


def test_end_compose_zero():
    g = Matrix.from_rows([[1, 2], [3, 4]])
    rep = end_compose_check(Matrix.zeros(2, 2), g)
    assert rep.passed


def test_end_compose_rectangular():
    rng = random.Random(37)
    f = random_matrix(rng, 2, 3)   # V dim 3 -> W dim 2
    g = random_matrix(rng, 3, 2)   # W dim 2 -> X dim 3
    rep = end_compose_check(f, g)
    assert rep.passed


def test_end_morphism_states_are_rays():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 3)
        v = (rng.randint(1, 3),) + tuple(rng.randint(-3, 3) for _ in range(n - 1))
        lam = Fraction(rng.choice([-2, 2, 3]))
        state = end_morphism(Matrix.column(v))
        rescaled = end_morphism(Matrix.column(tuple(lam * x for x in v)))
        assert bimodule_iso_pointed(state, rescaled) is not None
        # v + e_last is off the line of v, since v[0] != 0
        off = end_morphism(Matrix.column(v[:-1] + (v[-1] + 1,)))
        assert bimodule_iso_pointed(state, off) is None


def test_tensor_over_a_zero_dimensional_factor():
    m2, k = matrix_algebra(2), field_algebra()

    def zero_module(left, right):
        return make_bimodule(left, right, [Matrix.zeros(0, 0)] * left.dim,
                             [Matrix.zeros(0, 0)] * right.dim, ())

    # a zero-dimensional factor leaves nothing to tensor, on either side
    for t in (tensor_over(regular_bimodule(m2), zero_module(m2, k)),
              tensor_over(zero_module(k, m2), regular_bimodule(m2))):
        assert (t.dim, t.pointing) == (0, ())


def test_modulate_projectivity():
    rng = random.Random(47)
    for _ in range(8):
        n = rng.randint(2, 3)
        u = random_invertible(rng, n)
        lam = Fraction(rng.choice([-3, -2, 2, 5]))
        assert modulate(conjugation_hom(n, u)) == \
            modulate(conjugation_hom(n, u.scale(lam)))


# -- the tensor_over memo ----------------------------------------------------


def _same_tensor(m1, m2):
    """tensor_over(m1, m2) equals the memo-free oracle field for field and
    carries the caller's algebras; returns it."""
    from oracles import uncached_tensor_over

    out, ref = tensor_over(m1, m2), uncached_tensor_over(m1, m2)
    # the oracle may build Fraction(1) where the memo hands back 1: equal values
    for f in fields(out):
        assert getattr(out, f.name) == getattr(ref, f.name)
    assert out.left is m1.left and out.right is m2.right
    assert out.left.generators == m1.left.generators
    assert out.right.generators == m2.right.generators
    return out


def _tensor_memo_cases(rng):
    """Pairs of factors: same-shape end_morphism chains, modulations, and
    algebras equal up to their generators."""
    pairs = []
    for n in (1, 2, 3):
        # a costate, n x n factors, a state: one shape each, new pointings
        chain = ([end_morphism(random_matrix(rng, 1, n))]
                 + [end_morphism(random_matrix(rng, n, n)) for _ in range(3)]
                 + [end_morphism(random_matrix(rng, n, 1))])
        left = chain[0]
        for f in chain[1:]:
            pairs.append((left, f))
            left = tensor_over(left, f)
        right = chain[-1]
        for f in reversed(chain[:-1]):
            pairs.append((f, right))
            right = tensor_over(f, right)
        a, b = chain[1], chain[2]
        pairs += [(a, b), (b, a)]
    for _ in range(4):
        f, g = random_composable_hom_pair(rng, max_dim=3)
        pairs.append((modulate(f), modulate(g)))
    m2 = matrix_algebra(2)
    # M_2 generated by its whole basis: equal to m2, other generators
    wide = replace(m2, generators=tuple(range(m2.dim)))
    assert wide == m2 and wide.generators != m2.generators
    x, y = (end_morphism(random_matrix(rng, 2, 2)) for _ in range(2))
    pairs += [(x, y), (replace(x, left=wide), replace(y, right=wide)),
              (replace(x, right=wide), replace(y, left=wide))]
    return pairs


def test_tensor_memo_matches_the_uncached_oracle_cold_and_warm():
    pairs = _tensor_memo_cases(random.Random(41))
    bimodule._tensor_shape.cache_clear()
    for m1, m2 in pairs:
        _same_tensor(m1, m2)
    cold = bimodule._tensor_shape.cache_info()
    assert cold.hits > 0  # same-shape factors share one entry even when cold
    for m1, m2 in pairs:
        _same_tensor(m1, m2)
    warm = bimodule._tensor_shape.cache_info()
    assert warm.misses == cold.misses
    assert warm.hits == cold.hits + len(pairs)


def test_tensor_memo_stays_at_its_size_and_recomputes_an_evicted_pair():
    size = bimodule._tensor_shape.cache_parameters()["maxsize"]
    assert size is not None
    m2 = regular_bimodule(matrix_algebra(2))
    # conjugation by [[1, k], [0, 1]]: a distinct left action for each k
    mods = [modulate(conjugation_hom(2, Matrix.from_rows([[1, k], [0, 1]])))
            for k in range(size + 3)]
    bimodule._tensor_shape.cache_clear()
    first = _same_tensor(mods[0], m2)
    for mod in mods[1:]:
        tensor_over(mod, m2)
    info = bimodule._tensor_shape.cache_info()
    assert (info.misses, info.currsize) == (size + 3, size)
    assert _same_tensor(mods[0], m2) == first
    info = bimodule._tensor_shape.cache_info()
    assert (info.misses, info.currsize) == (size + 4, size)
