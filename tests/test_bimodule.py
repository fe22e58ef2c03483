import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from oracles import hom_space_actions
from skeinalg.algebra import (conjugation_hom, field_algebra,
                              flatten_matrix, identity_hom, make_hom,
                              matrix_algebra, product_field_algebra,
                              scalar_inclusion_hom)
from skeinalg import bimodule
from skeinalg.bimodule import (TENSOR_MAX_AMBIENT_DIM,
                               _affine_intertwiner_space, annihilator_left,
                               annihilator_right, bimodule_iso_pointed,
                               bimodule_iso_unpointed, conjugator_between,
                               end_compose_check, end_morphism,
                               ideal_quotient_module, make_bimodule,
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


def test_make_bimodule_rejects_floats():
    k = field_algebra()
    ident = Matrix.identity(1)
    for left, right, point in (([ident], [ident], (0.5,)),
                               ([Matrix(1, 1, (1.0,))], [ident], (1,)),
                               ([ident], [Matrix(1, 1, (1.0,))], (1,))):
        with pytest.raises(ContractViolation, match="float"):
            make_bimodule(k, k, left, right, point)
    with pytest.raises(ContractViolation, match="float"):
        end_morphism(Matrix(1, 1, (0.5,)))


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

    def no_relations(pcols, qcols):
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


def test_annihilator_left_examples():
    basis = annihilator_left(2, (1, 0))
    assert len(basis) == 2
    # annihilator of e1 is spanned by E(0,1) and E(1,1): second column only
    for v in basis:
        assert v[0] == 0 and v[2] == 0
    assert len(annihilator_left(2, (0, 0))) == 4
    basis2 = annihilator_left(2, (1, 1))
    assert len(basis2) == 2
    for v in basis2:
        m = Matrix(2, 2, v)
        assert m.apply((1, 1)) == (0, 0)


def test_annihilator_right():
    basis = annihilator_right(2, (0, 1))
    assert len(basis) == 2
    for v in basis:
        m = Matrix(2, 2, v)
        # w a = 0 for w = (0, 1): bottom row vanishes
        assert m[1, 0] == 0 and m[1, 1] == 0


def test_annihilator_scale_invariance():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 3)
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        lam = Fraction(rng.choice([-2, 2, 3]))
        assert annihilator_left(n, v) == \
            annihilator_left(n, tuple(lam * x for x in v))


def test_ideal_quotient_trivial_ideal():
    m2 = matrix_algebra(2)
    q = ideal_quotient_module(m2, [], "left")
    assert q.dim == 4
    assert q.pointing == m2.unit


def test_ideal_quotient_annihilator():
    m2 = matrix_algebra(2)
    ideal = annihilator_left(2, (1, 0))
    q = ideal_quotient_module(m2, ideal, "left")
    assert q.dim == 2
    # isomorphic as a left module to the column space hom(K, V)
    col = end_morphism(Matrix.column((1, 0)))
    assert bimodule_iso_unpointed(q, col) is not None


def test_ideal_quotient_full_ideal():
    m2 = matrix_algebra(2)
    full = [tuple(1 if i == k else 0 for i in range(4)) for k in range(4)]
    q = ideal_quotient_module(m2, full, "left")
    assert q.dim == 0
    assert q.pointing == ()


def test_ideal_quotient_rejects_non_ideal():
    m2 = matrix_algebra(2)
    # span{E(0,0)} is not a left ideal of M2
    with pytest.raises(ValidationError, match="escapes"):
        ideal_quotient_module(m2, [(1, 0, 0, 0)], "left")


def test_ideal_quotient_right_side():
    m2 = matrix_algebra(2)
    ideal = annihilator_right(2, (1, 0))
    q = ideal_quotient_module(m2, ideal, "right")
    assert q.dim == 2
    assert q.left == field_algebra()


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
    # a hit may hand back Fraction(1) where the oracle builds 1: equal values
    for f in fields(out):
        assert getattr(out, f.name) == getattr(ref, f.name)
    assert out.left is m1.left and out.right is m2.right
    assert out.left.generators == m1.left.generators
    assert out.right.generators == m2.right.generators
    return out


def _tensor_memo_cases(rng):
    """Pairs of factors: same-shape end_morphism chains, modulations, ideal
    quotient modules, and algebras equal up to their generators."""
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
    v = (rng.randint(1, 3), rng.randint(-3, 3))
    pairs.append((regular_bimodule(m2, flatten_matrix(random_matrix(rng, 2, 2))),
                  ideal_quotient_module(m2, annihilator_left(2, v), "left")))
    pairs.append((ideal_quotient_module(m2, annihilator_right(2, v), "right"),
                  end_morphism(random_matrix(rng, 2, 2))))
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
