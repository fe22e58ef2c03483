import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from oracles import (side_by_side, stack, tagged_annulus_closure,
                     tagged_plane_closure, tagged_rewrites)

from skeinalg.errors import ContractViolation, ValidationError
from skeinalg.laurent import LaurentPoly
from skeinalg.tangles import braid_to_slices, interpret_tangle
from skeinalg.tl import (CATALAN_MAX_N, TL_BASIS_MAX_POINTS, AnnularClass,
                         TLDiagram, TLMorphism, _closure_windings, _rewrites,
                         annulus_closure_eval, catalan, crossing_resolution,
                         delta, plane_closure, tl_basis, tl_cap, tl_compose,
                         tl_cup, tl_e, tl_from_diagram, tl_identity, tl_tensor)


def P(d):
    return LaurentPoly.from_dict(d)


def all_matchings(points):
    """Brute-force oracle: every perfect matching as a frozenset of pairs."""
    if not points:
        yield frozenset()
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        for sub in all_matchings(rest[:k] + rest[k + 1:]):
            yield sub | {frozenset((first, other))}


def crossing_free(matching):
    for p, q in itertools.combinations(matching, 2):
        a, b = sorted(p)
        c, d = sorted(q)
        if a < c < b < d or c < a < d < b:
            return False
    return True


@pytest.mark.parametrize("nb,nt", [(1, 1), (2, 0), (0, 2), (2, 2), (3, 3),
                                   (4, 2), (5, 1), (0, 0)])
def test_basis_matches_bruteforce(nb, nt):
    """Enumerate all matchings, filter the planar ones, compare."""
    n = nb + nt
    planar = [m for m in all_matchings(tuple(range(n))) if crossing_free(m)]
    got = tl_basis(nb, nt)
    assert len(got) == len(planar)
    got_sets = {frozenset(frozenset((i, d.mate[i])) for i in range(n)
                          if d.mate[i] > i) for d in got}
    assert got_sets == set(planar)


def test_basis_rejects_bad_sizes_before_enumerating():
    for nb, nt in ((-1, 1), (2, -2), (-1, -1)):
        with pytest.raises(ContractViolation,
                           match="n_(bottom|top) must be an int >= 0"):
            tl_basis(nb, nt)
    assert len(tl_basis(TL_BASIS_MAX_POINTS - 2, 2)) == \
        catalan(TL_BASIS_MAX_POINTS // 2)
    # a start on (1000, 1000) would recurse past the interpreter's limit
    for nb, nt in ((TL_BASIS_MAX_POINTS, 1), (11, 11), (30, 30), (1000, 1000)):
        with pytest.raises(ContractViolation, match="at most"):
            tl_basis(nb, nt)


def test_catalan_is_exact_up_to_its_cap_and_refuses_past_it():
    n = CATALAN_MAX_N
    assert catalan(n) == comb(2 * n, n) // (n + 1)
    with pytest.raises(ContractViolation, match="exceeds CATALAN_MAX_N"):
        catalan(n + 1)


def test_basis_comes_out_in_strictly_increasing_mate_order():
    for n in range(0, 15, 2):
        for nb in range(n + 1):
            mates = [d.mate for d in tl_basis(nb, n - nb)]
            assert len(mates) == catalan(n // 2)
            assert all(a < b for a, b in zip(mates, mates[1:]))


def test_odd_total_gives_empty_homspace():
    assert tl_basis(2, 1) == []
    assert TLMorphism(2, 1).is_zero


def test_diagram_validation():
    with pytest.raises(ValidationError):
        TLDiagram(2, 2, (2, 3, 0, 1))  # crossing matching
    with pytest.raises(ValidationError):
        TLDiagram(2, 0, (0, 1))  # not an involution without fixed points


def test_compose_e_squared():
    e = tl_e(2, 0)
    assert tl_compose(e, e) == e.scaled(delta())


def test_compose_cancels_to_the_zero_morphism():
    # e e = delta e, so e (delta id - e) = (delta id - e) e = 0: every
    # coefficient cancels inside the fold and every table is dropped
    e = tl_e(2, 0)
    rest = tl_identity(2).scaled(delta()) - e
    for f, g in ((e, rest), (rest, e)):
        got = tl_compose(f, g)
        assert got.is_zero
        assert (got.n_bottom, got.n_top) == (2, 2)


def _random_morphism(rng, nb, nt):
    """A Laurent combination of up to four basis diagrams; now and then 0."""
    basis = tl_basis(nb, nt)
    if not basis or rng.random() < 0.1:
        return TLMorphism(nb, nt)
    return TLMorphism(nb, nt, {
        d: P({rng.randint(-3, 3): rng.choice((-2, -1, 1, 2)),
              rng.randint(-3, 3): rng.randint(-1, 1)})
        for d in rng.sample(basis, rng.randint(1, min(4, len(basis))))})


def _width(rng, parity):
    return rng.randrange(parity % 2, 7, 2) if rng.random() < 0.9 \
        else rng.randint(0, 6)


def test_compose_and_tensor_match_the_union_find_oracle():
    rng = random.Random(73)
    fixed = [(tl_cup(), tl_cap()), (tl_e(4, 1), tl_e(4, 1)),
             (tl_identity(0), tl_identity(0)), (TLMorphism(2, 4), tl_e(4, 0)),
             (tl_cap(), TLMorphism(0, 6)), (TLMorphism(1, 3), TLMorphism(3, 3))]
    for f, g in fixed:
        assert tl_compose(f, g) == stack(f, g)
    assert stack(tl_cup(), tl_cap()) == tl_identity(0).scaled(delta())
    for _ in range(150):
        b = rng.randint(0, 6)
        f = _random_morphism(rng, _width(rng, b), b)
        g = _random_morphism(rng, b, _width(rng, b))
        assert tl_compose(f, g) == stack(f, g)
        hb = rng.randint(0, 6)
        h = _random_morphism(rng, hb, _width(rng, hb))
        assert tl_tensor(f, h) == side_by_side(f, h)
        assert tl_tensor(h, g) == side_by_side(h, g)


def test_compose_identity_neutral():
    rng = random.Random(61)
    for _ in range(5):
        diagrams = tl_basis(3, 3)
        f = tl_from_diagram(rng.choice(diagrams),
                            P({rng.randint(-2, 2): rng.randint(1, 3)}))
        assert tl_compose(tl_identity(3), f) == f
        assert tl_compose(f, tl_identity(3)) == f


def test_compose_cap_cup_closed_loop():
    got = tl_compose(tl_cup(), tl_cap())  # cup then cap: a free circle
    assert got.n_bottom == 0 and got.n_top == 0
    (coeff,) = got.terms.values()
    assert coeff == delta()


def test_compose_width_mismatch():
    with pytest.raises(ContractViolation):
        tl_compose(tl_identity(2), tl_identity(3))


def test_tensor_identities():
    assert tl_tensor(tl_identity(1), tl_identity(1)) == tl_identity(2)
    e1 = tl_tensor(tl_e(2, 0), tl_identity(1))
    assert e1 == tl_e(3, 0)


def test_tensor_bilinearity():
    rng = random.Random(67)
    basis22 = tl_basis(2, 2)
    for _ in range(5):
        d1, d2, d3 = (rng.choice(basis22) for _ in range(3))
        c1, c2, c3 = (P({rng.randint(-2, 2): rng.randint(-3, 3) or 1})
                      for _ in range(3))
        f = tl_from_diagram(d1, c1) + tl_from_diagram(d2, c2)
        g = tl_from_diagram(d3, c3)
        lhs = tl_tensor(f, g)
        rhs = tl_tensor(tl_from_diagram(d1, c1), g) + \
            tl_tensor(tl_from_diagram(d2, c2), g)
        assert lhs == rhs


def test_associativity_and_interchange_property():
    """On Laurent combinations of hom(2, 2) basis diagrams, monomial
    multiples of a single diagram included, composition is associative and
    obeys the interchange law with the tensor product."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3),
                             min_size=1, max_size=3).map(P)
    morphisms = st.dictionaries(st.sampled_from(tl_basis(2, 2)), coeffs,
                                max_size=2).map(lambda t: TLMorphism(2, 2, t))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(morphisms, morphisms, morphisms, morphisms)
    def check(f, g, fp, gp):
        assert tl_compose(tl_compose(f, g), fp) == \
            tl_compose(f, tl_compose(g, fp))
        assert tl_compose(tl_tensor(f, g), tl_tensor(fp, gp)) == \
            tl_tensor(tl_compose(f, fp), tl_compose(g, gp))

    check()


@pytest.mark.parametrize("n", range(2, 6))
def test_tl_relations(n):
    d = delta()
    for i in range(n - 1):
        e = tl_e(n, i)
        assert tl_compose(e, e) == e.scaled(d)
        if i + 1 <= n - 2:
            f = tl_e(n, i + 1)
            assert tl_compose(tl_compose(e, f), e) == e
            assert tl_compose(tl_compose(f, e), f) == f
        for j in range(i + 2, n - 1):
            f = tl_e(n, j)
            assert tl_compose(e, f) == tl_compose(f, e)


def test_crossing_coefficients():
    pos = crossing_resolution(1)
    ident = tl_identity(2)
    e = tl_e(2, 0)
    (id_diag,) = ident.terms
    (e_diag,) = e.terms
    assert pos.terms == {id_diag: P({1: 1}), e_diag: P({-1: 1})}


def test_crossing_resolution_is_identity_plus_hook():
    for s in (1, -1):
        assert crossing_resolution(s) == (tl_identity(2).scaled(P({s: 1}))
                                          + tl_e(2, 0).scaled(P({-s: 1})))


def test_crossing_sign_must_be_an_int_unit():
    for bad in (0, 2, 1.0, -1.0, True, Fraction(1), "1"):
        with pytest.raises(ContractViolation, match="sign"):
            crossing_resolution(bad)


def test_coefficients_must_be_ints_or_laurent_polynomials():
    (d,) = tl_basis(1, 1)
    assert TLMorphism(1, 1, {d: 3}).terms == {d: P({0: 3})}
    assert AnnularClass({0: 3}) == AnnularClass({0: P({0: 3})})
    assert TLMorphism(1, 1, {d: 0}).is_zero and AnnularClass({2: 0}).coeffs == {}
    for bad in (Fraction(1, 2), Fraction(2), 1.5, 0.0, "1", "", True):
        with pytest.raises(ContractViolation, match="int or a LaurentPoly"):
            TLMorphism(1, 1, {d: bad})
        with pytest.raises(ContractViolation, match="int or a LaurentPoly"):
            AnnularClass({0: bad})
        with pytest.raises(ContractViolation, match="int or a LaurentPoly"):
            tl_identity(1).scaled(bad)


def test_z_degrees_must_be_non_negative_ints():
    assert AnnularClass({0: 1, 3: 2}).text() == "AnnularClass((1)*z^0 + (2)*z^3)"
    # "1" once printed like the int 1 yet compared unequal to it
    for bad in (0.5, 1.0, -1, "1", True, Fraction(1), None):
        with pytest.raises(ContractViolation, match="z-degree"):
            AnnularClass({bad: 1})
        with pytest.raises(ContractViolation, match="z-degree"):
            AnnularClass({bad: 0})


def test_crossing_mirror_symmetry():
    pos, neg = crossing_resolution(1), crossing_resolution(-1)
    for diag, coeff in pos.terms.items():
        assert neg.terms[diag] == coeff.mirrored()


def test_reidemeister_two():
    assert tl_compose(crossing_resolution(1), crossing_resolution(-1)) == \
        tl_identity(2)


def test_plane_closure_examples():
    d = delta()
    assert plane_closure(tl_identity(2)) == d * d
    assert plane_closure(tl_e(2, 0)) == d
    # closure of a single positive crossing is a one-curl unknot
    got = plane_closure(crossing_resolution(1))
    assert got == P({1: 1}) * d * d + P({-1: 1}) * d
    assert got == P({3: -1}) * d  # = -A^3 * delta after simplification
    assert plane_closure(tl_identity(0)) == 1


def test_annulus_id1_is_core():
    assert annulus_closure_eval(tl_identity(1)) == AnnularClass({1: 1})


def test_annulus_e_is_contractible():
    assert annulus_closure_eval(tl_e(2, 0)) == AnnularClass({0: delta()})


def test_annulus_linear_over_terms():
    m = crossing_resolution(1)
    got = annulus_closure_eval(m)
    assert got == AnnularClass({2: P({1: 1}), 0: P({-1: 1}) * delta()})


def test_annular_class_arithmetic():
    z = AnnularClass({1: 1})
    assert z * z == AnnularClass({2: 1})
    assert (z + z) * z == AnnularClass({2: 2})
    assert AnnularClass({0: delta()}) * z == AnnularClass({1: delta()})


def test_closures_need_square_morphisms():
    with pytest.raises(ContractViolation):
        annulus_closure_eval(tl_cup())
    with pytest.raises(ContractViolation):
        plane_closure(tl_cap())


def _random_coefficient(rng):
    """Never zero: on a repeated exponent the later, nonzero entry wins."""
    return P({rng.randint(-4, 4): rng.randint(-1, 1),
              rng.randint(-4, 4): rng.choice((-2, -1, 1, 2))})


def _assert_closures_match_the_tagged_walk(m):
    # walked from its smallest circular index, a core-parallel curve
    # crosses its closure arcs from the top row: winding +1 on every
    # diagram of at most 16 points, so this pins the sign convention
    for diag in m.terms:
        assert set(_closure_windings(diag)) <= {0, 1}
    got, want = annulus_closure_eval(m), tagged_annulus_closure(m)
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)  # the JSON key order
    assert plane_closure(m) == tagged_plane_closure(m)


def test_closures_match_the_tagged_walk_on_every_basis_diagram():
    rng = random.Random(2019)
    for n in range(6):
        basis = tl_basis(n, n)
        for d in basis:
            _assert_closures_match_the_tagged_walk(
                tl_from_diagram(d, _random_coefficient(rng)))
        _assert_closures_match_the_tagged_walk(TLMorphism(
            n, n, {d: _random_coefficient(rng) for d in basis}))


def test_closures_match_the_tagged_walk_on_random_braids():
    rng = random.Random(1991)
    for _ in range(200):
        n = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(0, 12))]
        _assert_closures_match_the_tagged_walk(
            interpret_tangle(braid_to_slices(word, n)))


def test_rewrites_match_the_pairs_reference():
    rng = random.Random(8)
    for total in range(0, 9, 2):
        for nb in range(total + 1):
            m = TLMorphism(nb, total - nb, {
                d: _random_coefficient(rng)
                for d in tl_basis(nb, total - nb)})
            assert _rewrites(m) == tagged_rewrites(m)
