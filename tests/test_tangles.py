import random
from dataclasses import replace

import pytest
from oracles import literal_fold, literal_state_sum

from skeinalg import tangles, tl
from skeinalg.errors import ContractViolation, TangleShapeError
from skeinalg.laurent import LaurentPoly
from skeinalg.samples import random_braid
from skeinalg.tangles import (CAP, CLOSED_BRAID_MAX_STRANDS, CUP, ID,
                              Event, SliceTangle, bracket_state_sum,
                              braid_to_slices, cable_double,
                              closed_braid_tangle, coupon, cross,
                              insert_slices, interpret_tangle, kauffman_bracket,
                              kink_slices, tangle, twist, writhe)
from skeinalg.tl import (TLMorphism, crossing_resolution, delta, plane_closure,
                         tl_basis, tl_compose, tl_e, tl_identity)


def P(d):
    return LaurentPoly.from_dict(d)


# pinned by the independent state-sum enumerator (and checked against it
# on every run below): the closure of s1^3 on two strands
TREFOIL_BRACKET = P({7: 1, 3: 1, -1: 1, -9: -1})


def test_unknot_is_delta():
    t = tangle(0, [[CUP], [CAP]])
    assert kauffman_bracket(t) == delta()


def test_zigzag_snake_is_identity():
    t = tangle(1, [[CUP, ID], [ID, CAP]])
    assert interpret_tangle(t) == tl_identity(1)
    t2 = tangle(1, [[ID, CUP], [CAP, ID]])
    assert interpret_tangle(t2) == tl_identity(1)


def test_twist_cancellation():
    t = tangle(1, [[twist(1)], [twist(-1)]])
    assert interpret_tangle(t) == tl_identity(1)


def test_twist_scalars():
    assert interpret_tangle(tangle(1, [[twist(1)]])) == \
        tl_identity(1).scaled(P({3: -1}))
    assert interpret_tangle(tangle(1, [[twist(-1)]])) == \
        tl_identity(1).scaled(P({-3: -1}))


def test_kink_matches_twist_scalar():
    """The geometric curl equals the twist event of the same sign."""
    for sign in (1, -1):
        k = tangle(1, kink_slices(1, 0, sign))
        assert interpret_tangle(k) == \
            interpret_tangle(tangle(1, [[twist(sign)]]))


def test_width_mismatch_reports_slice():
    with pytest.raises(TangleShapeError, match="slice 1"):
        tangle(0, [[CUP], [CAP, CAP]])
    with pytest.raises(TangleShapeError, match="slice 1"):
        SliceTangle(0, ((CUP,), (CAP, CAP)))


def test_widths_are_stored_and_ignored_by_eq_and_hash():
    t = tangle(0, [[CUP], [ID, CUP, ID], [ID, CAP, ID]])
    assert t.widths == (0, 2, 4, 2)
    assert (t.widths[-1], t.is_closed) == (2, False)
    again = SliceTangle(0, t.slices)
    assert again == t and hash(again) == hash(t)
    assert "widths" not in repr(t)
    assert replace(t, slices=t.slices + ((CAP,),)).widths == (0, 2, 4, 2, 0)


def test_event_signs_must_be_int_units():
    for bad in (0, 2, 1.0, -1.0, True, "1"):
        with pytest.raises(ContractViolation, match="crossing sign"):
            cross(bad)
        with pytest.raises(ContractViolation, match="twist sign"):
            twist(bad)


def test_events_of_a_sign_are_shared():
    assert cross(1) is cross(1) and twist(-1) is twist(-1)
    assert cross(1) is not cross(-1) and cross(1) == Event("cross", 1)
    for bad, make in ((0, cross), (True, cross), (2, twist)):
        with pytest.raises(ContractViolation, match="sign"):
            make(bad)


def test_events_check_their_kind_and_sign():
    for args in (("twist", 5), ("cross", 2), ("cross", True), ("cross", 0),
                 ("id", 1), ("bogus",)):
        with pytest.raises(ContractViolation):
            Event(*args)
    assert Event("twist", -1) == twist(-1)
    assert coupon(tl_identity(2)).widths() == (2, 2)


def test_braid_to_slices():
    t = braid_to_slices([], 2)
    assert interpret_tangle(t) == tl_identity(2)
    t = braid_to_slices([1], 2)
    assert interpret_tangle(t) == crossing_resolution(1)
    with pytest.raises(ContractViolation):
        braid_to_slices([2], 2)


def test_closed_braid_strands_are_capped_before_any_slice():
    n = CLOSED_BRAID_MAX_STRANDS
    # the closure of s1 on n strands is an unknot and n - 2 unlinked circles
    assert kauffman_bracket(closed_braid_tangle([1], n)) == \
        kauffman_bracket(closed_braid_tangle([1], 2)) * delta() ** (n - 2)
    with pytest.raises(ContractViolation, match="CLOSED_BRAID_MAX_STRANDS"):
        closed_braid_tangle([1], n + 1)
    # the open braid has the same cap, so tl closure and tl annulus do too
    assert braid_to_slices([1], n).widths[0] == n
    with pytest.raises(ContractViolation, match="CLOSED_BRAID_MAX_STRANDS"):
        braid_to_slices([1], n + 1)


def test_trefoil_bracket_regression():
    t = closed_braid_tangle([1, 1, 1], 2)
    assert kauffman_bracket(t) == TREFOIL_BRACKET
    assert bracket_state_sum(t) == TREFOIL_BRACKET


def test_mirror_trefoil():
    t = closed_braid_tangle([-1, -1, -1], 2)
    assert kauffman_bracket(t) == TREFOIL_BRACKET.mirrored()


def test_two_unknots_multiply():
    t = tangle(0, [[CUP], [ID, CUP, ID], [ID, CAP, ID], [CAP]])
    d = delta()
    assert kauffman_bracket(t) == d * d


def test_state_sum_rejects_open_tangle():
    with pytest.raises(TangleShapeError):
        bracket_state_sum(braid_to_slices([1], 2))


def test_state_sum_agrees_on_corpus():
    corpus = [
        closed_braid_tangle([], 1),                      # unknot
        closed_braid_tangle([1], 2),                     # one-curl unknot
        closed_braid_tangle([1, 1], 2),                  # Hopf link
        closed_braid_tangle([-1, -1], 2),                # mirror Hopf
        closed_braid_tangle([1, 1, 1], 2),               # trefoil
        closed_braid_tangle([1, 1, 1, 1, 1], 2),         # (2,5) torus knot
        closed_braid_tangle([1, -2, 1, -2], 3),          # figure eight
        closed_braid_tangle([1, 1, 2, 2], 3),
        closed_braid_tangle([1, 2, 1, 2, 1, 2], 3),      # (3,3) torus link
        closed_braid_tangle([1, -2, 3, -2, 1, 3], 4),
        closed_braid_tangle([1, 2, 3, 1, 2, 3, 1, 2], 4),
        tangle(0, [[CUP], [ID, CUP, ID], [cross(1), cross(-1)],
                   [ID, CAP, ID], [CAP]]),
    ]
    for t in corpus:
        assert t.crossing_count() <= 8
        assert plane_closure(interpret_tangle(t)) == bracket_state_sum(t)


def test_bracket_runtime_crosscheck_is_on_by_default():
    # the bracket recomputes small brackets through the state sum
    t = closed_braid_tangle([1, -1], 2)
    assert kauffman_bracket(t) == delta() * delta()


def test_r1_scales_bracket():
    rng = random.Random(73)
    minus_a3 = P({3: -1})
    for _ in range(10):
        word, n = random_braid(rng, 4, 3)
        base_tangle = closed_braid_tangle(word, n)
        base = kauffman_bracket(base_tangle)
        for sign in (1, -1):
            wire = rng.randrange(2 * n)
            t2 = insert_slices(base_tangle, n + len(word),
                               kink_slices(2 * n, wire, sign))
            got = kauffman_bracket(t2)
            assert got == (minus_a3 ** sign) * base


def test_r2_r3_invariance_small():
    rng = random.Random(79)
    for _ in range(15):
        word, n = random_braid(rng, 5, 4)
        base = kauffman_bracket(closed_braid_tangle(word, n))
        pos = rng.randint(0, len(word))
        g = rng.randint(1, n - 1)
        w2 = word[:pos] + [g, -g] + word[pos:]
        assert kauffman_bracket(closed_braid_tangle(w2, n)) == base
        if n >= 3:
            g = rng.randint(1, n - 2)
            s = rng.choice([1, -1])
            wa = word[:pos] + [s * g, s * (g + 1), s * g] + word[pos:]
            wb = word[:pos] + [s * (g + 1), s * g, s * (g + 1)] + word[pos:]
            assert kauffman_bracket(closed_braid_tangle(wa, n)) \
                == kauffman_bracket(closed_braid_tangle(wb, n))


def test_writhe():
    assert writhe(closed_braid_tangle([1, 1, -1], 2)) == 1
    assert writhe(tangle(1, [[twist(1)], [twist(1)]])) == 2


def test_coupon_widths():
    m = tl_compose(tl_identity(2), crossing_resolution(1))
    t = tangle(2, [[coupon(m)]])
    assert interpret_tangle(t) == m


def test_coupon_fold_cancels_to_the_zero_morphism():
    e = tl_e(2, 0)
    rest = tl_identity(2).scaled(delta()) - e
    for first, second in ((e, rest), (rest, e)):
        got = interpret_tangle(tangle(2, [[coupon(first)], [coupon(second)]]))
        assert got.is_zero
        assert (got.n_bottom, got.n_top) == (2, 2)


def test_coupon_tangles_hash_like_their_equals(monkeypatch):
    e, e_again, twice = tl_e(2, 0), tl_e(2, 0), tl_identity(2).scaled(2)
    t = tangle(2, [[coupon(e)], [coupon(twice)]])
    same = tangle(2, [[coupon(e_again)], [coupon(twice.scaled(1))]])
    assert t == same and hash(t) == hash(same)
    assert coupon(e) != coupon(twice)
    assert len({coupon(e), coupon(e_again), coupon(twice)}) == 2
    # the fold plans each distinct event once
    seen = []
    plan = tangles._plan
    monkeypatch.setattr(tangles, "_plan",
                        lambda m: seen.append(m) or plan(m))
    t = tangle(2, [[coupon(e)], [coupon(e_again)], [coupon(twice)],
                   [coupon(e)]])
    assert interpret_tangle(t) == e.scaled(2 * delta() * delta())
    assert seen == [e, twice]


def test_fold_matches_full_width_stacking_on_every_coupon_path():
    ident, e = tl_identity(2), tl_e(2, 0)
    coupons = [
        ident.scaled(P({3: 2})) + e,            # a non-unit monomial identity
        ident.scaled(P({0: 1, 1: 1})) + e,      # a two-term identity factor
        e.scaled(P({1: 1})) - tl_compose(e, crossing_resolution(-1)),
    ]
    for m in coupons:
        t = tangle(3, [[coupon(m), ID], [ID, cross(1)], [coupon(m), ID],
                       [ID, coupon(m)], [cross(-1), ID]])
        assert interpret_tangle(t) == literal_fold(t)
    # no identity term, on three strands
    m = tl_e(3, 0) + tl_e(3, 1).scaled(P({1: 1}))
    t = tangle(3, [[coupon(m)], [cross(-1), ID], [coupon(m)], [ID, twist(1), ID]])
    assert interpret_tangle(t) == literal_fold(t)


def test_fold_drops_a_table_whose_identity_and_hook_parts_cancel():
    # (p id + e) then (id + e): the e table gets p from the hook, 1 from
    # the identity and delta from the loop, and p = -1 - delta
    p = P({0: -1, 2: 1, -2: 1})
    ident, e = tl_identity(2), tl_e(2, 0)
    t = tangle(2, [[coupon(ident.scaled(p) + e)], [coupon(ident + e)]])
    got = interpret_tangle(t)
    assert got == literal_fold(t) == ident.scaled(p)
    assert len(got.terms) == 1


def test_fold_plans_delta_powers_once_per_event(monkeypatch):
    # factor * delta**l is worked out once per distinct event and fold, so
    # the count does not grow with the crossings
    calls = []
    powers = tl._delta_powers
    monkeypatch.setattr(tl, "_delta_powers",
                        lambda *args: calls.append(args) or powers(*args))
    word = (1, -2, 3, -1, 2, -3, 1, 2, -3, -2)
    counts = []
    for w in (word, word * 2):
        calls.clear()
        interpret_tangle(closed_braid_tangle(w, 4))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_cable_double_widths():
    word, n = [1, -1], 2
    c = cable_double(braid_to_slices(word, n))
    assert c.strands_in == 4
    assert c.widths[-1] == 4
    assert interpret_tangle(c) == tl_identity(4)


def test_full_twist_value():
    """The doubled positive curl is A^6 beta^2 = A^8 id + (A^6 - A^2) e."""
    curl = tangle(1, kink_slices(1, 0, 1))
    doubled = interpret_tangle(cable_double(curl))
    beta = crossing_resolution(1)
    assert doubled == tl_compose(beta, beta).scaled(P({6: 1}))
    # and its plane closure matches the doubled twist eigenvalue sum
    assert plane_closure(doubled) == \
        P({6: 1}) * plane_closure(tl_compose(beta, beta))


def test_quadratic_equation_scalars():
    double_twist = interpret_tangle(tangle(1, [[twist(1)], [twist(1)]]))
    assert double_twist == tl_identity(1).scaled(P({6: 1}))


# -- the local fold against full-width stacking -----------------------------


def _random_coupon(rng):
    if rng.random() < 0.3:
        return coupon(tl_e(2, 0) + tl_identity(2))
    nb, nt = rng.choice([(0, 2), (2, 0), (1, 1), (2, 2), (1, 3), (3, 1),
                         (3, 3), (4, 0), (0, 4)])
    basis = tl_basis(nb, nt)
    terms = {d: P({rng.randint(-4, 4): rng.choice((-2, -1, 1, 3)),
                   rng.randint(-4, 4): rng.randint(-2, 2)})
             for d in rng.sample(basis, rng.randint(1, len(basis)))}
    return coupon(TLMorphism(nb, nt, terms))


def _random_slice(rng, width, max_width, coupons):
    events, left, out = [], width, 0
    # keep at least two strands open between slices, so that wide and
    # closing events keep turning up
    while left or (out + 2 <= max_width and (out < 2 or rng.random() < 0.3)):
        choices = (CUP, ID, ID, CAP, cross(1), cross(-1), twist(1), twist(-1))
        e = rng.choice(choices + ((_random_coupon(rng),) if coupons else ()))
        nb, nt = e.widths()
        if nb <= left and out + nt + left - nb <= max_width:
            events.append(e)
            left, out = left - nb, out + nt
    return events


def random_morse_tangle(rng, strands_in, slices, *, coupons=False,
                        closed=False, max_width=6):
    """Random slices of every event kind; closed ones end in a row of caps."""
    rows, width = [], strands_in
    for _ in range(slices):
        rows.append(_random_slice(rng, width, max_width, coupons))
        width = sum(e.widths()[1] for e in rows[-1])
    if closed:
        rows.append([CAP] * (width // 2))
    return tangle(strands_in, rows)


def test_fold_matches_full_width_stacking():
    rng = random.Random(101)
    kinds = set()
    for k in range(300):
        t = random_morse_tangle(rng, rng.randint(0, 4), rng.randint(1, 7),
                                coupons=k % 3 == 0)
        kinds.update(e.kind for sl in t.slices for e in sl)
        assert interpret_tangle(t) == literal_fold(t)
    assert kinds == {"id", "cup", "cap", "cross", "twist", "coupon"}


def test_state_sum_agrees_with_fold_on_random_closed_tangles():
    rng = random.Random(103)
    for _ in range(100):
        t = random_morse_tangle(rng, 0, rng.randint(1, 8), closed=True)
        if t.crossing_count() > 10:
            continue
        value = plane_closure(interpret_tangle(t))
        assert bracket_state_sum(t) == value
        assert literal_fold(t) == tl_identity(0).scaled(value)


def test_state_sum_matches_literal_walk():
    rng = random.Random(107)
    twist_signs, crossings = set(), set()
    checked = 0
    while checked < 200:
        t = random_morse_tangle(rng, 0, rng.randint(1, 14), closed=True)
        if t.crossing_count() > 12:
            continue
        twist_signs.update(e.sign for sl in t.slices for e in sl
                           if e.kind == "twist")
        crossings.add(t.crossing_count())
        assert bracket_state_sum(t) == literal_state_sum(t)
        checked += 1
    assert twist_signs == {1, -1}
    assert max(crossings) >= 10
    for strands in range(2, 6):
        for _ in range(6):
            word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                    for _ in range(rng.randint(0, 10))]
            t = closed_braid_tangle(word, strands)
            assert bracket_state_sum(t) == literal_state_sum(t)


def test_state_sum_matches_literal_walk_past_the_verify_bound():
    # the literal walk takes about 0.1 ms per state on these sizes
    rng = random.Random(109)
    for strands, c in ((2, 13), (3, 12), (4, 11), (5, 12), (6, 11)):
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(c)]
        t = closed_braid_tangle(word, strands)
        assert bracket_state_sum(t) == literal_state_sum(t)
    kinds, checked = set(), 0
    while checked < 3:
        t = random_morse_tangle(rng, 0, rng.randint(8, 16), closed=True)
        if not 11 <= t.crossing_count() <= 12:
            continue
        kinds.update(e.kind for sl in t.slices for e in sl)
        assert bracket_state_sum(t) == literal_state_sum(t)
        checked += 1
    assert kinds >= {"cup", "cap", "cross", "twist"}


def test_state_sum_of_twenty_crossings_agrees_with_the_fold():
    rng = random.Random(113)
    for strands, c in ((4, 20), (8, 16), (4, 15), (6, 18), (10, 20)):
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(c)]
        t = closed_braid_tangle(word, strands)
        assert bracket_state_sum(t) == plane_closure(interpret_tangle(t))
    # a split link: the cut between the two stacked closures is empty
    halves = [closed_braid_tangle([rng.choice([1, -1]) * rng.randint(1, 2)
                                   for _ in range(9)], 3) for _ in range(2)]
    t = tangle(0, halves[0].slices + halves[1].slices)
    value = bracket_state_sum(t)
    assert value == plane_closure(interpret_tangle(t))
    assert value == (plane_closure(interpret_tangle(halves[0]))
                     * plane_closure(interpret_tangle(halves[1])))


def test_state_sum_refuses_too_many_crossings_at_once():
    assert tangles.STATE_SUM_MAX_CROSSINGS == 20
    for c in (tangles.STATE_SUM_MAX_CROSSINGS + 1, 30):
        t = closed_braid_tangle([1] * c, 2)
        # 2^30 states would never finish; the cap is checked first
        with pytest.raises(ContractViolation, match="exceeds the cap"):
            bracket_state_sum(t)


def test_default_verify_bound_is_ten_crossings(monkeypatch):
    calls = []
    real = tangles.bracket_state_sum
    monkeypatch.setattr(tangles, "bracket_state_sum",
                        lambda t: calls.append(t) or real(t))
    assert tangles.STATE_SUM_VERIFY_MAX_CROSSINGS == 10
    kauffman_bracket(closed_braid_tangle([1, -2] * 5, 3))
    kauffman_bracket(closed_braid_tangle([1, -2] * 5 + [1], 3))
    assert [t.crossing_count() for t in calls] == [10]
