"""The invariant catalogue behind the selftest subcommand.

This module is the one place each randomized invariant is written.  Each
check takes a random.Random and its sizes as keywords, raises
SelfTestFailure with a specific message when the invariant fails, and
returns a small tally where a caller asserts a bound on it.  ALL_CHECKS
holds the sizes of both levels: quick keeps every check at toy scale and
runs in under a second; full runs the catalogue at verification scale.
The acceptance criteria in tests/test_acceptance.py call the same checks
with their own seeds and sizes.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from .algebra import (conjugation_hom, compose_homs, matrix_algebra)
from .bimodule import (bimodule_iso_pointed, bimodule_iso_unpointed,
                       conjugator_between, end_morphism, modulate,
                       regular_bimodule, tensor_over)
from .errors import ContractViolation, SkeinalgError
from .laurent import LaurentPoly
from .linalg import Matrix, kernel_basis, rank
from .samples import (random_braid, random_closed_word,
                      random_composable_hom_pair, random_hom_pair,
                      random_invertible, random_matrix, random_singular,
                      random_system)
from .tangles import (CAP, CUP, ID, STATE_SUM_VERIFY_MAX_CROSSINGS,
                      braid_to_slices, bracket_state_sum, cable_double,
                      closed_braid_tangle, coupon, cross, insert_slices,
                      interpret_tangle, kauffman_bracket, kink_slices, tangle,
                      twist)
from .tl import (AnnularClass, annulus_closure_eval, catalan,
                 crossing_resolution, delta, plane_closure, tl_basis,
                 tl_compose, tl_e, tl_identity, tl_tensor)
from .tqft1d import (SpacetimeWord, compare_pictures, eval_heisenberg,
                     eval_schrodinger, make_system, make_word)


class SelfTestFailure(SkeinalgError):
    pass


def _fail(msg):
    raise SelfTestFailure(msg)


# -- exact linear algebra -----------------------------------------------------


def check_rank_nullity(rng, *, matrices):
    for _ in range(matrices):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ker = kernel_basis(m)
        if rank(m) + len(ker) != m.cols:
            _fail("rank(m) + dim ker(m) != cols(m)")
        if any(any(m.apply(v)) for v in ker):
            _fail("a kernel vector is not killed by its matrix")


def check_laurent_ring_axioms(rng, *, triples):
    def rand_poly():
        return LaurentPoly.from_dict(
            {rng.randint(-6, 6): rng.randint(-4, 4) for _ in range(4)})
    for _ in range(triples):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        if p * q != q * p:
            _fail("Laurent multiplication is not commutative")
        if (p * q) * r != p * (q * r):
            _fail("Laurent multiplication is not associative")
        if p * (q + r) != p * q + p * r:
            _fail("Laurent multiplication is not distributive")
        if (p + q) + r != p + (q + r):
            _fail("Laurent addition is not associative")


# -- algebras and bimodules ---------------------------------------------------


def check_modulation_functoriality(rng, *, pairs, dim):
    for _ in range(pairs):
        f, g = random_composable_hom_pair(rng, max_dim=dim)
        comp = tensor_over(modulate(f), modulate(g))
        direct = modulate(compose_homs(g, f))
        if bimodule_iso_pointed(comp, direct) is None:
            _fail("modulation tensor composite not isomorphic to the "
                  "modulation of the composite")


def check_tensor_unit_laws(rng, *, units, dim):
    for k in range(units):
        n = rng.randint(1, dim)
        # the unit laws hold for any linear map, so every other u is singular
        u = random_singular(rng, n) if k % 2 else random_invertible(rng, n)
        m = end_morphism(u)
        alg = matrix_algebra(n)
        for t in (tensor_over(regular_bimodule(alg), m),
                  tensor_over(m, regular_bimodule(alg))):
            if t.dim != m.dim or bimodule_iso_pointed(t, m) is None:
                _fail("tensor with the regular bimodule is not the identity")


def check_conjugation_agreement(rng, *, pairs, dim):
    """Return (present, absent): how many pairs are conjugate, how many not."""
    present = absent = 0
    for _ in range(pairs):
        f, g = random_hom_pair(rng, max_dim=dim)
        direct = conjugator_between(f, g, seed=7) is not None
        via_bimodules = bimodule_iso_unpointed(modulate(f), modulate(g),
                                               seed=7) is not None
        if direct != via_bimodules:
            _fail("conjugator existence disagrees with the unpointed "
                  "bimodule isomorphism test")
        present += direct
        absent += not direct
    return present, absent


def check_projectivity(rng, *, rescalings, dim):
    for _ in range(rescalings):
        n = rng.randint(2, dim)
        u = random_invertible(rng, n)
        lam = Fraction(rng.choice([-5, -3, -2, 2, 3, 5]), rng.choice([1, 2, 3]))
        # equal homs modulate to equal bimodules, so this covers modulate too
        if conjugation_hom(n, u.scale(lam)) != conjugation_hom(n, u):
            _fail("conjugation by a rescaled unit differs")
        # the state of v is hom(K, V) pointed by v; its End(V)-linear
        # automorphisms are the nonzero scalars, so it is pointed-isomorphic
        # to the state of w exactly when w is a nonzero multiple of v
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        state = end_morphism(Matrix.column(v))
        k = v.index(0) if 0 in v else 0  # e_k is off the line of v, as n > 1
        for w, same_ray in ((tuple(lam * x for x in v), True),
                            (v[:k] + (v[k] + 1,) + v[k + 1:], False)):
            found = bimodule_iso_pointed(state, replace(state, pointing=w))
            if (found is not None) != same_ray:
                _fail(f"states of {v} and {w}: pointed iso "
                      f"{'missing on' if same_ray else 'found off'} the ray")


# -- one-dimensional theories -------------------------------------------------


def check_picture_equivalence(rng, *, systems, dim):
    """Return how many of the systems have a singular time step."""
    singular = 0
    for k in range(systems):
        sys = random_system(rng, max_dim=dim, singular_step=(k % 3 == 0))
        singular += not sys.step.det()
        word = random_closed_word(rng)
        if sys.dim_v > dim or len(word) > 6 or \
                any(abs(x) > 3 for x in sys.step.entries):
            _fail("a sampled system or word exceeds its size bounds")
        rep = compare_pictures(sys, word)
        if not rep.agree:
            _fail(f"pictures disagree: {rep.schrodinger_value} vs "
                  f"{rep.heisenberg_value}")
    return singular


def check_group_law(rng, *, systems, dim):
    for _ in range(systems):
        sys = random_system(rng, max_dim=dim)
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        w1 = make_word((("u", s), ("u", t)))
        w2 = make_word((("u", s + t),))
        if eval_schrodinger(sys, w1) != eval_schrodinger(sys, w2):
            _fail("group law fails in the Schrodinger picture")
        rep1 = compare_pictures(
            sys, make_word((("w", "0"), ("u", s), ("u", t), ("v", "0"))))
        rep2 = compare_pictures(
            sys, make_word((("w", "0"), ("u", s + t), ("v", "0"))))
        if not (rep1.agree and rep2.agree
                and rep1.schrodinger_value == rep2.schrodinger_value):
            _fail("group law fails inside a closed word")


def check_split_functoriality(rng, *, systems, dim):
    for _ in range(systems):
        sys = random_system(rng, max_dim=dim)
        word = random_closed_word(rng, max_len=5)
        k = rng.randint(1, len(word.gens) - 1)
        left = SpacetimeWord(word.gens[:k])
        right = SpacetimeWord(word.gens[k:])
        whole = eval_schrodinger(sys, word)
        if whole != eval_schrodinger(sys, left) @ eval_schrodinger(sys, right):
            _fail("Schrodinger evaluation is not functorial under splits")
        h = tensor_over(eval_heisenberg(sys, left), eval_heisenberg(sys, right))
        if bimodule_iso_pointed(h, eval_heisenberg(sys, word)) is None:
            _fail("Heisenberg evaluation is not functorial under splits")


def check_projective_rescaling(rng, *, systems, dim):
    for _ in range(systems):
        sys = random_system(rng, max_dim=dim)
        word = random_closed_word(rng)
        lam_step, lam_v, lam_w = (Fraction(rng.choice([-3, -2, 2, 3]))
                                  for _ in range(3))
        scaled = make_system(
            sys.dim_v, sys.step.scale(lam_step),
            {k: tuple(lam_v * x for x in v) for k, v in sys.states.items()},
            {k: tuple(lam_w * x for x in v) for k, v in sys.costates.items()},
            sys.observables)
        expected = Fraction(1)
        for kind, arg in word.gens:
            if kind == "u":
                expected *= lam_step ** arg
            elif kind == "v":
                expected *= lam_v
            elif kind == "w":
                expected *= lam_w
        base = compare_pictures(sys, word)
        got = compare_pictures(scaled, word)
        if not (base.agree and got.agree
                and got.schrodinger_value == expected * base.schrodinger_value):
            _fail("closed-word scalar does not rescale projectively")


def check_tensor_associativity(rng, *, triples):
    for _ in range(triples):
        n = rng.randint(1, 2)
        ms = [end_morphism(random_matrix(rng, n, n)) for _ in range(3)]
        left = tensor_over(tensor_over(ms[0], ms[1]), ms[2])
        right = tensor_over(ms[0], tensor_over(ms[1], ms[2]))
        if bimodule_iso_pointed(left, right) is None:
            _fail("tensor composition is not associative up to pointed iso")


# -- skein layer --------------------------------------------------------------


def check_tl_dimensions(rng, *, points):
    for nb in range(points + 1):
        for nt in range(points + 1 - nb):
            count = len(tl_basis(nb, nt))
            want = catalan((nb + nt) // 2) if (nb + nt) % 2 == 0 else 0
            if count != want:
                _fail(f"hom({nb},{nt}) has {count} diagrams, expected {want}")


def check_tl_relations(rng, *, strands):
    d = delta()
    for n in range(2, strands + 1):
        for i in range(n - 1):
            e = tl_e(n, i)
            if tl_compose(e, e) != e.scaled(d):
                _fail(f"e_{i}^2 != delta e_{i} at n={n}")
            if i + 1 < n - 1:
                e2 = tl_e(n, i + 1)
                if tl_compose(tl_compose(e, e2), e) != e:
                    _fail(f"e e' e != e at n={n}, i={i}")
                if tl_compose(tl_compose(e2, e), e2) != e2:
                    _fail(f"e' e e' != e' at n={n}, i={i}")
            for j in range(i + 2, n - 1):
                e2 = tl_e(n, j)
                if tl_compose(e, e2) != tl_compose(e2, e):
                    _fail(f"far commutation fails at n={n}, (i,j)=({i},{j})")


def check_interchange(rng, *, pairs):
    for _ in range(pairs):
        word1, n1 = random_braid(rng, 2, 3)
        word2, n2 = random_braid(rng, 2, 3)
        f = interpret_tangle(braid_to_slices(word1, n1))
        g = interpret_tangle(braid_to_slices(word2, n2))
        f2 = interpret_tangle(braid_to_slices(list(reversed(word1)), n1))
        g2 = interpret_tangle(braid_to_slices(list(reversed(word2)), n2))
        lhs = tl_compose(tl_tensor(f, g), tl_tensor(f2, g2))
        rhs = tl_tensor(tl_compose(f, f2), tl_compose(g, g2))
        if lhs != rhs:
            _fail("interchange law fails")


def check_kauffman_moves(rng, *, insertions, curls, crossings, strands):
    """R2/R3 insertions keep the bracket of a closed braid; each of `curls`
    braids gets an R1 curl of each sign, which scales it by -A^(+-3).

    Return the number of moves checked of each kind.
    """
    def bracket(word, n):
        return plane_closure(interpret_tangle(closed_braid_tangle(word, n)))

    moves = {"R1": 0, "R2": 0, "R3": 0}
    for k in range(insertions):
        word, n = random_braid(rng, crossings, strands)
        base = bracket(word, n)
        pos = rng.randint(0, len(word))
        if k % 2 == 0 or n < 3:
            g = rng.choice([1, -1]) * rng.randint(1, n - 1)
            if bracket(word[:pos] + [g, -g] + word[pos:], n) != base:
                _fail("bracket changed under an R2 insertion")
            moves["R2"] += 1
        else:  # both sides of the braid relation
            g = rng.randint(1, n - 2)
            s = rng.choice([1, -1])
            w1 = word[:pos] + [s * g, s * (g + 1), s * g] + word[pos:]
            w2 = word[:pos] + [s * (g + 1), s * g, s * (g + 1)] + word[pos:]
            if bracket(w1, n) != bracket(w2, n):
                _fail("bracket changed under an R3 move")
            moves["R3"] += 1
    minus_a_cubed = LaurentPoly.from_dict({3: -1})
    for _ in range(curls):
        word, n = random_braid(rng, crossings, strands)
        t = closed_braid_tangle(word, n)
        base = plane_closure(interpret_tangle(t))
        for sign in (1, -1):
            wire = rng.randrange(2 * n)
            t2 = insert_slices(t, n + len(word), kink_slices(2 * n, wire, sign))
            if plane_closure(interpret_tangle(t2)) != \
                    (minus_a_cubed ** sign) * base:
                _fail("R1 curl did not scale the bracket by -A^(+-3)")
            moves["R1"] += 1
    return moves


def check_evaluator_agreement(rng, *, braids, crossings):
    for _ in range(braids):
        word, n = random_braid(rng, crossings, 3)
        # one twist on a random wire of the 2n above the braid slices, so
        # that the state sum's twist factor is checked too
        wire = rng.randrange(2 * n)
        sl = [ID] * wire + [twist(rng.choice([1, -1]))] + \
            [ID] * (2 * n - wire - 1)
        t = insert_slices(closed_braid_tangle(word, n), n + len(word), [sl])
        # the bracket recomputes through the independent state sum
        kauffman_bracket(t)


def check_locality(rng, *, braids):
    for _ in range(braids):
        word, n = random_braid(rng, 5, 3)
        t = braid_to_slices(word, n)
        i = rng.randint(0, len(t.slices) - 1)
        j = rng.randint(i + 1, len(t.slices))
        sub = tangle(n, t.slices[i:j])
        replaced = list(t.slices[:i]) + [
            (coupon(interpret_tangle(sub)),)] + list(t.slices[j:])
        if interpret_tangle(tangle(n, replaced)) != interpret_tangle(t):
            _fail("replacing a slice range by its interpretation changed the result")


def check_ribbon_axioms(rng, *, strands):
    """The braiding and twist identities, as exact morphism equalities.

    Yang-Baxter (Reidemeister III) and Reidemeister II in every position
    up to `strands` strands; naturality of the full twist: the doubled
    ribbon of the positive curl is two crossings after the two strand
    twists; the twist squared against the double loop built from cups,
    caps and crossings only; and each twist event against the geometric
    curl of the same sign.
    """
    def same(name, lhs, rhs):
        if lhs != rhs:
            _fail(f"ribbon identity {name} fails: {lhs!r} != {rhs!r}")

    beta, beta_inv = crossing_resolution(1), crossing_resolution(-1)
    id1 = tl_identity(1)

    def padded(m, left, right):
        return tl_tensor(tl_tensor(tl_identity(left), m), tl_identity(right))

    for n in range(3, strands + 1):
        for pos in range(n - 2):
            b12 = padded(tl_tensor(beta, id1), pos, n - pos - 3)
            b23 = padded(tl_tensor(id1, beta), pos, n - pos - 3)
            same(f"yang-baxter[n={n},at={pos}]",
                 tl_compose(tl_compose(b12, b23), b12),
                 tl_compose(tl_compose(b23, b12), b23))
    for n in range(2, strands + 1):
        for pos in range(n - 1):
            same(f"reidemeister-2[n={n},at={pos}]",
                 tl_compose(padded(beta, pos, n - pos - 2),
                            padded(beta_inv, pos, n - pos - 2)),
                 tl_identity(n))

    curl = tangle(1, kink_slices(1, 0, 1))
    twist_scalar = LaurentPoly.from_dict({3: -1})
    same("full-twist-naturality", interpret_tangle(cable_double(curl)),
         tl_compose(tl_identity(2).scaled(twist_scalar * twist_scalar),
                    tl_compose(beta, beta)))

    # all positive crossings: a right curl, then a left one
    loop_left = [[ID, CUP], [cross(1), ID], [ID, CAP]]
    same("twist-quadratic-equation",
         interpret_tangle(tangle(1, [[twist(1)], [twist(1)]])),
         interpret_tangle(tangle(1, kink_slices(1, 0, 1) + loop_left)))

    # the square above hides the twist's sign; the single curl does not
    for sign in (1, -1):
        same(f"twist-is-curl[sign={sign}]",
             interpret_tangle(tangle(1, [[twist(sign)]])),
             interpret_tangle(tangle(1, kink_slices(1, 0, sign))))


def check_annulus(rng, *, strands, pairs, crossings):
    for n in range(strands + 1):
        if annulus_closure_eval(tl_identity(n)) != AnnularClass({n: 1}):
            _fail(f"annular closure of id_{n} is not z^{n}")
    for _ in range(pairs):
        w1, n1 = random_braid(rng, crossings, 3)
        w2, n2 = random_braid(rng, crossings, 3)
        m1 = interpret_tangle(braid_to_slices(w1, n1))
        m2 = interpret_tangle(braid_to_slices(w2, n2))
        nested = annulus_closure_eval(tl_tensor(m1, m2))
        if nested != annulus_closure_eval(m1) * annulus_closure_eval(m2):
            _fail("nested annular union is not multiplicative")


def check_plane_closure_consistency(rng, *, braids, crossings):
    """Plane closures of open braids against the bracket and the state sum
    of their closures; return how many pass STATE_SUM_VERIFY_MAX_CROSSINGS."""
    past = 0
    for _ in range(braids):
        word, n = random_braid(rng, crossings, 3)
        via_plane = plane_closure(interpret_tangle(braid_to_slices(word, n)))
        closed = closed_braid_tangle(word, n)
        if via_plane != kauffman_bracket(closed):
            _fail("plane closure disagrees with the closed-tangle bracket")
        if via_plane != bracket_state_sum(closed):
            _fail("plane closure disagrees with the state sum")
        past += len(word) > STATE_SUM_VERIFY_MAX_CROSSINGS
    return past


# name, check, and the sizes the check runs at on each level
ALL_CHECKS = [
    ("linalg.rank-nullity", check_rank_nullity,
     {"quick": dict(matrices=6), "full": dict(matrices=20)}),
    ("linalg.laurent-ring-axioms", check_laurent_ring_axioms,
     {"quick": dict(triples=10), "full": dict(triples=40)}),
    ("algebra.modulation-functoriality", check_modulation_functoriality,
     {"quick": dict(pairs=4, dim=2), "full": dict(pairs=12, dim=4)}),
    ("algebra.tensor-unit-laws", check_tensor_unit_laws,
     {"quick": dict(units=3, dim=2), "full": dict(units=8, dim=3)}),
    ("algebra.conjugation-agreement", check_conjugation_agreement,
     {"quick": dict(pairs=8, dim=3), "full": dict(pairs=40, dim=4)}),
    ("algebra.projectivity", check_projectivity,
     {"quick": dict(rescalings=4, dim=2), "full": dict(rescalings=10, dim=3)}),
    ("algebra.tensor-associativity", check_tensor_associativity,
     {"quick": dict(triples=2), "full": dict(triples=5)}),
    ("tqft1d.picture-equivalence", check_picture_equivalence,
     {"quick": dict(systems=10, dim=2), "full": dict(systems=60, dim=3)}),
    ("tqft1d.group-law", check_group_law,
     {"quick": dict(systems=2, dim=2), "full": dict(systems=6, dim=3)}),
    ("tqft1d.split-functoriality", check_split_functoriality,
     {"quick": dict(systems=2, dim=2), "full": dict(systems=6, dim=3)}),
    ("tqft1d.projective-rescaling", check_projective_rescaling,
     {"quick": dict(systems=2, dim=2), "full": dict(systems=5, dim=3)}),
    ("skein.tl-dimensions", check_tl_dimensions,
     {"quick": dict(points=6), "full": dict(points=10)}),
    ("skein.tl-relations", check_tl_relations,
     {"quick": dict(strands=4), "full": dict(strands=5)}),
    ("skein.interchange", check_interchange,
     {"quick": dict(pairs=3), "full": dict(pairs=6)}),
    ("skein.kauffman-moves", check_kauffman_moves,
     {"quick": dict(insertions=14, curls=4, crossings=4, strands=3),
      "full": dict(insertions=80, curls=30, crossings=6, strands=4)}),
    ("skein.evaluator-agreement", check_evaluator_agreement,
     {"quick": dict(braids=4, crossings=4), "full": dict(braids=10, crossings=6)}),
    ("skein.locality", check_locality,
     {"quick": dict(braids=3), "full": dict(braids=8)}),
    ("skein.ribbon-axioms", check_ribbon_axioms,
     {"quick": dict(strands=4), "full": dict(strands=4)}),
    ("skein.annulus", check_annulus,
     {"quick": dict(strands=3, pairs=4, crossings=3),
      "full": dict(strands=5, pairs=10, crossings=4)}),
    ("skein.plane-closure", check_plane_closure_consistency,
     {"quick": dict(braids=3, crossings=12), "full": dict(braids=8, crossings=20)}),
]


# the levels every check has sizes for, in table order
LEVELS = tuple(level for level in ALL_CHECKS[0][2]
               if all(level in sizes for _, _, sizes in ALL_CHECKS))


def run_selftest(level: str = "quick", seed: int = 0, out=print) -> int:
    """Run the invariant catalogue; return 0 on success, 5 on any failure."""
    if level not in LEVELS:
        raise ContractViolation(f"no selftest level {level!r}")
    failures = 0
    for name, fn, sizes in ALL_CHECKS:
        rng = random.Random(f"{seed}:{name}")  # string seeding is stable
        try:
            fn(rng, **sizes[level])
        except Exception as exc:  # any escape fails the named invariant
            out(f"FAIL {name}: {exc}")
            failures += 1
        else:
            out(f"ok   {name}")
    if failures:
        out(f"{failures} invariant(s) failed")
        return 5
    out(f"all {len(ALL_CHECKS)} invariants hold at level {level!r}")
    return 0
