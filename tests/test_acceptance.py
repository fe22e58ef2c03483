"""Acceptance suite: one test per criterion, exact tolerances, fixed seeds.

Every check here is exact (rational or Laurent-polynomial equality); the
only probabilistic ingredient is the one-sided randomized invertibility
search, run at its documented trial count with pinned seeds.  Each test
prints a PASS line so the suite doubles as a report under pytest -s.
"""

import random

from oracles import end_composition_witness, modulation_witness

from skeinalg.algebra import conjugation_hom, flatten_matrix, matrix_algebra
from skeinalg.bimodule import (bimodule_iso_pointed, make_bimodule_map,
                               modulate, regular_bimodule)
from skeinalg.samples import (random_composable_hom_pair, random_invertible,
                              random_matrix)
from skeinalg.selftest import (check_annulus, check_conjugation_agreement,
                               check_kauffman_moves, check_picture_equivalence,
                               check_projectivity, check_ribbon_axioms,
                               check_tl_dimensions, check_tl_relations)
from skeinalg.tangles import (CAP, CUP, ID, bracket_state_sum,
                              closed_braid_tangle, cross, interpret_tangle,
                              tangle)
from skeinalg.tl import catalan, plane_closure


def _report(name):
    print(f"ACCEPT {name}: PASS")


def test_criterion_01_picture_equivalence():
    """200 random systems, dim <= 3, entries in [-3, 3], >= 50 singular steps."""
    singular = check_picture_equivalence(random.Random(1001), systems=200,
                                         dim=3)
    assert singular >= 50
    _report("01 picture-equivalence (200 systems, "
            f"{singular} with singular step)")


def test_criterion_02_conjugator_oracle_agreement():
    """100 random hom pairs, dims <= 4: iso test == direct conjugator search."""
    present, absent = check_conjugation_agreement(random.Random(1002),
                                                  pairs=100, dim=4)
    assert present > 0 and absent > 0
    _report(f"02 conjugator agreement (100 pairs: {present} present, "
            f"{absent} absent)")


def test_criterion_03_conjugation_modulation_lemma():
    """50 random invertible u over M2 and M3: pointed witness every time."""
    rng = random.Random(1003)
    for k in range(50):
        n = 2 if k < 30 else 3
        u = random_invertible(rng, n)
        alg = matrix_algebra(n)
        w = bimodule_iso_pointed(
            modulate(conjugation_hom(n, u)),
            regular_bimodule(alg, pointing=flatten_matrix(u)))
        assert w is not None, (n, u)
        assert w.matrix.det() != 0
    _report("03 conjugation lemma (30 over M2, 20 over M3)")


def test_criterion_04_functoriality_with_explicit_witnesses():
    """100 composable pairs, dims <= 3: explicit witnesses, zero failures."""
    rng = random.Random(1004)
    for _ in range(50):
        f, g = random_composable_hom_pair(rng, max_dim=3)
        composite, direct, mat = modulation_witness(f, g)
        witness = make_bimodule_map(composite, direct, mat)
        assert witness.matrix.det() != 0
    for _ in range(50):
        nv, nw, nx = (rng.randint(1, 3) for _ in range(3))
        f = random_matrix(rng, nw, nv)
        g = random_matrix(rng, nx, nw)
        composite, direct, mat = end_composition_witness(f, g)
        witness = make_bimodule_map(composite, direct, mat)
        assert witness.matrix.det() != 0
    _report("04 functoriality (50 modulation + 50 endomorphism pairs)")


def test_criterion_05_tl_dimensions():
    """hom sizes are Catalan numbers for all boundary sizes up to 10."""
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    check_tl_dimensions(None, points=10)
    _report("05 TL dimensions (all n_bottom + n_top <= 10)")


def test_criterion_06_tl_relations_and_braid():
    check_tl_relations(None, strands=5)
    _report("06 TL relations (n <= 5)")


def _acceptance_corpus():
    return [
        closed_braid_tangle([], 1),
        closed_braid_tangle([1], 2),
        closed_braid_tangle([-1], 2),
        closed_braid_tangle([1, 1], 2),
        closed_braid_tangle([1, 1, 1], 2),
        closed_braid_tangle([-1, -1, -1], 2),
        closed_braid_tangle([1, 1, 1, 1, 1], 2),
        closed_braid_tangle([1, -2, 1, -2], 3),
        closed_braid_tangle([1, 1, 2, 2], 3),
        closed_braid_tangle([1, 2, 1, 2, 1, 2], 3),
        closed_braid_tangle([1, -2, 3, -2, 1, 3], 4),
        closed_braid_tangle([1, 2, 3, 1, 2, 3, 1, 2], 4),
        closed_braid_tangle([1, 1, 1, 1, 1, 1, 1, 1], 2),
        tangle(0, [[CUP], [ID, CUP, ID], [cross(1), cross(-1)],
                   [ID, CAP, ID], [CAP]]),
        tangle(0, [[CUP], [cross(1)], [cross(1)], [CAP]]),
    ]


def test_criterion_07_kauffman_invariance():
    """500 R2/R3 insertions; R1 scaling; state-sum agreement on the corpus."""
    moves = check_kauffman_moves(random.Random(1007), insertions=500, curls=25,
                                 crossings=6, strands=4)
    assert moves["R2"] + moves["R3"] >= 500 and moves["R1"] >= 50
    # evaluator agreement on every closed tangle of the corpus
    for t in _acceptance_corpus():
        assert t.crossing_count() <= 8
        assert plane_closure(interpret_tangle(t)) == bracket_state_sum(t)
    _report("07 Kauffman invariance (500 R2/R3, 50 R1, corpus agreement)")


def test_criterion_08_ribbon_axioms():
    """Yang-Baxter and Reidemeister II in every position up to 6 strands."""
    check_ribbon_axioms(random.Random(1008), strands=6)
    _report("08 ribbon axioms (6 strands; naturality, quadratic equation "
            "and twist sign exact)")


def test_criterion_09_annulus():
    check_annulus(random.Random(1009), strands=5, pairs=50, crossings=4)
    _report("09 annulus (id_n = z^n, 50 nested unions multiplicative)")


def test_criterion_10_projectivity():
    check_projectivity(random.Random(1010), rescalings=50, dim=3)
    _report("10 projectivity (50 rescalings, exact equality)")
