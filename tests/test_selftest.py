import random
from dataclasses import replace

import pytest
import test_acceptance

from skeinalg import selftest, tangles, tqft1d
from skeinalg.bimodule import bimodule_iso_unpointed, end_morphism
from skeinalg.errors import ContractViolation
from skeinalg.laurent import LaurentPoly
from skeinalg.selftest import (ALL_CHECKS, SelfTestFailure, check_projectivity,
                               run_selftest)

CHECK_NAMES = [
    "linalg.rank-nullity",
    "linalg.laurent-ring-axioms",
    "algebra.modulation-functoriality",
    "algebra.tensor-unit-laws",
    "algebra.conjugation-agreement",
    "algebra.projectivity",
    "algebra.tensor-associativity",
    "tqft1d.picture-equivalence",
    "tqft1d.group-law",
    "tqft1d.split-functoriality",
    "tqft1d.projective-rescaling",
    "skein.tl-dimensions",
    "skein.tl-relations",
    "skein.interchange",
    "skein.kauffman-moves",
    "skein.evaluator-agreement",
    "skein.locality",
    "skein.ribbon-axioms",
    "skein.annulus",
    "skein.plane-closure",
]


def test_quick_level_prints_one_ok_line_per_check():
    lines = []
    assert run_selftest("quick", 0, lines.append) == 0
    assert lines == [f"ok   {name}" for name in CHECK_NAMES] + \
        ["all 20 invariants hold at level 'quick'"]


FULL_RUNS = [(f"{seed}:{name}", check, sizes)
             for seed in (0, 3) for name, check, sizes in ALL_CHECKS]


@pytest.mark.parametrize("stream,check,sizes", FULL_RUNS,
                         ids=[stream for stream, _, _ in FULL_RUNS])
def test_check_holds_at_full_sizes(stream, check, sizes):
    # the stream run_selftest("full", seed) gives this check
    check(random.Random(stream), **sizes["full"])


def test_unknown_level_is_rejected():
    lines = []
    for level in ("ful", "Quick", ""):
        with pytest.raises(ContractViolation, match="level"):
            run_selftest(level, 0, lines.append)
    assert lines == []


def test_one_corrupted_picture_fails_selftest_and_criterion_01(monkeypatch):
    """Mutation check on the algebra side: the Heisenberg picture evolves one
    step too far while the Schrodinger picture stays exact."""
    heisenberg = tqft1d._heisenberg_bimodule

    def one_step_too_far(gen, matrix_of):
        kind, arg = gen
        return heisenberg(("u", arg + 1) if kind == "u" else gen, matrix_of)

    monkeypatch.setattr(tqft1d, "_heisenberg_bimodule", one_step_too_far)
    lines = []
    assert run_selftest("quick", 0, lines.append) == 5
    assert any(line.startswith("FAIL tqft1d.picture-equivalence: ")
               for line in lines)
    with pytest.raises(SelfTestFailure, match="pictures disagree"):
        test_acceptance.test_criterion_01_picture_equivalence()


def test_a_wrong_twist_sign_fails_the_ribbon_axioms(monkeypatch):
    """Mutation check on the diagram side: a twist event scales by
    +A^(3 sign) instead of -A^(3 sign), which squaring hides.  The state
    sum, which keeps the right sign, disagrees on a twisted closed braid."""
    event_morphism = tangles._event_morphism

    def positive_twist(e):
        m = event_morphism(e)
        return m.scaled(-1) if e.kind == "twist" else m

    monkeypatch.setattr(tangles, "_event_morphism", positive_twist)
    lines = []
    assert run_selftest("quick", 0, lines.append) == 5
    assert [line.split(" fails: ")[0] for line in lines
            if line.startswith("FAIL")] == [
        "FAIL skein.evaluator-agreement: state sum -A^-4 - A^-8 disagrees "
        "with composition A^-4 + A^-8",
        "FAIL skein.ribbon-axioms: ribbon identity twist-is-curl[sign=1]"]


def test_evaluator_agreement_feeds_the_state_sum_a_twist(monkeypatch):
    """Without a twist in its inputs, a state sum that drops the sign of
    -A^(3 sign) still agrees with the fold on every check."""
    received = []
    state_sum = tangles.bracket_state_sum

    def recording(t):
        received.append(t)
        return state_sum(t)

    monkeypatch.setattr(tangles, "bracket_state_sum", recording)
    name, check, sizes = next(c for c in ALL_CHECKS
                              if c[0] == "skein.evaluator-agreement")
    check(random.Random(f"0:{name}"), **sizes["quick"])
    assert received and all(
        any(e.kind == "twist" for sl in t.slices for e in sl)
        for t in received)


def test_a_state_sum_wrong_past_the_verify_bound_fails_the_plane_closure(
        monkeypatch):
    """Mutation check on the second route: a state sum that is wrong only
    past STATE_SUM_VERIFY_MAX_CROSSINGS, where the bracket runs none."""
    state_sum = tangles.bracket_state_sum

    def wrong_past_the_bound(t):
        v = state_sum(t)
        if t.crossing_count() > tangles.STATE_SUM_VERIFY_MAX_CROSSINGS:
            return v + LaurentPoly.from_dict({0: 1})
        return v

    for module in (tangles, selftest):
        monkeypatch.setattr(module, "bracket_state_sum", wrong_past_the_bound)
    for seed in (0, 3):
        lines = []
        assert run_selftest("full", seed, lines.append) == 5
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL skein.plane-closure: plane closure disagrees with the "
            "state sum"]


def _doubled_first_entry(f):
    state = end_morphism(f)
    return replace(state, pointing=(2 * state.pointing[0],) + state.pointing[1:])


@pytest.mark.parametrize("name,mutant", [
    ("bimodule_iso_pointed", bimodule_iso_unpointed),
    ("end_morphism", _doubled_first_entry),
])
def test_a_mutant_fails_the_state_half_of_projectivity(monkeypatch, name,
                                                        mutant):
    """Mutation checks on the states as rays: an iso search that ignores
    the pointing, or a state whose pointing is off the ray of its vector."""
    monkeypatch.setattr(selftest, name, mutant)
    with pytest.raises(SelfTestFailure, match="pointed iso"):
        check_projectivity(random.Random(1010), rescalings=50, dim=3)
