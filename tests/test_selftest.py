import random

import pytest
import test_acceptance

from skeinalg import tqft1d
from skeinalg.errors import ContractViolation
from skeinalg.selftest import ALL_CHECKS, SelfTestFailure, run_selftest

CHECK_NAMES = [
    "linalg.rank-nullity",
    "linalg.rref-idempotent",
    "linalg.laurent-ring-axioms",
    "linalg.quotient-projection",
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
        ["all 22 invariants hold at level 'quick'"]


@pytest.mark.parametrize("name,check,sizes", ALL_CHECKS,
                         ids=[name for name, _, _ in ALL_CHECKS])
def test_check_holds_at_full_sizes(name, check, sizes):
    # the stream run_selftest("full", 0) gives this check
    check(random.Random(f"0:{name}"), **sizes["full"])


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

    def one_step_too_far(sys, gen):
        kind, arg = gen
        return heisenberg(sys, ("u", arg + 1) if kind == "u" else gen)

    monkeypatch.setattr(tqft1d, "_heisenberg_bimodule", one_step_too_far)
    lines = []
    assert run_selftest("quick", 0, lines.append) == 5
    assert any(line.startswith("FAIL tqft1d.picture-equivalence: ")
               for line in lines)
    with pytest.raises(SelfTestFailure, match="pictures disagree"):
        test_acceptance.test_criterion_01_picture_equivalence()
