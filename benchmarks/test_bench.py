"""Tests of the benchmark harness itself.

    python3 -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import itertools
import random
import sys
import types

import pytest

import layers
import run
from tracer import Tracer, derive
from workloads import WORKLOADS

sys.path.insert(0, run.SRC)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 9] > (b [2, 5], b [6, 7]); b inside b is not outermost
    spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 9.0), (2, 1, 2.0, 5.0),
             (2, 2, 3.0, 4.0), (2, 1, 6.0, 7.0)]
    calls, self_s, incl_s, nested = derive(spans, 3, nested_pairs=((1, 2),))
    assert calls == [1, 1, 3]
    assert self_s == [2.0, 4.0, 4.0]
    assert incl_s == [10.0, 8.0, 4.0]
    assert nested == {(1, 2): 4.0}
    assert sum(self_s) == spans[0][3] - spans[0][2]


def test_tracer_rebinds_imported_names_and_times_a_nested_call(monkeypatch):
    inner_mod = types.ModuleType("fakepkg.inner")
    exec("def leaf(x):\n    return x + 1\n", vars(inner_mod))
    outer_mod = types.ModuleType("fakepkg.outer")
    outer_mod.leaf = inner_mod.leaf  # as `from .inner import leaf` would
    exec("def branch(x):\n    return leaf(x) * 2\n", vars(outer_mod))
    monkeypatch.setitem(sys.modules, "fakepkg.inner", inner_mod)
    monkeypatch.setitem(sys.modules, "fakepkg.outer", outer_mod)
    leaf = inner_mod.leaf
    ticks = itertools.count()
    tracer = Tracer([(inner_mod.leaf, "inner.leaf", "inner"),
                     (outer_mod.branch, "outer.branch", "outer")],
                    package="fakepkg", clock=lambda: float(next(ticks)))
    with tracer:
        assert outer_mod.leaf is not leaf
        assert tracer.run_op(0, lambda: outer_mod.branch(1)) == 4
    # clock reads: root 0, branch 1, leaf 2 / 3, branch 4, root 5
    tot = tracer.totals
    assert tot.calls == [1, 1, 1]
    assert tot.self_s == [2.0, 1.0, 2.0]
    assert tot.op_s == 5.0
    assert outer_mod.leaf is leaf and inner_mod.leaf is leaf


def _bindings(lib):
    """Every attribute of the package's modules and traced classes."""
    _, classes = layers.targets(lib)
    out = {}
    for name, mod in sys.modules.items():
        if name == run.PACKAGE or name.startswith(run.PACKAGE + "."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in classes:
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_traced_run_restores_every_wrapped_attribute():
    lib = run.load_library()
    before = _bindings(lib)
    smallest = {wl: min(wl.make_rounds(lib, random.Random(3), 1)[0],
                        key=lambda item: item.shape)
                for wl in WORKLOADS.values()}
    tracer = layers.make_tracer(lib)
    with tracer:
        assert lib.tangles.tl_compose is not before[("skeinalg.tangles", "tl_compose")]
        assert lib.laurent.LaurentPoly.__rmul__ is lib.laurent.LaurentPoly.__mul__
        for wl, item in smallest.items():
            tracer.run_op(0, wl.op, lib, item.data)
    after = _bindings(lib)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    names = tracer.sid
    # tangles calls tl_compose through its own imported name
    assert tracer.totals.calls[names["tl.tl_compose"]] > 0
    assert tracer.totals.calls[names["linalg.Matrix.__matmul__"]] > 0
    metrics = layers.metrics(tracer)
    assert layers.attribution_gap(metrics) < 1e-9


def test_times_are_scaled_by_the_reference_work_around_each_round(monkeypatch):
    # the reference work ran twice as long as REFERENCE_S: the host is slow
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REFERENCE_S)
    rounds = [[types.SimpleNamespace(data=None)] * 3]
    records, _, done = run.execute(rounds, lambda data: None,
                                   lambda *args: True, count=2)
    assert done == 2 and [r.seq for r in records] == [0, 0, 0, 1, 1, 1]
    assert all(r.scale == 0.5 for r in records)
    records = [run.Record(0, 0, pos, 0.1, True, 0.5) for pos in range(3)] + \
              [run.Record(1, 0, pos, 0.1, True, 2.0) for pos in range(3)]
    assert run.round_rates(records) == pytest.approx([3 / 0.15, 3 / 0.6])


def _corrupt(monkeypatch, name):
    wl = WORKLOADS[name]
    op = wl.op
    monkeypatch.setattr(wl, "op", lambda lib, data: op(lib, data) + 1)


def test_wrong_answer_fails_the_second_route(monkeypatch):
    _corrupt(monkeypatch, "bracket-wide")
    result = run.run("bracket-wide", 5, 0.0, trace=False)
    assert result["attempted"] == len(WORKLOADS["bracket-wide"].shapes)
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0
    assert result["correct"] is False


def test_wrong_answer_fails_the_digest_on_the_default_seed(monkeypatch):
    # bracket-checked leaves its second route to the built-in state sum,
    # which a value changed after the call never meets; the digest does
    _corrupt(monkeypatch, "bracket-checked")
    result = run.run("bracket-checked", run.DEFAULT_SEED, 0.0, trace=False)
    assert result["failed"] == result["attempted"] > 0


def test_default_seed_matches_the_digests():
    result = run.run("heisenberg-words", run.DEFAULT_SEED, 0.0, trace=True)
    assert result["correct"] and result["failed"] == 0


def test_exits_nonzero_without_the_library(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "iso-search", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_have_a_fixed_shape_mix(name):
    lib = run.load_library()
    wl = WORKLOADS[name]
    mixes = {tuple(sorted(item.shape for item in round_))
             for s in range(3) for round_ in wl.make_rounds(lib, random.Random(s), 2)}
    assert len(mixes) == 1
