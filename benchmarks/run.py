"""Seeded benchmark of the skeinalg library, driven in process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one caller, no threads: a
closed loop calls the library's public API on inputs generated from the
seed before any timing.  Inputs come in rounds of a fixed shape mix and
the loop runs whole rounds until S seconds of operation time have passed.
The times of the end-to-end metrics are scaled to a reference speed: a
fixed piece of pure-Python work runs untimed before each round and after
every ``SEGMENT_S`` of operation time, and the operation times between
two of its runs are multiplied by ``REFERENCE_S`` over their mean time.
The shared host swings between a fast regime and one 1.5x slower for
seconds to minutes at a time; the reference slows with the operations,
so the scaled times follow the program and not the neighbours.  The
unscaled wall-clock figures go to stderr.
Each output is checked by its second route right after its operation,
outside the timed interval, and then dropped, so memory does not grow
with the number of operations; on the default seed it is also compared
with its recorded digest in ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each
round untraced and then traced (see ``tracer.py``) and prints the
per-layer metrics.  The last line of stdout is one JSON object; a
summary of the operation mix goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
import types
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import layers
from workloads import WORKLOADS, digest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")
PACKAGE = "skeinalg"
MODULES = layers.LAYERS + ("errors",)
DEFAULT_SEED = 0
SETUPS = 5  # set-ups per run; setup_s is their median
TRACE_SHARE = 0.4  # share of --seconds the untraced rounds of a traced run take
# the reference work's wall time at the speed scaled times are given at:
# about its time in the fast regime of a 2-vCPU shared x86_64 host
REFERENCE_S = 0.0025
# operation seconds between two runs of the reference work inside a round
SEGMENT_S = 0.1

clock = time.perf_counter


@dataclass
class Record:
    seq: int        # the round's place in this run
    round: int      # the round's index in the input pool
    pos: int
    seconds: float  # wall clock
    ok: bool
    scale: float    # REFERENCE_S over the reference time around the segment


def load_library():
    """Import the package afresh, as a namespace of its layer modules."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    return types.SimpleNamespace(package=PACKAGE, **mods)


def reference_work() -> int:
    """Fixed pure-Python work of the library's kind: tuple-keyed dict updates,
    small sorts and Fraction arithmetic."""
    table: dict = {}
    for i in range(1, 700):
        key = (i % 13, i * 7 % 11, i % 5)
        table[key] = table.get(key, 0) + i * i
        key = tuple(sorted((i % 9, i % 4, i % 6)))
        table[key] = table.get(key, 0) - 1
    acc = Fraction(0)
    for i in range(1, 450):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, i % 4 + 1)
        table[i % 37] = acc
    return len(table)


def reference_s() -> float:
    t0 = clock()
    reference_work()
    return clock() - t0


def setup(wl, seed: int):
    """Import, generate the seed's input rounds and warm up; returns the time too."""
    t0 = clock()
    lib = load_library()
    rng = random.Random(f"{wl.name}:{seed}")
    rounds = wl.make_rounds(lib, rng, wl.pool_rounds)
    wl.warm(lib)
    return lib, rounds, clock() - t0


def scaled_setup(wl, seed: int):
    """setup(), with its time scaled by the reference work around it."""
    before = reference_s()
    lib, rounds, spent = setup(wl, seed)
    return lib, rounds, spent * 2 * REFERENCE_S / (before + reference_s())


class Checker:
    """Judges one output by its second route, and by its digest when given."""

    def __init__(self, wl, lib, rounds, digests=None):
        self.wl, self.lib, self.rounds, self.digests = wl, lib, rounds, digests
        self.refs: dict = {}  # second-route values, once per distinct input
        self.failed = 0

    def __call__(self, k: int, pos: int, out, error) -> bool:
        wl, data = self.wl, self.rounds[k][pos].data
        ok = False
        if error is None:
            try:
                if (k, pos) not in self.refs:
                    self.refs[k, pos] = wl.reference(self.lib, data)
                ok = wl.verify(self.lib, data, out, self.refs[k, pos])
                if ok and self.digests is not None:
                    ok = digest(wl.canon(out)) == self.digests[k][pos]
            except Exception as exc:  # a check that raises fails the operation
                error = exc
        if not ok:
            if not self.failed:
                print(f"{wl.name}: operation {k}/{pos} failed", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
            self.failed += 1
        return ok


def execute(rounds, call, judge, *, seconds=None, count=None, first=0):
    """Run whole rounds from `first` until `seconds` of operation time or `count` rounds.

    Returns (records, operation seconds, rounds done).
    """
    records = []
    timed = 0.0
    r = 0
    while True:
        k = (first + r) % len(rounds)
        before = reference_s()
        done, segment_s = [], 0.0
        for pos, item in enumerate(rounds[k]):
            t0 = clock()
            try:
                out, error = call(item.data), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, exc
            spent = clock() - t0
            timed += spent
            segment_s += spent
            done.append((pos, spent, judge(k, pos, out, error)))
            if segment_s >= SEGMENT_S or pos == len(rounds[k]) - 1:
                after = reference_s()
                scale = 2 * REFERENCE_S / (before + after)
                records += [Record(r, k, p, t, ok, scale) for p, t, ok in done]
                before, done, segment_s = after, [], 0.0
        r += 1
        if (count is not None and r >= count) or \
                (seconds is not None and timed >= seconds):
            return records, timed, r


def round_rates(records) -> list:
    """Operations per scaled second, one value per executed round."""
    spent, count = Counter(), Counter()
    for r in records:
        spent[r.seq] += r.seconds * r.scale
        count[r.seq] += 1
    return [count[k] / spent[k] for k in spent]


def load_digests(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS) as fh:
        return json.load(fh)[name]


def mix(rounds, records) -> dict:
    """Share of the executed operations per input shape."""
    counts = Counter(rounds[r.round][r.pos].shape for r in records)
    return {k: v / len(records) for k, v in sorted(counts.items())}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    setups = []
    for _ in range(SETUPS):
        lib, rounds, spent = scaled_setup(wl, seed)
        setups.append(spent)
    judge = Checker(wl, lib, rounds, load_digests(wl.name, seed))
    gc.collect()
    gc.freeze()  # the input pool stays out of the collector's way while timing

    def call(data):
        return wl.op(lib, data)

    summary = {"workload": wl.name, "seed": seed}
    consistent = True
    if not trace:
        records, timed, done = execute(rounds, call, judge, seconds=seconds)
        wall = [r.seconds for r in records]
        lat = [r.seconds * r.scale for r in records]
        summary["wall"] = {"ops_per_s": len(records) / timed,
                           "op_ms_p50": statistics.median(wall) * 1e3,
                           "op_ms_p90": statistics.quantiles(wall, n=10)[8] * 1e3,
                           "scale": statistics.median(r.scale for r in records)}
        metrics = {
            # the median round, so an outlying reference time moves one round
            "ops_per_s": (statistics.median(round_rates(records)), "1/s"),
            "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
            "op_ms_p90": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "ok_frac": (sum(r.ok for r in records) / len(records), "frac"),
        }
    else:
        # each round runs untraced, then traced, so drift hits both alike
        tracer = layers.make_tracer(lib)
        op_ids = iter(range(1 << 62))
        plain, traced = [], []
        untraced_s, done = 0.0, 0
        while done == 0 or untraced_s < seconds * TRACE_SHARE:
            got, spent, _ = execute(rounds, call, judge, count=1, first=done)
            plain += got
            untraced_s += spent
            with tracer:
                traced += execute(
                    rounds, lambda data: tracer.run_op(next(op_ids), wl.op, lib, data),
                    judge, count=1, first=done)[0]
            done += 1
        records = plain + traced
        metrics = layers.metrics(tracer)
        metrics["trace.overhead_frac"] = (tracer.totals.op_s / untraced_s - 1, "frac")
        consistent = layers.attribution_gap(metrics) <= 1e-9 * metrics["trace.op_s"][0]
        per_op = tracer.totals.per_op
        summary["peak_dim_share"] = {
            str(k): v / len(per_op)
            for k, v in sorted(Counter(e.get("peak_dim", 0) for e in per_op).items())}
    summary.update(rounds=done, operations=len(records), mix=mix(rounds, records),
                   digest_checked=judge.digests is not None)
    print(json.dumps(summary), file=sys.stderr)
    return {
        "correct": judge.failed == 0 and consistent,
        "attempted": len(records),
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, PACKAGE)):
        print(f"run.py: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
