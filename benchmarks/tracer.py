"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the program.  It replaces functions and methods
with timing wrappers by rebinding names from outside: every module of the
package that bound the original (``from .tl import tl_compose`` copies the
name) and every class attribute that aliases it (``__rmul__ = __mul__``)
gets the wrapper, and ``uninstall`` puts each original back.

Each call becomes a span ``(sid, parent, start, end, op, payload)`` kept in
memory for the length of one operation.  Spans are numbered in call
order, so a parent always precedes its children; ``flush`` derives self
time (duration minus the children's durations) and folds the operation
into running totals, then drops its spans.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

ROOT = 0  # sid of the operation span the harness opens around each call


@dataclass
class Totals:
    """Sums over every flushed operation, indexed by span id."""

    calls: list
    self_s: list
    incl_s: list      # outermost spans of the sid only, so recursion counts once
    nested_s: dict    # (outer sid, inner sid) -> incl time of inner inside outer
    ops: int = 0
    op_s: float = 0.0
    per_op: list = field(default_factory=list)  # one observer dict per operation


def derive(spans, nsids: int, nested_pairs=()):
    """Per-sid call counts, self time and outermost inclusive time.

    ``spans`` is one operation's list in call order with the root span at
    index 0 (parent -1).  Returns (calls, self_s, incl_s, nested_s).
    """
    n = len(spans)
    child = [0.0] * n
    calls = [0] * nsids
    self_s = [0.0] * nsids
    for idx in range(n - 1, -1, -1):
        sid, parent, t0, t1 = spans[idx][:4]
        dur = t1 - t0
        calls[sid] += 1
        self_s[sid] += dur - child[idx]
        if parent >= 0:
            child[parent] += dur
    incl_s = [0.0] * nsids
    nested_s = {pair: 0.0 for pair in nested_pairs}
    masks = [0] * n
    for idx in range(n):
        sid, parent, t0, t1 = spans[idx][:4]
        above = masks[parent] if parent >= 0 else 0
        bit = 1 << sid
        masks[idx] = above | bit
        if not above & bit:
            incl_s[sid] += t1 - t0
            for outer, inner in nested_pairs:
                if inner == sid and above >> outer & 1:
                    nested_s[(outer, inner)] += t1 - t0
    return calls, self_s, incl_s, nested_s


class Tracer:
    """Wraps ``targets`` while installed and accumulates their spans.

    targets: list of (function, name, layer).  ``observers`` maps a
    target name to ``fn(args, result, op_extra)``, called at flush time
    for each of its spans, outside any timed span; ``op_extra`` is the
    operation's own dict, appended to ``totals.per_op``.
    ``package`` names the modules whose bindings are rebound; ``classes``
    lists the classes whose attributes are searched for aliases.
    """

    def __init__(self, targets, *, package: str, classes=(), observers=None,
                 nested=(), clock=time.perf_counter):
        self.names = ["op"] + [t[1] for t in targets]
        self.layers = ["op"] + [t[2] for t in targets]
        self.sid = {name: k for k, name in enumerate(self.names)}
        self._targets = targets
        self._package = package
        self._classes = tuple(classes)
        self._observers = {self.sid[k]: v for k, v in (observers or {}).items()}
        self._nested = tuple((self.sid[a], self.sid[b]) for a, b in nested)
        self._clock = clock
        self._spans: list = []
        self._stack: list = []
        self._op = -1
        self._restore: list = []
        self.totals = Totals([0] * len(self.names), [0.0] * len(self.names),
                             [0.0] * len(self.names),
                             {p: 0.0 for p in self._nested})

    # -- install / uninstall ------------------------------------------------

    def _wrapper(self, fn, sid: int, observed: bool):
        spans, stack, clock, tracer = self._spans, self._stack, self._clock, self

        def traced(*args, **kwargs):
            if not stack:  # called outside run_op: not part of an operation
                return fn(*args, **kwargs)
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (sid, parent, t0, t1, tracer._op, None)
            if observed:
                spans[idx] = (sid, parent, t0, t1, tracer._op, (args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def _namespaces(self):
        prefix = self._package + "."
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == self._package or name.startswith(prefix)):
                yield mod, vars(mod)
        for cls in self._classes:
            yield cls, vars(cls)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for sid, (fn, _name, _layer) in enumerate(self._targets, 1):
            observed = sid in self._observers
            wrappers[id(fn)] = (fn, self._wrapper(fn, sid, observed))
        for owner, namespace in self._namespaces():
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- operations ---------------------------------------------------------

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as one operation under a root span, then flush."""
        self._op = op_id
        self._spans.clear()
        self._spans.append(None)
        self._stack.append(0)
        t0 = self._clock()
        try:
            return fn(*args)
        finally:
            t1 = self._clock()
            self._stack.pop()
            self._spans[0] = (ROOT, -1, t0, t1, op_id, None)
            self._flush()

    def _flush(self):
        spans = self._spans
        tot = self.totals
        calls, self_s, incl_s, nested_s = derive(spans, len(self.names),
                                                 self._nested)
        for sid in range(len(self.names)):
            tot.calls[sid] += calls[sid]
            tot.self_s[sid] += self_s[sid]
            tot.incl_s[sid] += incl_s[sid]
        for pair, v in nested_s.items():
            tot.nested_s[pair] += v
        op_extra: dict = {}
        for span in spans:
            payload = span[5]
            if payload is not None:
                self._observers[span[0]](payload[0], payload[1], op_extra)
        tot.per_op.append(op_extra)
        tot.ops += 1
        tot.op_s += spans[0][3] - spans[0][2]
        spans.clear()
