"""Ribbon tangles in Morse position and their Temperley-Lieb interpretation.

A tangle is a list of horizontal slices; each slice is a tensor of
elementary events (identity, cup, cap, signed crossing, signed twist,
coupon).  The interpretation folds the slices bottom to top with the
one gluing engine of ``tl``: each event but the identity acts on just
the open boundary points it touches, through the plan of its
morphism, made once per distinct event and fold, and only the final
terms become checked ``TLDiagram``s.

Conventions:
  * cross+ resolves to A*id + A^-1*e, cross- to the mirror;
  * twist+ is the scalar -A^3 on one strand, twist- is -A^-3;
  * writhe counts crossing signs plus twist signs.

The closed-tangle evaluator has a second, independent route: the state
sum over all 2^c crossing resolutions, which never touches the
diagram-composition code.  It is one forward pass over the crossings
that keeps one Laurent sum and one count of states per way the
crossings done so far have joined the wires across the cut between done
and to come, so states that join the cut alike share all the work after
it (the scanning of Bar-Natan's fast Khovanov homology computations).
Its counts must add up to 2^c, and it refuses tangles with more than
``STATE_SUM_MAX_CROSSINGS`` = 20 crossings before it starts.  Both
routes must agree and the bracket checks this at runtime for small
crossing numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (ContractViolation, InternalCheckError, TangleShapeError,
                     int_arg)
from .laurent import LaurentPoly
from .tl import (TLMorphism, _fold, _plan, _sign, crossing_resolution,
                 delta, plane_closure, tl_cap, tl_cup, tl_identity)
# unused here, but benchmarks/test_bench.py traces tl_compose under this name
from .tl import tl_compose  # noqa: F401


# kind -> (strands in, strands out); a coupon has its morphism's widths
_WIDTHS = {"id": (1, 1), "cup": (0, 2), "cap": (2, 0), "cross": (2, 2),
           "twist": (1, 1), "coupon": None}
# the kinds that carry a sign of +1 or -1, and what the sign is called
_SIGNED = {"cross": "crossing sign", "twist": "twist sign"}


@dataclass(frozen=True)
class Event:
    kind: str                 # a key of _WIDTHS
    sign: int = 0             # crossings and twists
    # coupons; == compares it, hash() skips it (a TLMorphism is unhashable)
    morphism: object = field(default=None, hash=False)

    def __post_init__(self):
        """Raise ContractViolation on a bad kind, sign or morphism."""
        if self.kind not in _WIDTHS:
            raise ContractViolation(f"unknown event kind {self.kind!r}")
        if self.kind in _SIGNED:
            _sign(self.sign, _SIGNED[self.kind])
        else:
            int_arg(self.sign, f"{self.kind} event sign", 0, 0)
        want = TLMorphism if self.kind == "coupon" else type(None)
        if not isinstance(self.morphism, want):
            raise ContractViolation(
                f"a {self.kind} event's morphism must be {want.__name__}, "
                f"not {type(self.morphism).__name__}")

    def widths(self):
        return _WIDTHS[self.kind] or (self.morphism.n_bottom,
                                      self.morphism.n_top)


ID = Event("id")
CUP = Event("cup")
CAP = Event("cap")
# one shared event per sign, so a long braid holds no copies
_CROSS = {1: Event("cross", 1), -1: Event("cross", -1)}
_TWIST = {1: Event("twist", 1), -1: Event("twist", -1)}


def cross(sign: int) -> Event:
    return _CROSS[_sign(sign, "crossing sign")]


def twist(sign: int) -> Event:
    return _TWIST[_sign(sign, "twist sign")]


def coupon(m: TLMorphism) -> Event:
    return Event("coupon", 0, m)


@dataclass(frozen=True)
class SliceTangle:
    strands_in: int
    slices: tuple  # tuple of tuples of Event
    # wire counts below, between and above the slices; they follow from
    # the slices, so == and hash ignore them
    widths: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        """Compute the widths; raises on a non-Event or unchained slices."""
        w = int_arg(self.strands_in, "strands_in")
        out = [w]
        for k, sl in enumerate(self.slices):
            win = wout = 0
            for e in sl:
                if not isinstance(e, Event):
                    raise ContractViolation(f"slice {k} holds {e!r}, not an Event")
                i, o = e.widths()
                win, wout = win + i, wout + o
            if win != w:
                raise TangleShapeError(
                    f"slice {k} consumes {win} strands but {w} are available")
            w = wout
            out.append(w)
        object.__setattr__(self, "widths", tuple(out))

    @property
    def is_closed(self) -> bool:
        return self.widths[0] == 0 and self.widths[-1] == 0

    def crossing_count(self) -> int:
        return sum(1 for sl in self.slices for e in sl if e.kind == "cross")

    def has_coupons(self) -> bool:
        return any(e.kind == "coupon" for sl in self.slices for e in sl)


def tangle(strands_in: int, slices) -> SliceTangle:
    return SliceTangle(strands_in, tuple(tuple(s) for s in slices))


def _event_morphism(e: Event) -> TLMorphism:
    """The morphism of a non-identity event."""
    if e.kind == "cup":
        return tl_cup()
    if e.kind == "cap":
        return tl_cap()
    if e.kind == "cross":
        return crossing_resolution(e.sign)
    if e.kind == "twist":
        return tl_identity(1).scaled(LaurentPoly.from_dict({3 * e.sign: -1}))
    return e.morphism


def interpret_tangle(t: SliceTangle) -> TLMorphism:
    """Fold the slices bottom-to-top into a single morphism.

    Each slice's events act right to left, so a rewrite never moves the
    points of the events still to come; identity events do nothing.  Each
    distinct event's morphism is planned once per fold.
    """
    widths = t.widths
    plans: dict = {}

    def steps():
        for k, sl in enumerate(t.slices):
            at = widths[k]
            for e in reversed(sl):
                at -= e.widths()[0]
                if e.kind == "id":
                    continue
                plan = plans.get(e)
                if plan is None:
                    plan = plans[e] = _plan(_event_morphism(e))
                yield at, plan

    return _fold(t.strands_in, widths[-1], steps())


def writhe(t: SliceTangle) -> int:
    return sum(e.sign for sl in t.slices for e in sl
               if e.kind in ("cross", "twist"))


# ---------------------------------------------------------------------------
# the state sum (independent of the composition machinery)

# the state sum refuses tangles with more crossings before it starts: its
# forward pass holds at most 2^k states before crossing k
STATE_SUM_MAX_CROSSINGS = 20
# kauffman_bracket runs the state sum up to this many crossings
STATE_SUM_VERIFY_MAX_CROSSINGS = 10


def bracket_state_sum(t: SliceTangle) -> LaurentPoly:
    """Sum over all 2^c crossing resolutions of A^(smoothing exponents) * delta^loops.

    One pass in slice order labels every wire segment, joins the segment
    ends that no crossing separates (cups share a label, caps join two)
    and records the four ends of each crossing; a cap that closes a loop
    multiplies the start value by delta, and a twist by -A^(3 sign).  A
    forward pass then resolves the crossings in slice order.  Before
    crossing k it holds one Laurent sum and one count of states per way
    the smoothings of crossings 0..k-1 join the cut at k: the pre-pass
    classes with ends at crossings both before k and from k on, each
    labelled by its block in order of first appearance.  The other
    classes are finished or not yet read, so the crossings to come depend
    on nothing else.  Each smoothing makes two joins; a join of two ends
    already in one block closes a loop, and their number does not depend
    on the order of the joins.  It adds its count to the state it
    reaches, and its sum times A^(+-1) * delta^loops.  After the last
    crossing the cut is empty and one state holds the sum; its count
    must be 2^c, or InternalCheckError is raised.  Coupons are not
    supported here; this is the independent check route.
    """
    if t.has_coupons():
        raise ContractViolation("state sum does not evaluate coupons")
    if not t.is_closed:
        raise TangleShapeError("state sum needs a closed tangle")
    c = t.crossing_count()
    if c > STATE_SUM_MAX_CROSSINGS:
        raise ContractViolation(
            f"state sum over {c} crossings exceeds the cap of "
            f"{STATE_SUM_MAX_CROSSINGS}, which bounds the states its forward "
            f"pass holds at once by 2^{STATE_SUM_MAX_CROSSINGS}")

    # union-find over the wire segments, with path halving
    parent: list = []

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def fresh():
        parent.append(len(parent))
        return len(parent) - 1

    start = LaurentPoly.constant(1)
    crossings = []  # (sign, (in left, in right, out left, out right))
    wires: list = []
    for sl in t.slices:
        new_wires = []
        pos = 0
        for e in sl:
            if e.kind == "cup":
                new_wires += [fresh()] * 2
                continue
            if e.kind == "cap":
                x, y = find(wires[pos]), find(wires[pos + 1])
                if x == y:
                    start = start * delta()
                parent[x] = y
            elif e.kind == "cross":
                ends = (fresh(), fresh())
                crossings.append((e.sign, (wires[pos], wires[pos + 1]) + ends))
                new_wires += ends
            else:
                if e.kind == "twist":
                    start = start * LaurentPoly.monomial(-1, 3 * e.sign)
                new_wires.append(wires[pos])
            pos += e.widths()[0]
        wires = new_wires

    # cut[k]: the pre-pass classes with ends at crossings both before k and
    # from k on; crossings 0..k-1 join only classes with ends before k, and
    # crossings k..c-1 read only classes with ends from k on
    crossings = [(sign, tuple(map(find, ends))) for sign, ends in crossings]
    first: dict = {}
    last: dict = {}
    for k, (_, ends) in enumerate(crossings):
        for r in ends:
            first.setdefault(r, k)
            last[r] = k
    cut = [[r for r in first if first[r] < k <= last[r]] for k in range(c + 1)]

    d = delta()
    loop_terms = (((0, 1),), d.terms, (d * d).terms)  # 0, 1 or 2 loops
    # states: the block labels of cut[k], by first appearance -> (the Laurent
    # sum {exponent: coefficient}, the count) of the smoothings of crossings
    # 0..k-1 that join the cut that way
    states: dict = {(): (start.to_dict(), 1)}
    for k, (sign, ends) in enumerate(crossings):
        # the classes crossing k reads for the first time get fresh labels
        here = cut[k] + [r for r in dict.fromkeys(ends) if first[r] == k]
        at = {r: i for i, r in enumerate(here)}
        new_labels = list(range(len(cut[k]), len(here)))
        a, b, p, q = map(at.get, ends)
        keep = [at[r] for r in cut[k + 1]]
        # smoothing 0 keeps the strands parallel (the A-smoothing of a
        # positive crossing); smoothing 1 is the hook
        smoothings = ((((a, p), (b, q)), sign), (((a, b), (p, q)), -sign))
        following: dict = {}
        for key, (poly, count) in states.items():
            for pairs, shift in smoothings:
                labels = [*key, *new_labels]
                loops = 0
                for i, j in pairs:
                    x, y = labels[i], labels[j]
                    if x == y:
                        loops += 1
                    else:  # block y joins block x
                        labels = [x if z == y else z for z in labels]
                seen: dict = {}
                joined = tuple([seen.setdefault(labels[i], len(seen)) for i in keep])
                total, n = following.get(joined, ({}, 0))
                following[joined] = total, n + count
                for f, g in loop_terms[loops]:
                    for exponent, coeff in poly.items():
                        exponent += shift + f
                        total[exponent] = total.get(exponent, 0) + coeff * g
        states = following
    poly, count = states[()]
    if count != 1 << c:
        raise InternalCheckError(f"state sum counted {count} of 2^{c} states")
    return LaurentPoly.from_dict(poly)


def kauffman_bracket(t: SliceTangle) -> LaurentPoly:
    """Bracket of a closed tangle: ``plane_closure(interpret_tangle(t))``.

    The independent state sum recomputes the value whenever the tangle is
    coupon-free with at most ``STATE_SUM_VERIFY_MAX_CROSSINGS`` crossings,
    and disagreement raises InternalCheckError.
    """
    if not t.is_closed:
        raise TangleShapeError("the Kauffman bracket needs a closed tangle")
    value = plane_closure(interpret_tangle(t))
    if (not t.has_coupons()
            and t.crossing_count() <= STATE_SUM_VERIFY_MAX_CROSSINGS):
        other = bracket_state_sum(t)
        if other != value:
            raise InternalCheckError(
                f"state sum {other} disagrees with composition {value}")
    return value


# ---------------------------------------------------------------------------
# braids and closures


# a braid on n strands is n wide, and its closure builds 2n + len(word)
# slices up to 2n wide; on a 2-vCPU shared x86_64 host the s1 closure on
# 64 strands builds in 2 ms and its bracket takes 9 ms, while on 2000
# strands the bracket took 8 s; the plane and annulus closures of the
# open s1 on 64 strands take 1.5 and 0.4 ms, while `skeinalg tl closure`
# on 2000 strands took 4.3 s
CLOSED_BRAID_MAX_STRANDS = 64


def braid_to_slices(word, strands: int) -> SliceTangle:
    """One slice per letter; letter +-i is a crossing at position i-1.

    More than CLOSED_BRAID_MAX_STRANDS strands raise ContractViolation
    before any slice is built.
    """
    if int_arg(strands, "braid strands", 1) > CLOSED_BRAID_MAX_STRANDS:
        raise ContractViolation(
            f"braid on {strands} strands exceeds "
            f"CLOSED_BRAID_MAX_STRANDS = {CLOSED_BRAID_MAX_STRANDS}")
    slices = []
    for k, letter in enumerate(word):
        # type, not isinstance, turns bools away: True would pass as 1
        i = abs(letter) if type(letter) is int else 0
        if not 0 < i < strands:
            raise ContractViolation(
                f"braid letter {letter!r} at position {k}: letters are "
                f"nonzero ints from -{strands - 1} to {strands - 1}")
        sl = [ID] * (i - 1) + [cross(1 if letter > 0 else -1)] + \
            [ID] * (strands - i - 1)
        slices.append(sl)
    return tangle(strands, slices)


def closed_braid_tangle(word, strands: int) -> SliceTangle:
    """Trace closure of a braid: top i joins bottom i around the right side.

    The strand count is capped by braid_to_slices, before any slice.
    """
    b = braid_to_slices(word, strands)
    slices = []
    for k in range(strands):
        slices.append([ID] * k + [CUP] + [ID] * k)
    for sl in b.slices:
        slices.append(list(sl) + [ID] * strands)
    for k in range(strands - 1, -1, -1):
        slices.append([ID] * k + [CAP] + [ID] * k)
    return tangle(0, slices)


def kink_slices(width: int, wire: int, sign: int) -> list:
    """Three slices inserting a curl on the given wire (a Reidemeister I move).

    The returned move multiplies the interpretation by -A^(3*sign).
    """
    int_arg(wire, "kink wire", 0, int_arg(width, "kink width", 1) - 1)
    return [
        [ID] * wire + [CUP] + [ID] * (width - wire),
        [ID] * (wire + 1) + [cross(sign)] + [ID] * (width - wire - 1),
        [ID] * wire + [CAP] + [ID] * (width - wire),
    ]


def insert_slices(t: SliceTangle, index: int, new_slices) -> SliceTangle:
    """A new tangle with extra slices spliced in before slice ``index``."""
    slices = list(t.slices)
    # slicing would clamp an index past the end and count a negative one
    # from the end
    int_arg(index, "slice index", 0, len(slices))
    slices[index:index] = [tuple(s) for s in new_slices]
    return tangle(t.strands_in, slices)


# ---------------------------------------------------------------------------
# cabling


_CABLE_STAGES = {
    # event -> list of stages; each stage is a list of events
    "id": [[ID, ID]],
    "cup": [[CUP], [ID, CUP, ID]],
    "cap": [[ID, CAP, ID], [CAP]],
}


def _cable_event(e: Event) -> list:
    if e.kind in _CABLE_STAGES:
        return [list(stage) for stage in _CABLE_STAGES[e.kind]]
    if e.kind == "cross":
        x = cross(e.sign)
        return [[ID, x, ID], [x, x], [ID, x, ID]]
    raise ContractViolation(f"cannot cable a {e.kind} event")


def cable_double(t: SliceTangle) -> SliceTangle:
    """Replace every strand by two parallel strands (blackboard framing).

    Crossings become the four-crossing cable pattern; cups and caps nest.
    """
    slices_out = []
    for sl in t.slices:
        expansions = [_cable_event(e) for e in sl]
        depth = max(len(x) for x in expansions) if expansions else 0
        for stage in range(depth):
            row = []
            for e, exp in zip(sl, expansions):
                if stage < len(exp):
                    row.extend(exp[stage])
                else:
                    # event already finished; pad with identities on its output
                    row.extend([ID] * (2 * e.widths()[1]))
            slices_out.append(row)
    return tangle(2 * t.strands_in, slices_out)
