"""Ribbon tangles in Morse position and their Temperley-Lieb interpretation.

A tangle is a list of horizontal slices; each slice is a tensor of
elementary events (identity, cup, cap, signed crossing, signed twist,
coupon).  The interpretation folds the slices bottom to top with the
one gluing engine of ``tl``: each event but the identity acts on just
the open boundary points it touches, through the rewrites of its
morphism, and only the final terms become checked ``TLDiagram``s.

Conventions:
  * cross+ resolves to A*id + A^-1*e, cross- to the mirror;
  * twist+ is the scalar -A^3 on one strand, twist- is -A^-3;
  * writhe counts crossing signs plus twist signs.

The closed-tangle evaluator has a second, independent route: the brute
force state sum over all 2^c crossing resolutions, which never touches
the diagram-composition code.  It is a depth-first walk over the
crossings on a union-find with rollback, so states that share a prefix
of resolutions share its work, and it refuses tangles with more than
``STATE_SUM_MAX_CROSSINGS`` = 20 crossings before enumerating.  Both
routes must agree and the bracket checks this at runtime for small
crossing numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ContractViolation, InternalCheckError, TangleShapeError
from .laurent import LaurentPoly
from .tl import (TLMorphism, _fold, _rewrites, crossing_resolution, delta,
                 tl_cap, tl_cup, tl_identity)
# unused here, but benchmarks/test_bench.py traces tl_compose under this name
from .tl import tl_compose  # noqa: F401


@dataclass(frozen=True)
class Event:
    kind: str                 # id, cup, cap, cross, twist, coupon
    sign: int = 0             # crossings and twists
    # coupons; == compares it, hash() skips it (a TLMorphism is unhashable)
    morphism: object = field(default=None, hash=False)

    def widths(self):
        if self.kind == "id" or self.kind == "twist":
            return 1, 1
        if self.kind == "cup":
            return 0, 2
        if self.kind == "cap":
            return 2, 0
        if self.kind == "cross":
            return 2, 2
        return self.morphism.n_bottom, self.morphism.n_top


ID = Event("id")
CUP = Event("cup")
CAP = Event("cap")


def cross(sign: int) -> Event:
    if sign not in (1, -1):
        raise ContractViolation("crossing sign must be +1 or -1")
    return Event("cross", sign)


def twist(sign: int) -> Event:
    if sign not in (1, -1):
        raise ContractViolation("twist sign must be +1 or -1")
    return Event("twist", sign)


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
        """Compute the widths; raises if the slices do not chain."""
        w = self.strands_in
        out = [w]
        for k, sl in enumerate(self.slices):
            win = sum(e.widths()[0] for e in sl)
            if win != w:
                raise TangleShapeError(
                    f"slice {k} consumes {win} strands but {w} are available")
            w = sum(e.widths()[1] for e in sl)
            out.append(w)
        object.__setattr__(self, "widths", tuple(out))

    @property
    def strands_out(self) -> int:
        return self.widths[-1]

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
    points of the events still to come; identity events do nothing.  The
    rewrites of each distinct event are computed once per fold.
    """
    widths = t.widths
    rewrites: dict = {}

    def steps():
        for k, sl in enumerate(t.slices):
            at = widths[k]
            for e in reversed(sl):
                at -= e.widths()[0]
                if e.kind == "id":
                    continue
                r = rewrites.get(e)
                if r is None:
                    r = rewrites[e] = _rewrites(_event_morphism(e))
                yield at, r

    return _fold(t.strands_in, widths[-1], steps())


def writhe(t: SliceTangle) -> int:
    return sum(e.sign for sl in t.slices for e in sl
               if e.kind in ("cross", "twist"))


# ---------------------------------------------------------------------------
# brute-force state sum (independent of the composition machinery)

# the state sum refuses tangles with more crossings (2^20 states) at once
STATE_SUM_MAX_CROSSINGS = 20
# kauffman_bracket runs the state sum up to this many crossings
STATE_SUM_VERIFY_MAX_CROSSINGS = 10


def bracket_state_sum(t: SliceTangle) -> LaurentPoly:
    """Sum over all 2^c crossing resolutions of A^(smoothing exponents) * delta^loops.

    One pass in slice order labels every wire segment, joins the segment
    ends that no crossing separates (cups share a label, caps join two)
    and records the four ends of each crossing.  A depth-first walk then
    resolves the crossings in slice order on a union-find with rollback,
    so states that share a prefix of resolutions share its work, and
    each state adds one to a histogram over (exponent, loops).  A loop
    is a join of two ends already connected; their number does not
    depend on the order of the joins.  Coupons are not supported here;
    this is the independent check route.
    """
    if t.has_coupons():
        raise ContractViolation("state sum does not evaluate coupons")
    if not t.is_closed:
        raise TangleShapeError("state sum needs a closed tangle")
    c = t.crossing_count()
    if c > STATE_SUM_MAX_CROSSINGS:
        raise ContractViolation(
            f"state sum over {c} crossings exceeds the cap of "
            f"{STATE_SUM_MAX_CROSSINGS} (2^{c} states)")

    # union by rank, no path compression; undo holds (child, rank grew)
    parent: list = []
    rank: list = []
    undo: list = []

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def join(x, y):
        """Join the classes of x and y; 1 if they already were one (a loop)."""
        x, y = find(x), find(y)
        if x == y:
            return 1
        if rank[x] > rank[y]:
            x, y = y, x
        grew = rank[x] == rank[y]
        parent[x] = y
        rank[y] += grew
        undo.append((x, grew))
        return 0

    def fresh():
        parent.append(len(parent))
        rank.append(0)
        return len(parent) - 1

    cap_loops = 0
    twist_exponent = 0
    twist_sign = 1
    crossings = []  # (sign, in left, in right, out left, out right)
    wires: list = []
    for sl in t.slices:
        new_wires = []
        pos = 0
        for e in sl:
            if e.kind == "cup":
                node = fresh()
                new_wires += [node, node]
                continue
            if e.kind == "cap":
                cap_loops += join(wires[pos], wires[pos + 1])
            elif e.kind == "cross":
                ends = (fresh(), fresh())
                crossings.append((e.sign, wires[pos], wires[pos + 1]) + ends)
                new_wires += ends
            else:
                if e.kind == "twist":
                    twist_exponent += 3 * e.sign
                    twist_sign = -twist_sign
                new_wires.append(wires[pos])
            pos += e.widths()[0]
        wires = new_wires
    base = (parent[:], rank[:])

    histogram: dict = {}

    def walk(k, exponent, loops):
        if k == c:
            key = (exponent, loops)
            histogram[key] = histogram.get(key, 0) + 1
            return
        sign, a, b, p, q = crossings[k]
        mark = len(undo)
        # smoothing 0 keeps the strands parallel (the A-smoothing of a
        # positive crossing); smoothing 1 is the hook
        for x, y, u, v, step in ((a, p, b, q, 1), (a, b, p, q, -1)):
            walk(k + 1, exponent + sign * step, loops + join(x, y) + join(u, v))
            while len(undo) > mark:
                child, grew = undo.pop()
                rank[parent[child]] -= grew
                parent[child] = child

    walk(0, 0, cap_loops)
    if (parent, rank) != base:
        raise InternalCheckError("state sum walk left its union-find changed")

    by_loops: dict = {}
    for (exponent, loops), count in histogram.items():
        by_loops.setdefault(loops, {})[exponent + twist_exponent] = twist_sign * count
    d = delta()
    power = LaurentPoly.constant(1)
    total = LaurentPoly()
    for loops in range(max(by_loops) + 1):
        if loops in by_loops:
            total = total + LaurentPoly.from_dict(by_loops[loops]) * power
        power = power * d
    return total


def kauffman_bracket(t: SliceTangle) -> LaurentPoly:
    """Bracket of a closed tangle: the empty-diagram coefficient of its interpretation.

    The independent state sum recomputes the value whenever the tangle is
    coupon-free with at most ``STATE_SUM_VERIFY_MAX_CROSSINGS`` crossings,
    and disagreement raises InternalCheckError.  The fold's value alone
    is ``plane_closure(interpret_tangle(t))``.
    """
    if not t.is_closed:
        raise TangleShapeError("the Kauffman bracket needs a closed tangle")
    value = LaurentPoly()
    for coeff in interpret_tangle(t).terms.values():
        value = value + coeff  # the only (0,0) diagram is the empty one
    if (not t.has_coupons()
            and t.crossing_count() <= STATE_SUM_VERIFY_MAX_CROSSINGS):
        other = bracket_state_sum(t)
        if other != value:
            raise InternalCheckError(
                f"state sum {other} disagrees with composition {value}")
    return value


# ---------------------------------------------------------------------------
# braids and closures


def braid_to_slices(word, strands: int) -> SliceTangle:
    """One slice per letter; letter +-i is a crossing at position i-1."""
    if strands < 1:
        raise ContractViolation("a braid needs at least one strand")
    slices = []
    for k, letter in enumerate(word):
        i = abs(letter)
        if letter == 0 or i > strands - 1:
            raise ContractViolation(
                f"braid letter {letter} at position {k} out of range for "
                f"{strands} strands")
        sl = [ID] * (i - 1) + [cross(1 if letter > 0 else -1)] + \
            [ID] * (strands - i - 1)
        slices.append(sl)
    return tangle(strands, slices)


def closed_braid_tangle(word, strands: int) -> SliceTangle:
    """Trace closure of a braid: top i joins bottom i around the right side."""
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
    if not 0 <= wire < width:
        raise ContractViolation("kink wire out of range")
    return [
        [ID] * wire + [CUP] + [ID] * (width - wire),
        [ID] * (wire + 1) + [cross(sign)] + [ID] * (width - wire - 1),
        [ID] * wire + [CAP] + [ID] * (width - wire),
    ]


def insert_slices(t: SliceTangle, index: int, new_slices) -> SliceTangle:
    """A new tangle with extra slices spliced in before slice ``index``."""
    slices = list(t.slices)
    slices[index:index] = [tuple(s) for s in new_slices]
    return tangle(t.strands_in, slices)


def mirror_tangle(t: SliceTangle) -> SliceTangle:
    """Flip every crossing and twist sign (the mirror image)."""
    out = []
    for sl in t.slices:
        row = []
        for e in sl:
            if e.kind in ("cross", "twist"):
                row.append(Event(e.kind, -e.sign))
            else:
                row.append(e)
        out.append(row)
    return tangle(t.strands_in, out)


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
