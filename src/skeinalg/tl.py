"""Temperley-Lieb diagram categories over Z[A, A^-1].

Conventions (pinned once for the whole package):
  * boundary points of an (n_bottom, n_top) diagram are indexed
    circularly: bottom row left to right, then top row right to left;
  * a closed loop evaluates to delta = -A^2 - A^-2;
  * the empty diagram is the unit: its closure evaluates to 1, so the
    0-crossing unknot evaluates to delta.

Morphisms are Laurent-coefficient combinations of planar matchings.  All
gluing runs through one engine, ``_fold``: it carries a combination of
mate tables over the open boundary and lets each morphism act on the top
points it touches, its caps joining two mates (or closing a loop worth
delta) and its cups inserting a mated pair.  During the fold a
coefficient is a plain {exponent: int} dict; it becomes a LaurentPoly
only for the output terms.  ``_plan`` is the one place a morphism
becomes fold work: a one-monomial identity term (a crossing's or a
twist's) that scales every table at once, and each other term with its
factor times the delta powers it can close.  The fold only applies
plans; its three callers, ``tl_compose``, ``tl_tensor`` and the tangle
fold, plan each distinct morphism once per fold.  The rewrites and the
annular closure read the circular mate table directly, the plane
closure is the annular one at z = delta, and ``TLDiagram.pairs`` exists
only for printing.  A coefficient other than an int or a LaurentPoly
raises ContractViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ContractViolation, ValidationError, int_arg
from .laurent import LaurentPoly


def delta() -> LaurentPoly:
    """The loop value -A^2 - A^-2."""
    return LaurentPoly.from_dict({2: -1, -2: -1})


# catalan(1000) has 598 digits and takes under a millisecond; the loop's
# time grows about as n^2, and past n ~ 7000 str() refuses the result
CATALAN_MAX_N = 1000


def catalan(n: int) -> int:
    """The n-th Catalan number; ContractViolation past CATALAN_MAX_N."""
    if int_arg(n, "catalan n") > CATALAN_MAX_N:
        raise ContractViolation(
            f"catalan n = {n} exceeds CATALAN_MAX_N = {CATALAN_MAX_N}")
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


@dataclass(frozen=True)
class TLDiagram:
    """A planar perfect matching of the boundary of a rectangle.

    mate[i] is the circular index matched with circular index i.
    """

    n_bottom: int
    n_top: int
    mate: tuple

    def __post_init__(self):
        n = int_arg(self.n_bottom, "n_bottom") + int_arg(self.n_top, "n_top")
        if len(self.mate) != n:
            raise ContractViolation("matching has wrong size")
        if n % 2:
            raise ContractViolation("odd number of boundary points")
        for i, j in enumerate(self.mate):
            if j == i or not (0 <= j < n) or self.mate[j] != i:
                raise ValidationError("mate table is not a perfect matching")
        # balanced-parenthesis planarity criterion on the circular ordering
        stack = []
        for i, j in enumerate(self.mate):
            if j > i:
                stack.append(i)
            else:
                if not stack or stack[-1] != j:
                    raise ValidationError("matching is not planar")
                stack.pop()

    def pairs(self):
        """Matched pairs as ((side, pos), (side, pos)) tuples, for printing."""
        points = ([("bottom", p) for p in range(self.n_bottom)]
                  + [("top", p) for p in reversed(range(self.n_top))])
        return [(points[i], points[j]) for i, j in enumerate(self.mate)
                if j > i]


def identity_diagram(n: int) -> TLDiagram:
    int_arg(n, "width n")   # before range(2 * n)
    return TLDiagram(n, n, tuple(2 * n - 1 - i for i in range(2 * n)))


def cup_diagram() -> TLDiagram:
    """No bottom points, two top points joined."""
    return TLDiagram(0, 2, (1, 0))


def cap_diagram() -> TLDiagram:
    """Two bottom points joined, no top points."""
    return TLDiagram(2, 0, (1, 0))


@lru_cache(maxsize=None)
def _noncrossing_matchings(n: int):
    """All noncrossing perfect matchings of n linearly ordered points."""
    if n % 2:
        return ()
    if n == 0:
        return ((),)
    out = []
    for k in range(1, n, 2):
        for inner in _noncrossing_matchings(k - 1):
            for outer in _noncrossing_matchings(n - k - 1):
                mate = [0] * n
                mate[0], mate[k] = k, 0
                for i, j in enumerate(inner):
                    mate[i + 1] = j + 1
                for i, j in enumerate(outer):
                    mate[i + k + 1] = j + k + 1
                out.append(tuple(mate))
    return tuple(out)


# Catalan(10) = 16796 diagrams on 20 points take a fraction of a second;
# every two points more multiply the count by about four
TL_BASIS_MAX_POINTS = 20


def tl_basis(n_bottom: int, n_top: int) -> list:
    """All planar matchings in lexicographic order; empty for odd totals.

    The count equals the Catalan number of half the boundary size.
    Negative widths and more than TL_BASIS_MAX_POINTS boundary points
    raise ContractViolation before anything is enumerated.
    """
    n = int_arg(n_bottom, "n_bottom") + int_arg(n_top, "n_top")
    if n > TL_BASIS_MAX_POINTS:
        raise ContractViolation(
            f"hom({n_bottom}, {n_top}) has {n} boundary points; tl_basis "
            f"enumerates at most {TL_BASIS_MAX_POINTS}")
    if n % 2:
        return []
    return [TLDiagram(n_bottom, n_top, m) for m in _noncrossing_matchings(n)]


# ---------------------------------------------------------------------------
# morphisms


def _laurent(c) -> LaurentPoly:
    """A coefficient as a LaurentPoly: an int becomes a constant."""
    if isinstance(c, LaurentPoly):
        return c
    if type(c) is int:
        return LaurentPoly.constant(c)
    raise ContractViolation(
        f"a coefficient is an int or a LaurentPoly, not {type(c).__name__}")


class TLMorphism:
    """A Laurent combination of diagrams with common boundary."""

    __slots__ = ("n_bottom", "n_top", "terms")

    def __init__(self, n_bottom: int, n_top: int, terms=None):
        self.n_bottom = int_arg(n_bottom, "n_bottom")
        self.n_top = int_arg(n_top, "n_top")
        terms = terms or {}
        if any((d.n_bottom, d.n_top) != (n_bottom, n_top) for d in terms):
            raise ContractViolation("term with mismatched boundary")
        self.terms = {d: c for d, v in terms.items() if (c := _laurent(v))}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TLMorphism):
            return NotImplemented
        return ((self.n_bottom, self.n_top) == (other.n_bottom, other.n_top)
                and self.terms == other.terms)

    __hash__ = None

    def __add__(self, other: "TLMorphism") -> "TLMorphism":
        if (self.n_bottom, self.n_top) != (other.n_bottom, other.n_top):
            raise ContractViolation("sum of morphisms with different boundaries")
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, LaurentPoly()) + c
        return TLMorphism(self.n_bottom, self.n_top, out)

    def __neg__(self):
        return TLMorphism(self.n_bottom, self.n_top,
                          {d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "TLMorphism":
        c = _laurent(c)
        return TLMorphism(self.n_bottom, self.n_top,
                          {d: c * v for d, v in self.terms.items()})

    def __repr__(self):
        if self.is_zero:
            return f"TLMorphism({self.n_bottom}->{self.n_top}; 0)"
        parts = [f"({c}) * {d.pairs()}" for d, c in self.terms.items()]
        return (f"TLMorphism({self.n_bottom}->{self.n_top}; "
                + " + ".join(parts) + ")")


def tl_from_diagram(diag: TLDiagram, coeff=1) -> TLMorphism:
    return TLMorphism(diag.n_bottom, diag.n_top, {diag: coeff})


def tl_identity(n: int) -> TLMorphism:
    return tl_from_diagram(identity_diagram(n))


def tl_cup() -> TLMorphism:
    return tl_from_diagram(cup_diagram())


def tl_cap() -> TLMorphism:
    return tl_from_diagram(cap_diagram())


def tl_e(n: int, i: int) -> TLMorphism:
    """The hook generator e_i = id^i tensor (cup cap) tensor id^(n-i-2)."""
    int_arg(i, "generator index", 0, int_arg(n, "width n") - 2)
    hook = tl_compose(tl_cap(), tl_cup())
    return tl_tensor(tl_tensor(tl_identity(i), hook), tl_identity(n - i - 2))


# ---------------------------------------------------------------------------
# gluing


def _rewrites(m: TLMorphism) -> list:
    """(caps, cups, coefficient) for each term of m.

    caps lists the left point of each bottom pair, innermost first, as a
    position in the segment that shrinks while they are applied; cups
    lists the left point of each top pair, outermost first, as its final
    position.  Applied in that order to the term's input points, they
    rebuild its wiring; the remaining points pass straight up.
    """
    out = []
    for diag, coeff in m.terms.items():
        nb, last = diag.n_bottom, len(diag.mate) - 1
        arcs = [(i, j) for i, j in enumerate(diag.mate) if i < j]
        # once the k caps with smaller right points are gone, the points
        # between this pair's ends are gone too
        rights = sorted(j for i, j in arcs if j < nb)
        caps = tuple(j - 2 * k - 1 for k, j in enumerate(rights))
        # circular index c is top position last - c
        cups = tuple(sorted(last - j for i, j in arcs if i >= nb))
        out.append((caps, cups, coeff))
    return out


def _rewrite(mate: tuple, at: int, caps: tuple, cups: tuple):
    """Apply one term's caps, then its cups, at boundary index ``at``.

    Returns the new mate table and the number of loops closed.  Only a
    move of a ``_plan`` comes here; the hook (one cap, then one cup at
    the same place) swaps two mates without rebuilding the table.
    """
    if caps == cups == (0,):
        # the hook: a cap then a cup at one place swaps mates
        a, b = mate[at], mate[at + 1]
        if a == at + 1:
            return mate, 1
        m = list(mate)
        m[a], m[b], m[at], m[at + 1] = b, a, at + 1, at
        return tuple(m), 0
    m = list(mate)
    loops = 0
    for p in caps:
        q = at + p
        a, b = m[q], m[q + 1]
        if a == q + 1:
            loops += 1
        else:
            m[a], m[b] = b, a
        del m[q:q + 2]
        m = [x - 2 if x > q else x for x in m]
    for p in cups:
        q = at + p
        m = [x + 2 if x >= q else x for x in m]
        m[q:q] = (q + 1, q)
    return tuple(m), loops


def _delta_powers(factor: LaurentPoly, most: int, d: tuple) -> tuple:
    """factor * d**l for l = 0..most, each as (exp, coeff) pairs, d given
    by its pairs."""
    out = [factor.terms]
    for _ in range(most):
        acc: dict = {}
        for e1, c1 in out[-1]:
            for e2, c2 in d:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        out.append(tuple((e, c) for e, c in acc.items() if c))
    return tuple(out)


def _plan(m: TLMorphism):
    """(bulk, moves): the work of gluing m, the one form a fold step takes.

    bulk is the (exp, coeff) monomial of m's identity term, the one term
    with no caps and no cups, which leaves every table in place, or None
    when that term is missing or its factor has more than one monomial;
    moves holds every other term of ``_rewrites(m)`` as (caps, cups,
    factor * delta**l for l = 0..len(caps)).  Callers plan each distinct
    morphism once per fold and keep nothing from one fold to the next.
    """
    d = delta().terms
    bulk, moves = None, []
    for caps, cups, factor in _rewrites(m):
        if not caps and not cups and len(factor.terms) == 1:
            (bulk,) = factor.terms
        else:
            moves.append((caps, cups, _delta_powers(factor, len(caps), d)))
    return bulk, moves


def _fold(n_in: int, n_out: int, steps) -> TLMorphism:
    """Glue planned morphisms one by one onto the identity on n_in points.

    The state maps a mate table to its coefficient, a plain
    {exponent: int} dict in A.  A table indexes the open boundary
    linearly: the n_in input points left to right, then the current top
    points left to right.  Each step is (pos, plan): the ``_plan`` of one
    morphism, acting on the top points from position pos on; the fold
    only applies plans, and its callers make them.  A plan's bulk
    monomial scales every table at once; each move rewrites each table
    and multiplies its factor straight into the target table's dict.
    After the step, only the tables holding a zero are rebuilt without
    it, and a table left empty is dropped.  Only the final tables get a
    LaurentPoly.  The result has n_out top points, which an empty state
    (a zero morphism on the way) cannot tell.
    """
    state = {tuple(range(n_in, 2 * n_in)) + tuple(range(n_in)): {0: 1}}
    for pos, (bulk, moves) in steps:
        at = n_in + pos
        if bulk is None:
            out: dict = {}
        else:
            e0, c0 = bulk
            out = {mate: {e + e0: c * c0 for e, c in coeff.items()}
                   for mate, coeff in state.items()}
        for mate, coeff in state.items():
            for caps, cups, powers in moves:
                m, loops = _rewrite(mate, at, caps, cups)
                f = powers[loops]
                acc = out.get(m)
                if acc is None:
                    acc = out[m] = {}
                for e1, c1 in coeff.items():
                    for e2, c2 in f:
                        e = e1 + e2
                        acc[e] = acc.get(e, 0) + c1 * c2
        for m in [m for m, acc in out.items() if 0 in acc.values()]:
            acc = {e: c for e, c in out[m].items() if c}
            if acc:
                out[m] = acc
            else:
                del out[m]
        state = out
    # linear index x of a top point is circular index top - x
    top = 2 * n_in + n_out - 1
    terms = {}
    for mate, coeff in state.items():
        circular = [0] * (n_in + n_out)
        for x, y in enumerate(mate):
            circular[x if x < n_in else top - x] = y if y < n_in else top - y
        diag = TLDiagram(n_in, n_out, tuple(circular))
        terms[diag] = LaurentPoly.from_dict(coeff)
    return TLMorphism(n_in, n_out, terms)


def tl_compose(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Stack g on top of f: the composite (f.n_bottom -> g.n_top).

    Each closed loop created contributes a factor delta.
    """
    if f.n_top != g.n_bottom:
        raise ContractViolation(
            f"cannot stack {g.n_bottom} onto {f.n_top} strands")
    return _fold(f.n_bottom, g.n_top, [(0, _plan(f)), (0, _plan(g))])


def tl_tensor(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Side-by-side placement; widths add and coefficients multiply."""
    return _fold(f.n_bottom + g.n_bottom, f.n_top + g.n_top,
                 [(f.n_bottom, _plan(g)), (0, _plan(f))])


def _sign(sign, what: str) -> int:
    """sign, if it is the int 1 or -1; else ContractViolation naming what."""
    if not int_arg(sign, what, -1, 1):
        raise ContractViolation(f"{what} must be +1 or -1, got 0")
    return sign


def crossing_resolution(sign: int) -> TLMorphism:
    """The Kauffman resolution of a crossing on two strands.

    Positive: A * id + A^-1 * e; negative: A^-1 * id + A * e.  Built
    straight from its two diagrams, the hook being the one diagram of
    cap then cup.
    """
    _sign(sign, "crossing sign")
    (hook,) = tl_compose(tl_cap(), tl_cup()).terms
    return TLMorphism(2, 2, {
        identity_diagram(2): LaurentPoly.monomial(1, sign),
        hook: LaurentPoly.monomial(1, -sign)})


# ---------------------------------------------------------------------------
# closures


class AnnularClass:
    """An element of the annulus skein module in the basis z^k, k an int >= 0.

    z is the class of the core curve; contractible curves have been
    evaluated to delta.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for k in coeffs:
            int_arg(k, "z-degree")
        self.coeffs = {k: c for k, v in coeffs.items() if (c := _laurent(v))}

    def __eq__(self, other):
        if not isinstance(other, AnnularClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, LaurentPoly()) + c
        return AnnularClass(out)

    def __mul__(self, other):
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, LaurentPoly()) + c1 * c2
        return AnnularClass(out)

    def text(self, var: str = "A") -> str:
        """The class with its Laurent coefficients written in ``var``."""
        if not self.coeffs:
            return "AnnularClass(0)"
        parts = [f"({c.text(var)})*z^{k}"
                 for k, c in sorted(self.coeffs.items())]
        return "AnnularClass(" + " + ".join(parts) + ")"

    __repr__ = text


def _closure_windings(diag: TLDiagram) -> list:
    """Net winding of each curve of a square diagram closed top i to
    bottom i, by the arc from circular index c to 2n - 1 - c.

    Crossing an arc from the top row (c >= n) to the bottom counts +1.
    """
    mate = diag.mate
    n, last = diag.n_bottom, len(mate) - 1
    seen = [False] * len(mate)
    out = []
    for start in range(len(mate)):
        if seen[start]:
            continue
        winding = 0
        c = start
        while not seen[c]:
            d = mate[c]
            seen[c] = seen[d] = True
            winding += 1 if d >= n else -1
            c = last - d
        out.append(winding)
    return out


def annulus_closure_eval(m: TLMorphism) -> AnnularClass:
    """Close top i to bottom i around the annulus core.

    A closed component winding zero net times around the core is
    contractible and contributes delta; a component with nonzero net
    winding is core-parallel and contributes z.  Embedded curves in an
    annulus admit no other options.
    """
    if m.n_bottom != m.n_top:
        raise ContractViolation("annular closure needs a square morphism")
    d = delta()
    out: dict = {}
    for diag, coeff in m.terms.items():
        windings = _closure_windings(diag)
        contractible = windings.count(0)
        core = len(windings) - contractible
        out[core] = out.get(core, LaurentPoly()) + coeff * d ** contractible
    return AnnularClass(out)


def plane_closure(m: TLMorphism) -> LaurentPoly:
    """Close top i to bottom i around the right side in the plane.

    The annulus sits in the plane, where its core curve z bounds a disc,
    so this is the annular closure at z = delta.  The empty diagram
    closes to 1.
    """
    if m.n_bottom != m.n_top:
        raise ContractViolation("plane closure needs a square morphism")
    d = delta()
    total = LaurentPoly()
    for k, coeff in annulus_closure_eval(m).coeffs.items():
        total = total + coeff * d ** k
    return total
