"""Temperley-Lieb diagram categories over Z[A, A^-1].

Conventions (pinned once for the whole package):
  * boundary points of an (n_bottom, n_top) diagram are indexed
    circularly: bottom row left to right, then top row right to left;
  * a closed loop evaluates to delta = -A^2 - A^-2;
  * the empty diagram is the unit: its closure evaluates to 1, so the
    0-crossing unknot evaluates to delta.

Morphisms are Laurent-coefficient combinations of loop-free planar
matchings; loops appear only transiently while stacking and are
immediately converted to delta factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ContractViolation, ValidationError
from .laurent import LaurentPoly


def delta(var: str = "A") -> LaurentPoly:
    """The loop value -A^2 - A^-2."""
    return LaurentPoly.from_dict({2: -1, -2: -1}, var)


def catalan(n: int) -> int:
    out = 1
    for k in range(n):
        out = out * 2 * (2 * k + 1) // (k + 2)
    return out


@dataclass(frozen=True)
class TLDiagram:
    """A planar perfect matching of the boundary of a rectangle.

    mate[i] is the circular index matched with circular index i; loops
    counts free closed components (0 in canonical form).
    """

    n_bottom: int
    n_top: int
    mate: tuple
    loops: int = 0

    def __post_init__(self):
        n = self.n_bottom + self.n_top
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
        if self.loops < 0:
            raise ContractViolation("negative loop count")

    # circular index <-> (side, position)

    def bottom_index(self, pos: int) -> int:
        return pos

    def top_index(self, pos: int) -> int:
        return self.n_bottom + self.n_top - 1 - pos

    def pairs(self):
        """Matched pairs as ((side, pos), (side, pos)) tuples."""
        out = []
        for i, j in enumerate(self.mate):
            if j > i:
                out.append((self._point(i), self._point(j)))
        return out

    def _point(self, ci: int):
        if ci < self.n_bottom:
            return ("bottom", ci)
        return ("top", self.n_bottom + self.n_top - 1 - ci)

    def stripped(self):
        """(loop-free diagram, loop count)."""
        if not self.loops:
            return self, 0
        return TLDiagram(self.n_bottom, self.n_top, self.mate), self.loops


def diagram_from_pairs(n_bottom: int, n_top: int, pairs) -> TLDiagram:
    """Build a diagram from ((side, pos), (side, pos)) pairs."""
    n = n_bottom + n_top
    mate = [-1] * n

    def ci(point):
        side, pos = point
        if side == "bottom":
            if not 0 <= pos < n_bottom:
                raise ContractViolation(f"bottom position {pos} out of range")
            return pos
        if not 0 <= pos < n_top:
            raise ContractViolation(f"top position {pos} out of range")
        return n - 1 - pos

    for x, y in pairs:
        a, b = ci(x), ci(y)
        if mate[a] != -1 or mate[b] != -1:
            raise ContractViolation("point matched twice")
        mate[a], mate[b] = b, a
    return TLDiagram(n_bottom, n_top, tuple(mate))


def identity_diagram(n: int) -> TLDiagram:
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
    if n_bottom < 0 or n_top < 0:
        raise ContractViolation(
            f"widths must be nonnegative, got ({n_bottom}, {n_top})")
    n = n_bottom + n_top
    if n > TL_BASIS_MAX_POINTS:
        raise ContractViolation(
            f"hom({n_bottom}, {n_top}) has {n} boundary points; tl_basis "
            f"enumerates at most {TL_BASIS_MAX_POINTS}")
    if n % 2:
        return []
    return [TLDiagram(n_bottom, n_top, m)
            for m in sorted(_noncrossing_matchings(n))]


# ---------------------------------------------------------------------------
# morphisms


class TLMorphism:
    """A Laurent combination of loop-free diagrams with common boundary."""

    __slots__ = ("n_bottom", "n_top", "terms")

    def __init__(self, n_bottom: int, n_top: int, terms=None):
        self.n_bottom = n_bottom
        self.n_top = n_top
        clean: dict = {}
        for diag, coeff in (terms or {}).items():
            if (diag.n_bottom, diag.n_top) != (n_bottom, n_top):
                raise ContractViolation("term with mismatched boundary")
            if diag.loops:
                raise ContractViolation("terms must be loop-free")
            if isinstance(coeff, int):
                coeff = LaurentPoly.constant(coeff)
            if coeff:
                clean[diag] = clean.get(diag, LaurentPoly()) + coeff
        self.terms = {d: c for d, c in clean.items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, diag: TLDiagram) -> LaurentPoly:
        return self.terms.get(diag, LaurentPoly())

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
        return TLMorphism(self.n_bottom, self.n_top,
                          {d: c * v for d, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, LaurentPoly)):
            return self.scaled(c)
        return NotImplemented

    def __repr__(self):
        if self.is_zero:
            return f"TLMorphism({self.n_bottom}->{self.n_top}; 0)"
        parts = [f"({c}) * {d.pairs()}" for d, c in self.terms.items()]
        return (f"TLMorphism({self.n_bottom}->{self.n_top}; "
                + " + ".join(parts) + ")")


def tl_zero(n_bottom: int, n_top: int) -> TLMorphism:
    return TLMorphism(n_bottom, n_top, {})


def tl_from_diagram(diag: TLDiagram, coeff=1) -> TLMorphism:
    d, loops = diag.stripped()
    c = LaurentPoly.constant(coeff) if isinstance(coeff, int) else coeff
    return TLMorphism(d.n_bottom, d.n_top, {d: c * delta() ** loops})


def tl_identity(n: int) -> TLMorphism:
    return tl_from_diagram(identity_diagram(n))


def tl_cup() -> TLMorphism:
    return tl_from_diagram(cup_diagram())


def tl_cap() -> TLMorphism:
    return tl_from_diagram(cap_diagram())


def tl_e(n: int, i: int) -> TLMorphism:
    """The hook generator e_i = id^i tensor (cup cap) tensor id^(n-i-2)."""
    if not 0 <= i <= n - 2:
        raise ContractViolation(f"generator index {i} out of range for {n} strands")
    hook = tl_compose(tl_cap(), tl_cup())
    return tl_tensor(tl_tensor(tl_identity(i), hook), tl_identity(n - i - 2))


def _stack_diagrams(lower: TLDiagram, upper: TLDiagram):
    """Glue upper onto the top of lower; return (diagram, loops closed)."""
    a, b = lower.n_bottom, lower.n_top
    if upper.n_bottom != b:
        raise ContractViolation("stacking widths do not match")
    c = upper.n_top

    # nodes: ("b", i) bottom of result, ("t", k) top of result, ("m", j) glued
    def lower_node(ci):
        return ("b", ci) if ci < a else ("m", a + b - 1 - ci)

    def upper_node(ci):
        return ("m", ci) if ci < b else ("t", b + c - 1 - ci)

    edges: dict = {}  # node -> {tag: partner}
    for i, j in enumerate(lower.mate):
        if j > i:
            x, y = lower_node(i), lower_node(j)
            edges.setdefault(x, {})["L"] = y
            edges.setdefault(y, {})["L"] = x
    for i, j in enumerate(upper.mate):
        if j > i:
            x, y = upper_node(i), upper_node(j)
            edges.setdefault(x, {})["U"] = y
            edges.setdefault(y, {})["U"] = x

    seen_mid = set()
    pairs = []
    boundary = [("b", i) for i in range(a)] + [("t", k) for k in range(c)]
    done = set()
    for start in boundary:
        if start in done:
            continue
        (tag, cur), = edges[start].items()
        while cur[0] == "m":
            seen_mid.add(cur)
            tag = "U" if tag == "L" else "L"
            cur = edges[cur][tag]
        done.add(start)
        done.add(cur)
        pairs.append((start, cur))
    loops = lower.loops + upper.loops
    for j in range(b):
        node = ("m", j)
        if node in seen_mid or node not in edges:
            continue
        tag, cur = "L", node
        while cur not in seen_mid:
            seen_mid.add(cur)
            cur = edges[cur][tag]
            tag = "U" if tag == "L" else "L"
        loops += 1

    n = a + c
    mate = [-1] * n

    def ci(node):
        kind, pos = node
        return pos if kind == "b" else n - 1 - pos

    for x, y in pairs:
        u, v = ci(x), ci(y)
        mate[u], mate[v] = v, u
    return TLDiagram(a, c, tuple(mate)), loops


def tl_compose(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Stack g on top of f: the composite (f.n_bottom -> g.n_top).

    Each closed loop created contributes a factor delta; the result is
    loop-free canonical.
    """
    if f.n_top != g.n_bottom:
        raise ContractViolation(
            f"cannot stack {g.n_bottom} onto {f.n_top} strands")
    d = delta()
    out: dict = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            diag, loops = _stack_diagrams(d1, d2)
            coeff = c1 * c2 * d ** loops
            out[diag] = out.get(diag, LaurentPoly()) + coeff
    return TLMorphism(f.n_bottom, g.n_top, out)


def _tensor_diagrams(d1: TLDiagram, d2: TLDiagram) -> TLDiagram:
    nb, nt = d1.n_bottom + d2.n_bottom, d1.n_top + d2.n_top
    pairs = []
    for (s1, p1), (s2, p2) in d1.pairs():
        pairs.append(((s1, p1), (s2, p2)))
    for (s1, p1), (s2, p2) in d2.pairs():
        off1 = d1.n_bottom if s1 == "bottom" else d1.n_top
        off2 = d1.n_bottom if s2 == "bottom" else d1.n_top
        pairs.append(((s1, p1 + off1), (s2, p2 + off2)))
    out = diagram_from_pairs(nb, nt, pairs)
    if d1.loops or d2.loops:
        out = TLDiagram(nb, nt, out.mate, d1.loops + d2.loops)
    return out


def tl_tensor(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Side-by-side placement; widths add and coefficients multiply."""
    out: dict = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            diag = _tensor_diagrams(d1, d2)
            coeff = c1 * c2
            out[diag] = out.get(diag, LaurentPoly()) + coeff
    return TLMorphism(f.n_bottom + g.n_bottom, f.n_top + g.n_top, out)


def crossing_resolution(sign: int, var: str = "A") -> TLMorphism:
    """The Kauffman resolution of a crossing on two strands.

    Positive: A * id + A^-1 * e; negative: A^-1 * id + A * e.
    """
    if sign not in (1, -1):
        raise ContractViolation("crossing sign must be +1 or -1")
    a = LaurentPoly.monomial(1, sign, var)
    ainv = LaurentPoly.monomial(1, -sign, var)
    e = tl_compose(tl_cap(), tl_cup())
    return tl_identity(2).scaled(a) + e.scaled(ainv)


# ---------------------------------------------------------------------------
# closures


def plane_closure(m: TLMorphism) -> LaurentPoly:
    """Close top i to bottom i around the right side in the plane.

    Every component of a closed-up basis diagram is a loop worth delta;
    the empty diagram closes to 1.
    """
    if m.n_bottom != m.n_top:
        raise ContractViolation("plane closure needs a square morphism")
    n = m.n_bottom
    d = delta()
    total = LaurentPoly()
    for diag, coeff in m.terms.items():
        parent = list(range(2 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        loops = 0
        for i, j in enumerate(diag.mate):
            if j > i:
                parent[find(i)] = find(j)
        for i in range(n):
            a, b = find(diag.bottom_index(i)), find(diag.top_index(i))
            if a == b:
                loops += 1
            else:
                parent[a] = b
        total = total + coeff * d ** loops
    return total


class AnnularClass:
    """An element of the annulus skein module in the basis z^k.

    z is the class of the core curve; contractible curves have been
    evaluated to delta.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for k, c in (coeffs or {}).items():
            if isinstance(c, int):
                c = LaurentPoly.constant(c)
            if c:
                clean[k] = c
        self.coeffs = clean

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

    def __repr__(self):
        if not self.coeffs:
            return "AnnularClass(0)"
        parts = [f"({c})*z^{k}" for k, c in sorted(self.coeffs.items())]
        return "AnnularClass(" + " + ".join(parts) + ")"


def annulus_closure_eval(m: TLMorphism) -> AnnularClass:
    """Close top i to bottom i around the annulus core.

    A closed component winding zero net times around the core is
    contractible and contributes delta; a component with nonzero net
    winding is core-parallel and contributes z.  Embedded curves in an
    annulus admit no other options.
    """
    if m.n_bottom != m.n_top:
        raise ContractViolation("annular closure needs a square morphism")
    n = m.n_bottom
    d = delta()
    out: dict = {}
    for diag, coeff in m.terms.items():
        # walk components alternating matching edges and closure arcs;
        # traversing the arc from top i to bottom i counts +1
        mate_of = {}
        for i, j in enumerate(diag.mate):
            mate_of[diag._point(i)] = diag._point(j)
        visited = set()
        contractible = 0
        core = 0
        for start in list(mate_of):
            if start in visited:
                continue
            winding = 0
            cur = start
            while cur not in visited:
                visited.add(cur)
                nxt = mate_of[cur]
                visited.add(nxt)
                side, pos = nxt
                if side == "top":
                    winding += 1
                    cur = ("bottom", pos)
                else:
                    winding -= 1
                    cur = ("top", pos)
            if winding == 0:
                contractible += 1
            else:
                core += 1
        term = coeff * d ** contractible
        out[core] = out.get(core, LaurentPoly()) + term
    return AnnularClass(out)
