"""Independent oracles shared by the unit and acceptance tests.

These construct expected values and witnesses by routes that avoid the
code paths they are checking: explicit basis maps for tensor composites,
Kronecker products for hom-space actions, cofactor expansion for
determinants and inverses, Fraction arithmetic entry by entry for matrix
products, for the law checks of bimodules and bimodule maps, for the
tensor relation rows and for row reduction (the elimination engine as
it was before it went fraction-free), full-width stacking by a union-find for the tangle fold and
the diagram products, a walk over tagged boundary points for the two
closures and the fold's rewrites, a fresh walk of every slice per state for the
state sum, the all-pairs loops for the constructors that check on
generators, a tensor_over that rebuilds its relations and its quotient
and revalidates them on every call, and brute-force enumeration elsewhere.
"""

from fractions import Fraction

from skeinalg.algebra import compose_homs
from skeinalg.bimodule import (TENSOR_MAX_AMBIENT_DIM, end_morphism,
                               make_bimodule, modulate, tensor_over)
from skeinalg.errors import ContractViolation
from skeinalg.laurent import LaurentPoly
from skeinalg.linalg import Matrix, _check_exact, mat_lincomb, sparse_quotient
from skeinalg.tl import AnnularClass, TLDiagram, TLMorphism


def _basis_vec(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def word_span_rank(alg, gens):
    """Dimension of the span of the unit and the left-nested words in gens,
    grown a word length at a time and re-reduced by fraction_rref each time."""
    rows = [tuple(alg.unit)]
    while True:
        grown = rows + [_basis_vec(alg.dim, s) for s in gens]
        grown += [alg.multiply(w, _basis_vec(alg.dim, s))
                  for w in rows for s in gens]
        reduced, pivots = fraction_rref(Matrix.from_rows(grown))
        if len(pivots) == len(rows):
            return len(rows)
        rows = [reduced.row(i) for i in range(len(pivots))]


def dense_table(alg):
    """alg's structure constants as a dense [n][n][n] list, read through
    basis_product."""
    return [[list(alg.basis_product(i, j)) for j in range(alg.dim)]
            for i in range(alg.dim)]


def dense_multiply(mult, x, y):
    """Product of coordinate vectors by the triple loop over a dense table."""
    out = [0] * len(mult)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in enumerate(mult[i][j]):
                    out[k] += xi * yj * c
    return tuple(out)


def all_pairs_algebra_ok(mult, unit):
    """Associativity on every basis triple and the unit laws, on a raw table."""
    n = len(mult)

    def times(x, y):
        return dense_multiply(mult, x, y)

    e = [_basis_vec(n, i) for i in range(n)]
    return (all(times(tuple(mult[i][j]), e[k]) == times(e[i], tuple(mult[j][k]))
                for i in range(n) for j in range(n) for k in range(n))
            and all(times(unit, x) == x == times(x, unit) for x in e))


def all_pairs_hom_ok(source, target, matrix):
    """Unitality and multiplicativity on every basis pair."""
    images = [matrix.col(i) for i in range(source.dim)]
    return (matrix.apply(source.unit) == tuple(target.unit)
            and all(matrix.apply(source.basis_product(i, j))
                    == target.multiply(images[i], images[j])
                    for i in range(source.dim) for j in range(source.dim)))


def all_pairs_bimodule_ok(left, right, left_action, right_action):
    """Unit actions, (anti-)multiplicativity and commutation on every basis pair."""
    m = left_action[0].rows
    ident = Matrix.identity(m)
    if (mat_lincomb(zip(left.unit, left_action), m, m) != ident
            or mat_lincomb(zip(right.unit, right_action), m, m) != ident):
        return False
    for alg, act, flip in ((left, left_action, False), (right, right_action, True)):
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = alg.basis_product(j, i) if flip else alg.basis_product(i, j)
                if act[i] @ act[j] != mat_lincomb(zip(prod, act), m, m):
                    return False
    return all(a @ b == b @ a for a in left_action for b in right_action)


def _fraction_lincomb(pairs, n):
    """The entries of the sum of coeff * matrix, summed in Fractions."""
    out = [Fraction(0)] * (n * n)
    for c, mat in pairs:
        if c:
            for idx, x in enumerate(mat.entries):
                out[idx] += c * x
    return out


def fraction_bimodule_failure(left, right, left_action, right_action):
    """The ValidationError text of make_bimodule's law checks, or None.

    The same checks in the same order (the left side whole, its unit
    action and then its basis times generator products, then the right
    side the same way, then generator commutation), each product by
    fraction_matmul and each combination summed in Fractions, compared
    entry by entry.
    """
    m = left_action[0].rows

    def prod(a, b):
        return list(fraction_matmul(a, b).entries)

    ident = [int(i == j) for i in range(m) for j in range(m)]
    if _fraction_lincomb(zip(left.unit, left_action), m) != ident:
        return "left action of the unit is not the identity"
    for i in range(left.dim):
        for s in left.generators:
            if prod(left_action[i], left_action[s]) != _fraction_lincomb(
                    zip(left.basis_product(i, s), left_action), m):
                return f"left action is not multiplicative at basis pair ({i},{s})"
    if _fraction_lincomb(zip(right.unit, right_action), m) != ident:
        return "right action of the unit is not the identity"
    for i in range(right.dim):
        for s in right.generators:
            if prod(right_action[s], right_action[i]) != _fraction_lincomb(
                    zip(right.basis_product(i, s), right_action), m):
                return ("right action is not anti-multiplicative at basis pair "
                        f"({s},{i})")
    for s in left.generators:
        for t in right.generators:
            if prod(left_action[s], right_action[t]) != \
                    prod(right_action[t], left_action[s]):
                return f"actions do not commute at basis pair ({s},{t})"
    return None


def fraction_map_failure(source, target, matrix):
    """The ValidationError text of make_bimodule_map, or None: intertwining
    on the generators of each side by fraction_matmul, then the pointing
    by a Fraction sum."""
    for side, alg in (("left", source.left), ("right", source.right)):
        for i in alg.generators:
            a1 = getattr(source, f"{side}_action")[i]
            a2 = getattr(target, f"{side}_action")[i]
            if fraction_matmul(matrix, a1).entries != \
                    fraction_matmul(a2, matrix).entries:
                return (f"map fails to intertwine the {side} action at basis "
                        f"index {i}")
    image = [sum((Fraction(matrix[r, c]) * x
                  for c, x in enumerate(source.pointing)), Fraction(0))
             for r in range(matrix.rows)]
    if image != list(target.pointing):
        return "map does not send pointing to pointing"
    return None


def fraction_matmul(a, b):
    """a @ b by the schoolbook loop on the entries as given, no common
    denominator: an integral entry may come out as a Fraction."""
    assert a.cols == b.rows
    n, k, m = a.rows, a.cols, b.cols
    out = [0] * (n * m)
    for i in range(n):
        for t in range(k):
            x = a.entries[i * k + t]
            if not x:
                continue
            for j in range(m):
                y = b.entries[t * m + j]
                if y:
                    out[i * m + j] = out[i * m + j] + x * y
    return Matrix(n, m, tuple(out))


class FractionEchelon:
    """The reduced row-echelon engine on Fraction rows, each pivot row
    divided by its pivot, so every stored value is a Fraction."""

    def __init__(self):
        self.rows = {}  # pivot column -> row dict

    def reduce(self, row):
        row = {c: v for c, v in row.items() if v}
        for c in [c for c in row if c in self.rows]:
            f = row.get(c)
            if not f:
                continue
            for c2, v2 in self.rows[c].items():
                nv = row.get(c2, 0) - f * v2
                if nv:
                    row[c2] = nv
                elif c2 in row:
                    del row[c2]
        return row

    def insert(self, row):
        row = self.reduce(row)
        if not row:
            return None
        p = min(row)
        inv = row[p]
        row = {c: Fraction(v) / inv for c, v in row.items()}
        for r in self.rows.values():
            f = r.get(p)
            if f:
                for c2, v2 in row.items():
                    nv = r.get(c2, 0) - f * v2
                    if nv:
                        r[c2] = nv
                    elif c2 in r:
                        del r[c2]
        self.rows[p] = row
        return p

    def kernel(self, ncols):
        basis = []
        for f in range(ncols):
            if f in self.rows:
                continue
            v = [0] * ncols
            v[f] = 1
            for p, row in self.rows.items():
                if row.get(f):
                    v[p] = -row[f]
            basis.append(tuple(v))
        return basis


def fraction_echelon(rows):
    """FractionEchelon of the given rows (sequences or {column: value} dicts)."""
    eng = FractionEchelon()
    for r in rows:
        if not isinstance(r, dict):
            _check_exact(r)
            r = {j: v for j, v in enumerate(r) if v}
        eng.insert(r)
    return eng


def fraction_rref(m):
    """(reduced row-echelon matrix, pivots) of m by FractionEchelon."""
    eng = fraction_echelon(m.tolist())
    pivots = sorted(eng.rows)
    flat = [eng.rows[p].get(j, 0) for p in pivots for j in range(m.cols)]
    flat += [0] * ((m.rows - len(pivots)) * m.cols)
    return Matrix(m.rows, m.cols, tuple(flat)), tuple(pivots)


def fraction_solve(m, b):
    """solve_linear(m, b) by FractionEchelon: (particular, kernel) or None."""
    rows = []
    for i, bi in enumerate(b):
        row = {j: v for j, v in enumerate(m.row(i)) if v}
        if bi:
            row[m.cols] = bi
        rows.append(row)
    eng = fraction_echelon(rows)
    if m.cols in eng.rows:
        return None
    x = [0] * m.cols
    for p, row in eng.rows.items():
        x[p] = row.get(m.cols, 0)
    return tuple(x), eng.kernel(m.cols)


def fraction_inverse(m):
    """The inverse of m read from the RREF of [m | I], or None if singular."""
    n = m.rows
    eng = fraction_echelon(m.row(i) + tuple(int(j == i) for j in range(n))
                           for i in range(n))
    if sorted(eng.rows) != list(range(n)):
        return None
    return Matrix(n, n, tuple(eng.rows[i].get(n + j, 0)
                              for i in range(n) for j in range(n)))


def fraction_quotient(ambient_dim, relations):
    """sparse_quotient by FractionEchelon: (representatives, projection columns)."""
    eng = fraction_echelon(relations)
    reps = [j for j in range(ambient_dim) if j not in eng.rows]
    rep_pos = {r: i for i, r in enumerate(reps)}
    cols = [{rep_pos[c]: -v for c, v in eng.rows[j].items() if c != j}
            if j in eng.rows else {rep_pos[j]: 1} for j in range(ambient_dim)]
    return reps, cols


def fraction_det(m):
    """The determinant by reducing each row against the rows before it."""
    eng = FractionEchelon()
    acc = 1
    order = []
    for i in range(m.rows):
        row = eng.reduce({j: v for j, v in enumerate(m.row(i)) if v})
        if not row:
            return 0
        p = min(row)
        acc = acc * row[p]
        order.append(p)
        eng.insert(row)
    inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
    return -acc if inversions % 2 else acc


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row, no elimination."""
    if not rows:
        return 1
    return sum((-1) ** j * a * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def adjugate_inverse(rows):
    """Inverse as adjugate over determinant, every entry a laplace_det cofactor."""
    n = len(rows)
    det = laplace_det(rows)

    def minor(i, j):
        return [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]

    return [[Fraction((-1) ** (i + j) * laplace_det(minor(j, i))) / det
             for j in range(n)] for i in range(n)]


def _elementary(n, a, b):
    return Matrix(n, n, tuple(1 if (i, j) == (a, b) else 0
                              for i in range(n) for j in range(n)))


def _kron(x, y):
    return Matrix(x.rows * y.rows, x.cols * y.cols,
                  tuple(x[i // y.rows, j // y.cols] * y[i % y.rows, j % y.cols]
                        for i in range(x.rows * y.rows)
                        for j in range(x.cols * y.cols)))


def hom_space_actions(nw, nv):
    """The End(W) and End(V) actions on hom(V, W) from Kronecker products.

    On row-major coordinates vec(a x b) = (a kron b^T) vec(x), so E(a,b)
    acts on the left as E(a,b) kron I and on the right as I kron E(b,a).
    """
    left = [_kron(_elementary(nw, a, b), Matrix.identity(nv))
            for a in range(nw) for b in range(nw)]
    right = [_kron(Matrix.identity(nw), _elementary(nv, b, a))
             for a in range(nv) for b in range(nv)]
    return left, right


def fraction_relation_rows(pcols, qcols):
    """The nonzero rows (P tensor 1 - 1 tensor Q) e(i, j) as {column: value}
    dicts, subtracted entry by entry in Fractions.

    pcols[i] and qcols[j] are the columns of the square matrices P and Q,
    and e(i, j) is coordinate i * len(qcols) + j.
    """
    q = len(qcols)
    rows = []
    for i, pcol in enumerate(pcols):
        for j, qcol in enumerate(qcols):
            row = {}
            for k, v in enumerate(pcol):
                if v:
                    row[k * q + j] = Fraction(v)
            for l, v in enumerate(qcol):
                if v:
                    key = i * q + l
                    row[key] = row.get(key, 0) - v
                    if not row[key]:
                        del row[key]
            if row:
                rows.append(row)
    return rows


def _middle_relations(m1, m2, middle):
    """The relation rows of tensor_over for the middle basis indices given."""
    relations = []
    for b in middle:
        rb, lb = m1.right_action[b], m2.left_action[b]
        relations += fraction_relation_rows(
            [rb.col(i) for i in range(m1.dim)],
            [lb.col(j) for j in range(m2.dim)])
    return relations


def _tensor_reps(m1, m2):
    """The canonical representative ambient pairs used by tensor_over."""
    reps, _ = sparse_quotient(m1.dim * m2.dim,
                              _middle_relations(m1, m2, range(m1.right.dim)))
    return [divmod(r, m2.dim) for r in reps]


def _uncached_quotient_bimodule(left, right, left_action, right_action, point,
                                 relations):
    """The bimodule that M tensor N / span(relations) inherits.

    left_action holds the p x p matrices by which the left algebra acts on
    the factor M, right_action the q x q ones by which the right algebra
    acts on N, and point = (x, y) gives the pointing x tensor y.  Ambient
    coordinate i * q + j is e(i) tensor e(j); the relations must span a
    sub-bimodule.  The result lives on the canonical pivot-complement basis
    and is checked by make_bimodule.
    """
    x, y = point
    p, q = len(x), len(y)
    reps, proj_cols = sparse_quotient(p * q, relations)
    dim = len(reps)

    def descend(action, on_left):
        mats = []
        for act in action:
            cols = []
            for r in reps:
                i, j = divmod(r, q)
                # the left action moves the first factor, the right the second
                start, stride, c = (j, q, i) if on_left else (i * q, 1, j)
                col = [0] * dim
                for k, v in enumerate(act.col(c)):
                    if v:
                        for t, w in proj_cols[start + k * stride].items():
                            col[t] = col[t] + v * w
                # a sum that cancels is Fraction(0); store it as int 0, like
                # every entry no term reached
                cols.append([e or 0 for e in col])
            mats.append(Matrix.from_cols(cols, dim))
        return mats

    pointing = [0] * dim
    for i, v in enumerate(x):
        for j, w in enumerate(y):
            if v and w:
                for t, c in proj_cols[i * q + j].items():
                    pointing[t] = pointing[t] + v * w * c
    return make_bimodule(left, right, descend(left_action, True),
                         descend(right_action, False), pointing)


def uncached_tensor_over(m1, m2):
    """tensor_over before its memo: every call builds the middle relations,
    in Fractions and not by the library's row builder, and the quotient,
    and runs make_bimodule on the pointed result."""
    if m1.right != m2.left:
        raise ContractViolation("middle algebras do not match")
    if m1.dim * m2.dim > TENSOR_MAX_AMBIENT_DIM:
        raise ContractViolation(
            f"tensor of dimensions {m1.dim} and {m2.dim} exceeds "
            f"TENSOR_MAX_AMBIENT_DIM = {TENSOR_MAX_AMBIENT_DIM}")
    return _uncached_quotient_bimodule(
        m1.left, m2.right, m1.left_action, m2.right_action,
        (m1.pointing, m2.pointing),
        _middle_relations(m1, m2, m1.right.generators))


def modulation_witness(f, g):
    """Explicit map class(b tensor c) -> g(b) c from the composite to modulate(g f).

    Returns (composite, direct, witness matrix); the matrix is computed on
    the canonical representatives without any search.
    """
    composite = tensor_over(modulate(f), modulate(g))
    direct = modulate(compose_homs(g, f))
    c_alg = g.target
    cols = []
    for bidx, cidx in _tensor_reps(modulate(f), modulate(g)):
        e_b = tuple(1 if i == bidx else 0 for i in range(f.target.dim))
        e_c = tuple(1 if i == cidx else 0 for i in range(c_alg.dim))
        cols.append(c_alg.multiply(g.matrix.apply(e_b), e_c))
    mat = Matrix(direct.dim, composite.dim,
                 tuple(cols[j][i] for i in range(direct.dim)
                       for j in range(composite.dim)))
    return composite, direct, mat


def end_composition_witness(f, g):
    """Explicit map class(b tensor a) -> b a for hom-space composites.

    f : V -> W and g : W -> X as matrices; returns (composite, direct,
    witness matrix) with the witness again search-free.
    """
    ef, eg = end_morphism(f), end_morphism(g)
    composite = tensor_over(eg, ef)
    assert composite.dim == g.rows * f.cols
    direct = end_morphism(g @ f)
    nv, nw, nx = f.cols, f.rows, g.rows
    cols = []
    for bidx, aidx in _tensor_reps(eg, ef):
        p, q = divmod(bidx, nw)   # basis element E(p,q) of hom(W, X)
        r, s = divmod(aidx, nv)   # basis element E(r,s) of hom(V, W)
        col = [0] * (nx * nv)
        if q == r:
            col[p * nv + s] = 1   # E(p,q) E(r,s) = delta(q,r) E(p,s)
        cols.append(tuple(col))
    mat = Matrix(direct.dim, composite.dim,
                 tuple(cols[j][i] for i in range(direct.dim)
                       for j in range(composite.dim)))
    return composite, direct, mat


LOOP = LaurentPoly.from_dict({2: -1, -2: -1})


def _diagram(nb, nt, pairs):
    """The diagram with the given ((side, pos), (side, pos)) pairs."""
    def ci(side, pos):
        return pos if side == "bottom" else nb + nt - 1 - pos
    mate = [0] * (nb + nt)
    for x, y in pairs:
        mate[ci(*x)], mate[ci(*y)] = ci(*y), ci(*x)
    return TLDiagram(nb, nt, tuple(mate))


def _stacked(d1, d2):
    """(diagram, loops) for d2 glued onto the top of d1, by a union-find.

    The top of d1 and the bottom of d2 become middle points; a component
    made of middle points only is a closed loop.
    """
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for diag, glued in ((d1, "top"), (d2, "bottom")):
        for (s1, p1), (s2, p2) in diag.pairs():
            parent[find(("middle" if s1 == glued else s1, p1))] = \
                find(("middle" if s2 == glued else s2, p2))
    components = {}
    for x in list(parent):
        components.setdefault(find(x), []).append(x)
    ends = [[x for x in c if x[0] != "middle"] for c in components.values()]
    return (_diagram(d1.n_bottom, d2.n_top, [e for e in ends if e]),
            ends.count([]))


def _side_by_side(d1, d2):
    shift = {"bottom": d1.n_bottom, "top": d1.n_top}
    pairs = d1.pairs() + [((s1, p1 + shift[s1]), (s2, p2 + shift[s2]))
                          for (s1, p1), (s2, p2) in d2.pairs()]
    return _diagram(d1.n_bottom + d2.n_bottom, d1.n_top + d2.n_top, pairs), 0


def _bilinear(glue, f, g, nb, nt):
    out = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            d, loops = glue(d1, d2)
            out[d] = out.get(d, LaurentPoly()) + c1 * c2 * LOOP ** loops
    return TLMorphism(nb, nt, out)


def stack(f, g):
    """g on top of f, independently of ``tl_compose``."""
    assert f.n_top == g.n_bottom
    return _bilinear(_stacked, f, g, f.n_bottom, g.n_top)


def side_by_side(f, g):
    """f left of g, independently of ``tl_tensor``."""
    return _bilinear(_side_by_side, f, g, f.n_bottom + g.n_bottom,
                     f.n_top + g.n_top)


def tagged_annulus_closure(m):
    """``annulus_closure_eval`` by a walk over ("bottom", p)/("top", p)
    points built from ``pairs()``: each closure arc joins top p to bottom
    p, and crossing it from the top counts +1 winding."""
    out = {}
    for diag, coeff in m.terms.items():
        mate_of = {}
        for x, y in diag.pairs():
            mate_of[x], mate_of[y] = y, x
        visited = set()
        contractible = core = 0
        for start in mate_of:
            if start in visited:
                continue
            winding = 0
            cur = start
            while cur not in visited:
                visited.add(cur)
                side, pos = nxt = mate_of[cur]
                visited.add(nxt)
                winding += 1 if side == "top" else -1
                cur = ("bottom" if side == "top" else "top", pos)
            if winding == 0:
                contractible += 1
            else:
                core += 1
        out[core] = out.get(core, LaurentPoly()) + coeff * LOOP ** contractible
    return AnnularClass(out)


def tagged_plane_closure(m):
    """``plane_closure`` as the tagged annular closure with z set to delta."""
    total = LaurentPoly()
    for k, coeff in tagged_annulus_closure(m).coeffs.items():
        total = total + coeff * LOOP ** k
    return total


def tagged_rewrites(m):
    """``tl._rewrites`` read from the ("bottom", p)/("top", p) pairs."""
    out = []
    for diag, coeff in m.terms.items():
        rights, cups = [], []
        for (s1, p1), (s2, p2) in diag.pairs():
            if s1 == s2 == "bottom":
                rights.append(max(p1, p2))
            elif s1 == s2 == "top":
                cups.append(min(p1, p2))
        caps = tuple(j - 2 * k - 1 for k, j in enumerate(sorted(rights)))
        out.append((caps, tuple(sorted(cups)), coeff))
    return out


_B0, _B1, _T0, _T1 = ("bottom", 0), ("bottom", 1), ("top", 0), ("top", 1)
_EVENT_DIAGRAMS = {"id": (1, 1, [(_B0, _T0)]), "twist": (1, 1, [(_B0, _T0)]),
                   "cup": (0, 2, [(_T0, _T1)]), "cap": (2, 0, [(_B0, _B1)])}


def _event_morphism(e):
    """An event's morphism written out diagram by diagram."""
    if e.kind == "coupon":
        return e.morphism
    if e.kind == "cross":
        parallel = _diagram(2, 2, [(_B0, _T0), (_B1, _T1)])
        hook = _diagram(2, 2, [(_B0, _B1), (_T0, _T1)])
        return TLMorphism(2, 2, {parallel: LaurentPoly.monomial(1, e.sign),
                                 hook: LaurentPoly.monomial(1, -e.sign)})
    nb, nt, pairs = _EVENT_DIAGRAMS[e.kind]
    coeff = LaurentPoly.monomial(-1, 3 * e.sign) if e.kind == "twist" else 1
    return TLMorphism(nb, nt, {_diagram(nb, nt, pairs): coeff})


def _identity(n):
    return TLMorphism(n, n, {_diagram(n, n, [(("bottom", i), ("top", i))
                                             for i in range(n)]): 1})


def literal_fold(t):
    """A tangle's morphism by tensoring each slice into a full-width block
    and stacking the blocks bottom to top, with the stacking and tensor
    above in place of the library's fold."""
    out = _identity(t.strands_in)
    for sl in t.slices:
        block = _identity(0)
        for e in sl:
            block = side_by_side(block, _event_morphism(e))
        out = stack(out, block)
    return out


def literal_state_sum(t):
    """The bracket of a closed coupon-free tangle as a sum over its 2^c states,
    re-walking every slice with a fresh union-find for each state."""
    events = [e for sl in t.slices for e in sl]
    c = sum(1 for e in events if e.kind == "cross")
    twist_factor = LaurentPoly.constant(1)
    for e in events:
        if e.kind == "twist":
            twist_factor = twist_factor * LaurentPoly.from_dict({3 * e.sign: -1})
    d = LOOP
    total = LaurentPoly()
    for state in range(1 << c):
        choice = [(state >> k) & 1 for k in range(c)]
        parent: list = []

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def fresh():
            parent.append(len(parent))
            return len(parent) - 1

        wires: list = []
        loops = 0
        exponent = 0
        idx = 0
        for sl in t.slices:
            new_wires = []
            pos = 0
            for e in sl:
                win, _ = e.widths()
                args = wires[pos:pos + win]
                pos += win
                if e.kind in ("id", "twist"):
                    new_wires.append(args[0])
                elif e.kind == "cup":
                    node = fresh()
                    new_wires += [node, node]
                elif e.kind == "cap":
                    a, b = find(args[0]), find(args[1])
                    if a == b:
                        loops += 1
                    else:
                        parent[a] = b
                else:
                    # smoothing 0 keeps the strands parallel (the A-smoothing
                    # of a positive crossing); smoothing 1 is the hook
                    smooth = choice[idx]
                    idx += 1
                    exponent += e.sign * (1 if smooth == 0 else -1)
                    if smooth == 0:
                        new_wires += args
                    else:
                        a, b = find(args[0]), find(args[1])
                        if a == b:
                            loops += 1
                        else:
                            parent[a] = b
                        node = fresh()
                        new_wires += [node, node]
            wires = new_wires
        total = total + LaurentPoly.from_dict({exponent: 1}) * d ** loops
    return twist_factor * total
