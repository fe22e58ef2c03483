"""Independent oracles shared by the unit and acceptance tests.

These construct expected values and witnesses by routes that avoid the
code paths they are checking: explicit basis maps for tensor composites,
Kronecker products for hom-space actions, cofactor expansion for
determinants and inverses, full-width stacking by a union-find for the
tangle fold and the diagram products, a fresh walk of every slice per
state for the state sum, the all-pairs loops for the constructors that
check on generators, a tensor_over that rebuilds and revalidates its
quotient on every call, and brute-force enumeration elsewhere.
"""

from fractions import Fraction

from skeinalg.algebra import compose_homs
from skeinalg.bimodule import (TENSOR_MAX_AMBIENT_DIM, _relation_rows,
                               end_morphism, make_bimodule, modulate,
                               tensor_over)
from skeinalg.errors import ContractViolation
from skeinalg.laurent import LaurentPoly
from skeinalg.linalg import Matrix, mat_lincomb, rref, sparse_quotient
from skeinalg.tl import TLDiagram, TLMorphism


def _basis_vec(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def word_span_rank(alg, gens):
    """Dimension of the span of the unit and the left-nested words in gens,
    grown a word length at a time and re-reduced by rref each time."""
    rows = [tuple(alg.unit)]
    while True:
        grown = rows + [_basis_vec(alg.dim, s) for s in gens]
        grown += [alg.multiply(w, _basis_vec(alg.dim, s))
                  for w in rows for s in gens]
        reduced = rref(Matrix.from_rows(grown))
        if len(reduced.pivots) == len(rows):
            return len(rows)
        rows = [reduced.matrix.row(i) for i in range(len(reduced.pivots))]


def all_pairs_algebra_ok(mult, unit):
    """Associativity on every basis triple and the unit laws, on a raw table."""
    n = len(mult)

    def times(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                if xi and yj:
                    for k, c in enumerate(mult[i][j]):
                        out[k] += xi * yj * c
        return tuple(out)

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


def _tensor_reps(m1, m2):
    """The canonical representative ambient pairs used by tensor_over."""
    mid = m1.right
    p, q = m1.dim, m2.dim
    relations = []
    for b in range(mid.dim):
        rb = m1.right_action[b]
        lb = m2.left_action[b]
        for i in range(p):
            for j in range(q):
                row = {}
                for k, v in enumerate(rb.col(i)):
                    if v:
                        row[k * q + j] = v
                for l, v in enumerate(lb.col(j)):
                    if v:
                        key = i * q + l
                        row[key] = row.get(key, 0) - v
                        if not row[key]:
                            del row[key]
                if row:
                    relations.append(row)
    reps, _ = sparse_quotient(p * q, relations)
    return [divmod(r, q) for r in reps]


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
    """tensor_over before its memo, body verbatim: every call builds the
    middle relations and the quotient and runs make_bimodule on the
    pointed result."""
    if m1.right != m2.left:
        raise ContractViolation("middle algebras do not match")
    if m1.dim * m2.dim > TENSOR_MAX_AMBIENT_DIM:
        raise ContractViolation(
            f"tensor of dimensions {m1.dim} and {m2.dim} exceeds "
            f"TENSOR_MAX_AMBIENT_DIM = {TENSOR_MAX_AMBIENT_DIM}")
    relations = []
    for b in m1.right.generators:
        rb, lb = m1.right_action[b], m2.left_action[b]
        relations += _relation_rows([rb.col(i) for i in range(m1.dim)],
                                    [lb.col(j) for j in range(m2.dim)])
    return _uncached_quotient_bimodule(m1.left, m2.right, m1.left_action,
                                        m2.right_action,
                                        (m1.pointing, m2.pointing), relations)


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
        cols.append(c_alg.multiply(g.apply(e_b), e_c))
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
