"""Independent oracles shared by the unit and acceptance tests.

These construct expected values and witnesses by routes that avoid the
code paths they are checking: explicit basis maps for tensor composites,
cofactor expansion for determinants, and brute-force enumeration elsewhere.
"""

from skeinalg.algebra import compose_homs
from skeinalg.bimodule import end_morphism, modulate, tensor_over
from skeinalg.linalg import Matrix, sparse_quotient


def laplace_det(rows):
    """Determinant by cofactor expansion along the first row, no elimination."""
    if not rows:
        return 1
    return sum((-1) ** j * a * laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


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
    composite = tensor_over(eg, ef, max_dim=g.rows * f.cols)
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
