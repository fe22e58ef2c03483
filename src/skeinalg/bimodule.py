"""Pointed bimodules over finite-dimensional algebras.

A pointed bimodule is an A-B-bimodule with a distinguished vector; these
compose by tensoring over the middle algebra, with pointings tensoring.
Conventions used throughout (fixed once, here):

  * modulation of f : A -> B is the A-B-bimodule on the space B with
    a acting on the left through f (a |> x = f(a) x) and B acting on the
    right by ring multiplication; it is pointed by 1_B;
  * hom(V, W) carries a left action of End(W) by post-composition and a
    right action of End(V) by pre-composition.

Swapping either choice yields the opposite-algebra variant of everything
below; all composition orders in this module derive from these two lines.

Every rule that must hold for all elements of an acting algebra is
checked or imposed on its generators only (see ``algebra``): each such
rule holds on a subalgebra, or on a set closed under right
multiplication by the generators, and the docstrings below say which.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .algebra import (Algebra, AlgebraHom, field_algebra, flatten_matrix,
                      matrix_algebra)
from .errors import ContractViolation, InternalCheckError, ValidationError
from .linalg import (Matrix, SparseEchelon, _check_exact,
                     find_invertible_in_affine_family, kernel_basis,
                     mat_lincomb, sparse_quotient)

# tensor_over refuses factors whose tensor product M tensor N, the space
# it quotients, is larger: 4096 is hom(V,V) tensor hom(V,V) for dim V = 8
TENSOR_MAX_AMBIENT_DIM = 4096


@dataclass(frozen=True)
class PointedBimodule:
    """An A-B-bimodule with a pointing vector.

    left_action[i] is the matrix of the i-th basis element of the left
    algebra acting on module coordinates; right_action[j] likewise for
    the right algebra.  Operators compose as L(a)L(a') = L(aa') and
    R(b)R(b') = R(b'b).
    """

    left: Algebra
    right: Algebra
    dim: int
    left_action: tuple
    right_action: tuple
    pointing: tuple


def make_bimodule(left: Algebra, right: Algebra, left_action, right_action,
                  pointing) -> PointedBimodule:
    """Validate the actions on basis elements times generators and build.

    With L(1) = R(1) = I, the checks L(e_i) L(e_s) = L(e_i e_s) and
    R(e_s) R(e_i) = R(e_i e_s), for every basis index i and generator s,
    make L multiplicative and R anti-multiplicative on all of A: the set
    of z with L(x) L(z) = L(xz) for all x holds 1, and with z it holds
    z s, since L(x) L(zs) = L(x) L(z) L(s) = L(xz) L(s) = L(x(zs)); the
    set of z with R(z) R(x) = R(xz) for all x likewise, since
    R(zs) R(x) = R(s) R(z) R(x) = R(s) R(xz) = R(xzs).  The elements of
    the left algebra that commute with a fixed R(b) then form a
    subalgebra, and so do those of the right algebra that commute with a
    fixed L(a), so commutation is checked on left times right generators.
    """
    left_action = tuple(left_action)
    right_action = tuple(right_action)
    pointing = tuple(pointing)
    m = len(pointing)
    if len(left_action) != left.dim or len(right_action) != right.dim:
        raise ContractViolation("one action matrix per algebra basis element")
    for mat in left_action + right_action:
        if (mat.rows, mat.cols) != (m, m):
            raise ContractViolation("action matrices must be dim x dim")
        _check_exact(mat.entries)
    _check_exact(pointing)
    ident = Matrix.identity(m)
    if mat_lincomb(zip(left.unit, left_action), m, m) != ident:
        raise ValidationError("left action of the unit is not the identity")
    if mat_lincomb(zip(right.unit, right_action), m, m) != ident:
        raise ValidationError("right action of the unit is not the identity")
    for i in range(left.dim):
        for s in left.generators:
            prod = mat_lincomb(zip(left.basis_product(i, s), left_action), m, m)
            if left_action[i] @ left_action[s] != prod:
                raise ValidationError(
                    f"left action is not multiplicative at basis pair ({i},{s})")
    for i in range(right.dim):
        for s in right.generators:
            prod = mat_lincomb(zip(right.basis_product(i, s), right_action), m, m)
            if right_action[s] @ right_action[i] != prod:
                raise ValidationError(
                    f"right action is not anti-multiplicative at basis pair ({s},{i})")
    for s in left.generators:
        for t in right.generators:
            if left_action[s] @ right_action[t] != right_action[t] @ left_action[s]:
                raise ValidationError(
                    f"actions do not commute at basis pair ({s},{t})")
    return PointedBimodule(left, right, m, left_action, right_action, pointing)


def regular_bimodule(alg: Algebra, pointing=None) -> PointedBimodule:
    """The algebra acting on itself on both sides, pointed by the unit by default."""
    if pointing is None:
        pointing = alg.unit
    return make_bimodule(alg, alg, alg.left_regular(), alg.right_regular(),
                         pointing)


def modulate(f: AlgebraHom) -> PointedBimodule:
    """The pointed bimodule of a homomorphism: B with a |> x = f(a) x, pointed by 1."""
    b = f.target
    left_action = [b.left_mult_matrix(f.matrix.col(i))
                   for i in range(f.source.dim)]
    return make_bimodule(f.source, b, left_action, b.right_regular(), b.unit)


# re-validating each shape per call runs heisenberg-words at a third of the rate
_HOM_SPACE_CACHE: dict = {}


def _hom_space(nw: int, nv: int) -> PointedBimodule:
    """hom(V, W) with its End(W)-End(V) actions, validated once per shape."""
    key = (nw, nv)
    if key in _HOM_SPACE_CACHE:
        return _HOM_SPACE_CACHE[key]
    m = nv * nw
    # E(a,b) o E(p,q) = delta(b,p) E(a,q): post-composition on flat (p, q)
    left_action = []
    for a in range(nw):
        for b in range(nw):
            ents = [0] * (m * m)
            for q in range(nv):
                ents[(a * nv + q) * m + (b * nv + q)] = 1
            left_action.append(Matrix(m, m, tuple(ents)))
    right_action = []
    for a in range(nv):
        for b in range(nv):
            ents = [0] * (m * m)
            for p in range(nw):
                ents[(p * nv + b) * m + (p * nv + a)] = 1
            right_action.append(Matrix(m, m, tuple(ents)))
    # make_bimodule reads the pointing only for its length
    out = make_bimodule(matrix_algebra(nw), matrix_algebra(nv), left_action,
                        right_action, (0,) * m)
    _HOM_SPACE_CACHE[key] = out
    return out


def end_morphism(f: Matrix) -> PointedBimodule:
    """hom(V, W) pointed by f, with End(W) acting left and End(V) acting right.

    f is a dim(W) x dim(V) matrix; module coordinates flatten hom(V, W)
    row-major.  Zero-dimensional spaces are rejected.  The actions depend
    only on the shape (dim W, dim V): each shape's action set is built and
    validated by make_bimodule once per process and then shared, and only
    the pointing comes from f.
    """
    if f.rows < 1 or f.cols < 1:
        raise ContractViolation("zero-dimensional source or target rejected")
    _check_exact(f.entries)
    return replace(_hom_space(f.rows, f.cols), pointing=flatten_matrix(f))


def _relation_rows(pcols, qcols) -> list:
    """The nonzero images (P tensor 1 - 1 tensor Q) e(i, j) as sparse rows.

    pcols[i] and qcols[j] are the columns of the square matrices P and Q,
    and e(i, j) is coordinate i * len(qcols) + j.
    """
    q = len(qcols)
    pnz = [[(k * q, v) for k, v in enumerate(col) if v] for col in pcols]
    qnz = [[(l, v) for l, v in enumerate(col) if v] for col in qcols]
    rows = []
    for i, pi in enumerate(pnz):
        for j, qj in enumerate(qnz):
            row = {}
            for kq, v in pi:
                row[kq + j] = v
            for l, v in qj:
                key = i * q + l
                nv = row.get(key, 0) - v
                if nv:
                    row[key] = nv
                elif key in row:
                    del row[key]
            if row:
                rows.append(row)
    return rows


def _quotient_shape(left: Algebra, right: Algebra, left_action,
                    right_action, p: int, q: int, relations):
    """The bimodule that M tensor N / span(relations) inherits, unpointed.

    left_action holds the p x p matrices by which the left algebra acts on
    the factor M, right_action the q x q ones by which the right algebra
    acts on N.  Ambient coordinate i * q + j is e(i) tensor e(j); the
    relations must span a sub-bimodule.  Returns the bimodule on the
    canonical pivot-complement basis, pointed by zero and checked by
    make_bimodule, with the projection columns: entry i * q + j lists the
    (quotient coordinate, value) pairs of the class of e(i) tensor e(j).
    """
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

    # make_bimodule reads the pointing only for its length and exactness
    shape = make_bimodule(left, right, descend(left_action, True),
                          descend(right_action, False), (0,) * dim)
    return shape, tuple(tuple(col.items()) for col in proj_cols)


def _quotient_pointing(dim: int, proj_cols, x, y) -> tuple:
    """The class of x tensor y in the quotient of _quotient_shape."""
    q = len(y)
    pointing = [0] * dim
    for i, v in enumerate(x):
        for j, w in enumerate(y):
            if v and w:
                for t, c in proj_cols[i * q + j]:
                    pointing[t] = pointing[t] + v * w * c
    _check_exact(pointing)
    return tuple(pointing)


# One quotient per pair of unpointed factors: rebuilding and revalidating
# it on every call was most of heisenberg-words.  Over the first 180
# seed-0 operations of that workload, the 660 tensor_over calls hit the
# memo 651 times and miss it 9 times; cleared before every operation it
# still hits 336 times, since one word repeats its factor shapes.  The
# memo alone took the workload from 175 to 373 ops/s (benchmarks/run.py,
# 8 s, 2 vCPUs).  In a Heisenberg word the keys depend only on the factor
# shapes, so 64 entries hold every pair such a run uses, and they bound
# the memory held for any other caller.
@lru_cache(maxsize=64)
def _tensor_shape(m1: PointedBimodule, m2: PointedBimodule):
    """_quotient_shape of tensor_over on factors with blank pointings."""
    relations = []
    for b in m1.right.generators:
        rb, lb = m1.right_action[b], m2.left_action[b]
        relations += _relation_rows([rb.col(i) for i in range(m1.dim)],
                                    [lb.col(j) for j in range(m2.dim)])
    return _quotient_shape(m1.left, m2.right, m1.left_action,
                           m2.right_action, m1.dim, m2.dim, relations)


def tensor_over(m1: PointedBimodule, m2: PointedBimodule) -> PointedBimodule:
    """Compose pointed bimodules: (M tensor_B N, class of 1_M tensor 1_N).

    The underlying space is the quotient of M tensor N by the middle
    relations (m <| b) tensor n - m tensor (b |> n) for basis vectors m
    and n and generators b of the middle algebra, on the canonical
    pivot-complement basis.  These span the relations of every b: the
    set of b whose relations lie in their span holds 1 and each
    generator, and with b it holds b s, since
    m(bs) tensor n - m tensor (bs)n is the relation of s at (mb, n) plus
    the relation of b at (m, sn).  The reduced echelon basis of a span
    does not depend on the rows that span it, so neither does the result.

    The quotient, its actions and their make_bimodule check depend only
    on the factors with their pointings blanked, so they are built once
    per such pair and kept in a bounded memo (_tensor_shape); each call
    then only descends x tensor y through the stored projection columns.
    This skips no check: make_bimodule reads the pointing only for its
    length and exactness, the exactness of the new pointing is checked
    here, and each distinct action pair is still validated once, as each
    hom-space shape is in _hom_space.  A hit hands back the stored
    actions, equal in value to a rebuild's (an entry may be Fraction(1)
    where a rebuild has 1).  Algebra equality ignores the generators, so
    the result carries the caller's m1.left and m2.right.

    Factors with m1.dim * m2.dim > TENSOR_MAX_AMBIENT_DIM are refused
    before any relation is built or the memo is consulted.
    """
    if m1.right != m2.left:
        raise ContractViolation("middle algebras do not match")
    if m1.dim * m2.dim > TENSOR_MAX_AMBIENT_DIM:
        raise ContractViolation(
            f"tensor of dimensions {m1.dim} and {m2.dim} exceeds "
            f"TENSOR_MAX_AMBIENT_DIM = {TENSOR_MAX_AMBIENT_DIM}")
    shape, proj_cols = _tensor_shape(replace(m1, pointing=()),
                                     replace(m2, pointing=()))
    pointing = _quotient_pointing(shape.dim, proj_cols, m1.pointing,
                                  m2.pointing)
    return replace(shape, left=m1.left, right=m2.right, pointing=pointing)


@dataclass(frozen=True)
class PointedBimoduleMap:
    """A bimodule homomorphism sending pointing to pointing."""

    source: PointedBimodule
    target: PointedBimodule
    matrix: Matrix


def _generator_actions(m1: PointedBimodule, m2: PointedBimodule) -> list:
    """(side, generator, its action on m1, its action on m2) for both sides."""
    return ([("left", s, m1.left_action[s], m2.left_action[s])
             for s in m1.left.generators]
            + [("right", t, m1.right_action[t], m2.right_action[t])
               for t in m1.right.generators])


def _map_failure(source: PointedBimodule, target: PointedBimodule,
                 matrix: Matrix, pointed: bool):
    """Why matrix is no bimodule map (pointing to pointing if pointed), or None.

    The elements a with X A1(a) = A2(a) X form a subalgebra, so the
    generators of each side suffice.
    """
    for side, i, a1, a2 in _generator_actions(source, target):
        if matrix @ a1 != a2 @ matrix:
            return f"map fails to intertwine the {side} action at basis index {i}"
    if pointed and matrix.apply(source.pointing) != tuple(target.pointing):
        return "map does not send pointing to pointing"
    return None


def make_bimodule_map(source: PointedBimodule, target: PointedBimodule,
                      matrix: Matrix) -> PointedBimoduleMap:
    """Validate intertwining on the generators of each side, and the pointing."""
    if source.left != target.left or source.right != target.right:
        raise ContractViolation("bimodule map needs equal acting algebras")
    if (matrix.rows, matrix.cols) != (target.dim, source.dim):
        raise ContractViolation("bimodule map matrix has wrong shape")
    failure = _map_failure(source, target, matrix, pointed=True)
    if failure is not None:
        raise ValidationError(failure)
    return PointedBimoduleMap(source, target, matrix)


def _affine_intertwiner_space(m1, m2, pointed: bool):
    """Particular + directions for intertwiners (optionally pointing-preserving).

    The unknown X is m2.dim x m1.dim, flattened row-major, and solves
    X L1(a) = L2(a) X and X R1(b) = R2(b) X for generators a and b: on
    coordinate e(u, v) these are the relation rows of P = A2^T and
    Q = A1, negated.  The elements where X intertwines form a subalgebra,
    so the solutions are those of every a and b, and the reduced echelon
    form, hence the particular solution and the kernel basis, are those
    of the full system.  Returns None when the affine system is
    inconsistent.
    """
    p, q = m1.dim, m2.dim
    eng = SparseEchelon()
    for _, _, a1, a2 in _generator_actions(m1, m2):
        for row in _relation_rows([a2.row(u) for u in range(q)],
                                  [a1.col(v) for v in range(p)]):
            eng.insert(row)
    if pointed:
        # X p1 = p2, with the right-hand side in column p * q
        for u in range(q):
            row = {u * p + c: v for c, v in enumerate(m1.pointing) if v}
            if m2.pointing[u]:
                row[p * q] = m2.pointing[u]
            eng.insert(row)
    space = eng.solve(p * q)
    if space is None:
        return None
    particular, kernel = space
    return Matrix(q, p, particular), [Matrix(q, p, v) for v in kernel]


def _iso_search(m1: PointedBimodule, m2: PointedBimodule, pointed: bool,
                seed: int):
    """A certified invertible intertwiner m1 -> m2, or None.

    With pointed it must also send pointing to pointing.  A search result
    failing that certification raises InternalCheckError; absence holds
    at the randomized level documented on find_invertible_in_affine_family.
    """
    if m1.left != m2.left or m1.right != m2.right:
        raise ContractViolation("iso test needs equal acting algebras")
    if m1.dim != m2.dim:
        return None
    space = _affine_intertwiner_space(m1, m2, pointed)
    if space is None:
        return None
    mat = find_invertible_in_affine_family(*space, seed=seed)
    if mat is None:
        return None
    failure = _map_failure(m1, m2, mat, pointed)
    if failure is not None:
        raise InternalCheckError(f"search returned a non-witness: {failure}")
    return mat


def bimodule_iso_pointed(m1: PointedBimodule, m2: PointedBimodule, *,
                         seed: int = 0):
    """An invertible intertwiner sending pointing to pointing, or None."""
    mat = _iso_search(m1, m2, True, seed)
    return None if mat is None else PointedBimoduleMap(m1, m2, mat)


def bimodule_iso_unpointed(m1: PointedBimodule, m2: PointedBimodule, *,
                           seed: int = 0):
    """An invertible intertwiner ignoring pointings, or None."""
    return _iso_search(m1, m2, False, seed)


def conjugator_between(f: AlgebraHom, g: AlgebraHom, *, seed: int = 0):
    """An invertible b with b f(a) = g(a) b for all a, or None.

    This is the direct criterion for the modulations of f and g to be
    isomorphic as unpointed bimodules; the two searches must agree.
    """
    if f.source != g.source or f.target != g.target:
        raise ContractViolation("homomorphisms must be parallel")
    b_alg = f.target
    n = b_alg.dim
    # b f(a) = g(a) b for every generator a: (R_f(a) - L_g(a)) b = 0; the
    # elements a where it holds form a subalgebra, since f and g are unital
    # homomorphisms, so the kernel is that of every a
    diffs = [b_alg.right_mult_matrix(f.matrix.col(i))
             - b_alg.left_mult_matrix(g.matrix.col(i))
             for i in f.source.generators]
    basis = kernel_basis(Matrix(len(diffs) * n, n,
                                tuple(x for d in diffs for x in d.entries)))
    if not basis:
        return None
    directions = [b_alg.left_mult_matrix(v) for v in basis]
    mat = find_invertible_in_affine_family(Matrix.zeros(n, n), directions,
                                           seed=seed)
    if mat is None:
        return None
    b = mat.apply(b_alg.unit)  # mat is L_b, and L_b(1) = b
    if not b_alg.is_invertible_element(b):
        raise InternalCheckError("conjugator search returned a non-unit")
    return b


# ---------------------------------------------------------------------------
# End-functor checks and annihilator modules


@dataclass(frozen=True)
class ComposeReport:
    passed: bool
    witness: object


def end_compose_check(f: Matrix, g: Matrix, *, seed: int = 0) -> ComposeReport:
    """Check hom(V,X) pointed by g f against hom(W,X) tensor hom(V,W).

    f : V -> W and g : W -> X; the composite bimodule carries a left
    End(X)- and right End(V)-action, and the witness exhibited is the
    composition map b tensor a -> b a.
    """
    if g.cols != f.rows:
        raise ContractViolation("maps are not composable")
    composite = tensor_over(end_morphism(g), end_morphism(f))
    direct = end_morphism(g @ f)
    witness = bimodule_iso_pointed(composite, direct, seed=seed)
    return ComposeReport(witness is not None, witness)


def annihilator_left(n: int, v) -> list:
    """Basis of the left ideal {a in M_n : a v = 0} in flat coordinates.

    Dimension is n(n-1) for v != 0 and n^2 for v = 0.
    """
    v = tuple(v)
    if len(v) != n:
        raise ContractViolation("vector length must match n")
    ents = [0] * (n * n * n)
    for r in range(n):
        for c in range(n):
            ents[r * n * n + (r * n + c)] = v[c]
    return kernel_basis(Matrix(n, n * n, tuple(ents)))


def annihilator_right(n: int, w) -> list:
    """Basis of the right ideal {a in M_n : w a = 0} in flat coordinates."""
    w = tuple(w)
    if len(w) != n:
        raise ContractViolation("covector length must match n")
    ents = [0] * (n * n * n)
    for c in range(n):
        for r in range(n):
            ents[c * n * n + (r * n + c)] = w[r]
    return kernel_basis(Matrix(n, n * n, tuple(ents)))


def ideal_quotient_module(alg: Algebra, ideal_basis,
                          side: str) -> PointedBimodule:
    """The one-sided module A/I (side 'left') or J\\A (side 'right').

    The opposite action is through the ground field.  The basis must span
    an ideal of the claimed side; otherwise a ValidationError reports a
    witness product escaping the span.  Closure is checked under the
    algebra's generators: the a with a I in I (for a left ideal) hold 1,
    and with a they hold a s, since (as) I = a (s I).
    """
    if side not in ("left", "right"):
        raise ContractViolation("side must be 'left' or 'right'")
    gens = [tuple(v) for v in ideal_basis]
    if any(len(v) != alg.dim for v in gens):
        raise ContractViolation("ideal vectors must have the algebra dimension")
    rows = [{i: x for i, x in enumerate(v) if x} for v in gens]
    span = SparseEchelon()
    for row in rows:
        span.insert(row)
    for i in alg.generators:
        ei = tuple(1 if j == i else 0 for j in range(alg.dim))
        for k, x in enumerate(gens):
            prod = alg.multiply(ei, x) if side == "left" else alg.multiply(x, ei)
            if not span.contains({j: c for j, c in enumerate(prod) if c}):
                raise ValidationError(
                    f"not a {side} ideal: basis element {i} times generator {k} "
                    "escapes the span")
    # A/I is A tensor K modulo I tensor K, and J\A is K tensor A modulo K tensor J
    k_alg, one = field_algebra(), [Matrix.identity(1)]
    if side == "left":
        shape, proj_cols = _quotient_shape(alg, k_alg, alg.left_regular(),
                                           one, alg.dim, 1, rows)
        x, y = alg.unit, (1,)
    else:
        shape, proj_cols = _quotient_shape(k_alg, alg, one,
                                           alg.right_regular(), 1, alg.dim,
                                           rows)
        x, y = (1,), alg.unit
    return replace(shape, pointing=_quotient_pointing(shape.dim, proj_cols,
                                                      x, y))
