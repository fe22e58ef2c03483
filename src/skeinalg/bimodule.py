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

from .algebra import Algebra, AlgebraHom, flatten_matrix, matrix_algebra
from .errors import (ContractViolation, InternalCheckError, ValidationError,
                     int_arg)
from .linalg import (Matrix, SparseEchelon, TensorMap, _check_exact,
                     find_invertible_in_affine_family, kernel_basis,
                     lincomb_image, matrix_image, product_image,
                     relation_rows as _relation_rows, same_image,
                     sparse_quotient)

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


def _action_failure(alg: Algebra, action: tuple, m: int, left: bool):
    """Why action is no unital left (right) action of alg on Q^m, or None.

    The unit law, then L(e_i) L(e_s) = L(e_i e_s), or for a right action
    R(e_s) R(e_i) = R(e_i e_s), for every basis index i and generator s;
    make_bimodule says why that covers all of alg.  Every law is compared
    on integer images, so no value is read out.
    """
    if not same_image(lincomb_image(zip(alg.unit, action), m, m),
                      matrix_image(Matrix.identity(m))):
        return f"{'left' if left else 'right'} action of the unit is not the identity"
    for i in range(alg.dim):
        for s in alg.generators:
            prod = lincomb_image(zip(alg.basis_product(i, s), action), m, m)
            pair = (action[i], action[s]) if left else (action[s], action[i])
            if not same_image(product_image(*pair), prod):
                if left:
                    return f"left action is not multiplicative at basis pair ({i},{s})"
                return ("right action is not anti-multiplicative at basis pair "
                        f"({s},{i})")
    return None


# Every regular_bimodule and every modulate acts by an algebra's own
# regular action on at least one side.  Its verdict depends on the algebra
# alone, so it is proved once per algebra, as each hom-space shape is in
# _hom_space, and 64 entries bound the memory held.  With the cyclic
# generators of matrix_algebra this took iso-search from about 500 to 680
# ops/s (benchmarks/run.py, seed 0, 20 s, 2-vCPU shared x86_64 host).
@lru_cache(maxsize=64)
def _regular_failure(alg: Algebra, left: bool):
    """_action_failure of alg's own left (right) regular action."""
    return _action_failure(alg, alg.left_regular() if left
                           else alg.right_regular(), alg.dim, left)


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

    Each side's unit and product laws depend only on that side's algebra
    and action.  An action equal in value to the algebra's own regular
    action is checked once per algebra, in a bounded memo, and every
    other action on every call; shapes, exactness and commutation are
    checked on every call.
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
        matrix_image(mat)  # raises ContractViolation on an inexact entry
    _check_exact(pointing)
    for alg, action, on_left in ((left, left_action, True),
                                 (right, right_action, False)):
        regular = alg.left_regular() if on_left else alg.right_regular()
        # compared by value, so an equal rebuilt action hits the memo too
        failure = (_regular_failure(alg, on_left)
                   if m == alg.dim and action == regular
                   else _action_failure(alg, action, m, on_left))
        if failure is not None:
            raise ValidationError(failure)
    for s in left.generators:
        for t in right.generators:
            if not same_image(product_image(left_action[s], right_action[t]),
                              product_image(right_action[t], left_action[s])):
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
@lru_cache(maxsize=None)
def _hom_space(nw: int, nv: int) -> PointedBimodule:
    """hom(V, W) with its End(W)-End(V) actions, validated once per shape."""
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
    return make_bimodule(matrix_algebra(nw), matrix_algebra(nv), left_action,
                         right_action, (0,) * m)


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
    matrix_image(f)  # raises ContractViolation on an inexact entry
    return replace(_hom_space(f.rows, f.cols), pointing=flatten_matrix(f))


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
    """The bimodule tensor_over builds on factors with blank pointings.

    Ambient coordinate i * q + j is e(i) tensor e(j), for p = m1.dim and
    q = m2.dim.  Returns the quotient on the canonical pivot-complement
    basis, pointed by zero and checked by make_bimodule, with the
    projection as a TensorMap: proj(x, y) is the class of x tensor y.
    """
    p, q = m1.dim, m2.dim
    relations = []
    for b in m1.right.generators:
        relations += _relation_rows(m1.right_action[b], m2.left_action[b])
    reps, proj_cols = sparse_quotient(p * q, relations)
    dim = len(reps)
    proj = TensorMap(p, q, dim, (col.items() for col in proj_cols))
    ep = [tuple(int(k == i) for k in range(p)) for i in range(p)]
    eq = [tuple(int(k == j) for k in range(q)) for j in range(q)]

    def descend(action, on_left):
        # the left action moves the first factor, the right the second
        return [Matrix.from_cols(
            [proj(act.col(i), eq[j]) if on_left else proj(ep[i], act.col(j))
             for i, j in (divmod(r, q) for r in reps)], dim)
            for act in action]

    # make_bimodule reads the pointing only for its length and exactness
    shape = make_bimodule(m1.left, m2.right, descend(m1.left_action, True),
                          descend(m2.right_action, False), (0,) * dim)
    return shape, proj


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
    per such pair and kept in a bounded memo (_tensor_shape), with the
    quotient map as a TensorMap; each call then only applies it to the
    pointings, proj(x, y), the class of x tensor y.  This skips no check:
    make_bimodule reads the pointing only for its length and exactness,
    the TensorMap checks the exactness of x and y, and each distinct action
    pair is still validated once, as each hom-space shape is in
    _hom_space.  A hit hands back the stored actions, equal to a
    rebuild's in value and in type, since every descended entry is
    normalised: an int where integral, a reduced Fraction otherwise.
    Algebra equality ignores the generators, so the result carries the
    caller's m1.left and m2.right.

    Factors with m1.dim * m2.dim > TENSOR_MAX_AMBIENT_DIM are refused
    before any relation is built or the memo is consulted.
    """
    if m1.right != m2.left:
        raise ContractViolation("middle algebras do not match")
    if m1.dim * m2.dim > TENSOR_MAX_AMBIENT_DIM:
        raise ContractViolation(
            f"tensor of dimensions {m1.dim} and {m2.dim} exceeds "
            f"TENSOR_MAX_AMBIENT_DIM = {TENSOR_MAX_AMBIENT_DIM}")
    shape, proj = _tensor_shape(replace(m1, pointing=()),
                                replace(m2, pointing=()))
    pointing = proj(m1.pointing, m2.pointing)
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
    generators of each side suffice.  Every law is compared on integer
    images, so no value is read out.
    """
    for side, i, a1, a2 in _generator_actions(source, target):
        if not same_image(product_image(matrix, a1), product_image(a2, matrix)):
            return f"map fails to intertwine the {side} action at basis index {i}"
    if pointed and not same_image(
            product_image(matrix, Matrix.column(source.pointing)),
            matrix_image(Matrix.column(target.pointing))):
        return "map does not send pointing to pointing"
    return None


def make_bimodule_map(source: PointedBimodule, target: PointedBimodule,
                      matrix: Matrix) -> PointedBimoduleMap:
    """Validate intertwining on the generators of each side, and the pointing."""
    if source.left != target.left or source.right != target.right:
        raise ContractViolation("bimodule map needs equal acting algebras")
    if (matrix.rows, matrix.cols) != (target.dim, source.dim):
        raise ContractViolation("bimodule map matrix has wrong shape")
    matrix_image(matrix)  # raises ContractViolation on an inexact entry
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
        for row in _relation_rows(a2, a1, transposed=True):
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
    int_arg(seed, "search seed", None)   # also where no search runs
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
    int_arg(seed, "search seed", None)   # also where no search runs
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
# End-functor checks


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
