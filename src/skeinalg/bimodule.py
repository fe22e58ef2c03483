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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (Algebra, AlgebraHom, field_algebra, flatten_matrix,
                      matrix_algebra)
from .errors import ContractViolation, InternalCheckError, ValidationError
from .linalg import (Matrix, SparseEchelon, find_invertible_in_affine_family,
                     kernel_basis, mat_lincomb, sparse_quotient)

DEFAULT_BIMODULE_DIM_CAP = 16


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

    def act_left(self, avec, m) -> tuple:
        return mat_lincomb(zip(avec, self.left_action), self.dim, self.dim).apply(m)

    def act_right(self, m, bvec) -> tuple:
        return mat_lincomb(zip(bvec, self.right_action), self.dim, self.dim).apply(m)


def make_bimodule(left: Algebra, right: Algebra, left_action, right_action,
                  pointing, *, max_dim=None) -> PointedBimodule:
    """Validate actions exhaustively over basis indices and build."""
    left_action = tuple(left_action)
    right_action = tuple(right_action)
    pointing = tuple(pointing)
    m = len(pointing)
    cap = DEFAULT_BIMODULE_DIM_CAP if max_dim is None else max_dim
    if m > cap:
        raise ValidationError(
            f"bimodule dimension {m} exceeds the cap {cap}; pass max_dim to allow")
    if len(left_action) != left.dim or len(right_action) != right.dim:
        raise ContractViolation("one action matrix per algebra basis element")
    for mat in list(left_action) + list(right_action):
        if (mat.rows, mat.cols) != (m, m):
            raise ContractViolation("action matrices must be dim x dim")
    ident = Matrix.identity(m)
    if mat_lincomb(zip(left.unit, left_action), m, m) != ident:
        raise ValidationError("left action of the unit is not the identity")
    if mat_lincomb(zip(right.unit, right_action), m, m) != ident:
        raise ValidationError("right action of the unit is not the identity")
    for i in range(left.dim):
        for j in range(left.dim):
            prod = mat_lincomb(zip(left.basis_product(i, j), left_action), m, m)
            if left_action[i] @ left_action[j] != prod:
                raise ValidationError(
                    f"left action is not multiplicative at basis pair ({i},{j})")
    for i in range(right.dim):
        for j in range(right.dim):
            prod = mat_lincomb(zip(right.basis_product(j, i), right_action), m, m)
            if right_action[i] @ right_action[j] != prod:
                raise ValidationError(
                    f"right action is not anti-multiplicative at basis pair ({i},{j})")
    for i in range(left.dim):
        for j in range(right.dim):
            if left_action[i] @ right_action[j] != right_action[j] @ left_action[i]:
                raise ValidationError(
                    f"actions do not commute at basis pair ({i},{j})")
    return PointedBimodule(left, right, m, left_action, right_action, pointing)


def regular_bimodule(alg: Algebra, pointing=None) -> PointedBimodule:
    """The algebra acting on itself on both sides, pointed by the unit by default."""
    if pointing is None:
        pointing = alg.unit
    return make_bimodule(alg, alg, alg.left_regular(), alg.right_regular(),
                         pointing, max_dim=alg.dim)


def modulate(f: AlgebraHom) -> PointedBimodule:
    """The pointed bimodule of a homomorphism: B with a |> x = f(a) x, pointed by 1."""
    b = f.target
    left_action = [b.left_mult_matrix(f.matrix.col(i))
                   for i in range(f.source.dim)]
    return make_bimodule(f.source, b, left_action, b.right_regular(),
                         b.unit, max_dim=b.dim)


def end_morphism(f: Matrix, dim_v=None, dim_w=None) -> PointedBimodule:
    """hom(V, W) pointed by f, with End(W) acting left and End(V) acting right.

    f is a dim(W) x dim(V) matrix; module coordinates flatten hom(V, W)
    row-major.  Zero-dimensional spaces are rejected.
    """
    nw = f.rows if dim_w is None else dim_w
    nv = f.cols if dim_v is None else dim_v
    if (f.rows, f.cols) != (nw, nv):
        raise ContractViolation("stated dimensions disagree with the matrix shape")
    if nv < 1 or nw < 1:
        raise ContractViolation("zero-dimensional source or target rejected")
    m = nv * nw
    left = matrix_algebra(nw)
    right = matrix_algebra(nv)
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
    return make_bimodule(left, right, left_action, right_action,
                         flatten_matrix(f), max_dim=m)


def tensor_over(m1: PointedBimodule, m2: PointedBimodule, *,
                max_dim=None) -> PointedBimodule:
    """Compose pointed bimodules: (M tensor_B N, class of 1_M tensor 1_N).

    The underlying space is the quotient of M tensor N by the middle
    relations (m <| b) tensor n - m tensor (b |> n) over all basis
    triples, on the canonical pivot-complement basis.
    """
    if m1.right != m2.left:
        raise ContractViolation("middle algebras do not match")
    mid = m1.right
    p, q = m1.dim, m2.dim
    amb = p * q
    relations = []
    for b in range(mid.dim):
        rb = m1.right_action[b]
        lb = m2.left_action[b]
        for i in range(p):
            rcol = rb.col(i)
            for j in range(q):
                row: dict = {}
                for k, v in enumerate(rcol):
                    if v:
                        row[k * q + j] = v
                lcol = lb.col(j)
                for l, v in enumerate(lcol):
                    if v:
                        key = i * q + l
                        nv = row.get(key, 0) - v
                        if nv:
                            row[key] = nv
                        elif key in row:
                            del row[key]
                if row:
                    relations.append(row)
    reps, proj_cols = sparse_quotient(amb, relations)
    dim = len(reps)

    def descend(action, side_dim, on_left):
        mats = []
        for a in range(side_dim):
            act = action[a]
            cols = []
            for r in reps:
                i, j = divmod(r, q)
                col: dict = {}
                if on_left:
                    for k, v in enumerate(act.col(i)):
                        if v:
                            for t, w in proj_cols[k * q + j].items():
                                col[t] = col.get(t, 0) + v * w
                else:
                    for l, v in enumerate(act.col(j)):
                        if v:
                            for t, w in proj_cols[i * q + l].items():
                                col[t] = col.get(t, 0) + v * w
                cols.append(col)
            ents = [0] * (dim * dim)
            for jj, col in enumerate(cols):
                for ii, v in col.items():
                    if v:
                        ents[ii * dim + jj] = v
            mats.append(Matrix(dim, dim, tuple(ents)))
        return mats

    left_action = descend(m1.left_action, m1.left.dim, True)
    right_action = descend(m2.right_action, m2.right.dim, False)
    pointing = [0] * dim
    for i, v in enumerate(m1.pointing):
        if not v:
            continue
        for j, w in enumerate(m2.pointing):
            if not w:
                continue
            for t, c in proj_cols[i * q + j].items():
                pointing[t] = pointing[t] + v * w * c
    return make_bimodule(m1.left, m2.right, left_action, right_action,
                         pointing, max_dim=max_dim)


@dataclass(frozen=True)
class PointedBimoduleMap:
    """A bimodule homomorphism sending pointing to pointing."""

    source: PointedBimodule
    target: PointedBimodule
    matrix: Matrix


def make_bimodule_map(source: PointedBimodule, target: PointedBimodule,
                      matrix: Matrix) -> PointedBimoduleMap:
    if source.left != target.left or source.right != target.right:
        raise ContractViolation("bimodule map needs equal acting algebras")
    if (matrix.rows, matrix.cols) != (target.dim, source.dim):
        raise ContractViolation("bimodule map matrix has wrong shape")
    for i in range(source.left.dim):
        if matrix @ source.left_action[i] != target.left_action[i] @ matrix:
            raise ValidationError(
                f"map fails to intertwine the left action at basis index {i}")
    for j in range(source.right.dim):
        if matrix @ source.right_action[j] != target.right_action[j] @ matrix:
            raise ValidationError(
                f"map fails to intertwine the right action at basis index {j}")
    if matrix.apply(source.pointing) != tuple(target.pointing):
        raise ValidationError("map does not send pointing to pointing")
    return PointedBimoduleMap(source, target, matrix)


def _intertwiner_equations(m1: PointedBimodule, m2: PointedBimodule):
    """Sparse rows of the system X L1(a) = L2(a) X, X R1(b) = R2(b) X.

    Unknown X is m2.dim x m1.dim, flattened row-major.
    """
    rows = []
    p, q = m1.dim, m2.dim
    for acts1, acts2 in ((m1.left_action, m2.left_action),
                         (m1.right_action, m2.right_action)):
        for a1, a2 in zip(acts1, acts2):
            for u in range(q):
                arow = [a2.entries[u * q + r] for r in range(q)]
                for v in range(p):
                    row: dict = {}
                    for c in range(p):
                        coeff = a1.entries[c * p + v]
                        if coeff:
                            row[u * p + c] = row.get(u * p + c, 0) + coeff
                    for r in range(q):
                        coeff = arow[r]
                        if coeff:
                            key = r * p + v
                            nv = row.get(key, 0) - coeff
                            if nv:
                                row[key] = nv
                            elif key in row:
                                del row[key]
                    if row:
                        rows.append(row)
    return rows


def _affine_intertwiner_space(m1, m2, pointed: bool):
    """Particular + directions for intertwiners (optionally pointing-preserving).

    Returns None when the affine system is inconsistent.
    """
    p, q = m1.dim, m2.dim
    n_unknowns = p * q
    aug = n_unknowns
    eng = SparseEchelon()
    for row in _intertwiner_equations(m1, m2):
        eng.insert(row)
    if pointed:
        for u in range(q):
            row = {u * p + c: v for c, v in enumerate(m1.pointing) if v}
            t = m2.pointing[u]
            if t:
                row[aug] = t
            eng.insert(row)
        if aug in eng.rows:
            return None
    x = [0] * n_unknowns
    for piv, row in eng.rows.items():
        if piv != aug:
            x[piv] = row.get(aug, 0)
    directions = [Matrix(q, p, v) for v in eng.kernel(n_unknowns)]
    return Matrix(q, p, tuple(x)), directions


def bimodule_iso_pointed(m1: PointedBimodule, m2: PointedBimodule, *,
                         trials: int = 32, seed: int = 0):
    """An invertible intertwiner sending pointing to pointing, or None.

    Presence is certified exactly; absence holds at the randomized
    completeness level documented on find_invertible_in_affine_family.
    """
    if m1.left != m2.left or m1.right != m2.right:
        raise ContractViolation("pointed iso needs equal acting algebras")
    if m1.dim != m2.dim:
        return None
    space = _affine_intertwiner_space(m1, m2, pointed=True)
    if space is None:
        return None
    particular, directions = space
    mat = find_invertible_in_affine_family(particular, directions,
                                           trials=trials, seed=seed)
    if mat is None:
        return None
    return make_bimodule_map(m1, m2, mat)


def bimodule_iso_unpointed(m1: PointedBimodule, m2: PointedBimodule, *,
                           trials: int = 32, seed: int = 0):
    """An invertible intertwiner ignoring pointings, or None."""
    if m1.left != m2.left or m1.right != m2.right:
        raise ContractViolation("iso test needs equal acting algebras")
    if m1.dim != m2.dim:
        return None
    particular, directions = _affine_intertwiner_space(m1, m2, pointed=False)
    mat = find_invertible_in_affine_family(particular, directions,
                                           trials=trials, seed=seed)
    if mat is None:
        return None
    for i in range(m1.left.dim):
        if mat @ m1.left_action[i] != m2.left_action[i] @ mat:
            raise InternalCheckError("search returned a non-intertwiner")
    return mat


def conjugator_between(f: AlgebraHom, g: AlgebraHom, *, trials: int = 32,
                       seed: int = 0):
    """An invertible b with b f(a) = g(a) b for all a, or None.

    This is the direct criterion for the modulations of f and g to be
    isomorphic as unpointed bimodules; the two searches must agree.
    """
    if f.source != g.source or f.target != g.target:
        raise ContractViolation("homomorphisms must be parallel")
    b_alg = f.target
    n = b_alg.dim
    rows = []
    for i in range(f.source.dim):
        rf = b_alg.right_mult_matrix(f.matrix.col(i))
        lg = b_alg.left_mult_matrix(g.matrix.col(i))
        diff = rf - lg
        for r in range(n):
            row = {c: diff.entries[r * n + c]
                   for c in range(n) if diff.entries[r * n + c]}
            if row:
                rows.append(row)
    eng = SparseEchelon()
    for row in rows:
        eng.insert(row)
    basis = eng.kernel(n)
    if not basis:
        return None
    directions = [b_alg.left_mult_matrix(v) for v in basis]
    mat = find_invertible_in_affine_family(Matrix.zeros(n, n), directions,
                                           trials=trials, seed=seed)
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
    detail: str


def end_compose_check(f: Matrix, g: Matrix, *, trials: int = 32,
                      seed: int = 0) -> ComposeReport:
    """Check hom(V,X) pointed by g f against hom(W,X) tensor hom(V,W).

    f : V -> W and g : W -> X; the composite bimodule carries a left
    End(X)- and right End(V)-action, and the witness exhibited is the
    composition map b tensor a -> b a.
    """
    if g.cols != f.rows:
        raise ContractViolation("maps are not composable")
    composite = tensor_over(end_morphism(g), end_morphism(f),
                            max_dim=g.rows * f.rows * f.cols)
    direct = end_morphism(g @ f)
    witness = bimodule_iso_pointed(composite, direct, trials=trials, seed=seed)
    if witness is None:
        return ComposeReport(False, None,
                             "no pointed isomorphism found between the "
                             "composite and the direct image")
    return ComposeReport(True, witness, "pointed isomorphism exhibited")


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


def ideal_quotient_module(alg: Algebra, ideal_basis, side: str, *,
                          max_dim=None) -> PointedBimodule:
    """The one-sided module A/I (side 'left') or J\\A (side 'right').

    The opposite action is through the ground field.  The basis must span
    an ideal of the claimed side; otherwise a ValidationError reports a
    witness product escaping the span.
    """
    if side not in ("left", "right"):
        raise ContractViolation("side must be 'left' or 'right'")
    gens = [tuple(v) for v in ideal_basis]
    if any(len(v) != alg.dim for v in gens):
        raise ContractViolation("ideal vectors must have the algebra dimension")
    span = SparseEchelon()
    for v in gens:
        span.insert({i: x for i, x in enumerate(v) if x})
    for i in range(alg.dim):
        ei = tuple(1 if j == i else 0 for j in range(alg.dim))
        for k, x in enumerate(gens):
            prod = alg.multiply(ei, x) if side == "left" else alg.multiply(x, ei)
            if not span.contains({j: c for j, c in enumerate(prod) if c}):
                raise ValidationError(
                    f"not a {side} ideal: basis element {i} times generator {k} "
                    "escapes the span")
    rows = [{i: x for i, x in enumerate(v) if x} for v in gens]
    reps, proj_cols = sparse_quotient(alg.dim, rows)
    dim = len(reps)
    action_src = alg.left_regular() if side == "left" else alg.right_regular()
    mats = []
    for act in action_src:
        ents = [0] * (dim * dim)
        for jj, r in enumerate(reps):
            for k, v in enumerate(act.col(r)):
                if v:
                    for t, w in proj_cols[k].items():
                        ents[t * dim + jj] = ents[t * dim + jj] + v * w
        mats.append(Matrix(dim, dim, tuple(ents)))
    pointing = [0] * dim
    for i, v in enumerate(alg.unit):
        if v:
            for t, c in proj_cols[i].items():
                pointing[t] = pointing[t] + v * c
    k_alg = field_algebra()
    ident = [Matrix.identity(dim)]
    if side == "left":
        return make_bimodule(alg, k_alg, mats, ident, pointing, max_dim=max_dim)
    return make_bimodule(k_alg, alg, ident, mats, pointing, max_dim=max_dim)
