"""One-dimensional quantum-mechanical spacetimes with point defects.

Words of generators (time-evolution intervals and labeled point defects)
are evaluated in two pictures and compared:

  * Schrodinger: each generator becomes a matrix and the word becomes a
    matrix product;
  * Heisenberg: each generator becomes a pointed bimodule over
    endomorphism algebras and the word becomes a tensor composite.

Durations are positive integers and u(t) is the t-th power of the step
matrix, which is exactly what the group law u(s) u(t) = u(s+t) needs; it
is computed by repeated squaring, in O(log t) matrix products, once per
distinct t in an evaluation.  eval_pictures builds one table of generator
matrices per call and gives it to both pictures, so compare_pictures and
`skeinalg tqft1d --picture both` compute each power once; no table is
kept across calls.  linalg holds every product it reads out, each power,
word product and Heisenberg tensor pointing among them, to
MATRIX_POWER_MAX_ENTRY_BITS, so a word whose values explode fails fast
with ContractViolation.  So does every Heisenberg word on dim V >= 9,
before it tensors anything: its bimodules act through End(V), which is
past ALGEBRA_MAX_DIM.
Words are written left to right in diagram order and evaluated in
function-composition order: the rightmost generator applies first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from operator import matmul

from .algebra import field_algebra
from .bimodule import PointedBimodule, end_morphism, tensor_over
from .errors import (ContractViolation, InternalCheckError, LabelNotFound,
                     ParseError, int_arg)
from .linalg import Matrix, _check_exact, matrix_power

PT = "pt"
EMPTY = "empty"


@dataclass(frozen=True)
class System:
    """A space of states with a step matrix and labeled defect data."""

    dim_v: int
    step: Matrix
    states: dict = field(default_factory=dict)      # label -> column tuple
    costates: dict = field(default_factory=dict)    # label -> row tuple
    observables: dict = field(default_factory=dict)  # label -> Matrix


def make_system(dim_v: int, step: Matrix, states=None, costates=None,
                observables=None) -> System:
    int_arg(dim_v, "the dimension of the space of states", 1)
    if not isinstance(step, Matrix):
        raise ContractViolation(f"step is a Matrix, not {type(step).__name__}")
    if (step.rows, step.cols) != (dim_v, dim_v):
        raise ContractViolation("step matrix shape does not match dim")
    states = {k: tuple(v) for k, v in (states or {}).items()}
    costates = {k: tuple(v) for k, v in (costates or {}).items()}
    observables = dict(observables or {})
    for k, v in states.items():
        if len(v) != dim_v:
            raise ContractViolation(f"state {k!r} has wrong length")
    for k, v in costates.items():
        if len(v) != dim_v:
            raise ContractViolation(f"costate {k!r} has wrong length")
    for k, m in observables.items():
        if not isinstance(m, Matrix) or (m.rows, m.cols) != (dim_v, dim_v):
            raise ContractViolation(
                f"observable {k!r} is not a {dim_v}x{dim_v} Matrix")
    for values in (step.entries, *states.values(), *costates.values(),
                   *(m.entries for m in observables.values())):
        _check_exact(values)
    return System(dim_v, step, states, costates, observables)


# generators are ("u", t), ("v", label), ("w", label), ("a", label)

_ENDPOINTS = {"u": (PT, PT), "a": (PT, PT), "v": (EMPTY, PT), "w": (PT, EMPTY)}


def generator_endpoints(gen):
    return _ENDPOINTS[gen[0]]


@dataclass(frozen=True)
class SpacetimeWord:
    """A composable sequence of generators, leftmost applied last."""

    gens: tuple
    at: str = PT  # endpoint of the empty word; ignored otherwise

    @property
    def source(self) -> str:
        return generator_endpoints(self.gens[-1])[0] if self.gens else self.at

    @property
    def target(self) -> str:
        return generator_endpoints(self.gens[0])[1] if self.gens else self.at

    @property
    def is_closed(self) -> bool:
        return self.source == EMPTY and self.target == EMPTY

    def __len__(self):
        return len(self.gens)


def make_word(gens, at: str = PT) -> SpacetimeWord:
    gens = tuple(gens)
    for k, gen in enumerate(gens):
        if not (isinstance(gen, tuple) and len(gen) == 2
                and isinstance(gen[0], str) and gen[0] in _ENDPOINTS):
            raise ContractViolation(
                f"generator {k}: expected a (kind, argument) pair with kind "
                f"one of u, v, w, a, got {gen!r}")
        # the same durations parse_word accepts; u(0) would otherwise
        # evaluate silently to the identity
        if gen[0] == "u":
            int_arg(gen[1], f"generator {k}: duration", 1)
    for k, (g, h) in enumerate(zip(gens, gens[1:])):
        # in f o g the source of f must be the target of g
        if generator_endpoints(g)[0] != generator_endpoints(h)[1]:
            raise ContractViolation(
                f"generators at positions {k} and {k + 1} do not compose: "
                f"{g[0]} has source {generator_endpoints(g)[0]} but "
                f"{h[0]} has target {generator_endpoints(h)[1]}")
    if at not in (PT, EMPTY):
        raise ContractViolation("endpoint must be 'pt' or 'empty'")
    return SpacetimeWord(gens, at)


_GEN_RE = re.compile(r"u\(\s*(\d+)\s*\)|([vwa])\[\s*(\w+)\s*\]")


def parse_word(text: str) -> SpacetimeWord:
    """Parse ``gen ("." gen)*`` with gen one of u(INT), v[LBL], w[LBL], a[LBL]."""
    gens = []
    pos = 0
    n = len(text)
    expecting_gen = True
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        if not expecting_gen:
            if text[pos] != ".":
                raise ParseError("expected '.' between generators", pos)
            pos += 1
            expecting_gen = True
            continue
        m = _GEN_RE.match(text, pos)
        if not m:
            raise ParseError("expected a generator u(INT), v[LBL], w[LBL] or a[LBL]",
                             pos)
        if m.group(1) is not None:
            try:
                t = int(m.group(1))
            except ValueError as exc:  # past Python's digit limit for int(str)
                raise ParseError(f"bad duration: {exc}", pos) from None
            if t < 1:
                raise ParseError("duration must be a positive integer", pos)
            gens.append(("u", t))
        else:
            gens.append((m.group(2), m.group(3)))
        pos = m.end()
        expecting_gen = False
    if expecting_gen:
        raise ParseError("empty word or trailing '.'", pos)
    return make_word(gens)


def _lookup(table: dict, kind: str, label: str):
    if label not in table:
        raise LabelNotFound(f"no {kind} with label {label!r}")
    return table[label]


def _schrodinger_matrix(sys: System, gen) -> Matrix:
    kind, arg = gen
    if kind == "u":
        return matrix_power(sys.step, arg)
    if kind == "a":
        return _lookup(sys.observables, "observable", arg)
    if kind == "v":
        return Matrix.column(_lookup(sys.states, "state", arg))
    return Matrix.row_vector(_lookup(sys.costates, "costate", arg))


def _generator_matrices(sys: System):
    """gen -> its Schrodinger matrix, each distinct generator computed once.

    The table lives for one evaluation or comparison, never across calls.
    """
    return lru_cache(maxsize=None)(partial(_schrodinger_matrix, sys))


def _schrodinger_word(sys: System, word: SpacetimeWord, matrix_of) -> Matrix:
    if not word.gens:
        return Matrix.identity(sys.dim_v if word.at == PT else 1)
    return reduce(matmul, map(matrix_of, word.gens))


def eval_schrodinger(sys: System, word: SpacetimeWord) -> Matrix:
    """The matrix of the word; a closed word yields a 1x1 matrix."""
    return _schrodinger_word(sys, word, _generator_matrices(sys))


def _heisenberg_bimodule(gen, matrix_of) -> PointedBimodule:
    return end_morphism(matrix_of(gen))


def _heisenberg_word(sys: System, word: SpacetimeWord,
                     matrix_of) -> PointedBimodule:
    if not word.gens:
        n = sys.dim_v if word.at == PT else 1
        return end_morphism(Matrix.identity(n))
    return reduce(tensor_over, (_heisenberg_bimodule(gen, matrix_of)
                                for gen in word.gens))


def eval_heisenberg(sys: System, word: SpacetimeWord) -> PointedBimodule:
    """The pointed bimodule of the word under the endomorphism picture.

    Every generator passes through the hom-space construction (intervals
    and observables give the endomorphism algebra acting on itself,
    states give hom(K, V), costates hom(V, K)); the word is the tensor
    composite in diagram order.
    """
    return _heisenberg_word(sys, word, _generator_matrices(sys))


@dataclass(frozen=True)
class PictureReport:
    schrodinger_value: object
    heisenberg_value: object
    agree: bool


def picture_report(s: Matrix, h: PointedBimodule) -> PictureReport:
    """Compare a closed word's Schrodinger and Heisenberg values exactly."""
    if h.dim != 1 or h.left != field_algebra() or h.right != field_algebra():
        raise InternalCheckError("closed word did not evaluate to a scalar bimodule")
    return PictureReport(s[0, 0], h.pointing[0], s[0, 0] == h.pointing[0])


def eval_pictures(sys: System,
                  word: SpacetimeWord) -> tuple[Matrix, PointedBimodule]:
    """The word in both pictures, from one table of generator matrices.

    Each distinct generator's matrix, u(t) powers included, is computed
    once and shared: the Schrodinger picture multiplies the matrices, the
    Heisenberg picture builds end_morphism of each and tensors them over
    the endomorphism algebras, so the routes still part after the
    generators.
    """
    matrix_of = _generator_matrices(sys)
    return (_schrodinger_word(sys, word, matrix_of),
            _heisenberg_word(sys, word, matrix_of))


def compare_pictures(sys: System, word: SpacetimeWord) -> PictureReport:
    """Evaluate a closed word in both pictures and compare the scalars."""
    if not word.is_closed:
        raise ContractViolation("picture comparison needs a closed word")
    return picture_report(*eval_pictures(sys, word))
