"""JSON schemas for the batch CLI.

Rationals travel as "p/q" strings (plain integers are accepted) so that
nothing ever passes through floating point.  Laurent polynomials are
{"exp": coeff} maps with string keys.  Every emitter with a parser
round-trips through it to an equal object.  Systems and tangles are only
read, so they have a parser and no emitter.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .algebra import Algebra, AlgebraHom, _check_dim, make_algebra, make_hom
from .bimodule import PointedBimodule, make_bimodule
from .errors import ContractViolation, ParseError, int_arg
from .laurent import LaurentPoly
from .linalg import Matrix
from .tangles import CAP, CUP, ID, SliceTangle, cross, tangle, twist
from .tl import AnnularClass
from .tqft1d import System, make_system


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ParseError(f"expected a rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {x!r}: {exc}") from None
    raise ParseError(f"expected a rational, got {type(x).__name__}")


def emit_rational(x) -> str:
    return str(Fraction(x))


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be a JSON object")
    return obj


def _require(obj: dict, key: str, where: str):
    if key not in _object(obj, where):
        raise ParseError(f"{where} is missing required key {key!r}")
    return obj[key]


def _list(x, where: str) -> list:
    if not isinstance(x, list):
        raise ParseError(f"{where} must be a list")
    return x


# -- Laurent ----------------------------------------------------------------


def laurent_to_json(p: LaurentPoly) -> dict:
    return {str(e): c for e, c in p.terms}


def laurent_from_json(obj: dict) -> LaurentPoly:
    coeffs = {}
    for e, c in _object(obj, "Laurent polynomial").items():
        if isinstance(c, (bool, float)):
            raise ParseError(f"Laurent coefficient {c!r} is not an integer")
        try:
            exp, c = int(e), int(c)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad Laurent polynomial: {exc}") from None
        if exp in coeffs:
            raise ParseError(f"Laurent exponent {exp} appears twice")
        coeffs[exp] = c
    return LaurentPoly.from_dict(coeffs)


def annular_to_json(a: AnnularClass) -> dict:
    """The z-degrees from the highest down, each with its Laurent dict."""
    return {str(k): laurent_to_json(a.coeffs[k])
            for k in sorted(a.coeffs, reverse=True)}


# -- matrices over Q ----------------------------------------------------------


def matrix_from_json(rows, where: str = "matrix") -> Matrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError(f"{where} must be a list of rows")
    return Matrix.from_rows([[parse_rational(x) for x in r] for r in rows])


def matrix_to_json(m: Matrix) -> list:
    return [[emit_rational(x) for x in m.row(i)] for i in range(m.rows)]


def vector_from_json(v, where: str = "vector") -> tuple:
    return tuple(parse_rational(x) for x in _list(v, where))


def vector_to_json(v) -> list:
    return [emit_rational(x) for x in v]


# -- algebras -----------------------------------------------------------------


def algebra_from_json(obj: dict) -> Algebra:
    n = int_arg(_require(obj, "dim", "algebra"), "algebra dim", error=ParseError)
    _check_dim(n)   # before any of the n^3 entries of mult is parsed
    mult = _require(obj, "mult", "algebra")
    unit = _require(obj, "unit", "algebra")
    if (not isinstance(mult, list)
            or any(not isinstance(p, list)
                   or any(not isinstance(r, list) for r in p) for p in mult)):
        raise ParseError("algebra mult must be an [n][n][n] array")
    if len(mult) != n:
        raise ContractViolation("algebra mult length disagrees with dim")
    consts = [[[parse_rational(x) for x in row] for row in plane]
              for plane in mult]
    return make_algebra(consts, vector_from_json(unit, "algebra unit"))


def algebra_to_json(a: Algebra) -> dict:
    return {
        "dim": a.dim,
        "mult": [[[emit_rational(x) for x in a.basis_product(i, j)]
                  for j in range(a.dim)] for i in range(a.dim)],
        "unit": vector_to_json(a.unit),
    }


def hom_from_json(obj: dict) -> AlgebraHom:
    src = algebra_from_json(_require(obj, "source", "hom"))
    tgt = algebra_from_json(_require(obj, "target", "hom"))
    mat = matrix_from_json(_require(obj, "matrix", "hom"), "hom matrix")
    return make_hom(src, tgt, mat)


def hom_to_json(f: AlgebraHom) -> dict:
    return {
        "source": algebra_to_json(f.source),
        "target": algebra_to_json(f.target),
        "matrix": matrix_to_json(f.matrix),
    }


def _algebra_ref(obj, base_dir: str, where: str) -> Algebra:
    if isinstance(obj, str):
        obj = load_json(os.path.join(base_dir, obj))
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an algebra object or a file path")
    return algebra_from_json(obj)


def bimodule_from_json(obj: dict, base_dir: str = ".") -> PointedBimodule:
    left = _algebra_ref(_require(obj, "left", "bimodule"), base_dir, "left")
    right = _algebra_ref(_require(obj, "right", "bimodule"), base_dir, "right")
    m = int_arg(_require(obj, "dim", "bimodule"), "bimodule dim", error=ParseError)
    la = [matrix_from_json(x, "left_action")
          for x in _list(_require(obj, "left_action", "bimodule"), "left_action")]
    ra = [matrix_from_json(x, "right_action")
          for x in _list(_require(obj, "right_action", "bimodule"),
                         "right_action")]
    point = vector_from_json(_require(obj, "point", "bimodule"), "point")
    if len(point) != m:
        raise ContractViolation("bimodule point length disagrees with dim")
    return make_bimodule(left, right, la, ra, point)


def bimodule_to_json(b: PointedBimodule) -> dict:
    return {
        "left": algebra_to_json(b.left),
        "right": algebra_to_json(b.right),
        "dim": b.dim,
        "left_action": [matrix_to_json(m) for m in b.left_action],
        "right_action": [matrix_to_json(m) for m in b.right_action],
        "point": vector_to_json(b.pointing),
    }


# -- systems ------------------------------------------------------------------


def system_from_json(obj: dict) -> System:
    n = int_arg(_require(obj, "dim", "system"), "system dim", error=ParseError)
    step = matrix_from_json(_require(obj, "step", "system"), "step")

    def labelled(key):
        return _object(obj.get(key, {}), f"system {key}").items()

    states = {str(k): vector_from_json(v, f"state {k}")
              for k, v in labelled("states")}
    costates = {str(k): vector_from_json(v, f"costate {k}")
                for k, v in labelled("costates")}
    observables = {str(k): matrix_from_json(v, f"observable {k}")
                   for k, v in labelled("observables")}
    return make_system(n, step, states, costates, observables)


# -- tangles ------------------------------------------------------------------

_EVENT_NAMES = {
    "id": ID, "cup": CUP, "cap": CAP,
    "cross+": cross(1), "cross-": cross(-1),
    "twist+": twist(1), "twist-": twist(-1),
}


def _slice_from_json(spec, width: int, index: int) -> list:
    if not isinstance(spec, list) or not spec:
        raise ParseError(f"slice {index} must be a non-empty list")
    if (len(spec) == 2 and isinstance(spec[0], str)
            and isinstance(spec[1], dict)):
        name, opts = spec
        if name not in _EVENT_NAMES:
            raise ParseError(f"slice {index}: unknown event {name!r}")
        for key in opts:
            if key != "at":
                raise ParseError(f"slice {index}: unknown option {key!r}")
        ev = _EVENT_NAMES[name]
        at = opts.get("at", 0)
        win, _ = ev.widths()
        int_arg(at, f"slice {index}: position", 0, max(width, win) - win,
                error=ParseError)
        return [ID] * at + [ev] + [ID] * (width - at - win)
    events = []
    for name in spec:
        if not isinstance(name, str) or name not in _EVENT_NAMES:
            raise ParseError(f"slice {index}: unknown event {name!r}")
        events.append(_EVENT_NAMES[name])
    return events


def tangle_from_json(obj: dict) -> SliceTangle:
    raw = _list(_require(obj, "slices", "tangle"), "slices")
    strands_in = int_arg(obj.get("strands_in", 0), "strands_in", error=ParseError)
    width = strands_in
    slices = []
    for k, spec in enumerate(raw):
        sl = _slice_from_json(spec, width, k)
        width = sum(e.widths()[1] for e in sl)
        slices.append(sl)
    return tangle(strands_in, slices)


def parse_braid_string(text: str):
    """Braid shorthand "s1 s2^-1 s1" -> list of signed generator indices."""
    word = []
    for pos, tok in enumerate(text.split()):
        body = tok
        sign = 1
        if "^" in tok:
            body, exp = tok.split("^", 1)
            if exp != "-1":
                raise ParseError(f"unsupported exponent {exp!r} in {tok!r}", pos)
            sign = -1
        if not body.startswith("s") or not body[1:].isdigit():
            raise ParseError(f"bad braid letter {tok!r}", pos)
        try:
            idx = int(body[1:])
        except ValueError as exc:  # a digit int() refuses, or too many
            raise ParseError(f"bad braid letter: {exc}", pos) from None
        if idx < 1:
            raise ParseError(f"generator index must be >= 1 in {tok!r}", pos)
        word.append(sign * idx)
    return word


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror or exc})") from None
    # JSONDecodeError and UnicodeDecodeError are ValueErrors, and so is an
    # integer past Python's digit limit for int(str)
    except ValueError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON (nested too deeply)") from None
