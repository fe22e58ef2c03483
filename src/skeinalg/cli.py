"""Batch command-line front end.

Exit codes: 0 ok, 1 parse error (of an input file or of the command
line), 2 tangle shape, 3 algebra validation, 4 unknown label, 5 internal
invariant failure.  Each library error exits with its code and one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import selftest as selftest_mod
from .bimodule import (bimodule_iso_pointed, bimodule_iso_unpointed, modulate,
                       tensor_over)
from .errors import (ContractViolation, InternalCheckError, LabelNotFound,
                     ParseError, SkeinalgError, TangleShapeError,
                     ValidationError)
from .jsonio import (algebra_from_json, annular_to_json, bimodule_from_json,
                     bimodule_to_json, hom_from_json, laurent_to_json,
                     load_json, matrix_to_json, parse_braid_string,
                     system_from_json, tangle_from_json)
from .laurent import LaurentPoly
from .tangles import (braid_to_slices, closed_braid_tangle, interpret_tangle,
                      kauffman_bracket, writhe)
from .tl import annulus_closure_eval, plane_closure, tl_basis
from .tqft1d import (eval_heisenberg, eval_pictures, eval_schrodinger,
                     parse_word, picture_report)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_TANGLE = 2
EXIT_VALIDATION = 3
EXIT_LABEL = 4
EXIT_INTERNAL = 5


def _print_laurent(p: LaurentPoly, args, out):
    if args.emit_json:
        out(json.dumps(laurent_to_json(p)))
    else:
        out(p.text(args.variable))


def _load_bracket_tangle(args):
    if args.braid is not None:
        if args.strands is None:
            raise ParseError("--braid needs --strands")
        word = parse_braid_string(args.braid)
        return closed_braid_tangle(word, args.strands)
    if args.tangle is None:
        raise ParseError("bracket needs a tangle file or --braid")
    return tangle_from_json(load_json(args.tangle))


def cmd_bracket(args, out) -> int:
    t = _load_bracket_tangle(args)
    value = kauffman_bracket(t)
    if args.normalize_writhe:
        w = writhe(t)
        value = (LaurentPoly.from_dict({3: -1}) ** (-w)) * value
    _print_laurent(value, args, out)
    return EXIT_OK


def cmd_tl(args, out) -> int:
    if args.action == "basis":
        diagrams = tl_basis(args.n_bottom, args.n_top)
        if args.emit_json:
            out(json.dumps({"count": len(diagrams),
                            "matchings": [list(d.mate) for d in diagrams]}))
        else:
            out(f"hom({args.n_bottom}, {args.n_top}) has {len(diagrams)} diagrams")
            for d in diagrams:
                arcs = " ".join(f"{s1}{p1}-{s2}{p2}"
                                for (s1, p1), (s2, p2) in d.pairs())
                out("  " + arcs)
        return EXIT_OK
    if args.strands is None or args.braid is None:
        raise ParseError("tl closure needs --braid and --strands")
    word = parse_braid_string(args.braid)
    m = interpret_tangle(braid_to_slices(word, args.strands))
    if args.action == "closure":
        _print_laurent(plane_closure(m), args, out)
        return EXIT_OK
    cls = annulus_closure_eval(m)
    if args.emit_json:
        out(json.dumps(annular_to_json(cls)))
    else:
        out(cls.text(args.variable))
    return EXIT_OK


def cmd_algebra(args, out) -> int:
    def load_bimodule(path):
        return bimodule_from_json(load_json(path), os.path.dirname(path) or ".")

    wanted = 1 if args.action in ("validate", "modulate") else 2
    if len(args.inputs) != wanted:
        raise ParseError(f"algebra {args.action} takes {wanted} input "
                         f"file(s), got {len(args.inputs)}")
    if args.action == "validate":
        a = algebra_from_json(load_json(args.inputs[0]))
        out(f"OK, dim {a.dim}")
        return EXIT_OK
    if args.action == "modulate":
        f = hom_from_json(load_json(args.inputs[0]))
        b = modulate(f)
        if args.emit_json:
            out(json.dumps(bimodule_to_json(b)))
        else:
            out(f"modulation of a hom {f.source.dim} -> {f.target.dim}: "
                f"bimodule of dim {b.dim}")
        return EXIT_OK
    m1 = load_bimodule(args.inputs[0])
    m2 = load_bimodule(args.inputs[1])
    if args.action == "tensor":
        t = tensor_over(m1, m2)
        if args.emit_json:
            out(json.dumps(bimodule_to_json(t)))
        else:
            out(f"tensor bimodule of dim {t.dim}")
        return EXIT_OK
    if args.action in ("iso", "iso-unpointed"):
        if args.action == "iso":
            w = bimodule_iso_pointed(m1, m2, seed=args.seed)
            mat = None if w is None else w.matrix
        else:
            mat = bimodule_iso_unpointed(m1, m2, seed=args.seed)
        out("absent" if mat is None else "present")
        if mat is not None:
            out(json.dumps(matrix_to_json(mat)))
        return EXIT_OK
    raise ParseError(f"unknown algebra action {args.action!r}")


def cmd_tqft1d(args, out) -> int:
    sys_obj = system_from_json(load_json(args.system))
    word = parse_word(args.word)
    if args.picture == "both":
        m, h = eval_pictures(sys_obj, word)
    elif args.picture == "schrodinger":
        m = eval_schrodinger(sys_obj, word)
    else:
        h = eval_heisenberg(sys_obj, word)
    if args.picture in ("schrodinger", "both"):
        out("schrodinger: " + json.dumps(matrix_to_json(m)))
    if args.picture in ("heisenberg", "both"):
        out(f"heisenberg: bimodule of dim {h.dim}, pointing "
            + json.dumps([str(x) for x in h.pointing]))
    if args.picture == "both" and word.is_closed:
        rep = picture_report(m, h)
        out(f"scalars: {rep.schrodinger_value} vs {rep.heisenberg_value}: "
            + ("AGREE" if rep.agree else "DISAGREE"))
        if not rep.agree:
            return EXIT_INTERNAL
    return EXIT_OK


def cmd_selftest(args, out) -> int:
    return selftest_mod.run_selftest(args.level, args.seed, out)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are ParseErrors (exit 1), not exit 2."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="skeinalg",
                description="exact pointed-bimodule and Kauffman-bracket "
                            "computations")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bracket", help="Kauffman bracket of a closed tangle")
    b.add_argument("tangle", nargs="?", help="tangle JSON file")
    b.add_argument("--braid", help='braid word like "s1 s1 s1"')
    b.add_argument("--strands", type=int)
    b.add_argument("--variable", default="A")
    b.add_argument("--normalize-writhe", action="store_true")
    b.add_argument("--emit-json", action="store_true")

    t = sub.add_parser("tl", help="Temperley-Lieb utilities")
    t.add_argument("action", choices=["basis", "closure", "annulus"])
    t.add_argument("n_bottom", nargs="?", type=int, default=0)
    t.add_argument("n_top", nargs="?", type=int, default=0)
    t.add_argument("--braid")
    t.add_argument("--strands", type=int)
    t.add_argument("--variable", default="A")
    t.add_argument("--emit-json", action="store_true")

    a = sub.add_parser("algebra", help="algebra and bimodule operations")
    a.add_argument("action",
                   choices=["validate", "modulate", "tensor", "iso",
                            "iso-unpointed"])
    a.add_argument("inputs", nargs="+")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--emit-json", action="store_true")

    q = sub.add_parser("tqft1d", help="evaluate a spacetime word")
    q.add_argument("system", help="system JSON file")
    q.add_argument("word", help='word like "w[0] . u(2) . v[0]"')
    q.add_argument("--picture", choices=["schrodinger", "heisenberg", "both"],
                   default="both")

    s = sub.add_parser("selftest", help="run the invariant suites")
    s.add_argument("--level", choices=selftest_mod.LEVELS, default="quick")
    s.add_argument("--seed", type=int, default=0)
    return p


_ERROR_EXITS = (
    (ParseError, EXIT_PARSE),
    (TangleShapeError, EXIT_TANGLE),
    (ValidationError, EXIT_VALIDATION),
    (ContractViolation, EXIT_VALIDATION),
    (LabelNotFound, EXIT_LABEL),
    (InternalCheckError, EXIT_INTERNAL),
)


def main(argv=None, out=print) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = {
            "bracket": cmd_bracket,
            "tl": cmd_tl,
            "algebra": cmd_algebra,
            "tqft1d": cmd_tqft1d,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(args, out)
    except SkeinalgError as exc:
        for cls, code in _ERROR_EXITS:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
