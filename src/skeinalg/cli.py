"""Batch command-line front end.

Each command takes only the arguments its handler reads.  Exit codes: 0
ok, 1 parse error (of an input file or of the command line), 2 tangle
shape, 3 algebra validation, 4 unknown label, 5 internal invariant
failure.  Each library error exits with its code and one ``error:`` line.
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


def _print_value(value, to_json, args, out):
    out(json.dumps(to_json(value)) if args.emit_json
        else value.text(args.variable))


def cmd_bracket(args, out) -> int:
    if (args.braid is None) != (args.strands is None):
        raise ParseError("skeinalg bracket: --braid and --strands go together")
    if args.braid is None:
        t = tangle_from_json(load_json(args.tangle))
    else:
        t = closed_braid_tangle(parse_braid_string(args.braid), args.strands)
    value = kauffman_bracket(t)
    if args.normalize_writhe:
        w = writhe(t)
        value = (LaurentPoly.from_dict({3: -1}) ** (-w)) * value
    _print_value(value, laurent_to_json, args, out)
    return EXIT_OK


def cmd_tl_basis(args, out) -> int:
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


def cmd_tl_closure(args, out) -> int:
    word = parse_braid_string(args.braid)
    m = interpret_tangle(braid_to_slices(word, args.strands))
    if args.annular:
        _print_value(annulus_closure_eval(m), annular_to_json, args, out)
    else:
        _print_value(plane_closure(m), laurent_to_json, args, out)
    return EXIT_OK


def cmd_algebra_validate(args, out) -> int:
    a = algebra_from_json(load_json(args.file))
    out(f"OK, dim {a.dim}")
    return EXIT_OK


def cmd_algebra_modulate(args, out) -> int:
    f = hom_from_json(load_json(args.file))
    b = modulate(f)
    out(json.dumps(bimodule_to_json(b)) if args.emit_json else
        f"modulation of a hom {f.source.dim} -> {f.target.dim}: "
        f"bimodule of dim {b.dim}")
    return EXIT_OK


def _load_bimodules(args):
    return [bimodule_from_json(load_json(path), os.path.dirname(path) or ".")
            for path in args.bimodules]


def cmd_algebra_tensor(args, out) -> int:
    t = tensor_over(*_load_bimodules(args))
    out(json.dumps(bimodule_to_json(t)) if args.emit_json
        else f"tensor bimodule of dim {t.dim}")
    return EXIT_OK


def cmd_algebra_iso(args, out) -> int:
    m1, m2 = _load_bimodules(args)
    if args.pointed:
        w = bimodule_iso_pointed(m1, m2, seed=args.seed)
        mat = None if w is None else w.matrix
    else:
        mat = bimodule_iso_unpointed(m1, m2, seed=args.seed)
    out("absent" if mat is None else "present")
    if mat is not None:
        out(json.dumps(matrix_to_json(mat)))
    return EXIT_OK


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


def _decimal(text: str) -> int:
    """An optional '-', then ASCII digits: int() alone also reads '1_0'."""
    digits = text[text.startswith("-"):]
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors, at every level, are ParseErrors
    (exit 1), not exit 2."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="skeinalg",
                description="exact pointed-bimodule and Kauffman-bracket "
                            "computations")
    sub = p.add_subparsers(dest="command", required=True)
    shared = {"--emit-json": {"action": "store_true"},
              "--variable": {"default": "A"},
              "--seed": {"type": _decimal, "default": 0}}

    def leaf(parent, name, handler, help, options=(), **defaults):
        q = parent.add_parser(name, help=help)
        q.set_defaults(handler=handler, **defaults)
        for option in options:
            q.add_argument(option, **shared[option])
        return q

    b = leaf(sub, "bracket", cmd_bracket, "Kauffman bracket of a closed tangle",
             ("--variable", "--emit-json"))
    source = b.add_mutually_exclusive_group(required=True)
    source.add_argument("tangle", nargs="?", help="tangle JSON file")
    source.add_argument("--braid", help='braid word like "s1 s1 s1"')
    b.add_argument("--strands", type=_decimal, help="needed with --braid")
    b.add_argument("--normalize-writhe", action="store_true")

    tl = sub.add_parser("tl", help="Temperley-Lieb utilities") \
        .add_subparsers(dest="action", required=True)
    t = leaf(tl, "basis", cmd_tl_basis, "the diagrams of hom(n_bottom, n_top)",
             ("--emit-json",))
    t.add_argument("n_bottom", nargs="?", type=_decimal, default=0)
    t.add_argument("n_top", nargs="?", type=_decimal, default=0)
    for name, annular in (("closure", False), ("annulus", True)):
        t = leaf(tl, name, cmd_tl_closure, f"the {name} closure of a braid",
                 ("--variable", "--emit-json"), annular=annular)
        t.add_argument("--braid", required=True)
        t.add_argument("--strands", required=True, type=_decimal)

    alg = sub.add_parser("algebra", help="algebra and bimodule operations") \
        .add_subparsers(dest="action", required=True)
    leaf(alg, "validate", cmd_algebra_validate,
         "check an algebra file").add_argument("file")
    leaf(alg, "modulate", cmd_algebra_modulate, "modulate an algebra hom file",
         ("--emit-json",)).add_argument("file")
    leaf(alg, "tensor", cmd_algebra_tensor, "tensor two bimodules",
         ("--emit-json",)).add_argument("bimodules", nargs=2, metavar="FILE")
    for name, pointed in (("iso", True), ("iso-unpointed", False)):
        a = leaf(alg, name, cmd_algebra_iso, "are two bimodules isomorphic",
                 ("--seed",), pointed=pointed)
        a.add_argument("bimodules", nargs=2, metavar="FILE")

    q = leaf(sub, "tqft1d", cmd_tqft1d, "evaluate a spacetime word")
    q.add_argument("system", help="system JSON file")
    q.add_argument("word", help='word like "w[0] . u(2) . v[0]"')
    q.add_argument("--picture", choices=["schrodinger", "heisenberg", "both"],
                   default="both")
    s = leaf(sub, "selftest", cmd_selftest, "run the invariant suites",
             ("--seed",))
    s.add_argument("--level", choices=selftest_mod.LEVELS, default="quick")
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
        return args.handler(args, out)
    except SkeinalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _ERROR_EXITS
                     if isinstance(exc, cls)), EXIT_INTERNAL)


if __name__ == "__main__":
    raise SystemExit(main())
