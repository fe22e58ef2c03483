"""The seven library layers the traced run times, and their metrics.

A layer is one module on the hot paths.  The tracer wraps every public
function the module defines, plus the hot methods below, so the self
time of a span is charged to the layer of the innermost wrapped call
around it.  Time outside every wrapped call is the operation's
unattributed remainder (benchmark glue and private helpers called
directly from it).
"""

from __future__ import annotations

import inspect

from tracer import ROOT, Tracer

LAYERS = ("laurent", "tl", "tangles", "linalg", "algebra", "bimodule", "tqft1d")

METHODS = {
    "laurent": {"LaurentPoly": ("__mul__", "__add__", "__pow__")},
    "tl": {"TLDiagram": ("__post_init__",)},
    "linalg": {"Matrix": ("__matmul__", "det"), "SparseEchelon": ("insert",)},
}

SEARCHES = ("bimodule.bimodule_iso_pointed", "bimodule.bimodule_iso_unpointed",
            "bimodule.conjugator_between")

# metric -> target names whose calls are counted (per operation)
CALLS = {
    "tl.compose_calls": ("tl.tl_compose",),
    "tl.tensor_calls": ("tl.tl_tensor",),
    "tl.diagram_builds": ("tl.TLDiagram.__post_init__",),
    "tangles.verify_runs": ("tangles.bracket_state_sum",),
    "laurent.mul_calls": ("laurent.LaurentPoly.__mul__",),
    "laurent.add_calls": ("laurent.LaurentPoly.__add__",),
    "laurent.pow_calls": ("laurent.LaurentPoly.__pow__",),
    "bimodule.validate_calls": ("bimodule.make_bimodule",),
    "bimodule.tensor_calls": ("bimodule.tensor_over",),
    "bimodule.search_calls": SEARCHES,
    "linalg.matmul_calls": ("linalg.Matrix.__matmul__",),
    "linalg.echelon_inserts": ("linalg.SparseEchelon.insert",),
    "linalg.det_calls": ("linalg.Matrix.det",),
    "algebra.validate_calls": ("algebra.make_algebra", "algebra.make_hom"),
}

# metric -> target names whose outermost inclusive time is summed (per operation)
INCLUSIVE = {
    "tangles.fold_s": ("tangles.interpret_tangle",),
    "tangles.state_sum_s": ("tangles.bracket_state_sum",),
    "bimodule.validate_s": ("bimodule.make_bimodule",),
    "bimodule.search_s": SEARCHES,
    "algebra.validate_s": ("algebra.make_algebra", "algebra.make_hom"),
    "tqft1d.schrodinger_s": ("tqft1d.eval_schrodinger",),
    "tqft1d.heisenberg_s": ("tqft1d.eval_heisenberg",),
}

TENSOR_VALIDATION = ("bimodule.tensor_over", "bimodule.make_bimodule")


def targets(lib):
    """(function, name, layer) for every traced callable, and the classes."""
    out, classes = [], []
    for layer in LAYERS:
        mod = getattr(lib, layer)
        for name, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not name.startswith("_")):
                out.append((value, f"{layer}.{name}", layer))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            classes.append(cls)
            for m in methods:
                out.append((vars(cls)[m], f"{layer}.{cls_name}.{m}", layer))
    return out, classes


def _entry_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _observe_compose(args, out, extra):
    f, g = args[:2]
    extra["compose_pairs"] = extra.get("compose_pairs", 0) + len(f.terms) * len(g.terms)
    _observe_terms(args, out, extra)


def _observe_terms(_args, out, extra):
    extra["peak_terms"] = max(extra.get("peak_terms", 0), len(out.terms))


def _observe_state_sum(args, _out, extra):
    extra["states"] = extra.get("states", 0) + (1 << args[0].crossing_count())


def _observe_bimodule(_args, out, extra):
    extra["peak_dim"] = max(extra.get("peak_dim", 0), out.dim)
    values = set(out.pointing)
    for mat in out.left_action + out.right_action:
        values.update(mat.entries)
    bits = max(map(_entry_bits, values), default=0)
    extra["peak_entry_bits"] = max(extra.get("peak_entry_bits", 0), bits)


OBSERVERS = {
    "tl.tl_compose": _observe_compose,
    "tl.tl_tensor": _observe_terms,
    "tangles.bracket_state_sum": _observe_state_sum,
    "bimodule.make_bimodule": _observe_bimodule,
}


def make_tracer(lib) -> Tracer:
    found, classes = targets(lib)
    return Tracer(found, package=lib.package, classes=classes,
                  observers=OBSERVERS, nested=(TENSOR_VALIDATION,))


def metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)} from a finished traced run."""
    tot = tracer.totals
    ops = max(tot.ops, 1)
    sid = tracer.sid

    def calls(names):
        return sum(tot.calls[sid[n]] for n in names if n in sid)

    def incl(names):
        return sum(tot.incl_s[sid[n]] for n in names if n in sid)

    def total(key):
        return sum(e.get(key, 0) for e in tot.per_op)

    def peak(key):
        return max((e.get(key, 0) for e in tot.per_op), default=0)

    out = {}
    for name, names in CALLS.items():
        out[name] = (calls(names) / ops, "count/op")
    for name, names in INCLUSIVE.items():
        out[name] = (incl(names) / ops, "s/op")
    nested = 0.0
    if all(n in sid for n in TENSOR_VALIDATION):
        nested = tot.nested_s[tuple(sid[n] for n in TENSOR_VALIDATION)]
    out["bimodule.tensor_s"] = ((incl(TENSOR_VALIDATION[:1]) - nested) / ops, "s/op")
    out["tl.compose_pairs"] = (total("compose_pairs") / ops, "count/op")
    out["tl.peak_terms"] = (peak("peak_terms"), "count")
    out["tangles.states"] = (total("states") / ops, "count/op")
    out["bimodule.peak_dim"] = (peak("peak_dim"), "count")
    out["bimodule.peak_entry_bits"] = (peak("peak_entry_bits"), "bits")
    for layer in LAYERS:
        self_s = sum(t for k, t in enumerate(tot.self_s) if tracer.layers[k] == layer)
        out[f"{layer}.self_s"] = (self_s / ops, "s/op")
    out["trace.unattributed_s"] = (tot.self_s[ROOT] / ops, "s/op")
    out["trace.op_s"] = (tot.op_s / ops, "s/op")
    return out


def attribution_gap(layer_metrics: dict) -> float:
    """|sum of layer self times + unattributed - traced op time|, per op."""
    parts = sum(layer_metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    parts += layer_metrics["trace.unattributed_s"][0]
    return abs(parts - layer_metrics["trace.op_s"][0])
