"""Property tests: the JSON loaders turn any JSON value into an object or a
SkeinalgError, never into another exception, and the CLI turns any input
file into one of its documented exit codes."""

import copy
import json
import os
import tempfile

import pytest

from skeinalg.algebra import (conjugation_hom, product_field_algebra,
                              truncated_poly_algebra)
from skeinalg.bimodule import regular_bimodule
from skeinalg.cli import main
from skeinalg.errors import SkeinalgError
from skeinalg.jsonio import (algebra_from_json, algebra_to_json,
                             annular_to_json, bimodule_from_json,
                             bimodule_to_json, hom_from_json, hom_to_json,
                             laurent_from_json, system_from_json,
                             tangle_from_json)
from skeinalg.linalg import Matrix
from skeinalg.tl import AnnularClass

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

KEYS = ("dim", "mult", "unit", "left", "right", "left_action", "right_action",
        "point", "step", "states", "costates", "observables", "strands_in",
        "slices", "at", "source", "target", "matrix", "1", "-2")
SCALARS = (st.none() | st.booleans() | st.integers(-2, 3)
           | st.floats(allow_nan=False, allow_infinity=False, width=16)
           | st.sampled_from(["1", "1/2", "1/0", "x", "cup", "cap", "cross+",
                              "id", "a.json", ""]))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2),
                                     inner, max_size=5)),
    max_leaves=16)
# systems and tangles have no writer, so theirs are written out literally
VALID = (algebra_to_json(truncated_poly_algebra(2)),
         bimodule_to_json(regular_bimodule(product_field_algebra(2))),
         {"dim": 2, "step": [["-3", "1"], ["0", "1/2"]],
          "states": {"0": ["-1", "1"], "1": ["-2", "1"]},
          "costates": {"0": ["-2", "-1"], "1": ["-2", "3"]},
          "observables": {"0": [["1", "1"], ["-5/3", "-5/2"]],
                          "1": [["-7/3", "1/3"], ["1", "-1"]]}},
         hom_to_json(conjugation_hom(2, Matrix.from_rows([[1, 1], [0, 1]]))),
         {"strands_in": 0,
          "slices": [["cup"], ["id", "cup", "id"], ["cross+", "id", "id"],
                     ["cross-", "id", "id"], ["id", "cap", "id"], ["cap"]]},
         {"strands_in": 2, "slices": [["cross+", {"at": 0}], ["cap"]]},
         {"2": -1, "-2": -1})


@st.composite
def mutated(draw):
    """A valid document with one subtree replaced by an arbitrary value."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    parent, key, node = None, None, doc
    for _ in range(draw(st.integers(0, 6))):
        if not isinstance(node, (list, dict)) or not node:
            break
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(JSON)
    parent[key] = draw(JSON)
    return doc


# a directory that does not exist: algebra file references never resolve
NOWHERE = os.path.join(os.path.dirname(__file__), "no-such-directory")
LOADERS = (tangle_from_json, algebra_from_json, system_from_json,
           lambda obj: bimodule_from_json(obj, NOWHERE), laurent_from_json,
           hom_from_json)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(JSON | mutated())
def test_loaders_raise_only_skeinalg_errors(value):
    for load in LOADERS:
        try:
            load(value)
        except SkeinalgError:
            pass



@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(JSON | mutated() | st.sampled_from(VALID))
def test_cli_exits_with_a_documented_code(value):
    """Each command gets every document, so most runs end in a parse error
    (exit 1); the unmutated documents reach the exit-0 paths."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(value, fh)
        for argv in (["bracket", path], ["algebra", "validate", path],
                     ["algebra", "modulate", path],
                     ["tqft1d", path, "w[0] . u(2) . v[0]"]):
            assert main(argv, out=lambda line: None) in range(6), argv


def test_annular_json_lists_z_degrees_from_the_highest_down():
    # not in the order the class's terms first reached each degree
    assert list(annular_to_json(AnnularClass({0: 1, 2: 1}))) == ["2", "0"]
