"""The public names of the package, pinned: adding or removing one shows up
as a change to this list."""

import types

import pytest

import skeinalg
from skeinalg import ContractViolation, ParseError, jsonio

PUBLIC_NAMES = [
    "Algebra", "AlgebraHom", "AnnularClass", "CAP", "CUP",
    "ContractViolation", "Event", "ID", "InternalCheckError",
    "LabelNotFound", "LaurentPoly", "Matrix", "ParseError",
    "PointedBimodule", "PointedBimoduleMap", "SkeinalgError",
    "SliceTangle", "SpacetimeWord", "System", "TLDiagram", "TLMorphism",
    "TangleShapeError", "ValidationError", "algebra_direct_sum",
    "annulus_closure_eval", "bimodule_iso_pointed",
    "bimodule_iso_unpointed", "bracket_state_sum", "braid_to_slices",
    "cable_double", "catalan", "closed_braid_tangle", "compare_pictures",
    "compose_homs", "conjugation_hom", "conjugator_between", "coupon",
    "cross", "crossing_resolution", "delta", "end_compose_check",
    "end_morphism", "eval_heisenberg", "eval_pictures", "eval_schrodinger",
    "field_algebra", "find_invertible_in_affine_family", "flatten_matrix",
    "hom_from_images", "identity_hom", "insert_slices", "interpret_tangle",
    "kauffman_bracket", "kernel_basis", "kink_slices", "make_algebra",
    "make_bimodule", "make_bimodule_map", "make_hom", "make_system",
    "make_word", "mat_lincomb", "matrix_algebra", "matrix_power",
    "modulate", "parse_word", "plane_closure", "product_field_algebra",
    "rank", "regular_bimodule", "scalar_inclusion_hom", "solve_linear",
    "tangle", "tensor_over", "tl_basis", "tl_cap", "tl_compose", "tl_cup",
    "tl_e", "tl_from_diagram", "tl_identity", "tl_tensor",
    "transport_algebra", "truncated_poly_algebra", "twist",
    'upper_triangular_algebra', 'writhe',
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # has been imported so far
    names = sorted(n for n in dir(skeinalg) if not n.startswith("_")
                   and not isinstance(getattr(skeinalg, n), types.ModuleType))
    assert names == PUBLIC_NAMES


FIELD_JSON = {"dim": 1, "mult": [[["1"]]], "unit": ["1"]}
IDENTITY_1 = skeinalg.Matrix.identity(1)
SWAP = skeinalg.Matrix.from_rows([[0, 1], [1, 0]])


def _five_slice_tangle():
    return skeinalg.closed_braid_tangle([1], 2)


# (call, a pattern its ContractViolation must match); each call was
# accepted once, or failed with a bare TypeError or AttributeError
BAD_SHAPES_AND_SIZES = {
    "matrix negative shape": (lambda: skeinalg.Matrix(-2, -3, (0,) * 6), "matrix rows must be an int >= 0"),
    "matrix bool rows": (lambda: skeinalg.Matrix(True, 2, (1, 2)), "matrix rows must be an int >= 0"),
    "matrix list entries": (lambda: skeinalg.Matrix(1, 2, [1, 2]), "a tuple"),
    # an index past the end read another row's entry, or an empty tuple
    "matrix entry past the last column": (lambda: SWAP[0, 2], "matrix column must be an int in 0..1, got 2"),
    "matrix row past the end": (lambda: SWAP.row(5), "matrix row must be an int in 0..1, got 5"),
    "matrix col past the end": (lambda: SWAP.col(7), "matrix column must be an int in 0..1, got 7"),
    "matrix identity None": (lambda: skeinalg.Matrix.identity(None), "matrix size must be an int >= 0"),
    "matrix zeros 2.0": (lambda: skeinalg.Matrix.zeros(2.0, 1), "matrix rows must be an int >= 0"),
    "mat_lincomb 2.0 rows": (lambda: skeinalg.mat_lincomb([], 2.0, 2), "matrix rows must be an int >= 0"),
    "mat_lincomb 1x1 term in 2x2": (lambda: skeinalg.mat_lincomb([(1, IDENTITY_1)], 2, 2), "a combination term is not 2x2"),
    "mat_lincomb 2x2 term in 1x4": (lambda: skeinalg.mat_lincomb([(1, skeinalg.Matrix.identity(2))], 1, 4), "a combination term is not 1x4"),
    "mat_lincomb str terms": (lambda: skeinalg.mat_lincomb("x", 2, 2), "a combination term is not 2x2"),
    "mat_lincomb triple term": (lambda: skeinalg.mat_lincomb([(1, 2, 3)], 1, 1), "a combination term is not 1x1"),
    "product field algebra -1": (lambda: skeinalg.product_field_algebra(-1), "int >= 0"),
    "product field algebra None": (lambda: skeinalg.product_field_algebra(None), "algebra dimension must be an int >= 0"),
    "product field algebra 2.0": (lambda: skeinalg.product_field_algebra(2.0), "algebra dimension must be an int >= 0"),
    "truncated poly algebra None": (lambda: skeinalg.truncated_poly_algebra(None), "algebra dimension must be an int >= 0"),
    "matrix algebra True": (lambda: skeinalg.matrix_algebra(True), "matrix_algebra n must be an int >= 1"),
    "matrix algebra 2.0": (lambda: skeinalg.matrix_algebra(2.0), "matrix_algebra n must be an int >= 1"),
    "tangle -1": (lambda: skeinalg.tangle(-1, []), "strands_in must be an int >= 0"),
    "tangle 1.5": (lambda: skeinalg.tangle(1.5, []), "strands_in must be an int >= 0"),
    "braid letter True": (lambda: skeinalg.braid_to_slices([True], 2), "nonzero ints"),
    "braid letter 1.0": (lambda: skeinalg.braid_to_slices([1.0], 2), "nonzero ints"),
    "braid strands 2.5": (lambda: skeinalg.braid_to_slices([1], 2.5), "braid strands must be an int >= 1"),
    "insert slices -1": (lambda: skeinalg.insert_slices(_five_slice_tangle(), -1, []), "slice index must be an int in 0..5"),
    "insert slices past the end": (lambda: skeinalg.insert_slices(_five_slice_tangle(), 6, []), "slice index must be an int in 0..5"),
    "insert slices 'x'": (lambda: skeinalg.insert_slices(_five_slice_tangle(), "x", []), "slice index must be an int in 0..5"),
    "coupon 5": (lambda: skeinalg.coupon(5), "a coupon event's morphism must be TLMorphism, not int"),
    "coupon event with no morphism": (lambda: skeinalg.Event("coupon"), "a coupon event's morphism must be TLMorphism, not NoneType"),
    "cup event with a morphism": (lambda: skeinalg.Event("cup", 0, skeinalg.tl_cup()), "a cup event's morphism must be NoneType, not TLMorphism"),
    "tangle slice entry 1": (lambda: skeinalg.tangle(0, [[1]]), "slice 0 holds 1, not an Event"),
    "insert slices entry 1": (lambda: skeinalg.insert_slices(_five_slice_tangle(), 1, [[1]]), "slice 1 holds 1, not an Event"),
    "tl basis True": (lambda: skeinalg.tl_basis(True, 1), "n_bottom must be an int >= 0"),
    "tl basis 2.0": (lambda: skeinalg.tl_basis(2.0, 0), "n_bottom must be an int >= 0"),
    "tl identity True": (lambda: skeinalg.tl_identity(True), "width n must be an int >= 0"),
    "tl identity 2.0": (lambda: skeinalg.tl_identity(2.0), "width n must be an int >= 0"),
    "tl morphism True": (lambda: skeinalg.TLMorphism(True, True), "n_bottom must be an int >= 0"),
    "tl e index True": (lambda: skeinalg.tl_e(3, True), "generator index must be an int in 0..1, got True"),
    "tl e None": (lambda: skeinalg.tl_e(None, None), "width n must be an int >= 0"),
    "kink wire True": (lambda: skeinalg.kink_slices(2, True, 1), "kink wire must be an int in 0..1"),
    "kink width 2.0": (lambda: skeinalg.kink_slices(2.0, 0, 1), "kink width must be an int >= 1"),
    "catalan -3": (lambda: skeinalg.catalan(-3), "int >= 0"),
    "catalan None": (lambda: skeinalg.catalan(None), "int >= 0"),
    "catalan 10**5": (lambda: skeinalg.catalan(10**5), "exceeds CATALAN_MAX_N = 1000"),
    "closed braid 65 strands": (lambda: skeinalg.closed_braid_tangle([1], 65),
                                "exceeds CLOSED_BRAID_MAX_STRANDS = 64"),
    "closed braid 10**5 strands": (lambda: skeinalg.closed_braid_tangle([1], 10**5),
                                   "exceeds CLOSED_BRAID_MAX_STRANDS = 64"),
    "braid 65 strands": (lambda: skeinalg.braid_to_slices([1], 65),
                         "exceeds CLOSED_BRAID_MAX_STRANDS = 64"),
    "system tuple step": (lambda: skeinalg.make_system(1, (1,)), "step is a Matrix"),
    "system tuple observable": (lambda: skeinalg.make_system(
        1, skeinalg.Matrix.identity(1), observables={"a": (1,)}), "1x1 Matrix"),
    # None seeded random.Random from the OS, so repeated searches differed;
    # the invertible particular returns before any search
    "search seed None": (lambda: skeinalg.find_invertible_in_affine_family(
        skeinalg.Matrix.zeros(2, 2), [skeinalg.Matrix.identity(2), SWAP],
        seed=None), "search seed must be an int, got None"),
    "search seed None, early return": (lambda: skeinalg.find_invertible_in_affine_family(
        IDENTITY_1, [], seed=None), "search seed must be an int, got None"),
    "search seed 'x', early return": (lambda: skeinalg.find_invertible_in_affine_family(
        IDENTITY_1, [], seed="x"), "search seed must be an int, got 'x'"),
    "matrix 2x2 with 3 entries": (lambda: skeinalg.Matrix(2, 2, (1, 2, 3)), "2x2 shape but 3 entries"),
    "matrix ragged rows": (lambda: skeinalg.Matrix.from_rows([[1, 2], [3]]), "ragged rows"),
    "matrix ragged columns": (lambda: skeinalg.Matrix.from_cols([[1, 2], [3]], 2), "ragged columns"),
    "matmul 2x2 by 3x3": (lambda: skeinalg.Matrix.identity(2) @ skeinalg.Matrix.identity(3),
                          "cannot multiply 2x2 by 3x3"),
    "affine family of unequal squares": (lambda: skeinalg.find_invertible_in_affine_family(
        skeinalg.Matrix.zeros(2, 2), [skeinalg.Matrix.identity(3)]),
        "affine family must consist of equal square matrices"),
    "bimodule with no left action": (lambda: skeinalg.make_bimodule(
        skeinalg.field_algebra(), skeinalg.field_algebra(), [], [IDENTITY_1], (1,)),
        "one action matrix per algebra basis element"),
    "bimodule with a 2x2 action on a line": (lambda: skeinalg.make_bimodule(
        skeinalg.field_algebra(), skeinalg.field_algebra(), [skeinalg.Matrix.identity(2)],
        [IDENTITY_1], (1,)), "action matrices must be dim x dim"),
}

# every Matrix constructor refuses an entry that is not an int or a Fraction
_BAD_ENTRIES = {"float": 0.5, "float zero": 0.0,
                "LaurentPoly": skeinalg.LaurentPoly.monomial(1, 1), "str": "1"}
_MATRIX_BUILDERS = {
    "Matrix": lambda x: skeinalg.Matrix(1, 2, (1, x)),
    "from_rows": lambda x: skeinalg.Matrix.from_rows([[1], [x]]),
    "from_cols": lambda x: skeinalg.Matrix.from_cols([(1, x)], 2),
    "column": lambda x: skeinalg.Matrix.column((x, 1)),
    "row_vector": lambda x: skeinalg.Matrix.row_vector((1, x)),
}
BAD_SHAPES_AND_SIZES.update(
    (f"{build} with a {kind} entry",
     (lambda build=build, kind=kind: _MATRIX_BUILDERS[build](_BAD_ENTRIES[kind]),
      "int and Fraction entries"))
    for build in _MATRIX_BUILDERS for kind in _BAD_ENTRIES)


@pytest.mark.parametrize("name", sorted(BAD_SHAPES_AND_SIZES))
def test_bad_shape_and_size_arguments_raise_contract_violation(name):
    call, pattern = BAD_SHAPES_AND_SIZES[name]
    # memoised first, so that an untyped memo would hand True and 2.0 these
    skeinalg.matrix_algebra(1), skeinalg.matrix_algebra(2)
    with pytest.raises(ContractViolation, match=pattern):
        call()


# every int argument that errors.int_arg checks: (a call passing v there,
# the values of BAD_INTS that are legal there)
INT_ARGUMENTS = {
    "algebra dimension": (skeinalg.product_field_algebra, ()),
    "truncated poly dimension": (skeinalg.truncated_poly_algebra, ()),
    "generator candidate": (lambda v: skeinalg.make_algebra(
        [[[1]]], [1], candidates=(v,)), ()),
    "matrix_algebra n": (skeinalg.matrix_algebra, ()),
    "matrix rows": (lambda v: skeinalg.Matrix(v, 0, ()), ()),
    "matrix cols": (lambda v: skeinalg.Matrix(0, v, ()), ()),
    "matrix identity": (skeinalg.Matrix.identity, ()),
    "matrix entry row": (lambda v: SWAP[v, 0], ()),
    "matrix entry column": (lambda v: SWAP[0, v], ()),
    "matrix row": (SWAP.row, ()),
    "matrix col": (SWAP.col, ()),
    "matrix zeros rows": (lambda v: skeinalg.Matrix.zeros(v, 1), ()),
    "matrix zeros cols": (lambda v: skeinalg.Matrix.zeros(1, v), ()),
    "mat_lincomb rows": (lambda v: skeinalg.mat_lincomb([], v, 1), ()),
    "mat_lincomb cols": (lambda v: skeinalg.mat_lincomb([], 1, v), ()),
    "matrix power": (lambda v: skeinalg.matrix_power(IDENTITY_1, v), ()),
    "search seed": (lambda v: skeinalg.find_invertible_in_affine_family(
        IDENTITY_1, [], seed=v), ("-1",)),
    "Laurent exponent": (lambda v: skeinalg.LaurentPoly.monomial(1, 1) ** v, ("-1",)),
    "catalan": (skeinalg.catalan, ()),
    "diagram n_bottom": (lambda v: skeinalg.TLDiagram(v, 0, ()), ()),
    "diagram n_top": (lambda v: skeinalg.TLDiagram(0, v, ()), ()),
    "tl_basis n_bottom": (lambda v: skeinalg.tl_basis(v, 0), ()),
    "tl_basis n_top": (lambda v: skeinalg.tl_basis(0, v), ()),
    "morphism n_bottom": (lambda v: skeinalg.TLMorphism(v, 0), ()),
    "morphism n_top": (lambda v: skeinalg.TLMorphism(0, v), ()),
    "tl_identity": (skeinalg.tl_identity, ()),
    "tl_e width": (lambda v: skeinalg.tl_e(v, 0), ()),
    "tl_e index": (lambda v: skeinalg.tl_e(3, v), ()),
    "z-degree": (lambda v: skeinalg.AnnularClass({v: 1}), ()),
    "crossing resolution sign": (skeinalg.crossing_resolution, ("-1",)),
    "cross sign": (skeinalg.cross, ("-1",)),
    "twist sign": (skeinalg.twist, ("-1",)),
    "strands_in": (lambda v: skeinalg.tangle(v, []), ()),
    "braid strands": (lambda v: skeinalg.braid_to_slices([], v), ()),
    "closed braid strands": (lambda v: skeinalg.closed_braid_tangle([], v), ()),
    "kink width": (lambda v: skeinalg.kink_slices(v, 0, 1), ()),
    "kink wire": (lambda v: skeinalg.kink_slices(2, v, 1), ()),
    "kink sign": (lambda v: skeinalg.kink_slices(2, 0, v), ("-1",)),
    "insert_slices index": (lambda v: skeinalg.insert_slices(
        _five_slice_tangle(), v, []), ()),
    "system dimension": (lambda v: skeinalg.make_system(v, IDENTITY_1), ()),
    "word duration": (lambda v: skeinalg.make_word([("u", v)]), ()),
    "pointed iso seed": (lambda v: skeinalg.bimodule_iso_pointed(
        *[skeinalg.regular_bimodule(skeinalg.field_algebra())] * 2, seed=v),
        ("-1",)),
    "unpointed iso seed": (lambda v: skeinalg.bimodule_iso_unpointed(
        *[skeinalg.regular_bimodule(skeinalg.field_algebra())] * 2, seed=v),
        ("-1",)),
    "conjugator seed": (lambda v: skeinalg.conjugator_between(
        *[skeinalg.identity_hom(skeinalg.field_algebra())] * 2, seed=v),
        ("-1",)),
    "end compose seed": (lambda v: skeinalg.end_compose_check(
        IDENTITY_1, IDENTITY_1, seed=v), ("-1",)),
}

# the same, read from JSON, where a bad int raises ParseError
JSON_INT_ARGUMENTS = {
    "algebra dim": lambda v: jsonio.algebra_from_json(
        {"dim": v, "mult": [], "unit": []}),
    "bimodule dim": lambda v: jsonio.bimodule_from_json(
        {"left": FIELD_JSON, "right": FIELD_JSON, "dim": v,
         "left_action": [], "right_action": [], "point": []}),
    "system dim": lambda v: jsonio.system_from_json({"dim": v, "step": [["1"]]}),
    "tangle strands_in": lambda v: jsonio.tangle_from_json(
        {"strands_in": v, "slices": []}),
    "slice position": lambda v: jsonio.tangle_from_json(
        {"strands_in": 2, "slices": [["cross+", {"at": v}]]}),
}

BAD_INTS = {"None": None, "True": True, "2.0": 2.0, "-1": -1, "'x'": "x"}


@pytest.mark.parametrize("site,value", [
    (site, value) for site, (_, legal) in INT_ARGUMENTS.items()
    for value in BAD_INTS if value not in legal])
def test_every_int_argument_refuses_non_ints_and_out_of_range_values(
        site, value):
    call, _ = INT_ARGUMENTS[site]
    with pytest.raises(ContractViolation, match="must be an int"):
        call(BAD_INTS[value])


@pytest.mark.parametrize("site,value", [
    (site, value) for site in JSON_INT_ARGUMENTS for value in BAD_INTS])
def test_every_int_read_from_json_refuses_non_ints_and_negatives(site, value):
    with pytest.raises(ParseError, match="must be an int"):
        JSON_INT_ARGUMENTS[site](BAD_INTS[value])
