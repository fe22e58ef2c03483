"""The public names of the package, pinned: adding or removing one shows up
as a change to this list."""

import types

import pytest

import skeinalg
from skeinalg import ContractViolation

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


# (call, a pattern its ContractViolation must match); each call was
# accepted once, or failed with a bare TypeError or AttributeError
BAD_SHAPES_AND_SIZES = {
    "matrix negative shape": (lambda: skeinalg.Matrix(-2, -3, (0,) * 6), "cols >= 0"),
    "matrix bool rows": (lambda: skeinalg.Matrix(True, 2, (1, 2)), "cols >= 0"),
    "matrix list entries": (lambda: skeinalg.Matrix(1, 2, [1, 2]), "a tuple"),
    "product field algebra -1": (lambda: skeinalg.product_field_algebra(-1), "int >= 0"),
    "matrix algebra True": (lambda: skeinalg.matrix_algebra(True), "int n >= 1"),
    "matrix algebra 2.0": (lambda: skeinalg.matrix_algebra(2.0), "int n >= 1"),
    "tangle -1": (lambda: skeinalg.tangle(-1, []), "strands >= 0"),
    "tangle 1.5": (lambda: skeinalg.tangle(1.5, []), "strands >= 0"),
    "braid letter True": (lambda: skeinalg.braid_to_slices([True], 2), "nonzero ints"),
    "braid letter 1.0": (lambda: skeinalg.braid_to_slices([1.0], 2), "nonzero ints"),
    "braid strands 2.5": (lambda: skeinalg.braid_to_slices([1], 2.5), "strands >= 1"),
    "tl basis True": (lambda: skeinalg.tl_basis(True, 1), "nonnegative"),
    "tl basis 2.0": (lambda: skeinalg.tl_basis(2.0, 0), "nonnegative"),
    "tl identity True": (lambda: skeinalg.tl_identity(True), "nonnegative"),
    "tl identity 2.0": (lambda: skeinalg.tl_identity(2.0), "nonnegative"),
    "tl morphism True": (lambda: skeinalg.TLMorphism(True, True), "nonnegative"),
    "tl e index True": (lambda: skeinalg.tl_e(3, True), "index True"),
    "tl e None": (lambda: skeinalg.tl_e(None, None), "nonnegative"),
    "kink wire True": (lambda: skeinalg.kink_slices(2, True, 1), "out of range"),
    "kink width 2.0": (lambda: skeinalg.kink_slices(2.0, 0, 1), "out of range"),
    "catalan -3": (lambda: skeinalg.catalan(-3), "int >= 0"),
    "catalan None": (lambda: skeinalg.catalan(None), "int >= 0"),
    "system tuple step": (lambda: skeinalg.make_system(1, (1,)), "step is a Matrix"),
    "system tuple observable": (lambda: skeinalg.make_system(
        1, skeinalg.Matrix.identity(1), observables={"a": (1,)}), "1x1 Matrix"),
}


@pytest.mark.parametrize("name", sorted(BAD_SHAPES_AND_SIZES))
def test_bad_shape_and_size_arguments_raise_contract_violation(name):
    call, pattern = BAD_SHAPES_AND_SIZES[name]
    # memoised first, so that an untyped memo would hand True and 2.0 these
    skeinalg.matrix_algebra(1), skeinalg.matrix_algebra(2)
    with pytest.raises(ContractViolation, match=pattern):
        call()
