"""The public names of the package, pinned: adding or removing one shows up
as a change to this list."""

import types

import skeinalg

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
    "tl_e", "tl_from_diagram", "tl_identity", "tl_tensor", "tl_zero",
    "transport_algebra", "truncated_poly_algebra", "twist",
    'upper_triangular_algebra', 'writhe',
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # has been imported so far
    names = sorted(n for n in dir(skeinalg) if not n.startswith("_")
                   and not isinstance(getattr(skeinalg, n), types.ModuleType))
    assert names == PUBLIC_NAMES
