"""skeinalg: exact pointed-bimodule quantum mechanics and Kauffman-bracket skein theory.

Everything is computed in exact arithmetic: rationals for the algebra
layer, Laurent polynomials in one variable for the diagram layer.
"""

from .algebra import (Algebra, AlgebraHom, algebra_direct_sum, compose_homs,
                      conjugation_hom, field_algebra, flatten_matrix,
                      hom_from_images, hom_power, identity_hom, make_algebra,
                      make_hom, matrix_algebra, product_field_algebra,
                      scalar_inclusion_hom, transport_algebra,
                      truncated_poly_algebra, upper_triangular_algebra)
from .bimodule import (PointedBimodule, PointedBimoduleMap, annihilator_left,
                       annihilator_right, bimodule_iso_pointed,
                       bimodule_iso_unpointed, conjugator_between,
                       end_compose_check, end_morphism, ideal_quotient_module,
                       make_bimodule, make_bimodule_map, modulate,
                       regular_bimodule, tensor_over)
from .errors import (ContractViolation, InternalCheckError, LabelNotFound,
                     ParseError, SkeinalgError, TangleShapeError,
                     ValidationError)
from .laurent import LaurentPoly
from .linalg import (Matrix, find_invertible_in_affine_family, kernel_basis,
                     mat_lincomb, matrix_power, quotient_basis, rank, rref,
                     solve_linear)
from .tangles import (CAP, CUP, ID, Event, SliceTangle, bracket_state_sum,
                      braid_to_slices, cable_double, closed_braid_tangle,
                      coupon, cross, insert_slices, interpret_tangle,
                      kauffman_bracket, kink_slices, mirror_tangle, tangle,
                      twist, writhe)
from .tl import (AnnularClass, TLDiagram, TLMorphism, annulus_closure_eval,
                 catalan, crossing_resolution, delta, plane_closure, tl_basis,
                 tl_cap, tl_compose, tl_cup, tl_e, tl_from_diagram,
                 tl_identity, tl_tensor, tl_zero)
from .tqft1d import (SpacetimeWord, System, compare_pictures, eval_heisenberg,
                     eval_schrodinger, make_system, make_word, parse_word,
                     system_from_heisenberg_data)

__version__ = "0.1.0"
