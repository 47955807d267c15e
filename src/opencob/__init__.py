"""opencob: exact integral invariants of sutured surfaces (open-closed
cobordisms), their superalgebra bimodule structure, and constructively
verified interval-gluing isomorphisms."""

from .grading import (PRESET_HALF, PRESET_TENSOR, Grading, ParityParams,
                      ParityUndefined, ShiftParams, delta, pi, pi_half,
                      solve_constraints)
from .gluing import (ComposeIsoResult, ConventionMismatch, GlueIsoResult,
                     compose_iso, identity_iso, naturality_square, pants_iso,
                     quotient_oracle, self_glue_iso, symmetrizer_iso,
                     union_iso)
from .homology import (H1Basis, adapted_basis, canonical_basis,
                       change_of_basis, cw_relative_h1, model_of)
from .laurent import LaurentPoly
from .statespace import (StateSpace, StateSpaceTooLarge, bimodule_of, build,
                         graded_superdim, reference_dimension_fgp)
from .superalg import (Bimodule, GradedIso, IsoFailure, SuperAlgebra,
                       coproduct_left_action, external_tensor, is_graded_iso,
                       regular_bimodule, symmetrizer_bimodule, tensor_middle)
from .surface import (BoundaryCircle, Component, CountVector, SuturedSurface,
                      annulus, compose, counts, disjoint_union,
                      euler_characteristic, format_surface, glue_intervals,
                      identity_cobordism, open_pants, parse_surface, rank_h,
                      surface_fgp, symmetrizer_cobordism, validate)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
