"""Cyclic representations of quantum gl2 at odd roots of unity, the braiding
map on central characters, and numerically verified holonomy R-matrices."""

from .roots import RootContext, primitive_root
from .qseries import phi_orbit, phi_series
from .cyclic import (RepMatrices, RepParams, braided_rep_pair, build_rep,
                     clock_shift, gauge_U, is_generic, lift_character, z0_character)
from .glstar import (IDENTITY_CHAR, Z0Char, beta_forward, beta_inverse,
                     conserved_quantities, glstar_multiply, matrix_route_beta,
                     refactor_gl2)
from .intertwiner import (ChiData, Intertwiner, check_generator_action,
                          closed_form_R, compare_up_to_scalar,
                          det_exponent_probe, solve_intertwiner)
from .hybe import ColoringTriple, derive_colorings, hybe_residual, s0_diagnostic
from .sampling import sample_params
from .suite import SuiteConfig, run_suite

__version__ = "0.1.0"

__all__ = [
    "RootContext", "primitive_root",
    "phi_series", "phi_orbit",
    "RepParams", "RepMatrices", "clock_shift", "build_rep",
    "z0_character", "lift_character", "gauge_U", "is_generic",
    "Z0Char", "IDENTITY_CHAR", "glstar_multiply", "beta_forward",
    "beta_inverse", "conserved_quantities", "refactor_gl2", "matrix_route_beta",
    "Intertwiner", "ChiData", "braided_rep_pair",
    "solve_intertwiner", "closed_form_R", "compare_up_to_scalar",
    "check_generator_action", "det_exponent_probe",
    "ColoringTriple", "derive_colorings", "hybe_residual", "s0_diagnostic",
    "sample_params", "SuiteConfig", "run_suite",
]
