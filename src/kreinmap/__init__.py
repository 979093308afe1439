"""Constructive two-way map between accelerants and Dirac potentials.

The package builds the forward map (accelerant to potential, through the
Krein kernel equation), the inverse map (potential to accelerant, through
transformation kernels and a Volterra resolvent), and a verification layer
that ties both to the underlying first-order system.
"""

from .errors import (
    FieldFormatError,
    NotAccelerantError,
    SingularSystemError,
)
from .fields import (
    Accelerant,
    DiagnosticReport,
    GridSpec,
    Kernel2D,
    Potential,
    ReportEntry,
    StructuralConstants,
    assemble_potential,
    decimate_accelerant,
    decimate_potential,
    potential_adjoint,
    reflect,
    structural_constants,
)
from .quadops import (
    DiscOp,
    adjoint_op,
    compose,
    field_norm,
    invert_identity_plus,
    mixed_norm,
    nystrom_weights,
    op_from_kernel,
)
from .factorization import (
    AccelerantTest,
    convolution_kernel,
    factorize,
    is_accelerant,
    solve_glm,
    solve_krein,
)
from .forward_map import block_krein_kernel, folded_kernel, folded_lower_factor, theta
from .inverse_map import (
    ProductParts,
    assemble_product,
    characteristic_extract,
    resolvent_product_kernel,
    resolvent_product_parts,
    resolvent_volterra,
    trace_extract,
    transformation_kernels,
    transmutation_kernel,
    upsilon,
)
from .dirac_verify import (
    DEFAULT_LAMBDAS,
    apply_wave_operator,
    check_fundamental_representation,
    check_krein_derivative_identity,
    identity_suite,
    krein_solution,
    lipschitz_probe,
    roundtrip_report,
    solve_cauchy,
    spectral_radius_probe,
    transmuted_solution,
)

__version__ = "0.1.0"

__all__ = [
    "FieldFormatError",
    "NotAccelerantError",
    "SingularSystemError",
    "Accelerant",
    "DiagnosticReport",
    "GridSpec",
    "Kernel2D",
    "Potential",
    "ReportEntry",
    "StructuralConstants",
    "assemble_potential",
    "decimate_accelerant",
    "decimate_potential",
    "potential_adjoint",
    "reflect",
    "structural_constants",
    "DiscOp",
    "adjoint_op",
    "compose",
    "field_norm",
    "invert_identity_plus",
    "mixed_norm",
    "nystrom_weights",
    "op_from_kernel",
    "AccelerantTest",
    "convolution_kernel",
    "factorize",
    "is_accelerant",
    "solve_glm",
    "solve_krein",
    "block_krein_kernel",
    "folded_kernel",
    "folded_lower_factor",
    "theta",
    "ProductParts",
    "assemble_product",
    "characteristic_extract",
    "resolvent_product_kernel",
    "resolvent_product_parts",
    "resolvent_volterra",
    "trace_extract",
    "transformation_kernels",
    "transmutation_kernel",
    "upsilon",
    "DEFAULT_LAMBDAS",
    "apply_wave_operator",
    "check_fundamental_representation",
    "check_krein_derivative_identity",
    "identity_suite",
    "krein_solution",
    "lipschitz_probe",
    "roundtrip_report",
    "solve_cauchy",
    "spectral_radius_probe",
    "transmuted_solution",
    "__version__",
]
