"""Exact-arithmetic construction and machine verification of the bivariate
(and one trivariate) orthogonal polynomial families on quadratic lattices:
divided-difference equations, derivative ladders, three-term-recurrence
matrices, monic families and connection coefficients.
"""

from .exactfield import GaussianRational, Rational, pochhammer, rat, rat_str
from .families import (
    ALL_FAMILIES,
    CDH,
    CH,
    CH_BAR,
    CH_TRI,
    RACAH,
    RACAH_BAR,
    WILSON,
    WILSON_BAR,
    DegenerateParameterError,
    FamilySpec,
    derivative_ladder_check,
    eval_family,
)
from .fbasis import MPoly, OperatorMatrices, operator_matrices, structure_scalars
from .latticeops import LatticeSpec, SingularPointError, apply_D, apply_S, lattice_value
from .matrix import ExactMatrix, exact_inverse
from .pdeverify import (
    CoeffTable,
    coefficients,
    derived_coefficients,
    difference_form_residual,
    recover_coefficients,
    residual,
    second_order_residual,
    verify_table,
)
from .ttrr import (
    GChain,
    PolyVector,
    abc_matrices,
    connection,
    generate,
    leading_matrix,
    sn_tn,
    sn_tn_derived,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_FAMILIES",
    "CDH",
    "CH",
    "CH_BAR",
    "CH_TRI",
    "CoeffTable",
    "DegenerateParameterError",
    "ExactMatrix",
    "FamilySpec",
    "GChain",
    "GaussianRational",
    "LatticeSpec",
    "MPoly",
    "OperatorMatrices",
    "PolyVector",
    "RACAH",
    "RACAH_BAR",
    "Rational",
    "SingularPointError",
    "WILSON",
    "WILSON_BAR",
    "abc_matrices",
    "apply_D",
    "apply_S",
    "coefficients",
    "connection",
    "derivative_ladder_check",
    "derived_coefficients",
    "difference_form_residual",
    "eval_family",
    "exact_inverse",
    "generate",
    "lattice_value",
    "leading_matrix",
    "operator_matrices",
    "pochhammer",
    "rat",
    "rat_str",
    "recover_coefficients",
    "residual",
    "second_order_residual",
    "sn_tn",
    "sn_tn_derived",
    "structure_scalars",
    "verify_table",
]
