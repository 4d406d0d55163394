"""Exact toolkit for non-homogeneous hydrodynamic-type Hamiltonian operators.

Operators g d_x + omega(u) with constant symmetric leading coefficient are
determined, in Darboux form, by a Lie algebra, a compatible scalar product
and a 2-cocycle.  This package computes the relevant linear spaces with
exact arithmetic over Q(sqrt(d)), builds and verifies the operators,
checks bi-Hamiltonian pencils and ships a verified low-dimensional catalog.
"""

from .errors import (
    DarbouxOpsError,
    ExponentOverflowError,
    FieldMismatchError,
    InvalidOperandError,
    MetricIncompatibleError,
    NonHydrodynamicDensityError,
    NotACasimirError,
    NotACocycleError,
    NotALieAlgebraError,
    ParseError,
    ShapeMismatchError,
    SingularMatrixError,
    UnknownEntryError,
    UnknownIndeterminateError,
    UnprintableValueError,
)
from .scalars import Scalar, parse_scalar
from .poly import FIELD, MAX_EXPONENT, PARAM, Poly, PolyRing
from .lie import (
    LieAlgebra,
    StructureTags,
    build_two_step_nilpotent,
    center,
    change_basis,
    derived_series,
    direct_sum,
    jacobi_defect,
    killing_form,
    lower_central_series,
    structure_tags,
)
from .invariants import (
    CocycleSpace,
    SolutionSpace,
    casimir_metric_duality,
    compatible_metric_space,
    mixed_cocycle_check,
    nondegenerate_witness,
    quadratic_casimir_space,
    two_cocycle_space,
)
from .operators import (
    DarbouxOperator,
    PolyOperator,
    VerificationReport,
    apply_to_density,
    build_darboux,
    field_ring,
    operator_casimir_functionals,
    phi_tensor,
    transform_darboux,
    transform_poly_operator,
    verify_darboux,
    verify_hamiltonian,
)
from .pencil import (
    PencilReport,
    pencil_compatible_both,
    pencil_compatible_darboux,
    pencil_compatible_general,
    pencil_operator,
    unify_operators,
)
from .catalog import CatalogEntry, catalog_get, catalog_list, verify_all, verify_entry

__version__ = "0.1.0"
