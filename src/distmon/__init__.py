"""Exact-arithmetic axiom checks for distorted monoidal structures on
finite-dimensional graded vector spaces."""

from .errors import (
    BadUnitScalar, CoverageError, DistmonError, MonoidMismatch,
    ObjectMismatch, ParseError, ScenarioError, StructureMismatch,
    ValidationError,
)
from .fields import FieldError, PrimeField, RATIONAL, Rationals
from .exactlin import (
    GradedMap, GradedObject, GradingMonoid, MONOIDS, NAT, PARITY, TRIVIAL,
    associator, associator_inv, collapse_map, compose, graded_map,
    identity, left_unitor, left_unitor_inv, monomial_map, right_unitor,
    right_unitor_inv, sort_universe, tensor_map, tensor_obj, unit_object,
    zero_map,
)
from .reports import CheckBudget, CheckReport, Coverage, Witness
from .distortion import (
    DistortedStructure, StructuralFamily, Tabulated,
    character_family, check_base, check_D1, check_D2, check_D3, check_D4,
    check_lambda_sigma_commute, classify_scalar_unit_families,
    graded_character, identity_unit, koszul_braiding, symmetric_braiding,
    tabulate_binary,
)
from .twist import (
    InvertibilityReport, check_idempotent_axiom,
    identity_idempotent, invertibility_test, parity_projector,
    search_structural_idempotents, twist,
)
from .laxfun import (
    LaxFunctor, check_lax_axioms, check_laxator_naturality, check_SLambda,
    check_Ssigma, check_triple_strictness, collapse_functor, compose_lax,
    identity_functor, truncation_functor,
)
from .transform import (
    MonNatTrans, check_horizontal_strictness, check_interchange,
    check_lambda_conjugation, check_monoidal, horizontal,
    identity_transformation, projection_transformation,
    scalar_transformation, vertical,
)
from .harness import (
    GOLDEN, Scenario, builtin_examples, emit_report,
    generate_universe, load_scenario, run_examples, run_suite,
    scenario_from_dict,
)

__version__ = "0.1.0"
