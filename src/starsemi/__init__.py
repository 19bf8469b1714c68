"""Finite-model workbench for involution ordered semigroups: table-level
validation, ideal-element classification, regularity, principal filters, a
registry of executable claims, and exhaustive enumeration up to isomorphism."""

from .claims import (
    Claim,
    ClaimReport,
    StructureAnalysis,
    check_all,
    check_claim,
    expand_claim_ids,
    get_claim,
    list_claims,
    list_mutants,
    replay_counterexample,
    report_record,
)
from .enumeration import (
    CanonicalForm,
    ModelSpec,
    SweepReport,
    associative_tables,
    automorphisms,
    canonical_form,
    collect_models,
    compatible_orders,
    enumerate_models,
    search_counterexample,
    semigroup_representatives,
    write_catalog,
)
from .fileformat import FormatError, load_structure, parse_structure, serialize_structure
from .filters import (
    FilterSet,
    NClassPartition,
    filter_generated,
    filter_oracle,
    n_class_partition,
    thm26_set,
)
from .ideals import (
    ElementClassification,
    classify_all,
    classify_element,
    generated_left,
    generated_right,
    in_ideal_generated,
)
from .regularity import RegularityProfile, regularity_profile
from .sampling import random_model, random_models
from .structure import (
    ALL_TIERS,
    INVOLUTION,
    LE,
    MAX_ORDER,
    PO_GROUPOID,
    PO_SEMIGROUP,
    POE,
    VEE,
    WEDGE,
    OrderedAlgebra,
    RawStructure,
    StructureError,
    ValidationReport,
    Violation,
    chain_leq,
    equality_leq,
    tier_closure,
    validate_structure,
)

__version__ = "0.1.0"
