"""Ordinal two-factorizations of formal contexts.

A formal context is a binary relation between objects and attributes.
This package decides whether the relation is the union of two
staircase-shaped (Ferrers) parts, computes such a factorization when
one exists, removes a smallest set of incidences otherwise, draws the
result as a biplot, and translates the machinery to order dimension
two extensions of posets.
"""

__version__ = "0.1.0"

from .biplot import FactorAxis, biplot_axes, factor_axis, reconstruct, render
from .context import (
    FormalContext,
    IncidencePair,
    complement,
    context_from_json,
    context_to_json,
    derive,
    parse_cxt,
    remove_incidences,
    serialize_cxt,
)
from .datasets import available as available_datasets
from .datasets import load as load_dataset
from .dimension import (
    DimensionExtension,
    Poset,
    poset_from_json,
    poset_to_context,
    poset_to_json,
    two_dimension_extension,
)
from .errors import (
    BudgetExceeded,
    ConceptBudgetExceeded,
    CountMismatch,
    DomainError,
    DuplicateName,
    FormatError,
    IllegalCharacter,
    IndexOutOfRange,
    InvalidFactorization,
    MalformedHeader,
    NotAPartialOrder,
    NotFerrers,
    NotFound,
    NotTwoDimensional,
    NotTwoFactorizable,
    OrdfactorError,
    PairNotIncident,
    UnsupportedFormat,
)
from .incompat import (
    BipartitionWitness,
    IncompatibilityGraph,
    bipartition,
    build_incompatibility_graph,
    components,
    isolated_pairs,
)
from .lattice import (
    Concept,
    ConceptOrder,
    cocomparability_graph,
    concept_cap,
    concept_order,
    enumerate_concepts,
    realizer_sequences,
    transitive_orientation,
)
from .maximal import (
    OctSolution,
    certify_global_optimality,
    max_bipartite_subset,
    maximal_two_factorization,
)
from .oracle import (
    GeneratorSpec,
    brute_force_min_removal,
    random_context,
    random_two_factorizable_context,
)
from .twofactor import (
    FactorizationResult,
    FerrersFactor,
    Violation,
    canonical_partition,
    is_ferrers,
    two_factorize,
    validate_factorization,
)

__all__ = [
    "BipartitionWitness",
    "BudgetExceeded",
    "Concept",
    "ConceptBudgetExceeded",
    "ConceptOrder",
    "CountMismatch",
    "DimensionExtension",
    "DomainError",
    "DuplicateName",
    "FactorAxis",
    "FactorizationResult",
    "FerrersFactor",
    "FormalContext",
    "FormatError",
    "GeneratorSpec",
    "IllegalCharacter",
    "IncidencePair",
    "IncompatibilityGraph",
    "IndexOutOfRange",
    "InvalidFactorization",
    "MalformedHeader",
    "NotAPartialOrder",
    "NotFerrers",
    "NotFound",
    "NotTwoDimensional",
    "NotTwoFactorizable",
    "OctSolution",
    "OrdfactorError",
    "PairNotIncident",
    "Poset",
    "UnsupportedFormat",
    "Violation",
    "available_datasets",
    "biplot_axes",
    "bipartition",
    "brute_force_min_removal",
    "build_incompatibility_graph",
    "canonical_partition",
    "certify_global_optimality",
    "cocomparability_graph",
    "complement",
    "components",
    "concept_cap",
    "concept_order",
    "context_from_json",
    "context_to_json",
    "derive",
    "enumerate_concepts",
    "factor_axis",
    "is_ferrers",
    "load_dataset",
    "max_bipartite_subset",
    "maximal_two_factorization",
    "parse_cxt",
    "poset_from_json",
    "poset_to_context",
    "poset_to_json",
    "random_context",
    "random_two_factorizable_context",
    "realizer_sequences",
    "reconstruct",
    "remove_incidences",
    "render",
    "serialize_cxt",
    "transitive_orientation",
    "two_dimension_extension",
    "two_factorize",
    "validate_factorization",
]
