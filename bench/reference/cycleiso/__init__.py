"""Exact computation in the inverse monoids of partial isometries of a cycle.

The cycle graph on n vertices carries the geodesic metric
min(|x-y|, n-|x-y|).  Its partial isometries, under composition of
partial maps, form an inverse monoid; the order-preserving, monotone,
and orientation-preserving elements form submonoids with closed-form
cardinalities, Green's structure, and known minimum generating sets.
This package enumerates them, decides membership, factorizes elements
over the standard generators, and certifies the generating-set sizes,
cross-checking everything against brute force.
"""

from .errors import (
    AmbientMismatchError,
    CycleIsoError,
    DomainError,
    MembershipError,
    NotGeneratingError,
    NotInjectiveError,
    NotInverseClosedError,
    ParseError,
    UndefinedSequenceError,
)
from .partial_perm import (
    OrderFlags,
    PartialPerm,
    classify_order,
    empty_map,
    identity,
    identity_off,
    identity_on,
    sorted_points,
)
from .geometry import (
    delta,
    distance,
    distance_sequence,
    is_partial_isometry,
    is_partial_isometry_fast,
)
from .dihedral import (
    KINDS,
    DihedralElement,
    MembershipReport,
    all_elements,
    b2_count,
    check_kind,
    classify,
    extensions,
    in_kind,
    is_in_b2,
    to_partial_perm,
)
from .engine import (
    CrossCheckReport,
    EnumeratedMonoid,
    GreenDecomposition,
    close,
    cross_check_green,
    export_bytes,
    export_elements,
    green_structural,
    idempotents,
    import_elements,
    j_partition,
    j_related,
)
from .formulas import ProofCounts, card, card_rank_le1, proof_counts, rank_formula
from .generators import (
    EMPTY_WORD_TEXT,
    GeneratorSet,
    generator,
    parse_word,
    standard_generators,
    word_text,
)
from .factorize import factorize
from .rank_cert import (
    CertificateReport,
    Requirement,
    brute_force_rank,
    gap_requirements,
    lower_bound_certificate,
)
from .verify import CriterionResult, run_acceptance

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError",
    "CycleIsoError",
    "DomainError",
    "MembershipError",
    "NotGeneratingError",
    "NotInjectiveError",
    "NotInverseClosedError",
    "ParseError",
    "UndefinedSequenceError",
    "OrderFlags",
    "PartialPerm",
    "classify_order",
    "empty_map",
    "identity",
    "identity_off",
    "identity_on",
    "sorted_points",
    "delta",
    "distance",
    "distance_sequence",
    "is_partial_isometry",
    "is_partial_isometry_fast",
    "KINDS",
    "DihedralElement",
    "MembershipReport",
    "all_elements",
    "b2_count",
    "check_kind",
    "classify",
    "extensions",
    "in_kind",
    "is_in_b2",
    "to_partial_perm",
    "CrossCheckReport",
    "EnumeratedMonoid",
    "GreenDecomposition",
    "close",
    "cross_check_green",
    "export_bytes",
    "export_elements",
    "green_structural",
    "idempotents",
    "import_elements",
    "j_partition",
    "j_related",
    "ProofCounts",
    "card",
    "card_rank_le1",
    "proof_counts",
    "rank_formula",
    "EMPTY_WORD_TEXT",
    "GeneratorSet",
    "generator",
    "parse_word",
    "standard_generators",
    "word_text",
    "factorize",
    "CertificateReport",
    "Requirement",
    "brute_force_rank",
    "gap_requirements",
    "lower_bound_certificate",
    "CriterionResult",
    "run_acceptance",
    "__version__",
]
