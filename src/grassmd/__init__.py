"""Resolving sets and metric dimension of Grassmann graphs, in exact arithmetic.

The package builds the graph G_q(n, k) whose vertices are the k-dimensional
subspaces of GF(q)^n (two vertices adjacent when their intersection has
dimension k-1), constructs resolving sets for it via spreads, mixed
partitions, and a greedy rank heuristic, and certifies the results three
independent ways: direct distance-vector comparison, point-incidence rank
over the integers, and breadth-first search on the adjacency structure.
"""

from .bounds import (
    BoundsReport,
    babai_general,
    babai_strong,
    compare,
    distance_class_size,
    lower_bound,
)
from .constructions import (
    MixedPartition,
    Spread,
    build_mixed_partition,
    build_spread,
    resolving_from_partition,
    resolving_from_spread,
    resolving_greedy_rank,
)
from .errors import (
    BudgetExceeded,
    ContextMismatch,
    DegenerateBound,
    DimensionMismatch,
    DivisionByZero,
    GrassmdError,
    InvalidArgs,
    InvalidShape,
    NotDivisor,
    NotPrimePower,
    NotSubspace,
    TooLarge,
)
from .famfile import format_family, parse_family
from .gfq import ExtensionField, FieldCtx, factor_prime_power, field_new
from .grassmann import (
    GrassmannGraph,
    ResolvingVerdict,
    bfs_distance,
    bfs_distances_from,
    code_of,
    codes_table,
    distance,
    edge_list,
    is_resolving,
)
from .linalg import MatGFq, intersect_dim, mat, rank, rref
from .rank import (
    IncidenceMatrix,
    RankCertificate,
    certify_resolving_by_rank,
    exact_rank,
    gram_closed_form,
    incidence_matrix,
    verify_gram,
)
from .search import (
    metric_dimension_exact,
    metric_dimension_from_distances,
    metric_dimension_greedy,
)
from .subspaces import (
    PointIndex,
    Subspace,
    SubspaceFamily,
    enumerate_bases,
    enumerate_k_subspaces,
    gaussian_binomial,
    gaussian_binomial_pascal,
    incidence_vector,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BudgetExceeded",
    "ContextMismatch",
    "DegenerateBound",
    "DimensionMismatch",
    "DivisionByZero",
    "ExtensionField",
    "FieldCtx",
    "GrassmannGraph",
    "GrassmdError",
    "IncidenceMatrix",
    "InvalidArgs",
    "InvalidShape",
    "MatGFq",
    "MixedPartition",
    "NotDivisor",
    "NotPrimePower",
    "NotSubspace",
    "PointIndex",
    "RankCertificate",
    "ResolvingVerdict",
    "Spread",
    "Subspace",
    "SubspaceFamily",
    "TooLarge",
    "babai_general",
    "babai_strong",
    "bfs_distance",
    "bfs_distances_from",
    "build_mixed_partition",
    "build_spread",
    "certify_resolving_by_rank",
    "code_of",
    "codes_table",
    "compare",
    "distance",
    "distance_class_size",
    "edge_list",
    "enumerate_bases",
    "enumerate_k_subspaces",
    "exact_rank",
    "factor_prime_power",
    "field_new",
    "format_family",
    "gaussian_binomial",
    "gaussian_binomial_pascal",
    "gram_closed_form",
    "incidence_matrix",
    "incidence_vector",
    "intersect_dim",
    "is_resolving",
    "lower_bound",
    "mat",
    "metric_dimension_exact",
    "metric_dimension_from_distances",
    "metric_dimension_greedy",
    "parse_family",
    "rank",
    "resolving_from_partition",
    "resolving_from_spread",
    "resolving_greedy_rank",
    "rref",
    "verify_gram",
]
