"""Resolving sets and metric dimension of Grassmann graphs, in exact arithmetic.

The package builds the graph G_q(n, k) whose vertices are the k-dimensional
subspaces of GF(q)^n (two vertices adjacent when their intersection has
dimension k-1), constructs resolving sets for it via spreads, mixed
partitions, and a greedy rank heuristic, and certifies the results three
independent ways: direct distance-vector comparison, point-incidence rank
over the integers, and breadth-first search on the adjacency structure.

The names of `bounds` load on first use, so a CLI call that does not ask
for bounds does not import it.
"""

from .constructions import (
    MixedPartition,
    build_mixed_partition,
    build_spread,
    resolving_from_partition,
    resolving_from_spread,
    resolving_greedy_rank,
)
from .errors import (
    BudgetExceeded,
    DegenerateBound,
    DimensionMismatch,
    GrassmdError,
    InvalidArgs,
    InvalidShape,
    NotDivisor,
    NotPrimePower,
    TooLarge,
)
from .famfile import format_family, parse_family
from .gfq import ExtensionField, FieldCtx, factor_prime_power, field_new
from .grassmann import (
    GrassmannGraph,
    ResolvingVerdict,
    bfs_distances_from,
    codes_table,
    distance,
    edge_list,
    is_resolving,
)
from .linalg import MatGFq, intersect_dim
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
    Subspace,
    SubspaceFamily,
    enumerate_bases,
    enumerate_k_subspaces,
    gaussian_binomial,
)

_BOUNDS_NAMES = frozenset({"BoundsReport", "babai_general", "babai_strong", "compare",
                           "distance_class_size", "lower_bound"})


def __getattr__(name):
    if name in _BOUNDS_NAMES:
        from . import bounds

        return getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BudgetExceeded",
    "DegenerateBound",
    "DimensionMismatch",
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
    "RankCertificate",
    "ResolvingVerdict",
    "Subspace",
    "SubspaceFamily",
    "TooLarge",
    "babai_general",
    "babai_strong",
    "bfs_distances_from",
    "build_mixed_partition",
    "build_spread",
    "certify_resolving_by_rank",
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
    "gram_closed_form",
    "incidence_matrix",
    "intersect_dim",
    "is_resolving",
    "lower_bound",
    "metric_dimension_exact",
    "metric_dimension_from_distances",
    "metric_dimension_greedy",
    "parse_family",
    "resolving_from_partition",
    "resolving_from_spread",
    "resolving_greedy_rank",
    "verify_gram",
]
