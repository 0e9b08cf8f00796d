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
from .gfq import FieldCtx, factor_prime_power, field_new
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

# every class and function imported above, and the bounds names loaded on
# demand: one list of exports, kept by the imports themselves
__all__ = sorted(_BOUNDS_NAMES.union(name for name, value in globals().items()
                                     if not name.startswith("_") and callable(value)))
