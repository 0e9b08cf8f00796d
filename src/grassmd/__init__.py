"""Resolving sets and metric dimension of Grassmann graphs, in exact arithmetic.

The package builds the graph G_q(n, k) whose vertices are the k-dimensional
subspaces of GF(q)^n (two vertices adjacent when their intersection has
dimension k-1), constructs resolving sets for it via spreads, mixed
partitions, and a greedy rank heuristic, and certifies the results three
independent ways: direct distance-vector comparison, point-incidence rank
over the integers, and breadth-first search on the adjacency structure.

`import grassmd` loads none of its modules, nor numpy: each public name
loads the module that defines it on first use (PEP 562), so a CLI call
pays only for the modules its subcommand runs.
"""

import importlib

# every public name, by the module that defines it
_EXPORTS = {
    "bounds": "BoundsReport babai_general babai_strong compare distance_class_size "
              "lower_bound",
    "constructions": "MixedPartition build_mixed_partition build_spread "
                     "resolving_from_partition resolving_from_spread resolving_greedy_rank",
    "errors": "BudgetExceeded DegenerateBound DimensionMismatch GrassmdError InvalidArgs "
              "InvalidShape NotDivisor NotPrimePower TooLarge",
    "famfile": "format_family parse_family",
    "gfq": "FieldCtx factor_prime_power field_new",
    "grassmann": "GrassmannGraph ResolvingVerdict bfs_distances_from codes_table "
                 "is_resolving",
    "linalg": "MatGFq Subspace distance",
    "rank": "IncidenceMatrix RankCertificate certify_resolving_by_rank exact_rank "
            "gram_closed_form incidence_matrix verify_gram",
    "search": "metric_dimension_exact metric_dimension_from_distances "
              "metric_dimension_greedy",
    "subspaces": "SubspaceFamily enumerate_bases enumerate_k_subspaces "
                 "gaussian_binomial",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # `grassmd.rank` is the module, imported or not yet
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
