"""One traced `grassmd` CLI call: the benchmark's per-layer view.

Usage: python3 perfbench/trace_child.py SPANS_FILE SPAWN_TIME JOB_ID -- ARGV...

Runs `grassmd.cli.main(ARGV)` exactly as the `grassmd` command would, after
wrapping the public functions that the CLI and its callees look up at call
time.  Each wrapped call records a span (name, start, end, parent, job id)
plus counts of the work it did; the spans are written to SPANS_FILE as JSON
when the call ends.  Nothing in `grassmd` is edited and no `_`-prefixed
name of it is used: timing is taken at the public-function boundary only.

Times are `time.perf_counter()`, which on Linux is the system-wide
monotonic clock, so SPAWN_TIME taken by the parent shares the time base.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

perf_counter = time.perf_counter


class Tracer:
    """Spans kept in memory, in start order; `parent` is a span index."""

    def __init__(self, job: int):
        self.job = job
        self.spans = []
        self.stack = []

    def begin(self, name: str, start: float | None = None) -> dict:
        rec = {"name": name, "start": perf_counter() if start is None else start,
               "end": None, "parent": self.stack[-1] if self.stack else None,
               "job": self.job, "counts": {}}
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def end(self, rec: dict):
        rec["end"] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]]["name"] if self.stack else None


def _wrap(tracer: Tracer, name: str, fn, counts=None):
    """fn inside a span; counts(args, result) -> dict adds work counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
            if counts is not None:
                rec["counts"].update(counts(args, out))
            return out

    return wrapper


def codes_class(vertices, family) -> str:
    """Which code-table kernel runs, by the rule `codes_table` applies."""
    ctx = vertices[0].ctx
    if ctx.q == 2:
        return "q2"
    if ctx.e == 1 and all(s.dim == 2 for s in vertices) and all(u.dim == 2 for u in family):
        return "prime_k2"
    return "general"


def install(tracer: Tracer):
    """Wrap the public functions each layer exposes to the CLI."""
    # `grassmd.rank` the attribute is the linalg function, so modules are
    # looked up by name.
    cli, constructions, grassmann, rank = (
        importlib.import_module(f"grassmd.{m}")
        for m in ("cli", "constructions", "grassmann", "rank"))

    def enum_counts(args, out):
        return {"vertices": len(out)}

    enumerate_traced = _wrap(tracer, "subspaces.enumerate",
                             rank.enumerate_k_subspaces, enum_counts)
    for mod in (cli, grassmann, constructions, rank):
        mod.enumerate_k_subspaces = enumerate_traced

    cli.format_family = _wrap(tracer, "famfile.format", cli.format_family,
                              lambda a, out: {"rows": len(a[3])})
    cli.parse_family = _wrap(tracer, "famfile.parse", cli.parse_family,
                             lambda a, out: {"rows": len(out[3])})

    def members(args, out):
        return {"members": len(out)}

    cli.resolving_from_spread = _wrap(tracer, "constructions.spread",
                                      cli.resolving_from_spread, members)
    cli.resolving_from_partition = _wrap(tracer, "constructions.partition",
                                         cli.resolving_from_partition, members)
    cli.resolving_greedy_rank = _wrap(tracer, "constructions.greedy",
                                      cli.resolving_greedy_rank, members)

    cli.GrassmannGraph = _wrap(tracer, "grassmann.graph", grassmann.GrassmannGraph)
    cli.is_resolving = _wrap(tracer, "grassmann.verdict", cli.is_resolving,
                             lambda a, out: {"verdicts": 1,
                                             "collisions": int(not out.resolving)})

    # The code table of a verdict counts under grassmann; the all-pairs
    # table behind metricdim counts under search.distance_rows.
    codes_table = grassmann.codes_table

    @functools.wraps(codes_table)
    def codes_traced(vertices, family):
        if tracer.current() != "grassmann.verdict":
            return codes_table(vertices, family)
        kernel = codes_class(vertices, family)
        with tracer.span(f"grassmann.codes_{kernel}") as rec:
            rec["counts"][f"cells_{kernel}"] = len(vertices) * len(family)
            return codes_table(vertices, family)

    grassmann.codes_table = codes_traced

    incidence = _wrap(tracer, "rank.incidence", rank.incidence_matrix,
                      lambda a, out: {"incidence_cells": out.m * out.N})
    cli.incidence_matrix = rank.incidence_matrix = incidence

    exact_rank = rank.exact_rank

    @functools.wraps(exact_rank)
    def exact_traced(*args, **kwargs):
        with tracer.span("rank.exact") as rec:
            try:
                return exact_rank(*args, **kwargs)
            finally:
                fell_back = tracer.current() == "rank.fallback"
                if fell_back:
                    tracer.end(tracer.spans[tracer.stack[-1]])
                rec["counts"].update({"fallbacks": int(fell_back),
                                      "modular_decided": int(not fell_back)})

    cli.exact_rank = rank.exact_rank = exact_traced

    class BareissTraced(rank.BareissEliminator):
        """Opens rank.fallback when `exact_rank` falls back to Bareiss; the
        span closes when `exact_rank` returns."""

        def __init__(self, *args, **kwargs):
            if tracer.current() == "rank.exact":
                tracer.begin("rank.fallback")
            super().__init__(*args, **kwargs)

    rank.BareissEliminator = BareissTraced

    grassmann.GrassmannGraph.distance_rows = _wrap(
        tracer, "search.distance_rows", grassmann.GrassmannGraph.distance_rows)

    def pairs(g):
        return len(g) * (len(g) - 1) // 2

    cli.metric_dimension_exact = _wrap(
        tracer, "search.exact", cli.metric_dimension_exact,
        lambda a, out: {"pairs": pairs(a[0]), "resolving_size": out[0]})
    cli.metric_dimension_greedy = _wrap(
        tracer, "search.greedy", cli.metric_dimension_greedy,
        lambda a, out: {"pairs": pairs(a[0]), "resolving_size": len(out)})


def main(argv) -> int:
    spans_file, spawn_time, job = argv[0], float(argv[1]), int(argv[2])
    if argv[3] != "--":
        raise SystemExit("usage: trace_child.py SPANS_FILE SPAWN_TIME JOB_ID -- ARGV...")
    tracer = Tracer(job)
    startup = tracer.begin("cli.startup", start=spawn_time)
    import grassmd.cli

    tracer.end(startup)
    install(tracer)
    try:
        return grassmd.cli.main(argv[4:])
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
