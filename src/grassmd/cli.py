"""Command-line surface.

Conventions: diagnostics go to stderr, data (files, tables, JSON) to
stdout; exit 0 on success, 1 when a verification-style command finds a
negative answer, 2 on bad usage or out-of-budget requests, 141 when
stdout's reader stops early.  `-f -` reads the family from stdin so
constructions pipe straight into `verify`.  `_report` prints every result:
one JSON object, "command" first, under `--json`, otherwise its text.

At start-up this module imports only the standard library and `errors`;
each subcommand imports the modules it runs, so `binom` loads `gfq` and
`subspaces`, and `verify` adds `famfile` and `grassmann` (and `linalg`
when its verdict holds a colliding pair).
Commands read the package's public names through `_lookup`, so a name rebound
on this module wins.  `run()` is the entry point of both the `grassmd` command
and `python -m grassmd.cli`; `main(argv)` serves callers in the same process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from itertools import chain

from .errors import GrassmdError, InvalidArgs


def __getattr__(name):
    """The package's public names, read here unless rebound on this module."""
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(package, name)


def _lookup(name):
    """A public name as this module binds it: rebound, or the package's."""
    return globals()[name] if name in globals() else __getattr__(name)


def _report(args, text, **doc) -> None:
    """Print a result: under --json its JSON object, "command" first, else text."""
    print(json.dumps({"command": args.cmd, **doc}) if args.json else text)


def _emit(chunks, path: str | None):
    """Write an iterable of text chunks, in order, to path or stdout."""
    if path and path != "-":
        with open(path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _read_family_arg(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except UnicodeDecodeError as e:
        raise InvalidArgs(f"family file {path} is not text: {e}")
    return _lookup("parse_family")(text)


def _cmd_binom(args) -> int:
    from .subspaces import gaussian_binomial

    value = gaussian_binomial(args.n, args.k, args.q)
    _report(args, str(value), n=args.n, k=args.k, q=args.q, value=value)
    return 0


def _cmd_graph(args) -> int:
    from .gfq import field_new
    from .grassmann import edge_rows

    ctx = field_new(args.q)
    g = _lookup("GrassmannGraph")(ctx, args.n, args.k)
    # G_q(n,k) is regular: V times the degree of vertex 0 counts each edge twice
    header = {"q": args.q, "n": args.n, "k": args.k, "vertices": len(g),
              "edges": len(g) * int((g.distance_rows()[0] == 1).sum()) // 2}
    # one row's edges at a time: no list of all edges or of all lines
    rows = ("".join([f"{u} {v}\n" for v in vs.tolist()]) for u, vs in edge_rows(g))
    _emit(chain([json.dumps(header) + "\n"], rows), args.output)
    return 0


def _cmd_spread(args) -> int:
    from .constructions import build_spread
    from .gfq import field_new

    ctx = field_new(args.q)
    text = _lookup("format_family")(args.q, args.n, args.t, build_spread(ctx, args.n, args.t),
                                    comments=[f"{args.t}-spread of V({args.n},{args.q})"])
    _emit([text], args.output)
    return 0


def _cmd_partition(args) -> int:
    from .constructions import build_mixed_partition
    from .gfq import field_new
    from .subspaces import SubspaceFamily

    format_family = _lookup("format_family")
    ctx = field_new(args.q)
    part = build_mixed_partition(ctx, args.n, args.k)
    sections = [
        format_family(args.q, args.n, args.k + 1, part.spread_part,
                      comments=[f"mixed partition of V({args.n},{args.q}), "
                                f"k={args.k}, s={part.s}, t={part.t}",
                                "spread part"]),
        format_family(args.q, args.n, part.t, part.tail_part,
                      comments=["tail part"]),
        format_family(args.q, args.n, len(part.Z),
                      SubspaceFamily.from_bases(ctx, part.Z[None]),
                      comments=["joining subspace Z"]),
    ]
    _emit(sections, args.output)
    return 0


def _cmd_construct(args) -> int:
    from .gfq import field_new

    ctx = field_new(args.q)
    builders = {
        "spread": "resolving_from_spread",
        "partition": "resolving_from_partition",
        "greedy": "resolving_greedy_rank",
    }
    fam = _lookup(builders[args.method])(ctx, args.n, args.k)
    text = _lookup("format_family")(
        args.q, args.n, args.k, fam,
        comments=[f"resolving family for G_{args.q}({args.n},{args.k}), "
                  f"method={args.method}, size={len(fam)}"])
    _emit([text], args.output)
    return 0


def _cmd_verify(args) -> int:
    from .famfile import format_rows

    ctx, n, k, fam = _read_family_arg(args.family)
    if (ctx.q, n, k) != (args.q, args.n, args.k):
        raise GrassmdError(f"family file is for q={ctx.q} n={n} k={k}, "
                           f"arguments say q={args.q} n={args.n} k={args.k}")
    g = _lookup("GrassmannGraph")(ctx, n, k)
    verdict = _lookup("is_resolving")(fam, g)
    text = "RESOLVING"
    if not verdict.resolving:
        i, j = verdict.ordinals
        text = "\n".join([f"COLLISION {i} {j}", f"# vertex {i}", format_rows(g.bases[i]),
                          f"# vertex {j}", format_rows(g.bases[j])])
    _report(args, text, q=args.q, n=args.n, k=args.k, family_size=len(fam),
            resolving=verdict.resolving,
            collision=list(verdict.ordinals) if verdict.ordinals else None)
    return 0 if verdict.resolving else 1


def _cmd_rank(args) -> int:
    from .gfq import field_new
    from .rank import certify_resolving_by_rank
    from .subspaces import SubspaceFamily, enumerate_bases

    if args.all is not None:
        q, n, k = args.all
        ctx = field_new(q)
        fam = SubspaceFamily.from_bases(ctx, enumerate_bases(ctx, n, k))
    elif args.family:
        fam = _read_family_arg(args.family)[3]
    else:
        print("rank: need -f FILE or --all q n k", file=sys.stderr)
        return 2
    cert = certify_resolving_by_rank(fam)
    m, N = len(fam), cert.required
    _report(args, f"{cert.status.upper()} rank={cert.rank} required={N} shape={m}x{N}",
            mode="all" if args.all else "family", rank=cert.rank, required=N,
            certified=cert.certified, m=m, N=N)
    return 0 if cert.certified else 1


def _cmd_gram(args) -> int:
    from .gfq import field_new
    from .rank import gram_closed_form, verify_gram

    ctx = field_new(args.q)
    ok = verify_gram(ctx, args.n, args.k)
    diag, offdiag = gram_closed_form(ctx, args.n, args.k)
    _report(args, f"{'GRAM-OK' if ok else 'GRAM-MISMATCH'} diag={diag} offdiag={offdiag}",
            q=args.q, n=args.n, k=args.k, ok=ok, diag=diag, offdiag=offdiag)
    return 0 if ok else 1


def _parse_grid(spec: str) -> list:
    out = []
    for part in spec.split(","):
        try:
            q, n, k = (int(x) for x in part.strip().split(":"))
        except ValueError:  # a non-integer entry, or not three of them
            raise InvalidArgs(f"grid entries are integer triples q:n:k, got {part!r}")
        out.append((q, n, k))
    return out


def _cmd_bounds(args) -> int:
    from .bounds import CSV_HEADER, compare, csv_row

    if args.grid:
        if (args.q, args.n, args.k) != (None, None, None):
            raise InvalidArgs("bounds: give q n k or --grid, not both")
        # every report is built before any is printed: a bad entry prints nothing
        reports = [compare(q, n, k, args.log_base) for q, n, k in _parse_grid(args.grid)]
        _report(args, "\n".join([CSV_HEADER, *map(csv_row, reports)]),
                grid=[r.to_json() for r in reports])
        return 0
    if None in (args.q, args.n, args.k):
        print("bounds: need q n k or --grid", file=sys.stderr)
        return 2
    rep = compare(args.q, args.n, args.k, args.log_base)
    _report(args, "\n".join([
        f"G_{rep.q}({rep.n},{rep.k}): {rep.num_vertices} vertices",
        f"lower bound (m + D^m >= N): {rep.lower_bound}",
        f"estimate (log_k N):         {rep.lower_log:.4f}",
        f"upper, general:             {rep.babai_general:.4f}",
        f"upper, strong (M={rep.babai_M}, j={rep.babai_argmax_j}): {rep.babai_strong:.4f}",
        f"upper, constructive:        {rep.constructive_bound}",
        *(f"  construction size [{name}]: {m}" for name, m in rep.construction_sizes.items()),
        f"log base: {rep.log_base}",
    ]), **rep.to_json())
    return 0


def _cmd_metricdim(args) -> int:
    from .gfq import field_new

    ctx = field_new(args.q)
    if args.method == "exact":
        from .search import check_exact_graph

        check_exact_graph(args.q, args.n, args.k, args.limit)
    g = _lookup("GrassmannGraph")(ctx, args.n, args.k)
    t0 = time.perf_counter()
    if args.method == "exact":
        mu, fam = _lookup("metric_dimension_exact")(g, args.limit)
    else:
        fam = _lookup("metric_dimension_greedy")(g)
        mu = None
    elapsed = time.perf_counter() - t0
    if args.json:  # the text is a family file, which -o may take
        _report(args, None, method=args.method, q=args.q, n=args.n, k=args.k,
                size=len(fam), mu=mu, witness=fam.bases.tolist())
        return 0
    stats = f"method={args.method} size={len(fam)} vertices={len(g)} elapsed={elapsed:.2f}s"
    if mu is not None:
        stats = f"mu={mu} " + stats
    _emit([_lookup("format_family")(args.q, args.n, args.k, fam), f"# {stats}\n"], args.output)
    return 0


def _cmd_accept(args) -> int:
    from .acceptance import run_all

    results = run_all()
    passed = all(r.passed for r in results)
    width = max(len(r.title) for r in results)
    table = [f"{r.num:>2}  {r.title:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.elapsed:7.2f}s"
             for r in results]
    good, total = sum(r.passed for r in results), sum(r.elapsed for r in results)
    _report(args, "\n".join([*table, f"{good}/{len(results)} criteria passed ({total:.1f}s)"]),
            passed=passed, criteria=[r.to_json() for r in results])
    for r in results:
        if not (args.json or r.passed):
            print(f"{r.num:>2}  details: {r.details}", file=sys.stderr)
    return 0 if passed else 1


COMMANDS = ("binom", "graph", "spread", "partition", "construct", "verify", "rank",
            "gram", "bounds", "metricdim", "accept")


def build_parser(cmd: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of cmd when cmd names one;
    its usage lists every subcommand either way."""
    p = argparse.ArgumentParser(
        prog="grassmd",
        description="Resolving sets and metric dimension of Grassmann graphs, exactly.")
    only = cmd in COMMANDS
    sub = p.add_subparsers(dest="cmd", required=True,
                           metavar="{" + ",".join(COMMANDS) + "}" if only else None)

    def add(name, fn, help):
        if only and name != cmd:
            return None
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        return sp

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine output to stdout")

    def add_ints(sp, names="qnk", **kw):
        for name in names:
            sp.add_argument(name, type=int, **kw)

    if sp := add("binom", _cmd_binom, "Gaussian binomial [n k]_q"):
        add_ints(sp, "nkq")
        add_json(sp)

    if sp := add("graph", _cmd_graph, "export the graph as an edge list"):
        sp.add_argument("action", choices=["export"])
        add_ints(sp)
        sp.add_argument("-o", "--output", default=None)

    if sp := add("spread", _cmd_spread, "build a t-spread of V(n,q)"):
        add_ints(sp, "qnt")
        sp.add_argument("-o", "--output", default=None)

    if sp := add("partition", _cmd_partition, "build a {k+1,t}-partition of V(n,q)"):
        add_ints(sp)
        sp.add_argument("-o", "--output", default=None)

    if sp := add("construct", _cmd_construct, "build a resolving family"):
        sp.add_argument("method", choices=["spread", "partition", "greedy"])
        add_ints(sp)
        sp.add_argument("-o", "--output", default=None)

    if sp := add("verify", _cmd_verify, "check a family file is resolving"):
        add_ints(sp)
        sp.add_argument("-f", "--family", required=True,
                        help="family file path, or - for stdin")
        add_json(sp)

    if sp := add("rank", _cmd_rank, "incidence rank and the rank certificate"):
        source = sp.add_mutually_exclusive_group()
        source.add_argument("-f", "--family", default=None,
                            help="family file path, or - for stdin")
        source.add_argument("--all", nargs=3, type=int, metavar=("q", "n", "k"),
                            help="use all k-subspaces as the family")
        add_json(sp)

    if sp := add("gram", _cmd_gram, "entrywise Gram closed-form check"):
        add_ints(sp)
        add_json(sp)

    if sp := add("bounds", _cmd_bounds, "metric-dimension bound comparison"):
        add_ints(sp, nargs="?")
        sp.add_argument("--grid", default=None,
                        help="comma-separated q:n:k triples; prints CSV, or one "
                             "JSON object with --json")
        sp.add_argument("--log-base", choices=["e", "2", "10"], default="e")
        add_json(sp)

    if sp := add("metricdim", _cmd_metricdim, "exact or greedy metric dimension"):
        from .search import DEFAULT_EXACT_LIMIT

        sp.add_argument("method", choices=["exact", "greedy"])
        add_ints(sp)
        sp.add_argument("--limit", type=int, default=DEFAULT_EXACT_LIMIT,
                        help="vertex ceiling for the exact search")
        sink = sp.add_mutually_exclusive_group()
        sink.add_argument("-o", "--output", default=None)
        add_json(sink)

    if sp := add("accept", _cmd_accept, "run the acceptance grid"):
        add_json(sp)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a reader that stopped early shows here, not at exit
        return rc
    except BrokenPipeError:  # no input was wrong: stop as SIGPIPE would
        return 141
    except (GrassmdError, OSError) as e:  # BudgetExceeded is a GrassmdError
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> int:
    """`main()` for the `grassmd` command and `python -m grassmd.cli`; what is
    still alive then lives until exit, so it is frozen and shutdown's
    collections skip it.  After a broken pipe, exit flushes to the null device."""
    rc = main()
    if rc == 141:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    return rc


if __name__ == "__main__":
    sys.exit(run())
