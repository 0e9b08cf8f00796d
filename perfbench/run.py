"""grassmd benchmark: closed-loop CLI workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One client issues one `grassmd` CLI call at a time (`python3 -m
grassmd.cli` on the checkout's `src/`) and waits for it.  A pass runs the
workload's whole job list; passes repeat while another whole one still
fits in `--seconds`, and every time reported is a median, scaled to a
reference speed of the host (see REFERENCE_SRC).  With `--trace 1` the
passes alternate between untraced calls and traced calls, which run each
job through `trace_child.py` and yield the per-layer numbers.  Outputs are
checked after each pass, outside the timed region.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"

# Slowest single call seen is `metricdim exact 2 4 2` at 10-16 s; a call
# that takes four times that is hung and counts as failed.
CALL_DEADLINE_S = 60.0
# Every run must end within 180 s; no call is started or left running
# past this point.
RUN_HARD_LIMIT_S = 150.0
# A no-op call: its wall time is the start-up every subcommand pays.
SETUP_ARGV = ("binom", "2", "1", "2")
SETUP_STDOUT = "3"
# The reference call: fixed code that is not grassmd's.  It starts an
# interpreter, imports numpy and times a pure-Python loop inside itself, so
# one call shows how fast the host just then starts a process like a
# grassmd call and how fast it runs Python code in one.  A shared host's
# speed drifts by tens of percent over minutes, and the two drift apart:
# start-up has sped up by a third while loops kept their pace.  So every
# time is split into start-up (one no-op call's time per call) and the
# rest, and each part is scaled by the reference's median for that part on
# a 2-core Xeon over its median in this run (see HostScale).  Times then
# read as seconds on a host as fast as that one; a change to grassmd moves
# them, a change of host speed mostly does not.  The report prints the
# unscaled times as well.
REFERENCE_SRC = """\
import time
import numpy
def loop():
    acc = 0
    for i in range(2_000_000):
        acc += i * i
t0 = time.perf_counter()
loop()
print(time.perf_counter() - t0)
"""
REFERENCE_STARTUP_S = 0.26
REFERENCE_LOOP_S = 0.19
# Set-up and reference calls are sampled in pairs between jobs, so that
# they take about this share of the run, and they fill what is left of the
# run after its last whole pass.
SAMPLE_SHARE = 0.25

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Counts and times summed over one pass (times are span self times), then
# the median over traced passes.  cli.* come from the untraced passes.
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.construct_s": "s",
    "cli.verify_s": "s",
    "cli.rank_s": "s",
    "cli.metricdim_s": "s",
    "cli.verify_cells_per_s": "cells/s",
    "cli.rank_cells_per_s": "cells/s",
    "famfile.format_s": "s",
    "famfile.parse_s": "s",
    "famfile.rows": "count",
    "subspaces.enumerate_s": "s",
    "subspaces.vertices": "count",
    "constructions.spread_s": "s",
    "constructions.partition_s": "s",
    "constructions.greedy_s": "s",
    "constructions.members": "count",
    "grassmann.graph_s": "s",
    "grassmann.verdict_s": "s",
    "grassmann.codes_q2_s": "s",
    "grassmann.codes_prime_k2_s": "s",
    "grassmann.codes_general_s": "s",
    "grassmann.cells_q2": "count",
    "grassmann.cells_prime_k2": "count",
    "grassmann.cells_general": "count",
    "grassmann.cells_per_s": "cells/s",
    "grassmann.verdicts": "count",
    "grassmann.collisions": "count",
    "rank.incidence_s": "s",
    "rank.incidence_cells": "count",
    "rank.exact_s": "s",
    "rank.fallback_s": "s",
    "rank.modular_decided": "count",
    "rank.fallbacks": "count",
    "rank.modular_decided_frac": "ratio",
    "search.distance_rows_s": "s",
    "search.exact_s": "s",
    "search.greedy_s": "s",
    "search.pairs": "count",
    "search.resolving_size": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

WORKLOADS = ("certify", "reject", "search")
SUBCOMMANDS = ("construct", "verify", "rank", "metricdim")


class HostScale:
    """Maps the times of one run to the reference speed.

    A call's time is its start-up, taken to be the no-op call's median
    time, plus the rest.  Start-up is scaled by how much faster the
    reference call started in this run than on the reference host, and the
    rest by how much faster its loop ran."""

    def __init__(self, setup_s: float, reference: list):
        self.setup_s = setup_s
        if reference:
            self.startup = REFERENCE_STARTUP_S / statistics.median(r[0] for r in reference)
            self.work = REFERENCE_LOOP_S / statistics.median(r[1] for r in reference)
        else:  # every reference call failed, so the run is reported as failed
            self.startup = self.work = 1.0

    def calls(self, total_s: float, n: int) -> float:
        """Scaled time of n calls that took total_s in all."""
        return n * self.setup_s * self.startup + (total_s - n * self.setup_s) * self.work


def host_facts(reference: list) -> dict:
    import mpmath
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "reference_startup_s": statistics.median(r[0] for r in reference) if reference else None,
        "reference_loop_s": statistics.median(r[1] for r in reference) if reference else None,
        "reference_samples": len(reference),
    }


class Runner:
    """Issues calls one at a time and keeps the run's failure count."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup = []
        self.reference = []
        self.sampling_s = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def call(self, cmd: list) -> tuple:
        """(wall seconds, exit code or None if killed, stdout) of one call."""
        budget = min(CALL_DEADLINE_S, RUN_HARD_LIMIT_S - self.elapsed())
        if budget <= 0:
            return 0.0, None, ""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=self.workdir, text=True)
        try:
            out, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return time.perf_counter() - t0, None, ""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return time.perf_counter() - t0, proc.returncode, out

    def record(self, what: str, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")

    def grassmd_cmd(self, argv) -> list:
        return [sys.executable, "-m", "grassmd.cli", *argv]

    def setup_call(self) -> float:
        """Wall time of one no-op call."""
        wall, rc, out = self.call(self.grassmd_cmd(SETUP_ARGV))
        ok = rc == 0 and out.strip() == SETUP_STDOUT
        self.record("setup", None if ok else f"exit {rc}, stdout {out!r}")
        return wall

    def reference_call(self):
        """Keeps (start-up, loop) seconds of one reference call."""
        wall, rc, out = self.call([sys.executable, "-c", REFERENCE_SRC])
        try:
            loop = float(out)
        except ValueError:
            loop = None
        ok = rc == 0 and loop is not None and 0 < loop < wall
        self.record("reference", None if ok else f"exit {rc}, stdout {out!r}")
        if ok:
            self.reference.append((wall - loop, loop))

    def sample_pair(self):
        t0 = time.perf_counter()
        self.setup.append(self.setup_call())
        self.reference_call()
        self.sampling_s += time.perf_counter() - t0

    def sample_host(self):
        """Set-up and reference samples until they have taken SAMPLE_SHARE
        of the run so far; after a long job, several."""
        while (self.sampling_s < SAMPLE_SHARE * self.elapsed()
               and self.elapsed() < RUN_HARD_LIMIT_S):
            self.sample_pair()

    def run_pass(self, jobs, traced: bool, tag: int) -> dict:
        """One pass of the job list; outputs are checked after it ends.
        Its wall time is the sum of its calls, so the host samples taken
        between them do not count."""
        results = []
        for i, job in enumerate(jobs):
            self.sample_host()
            spans_file = self.workdir / f"spans_{tag}_{i}.json"
            if traced:
                cmd = [sys.executable, str(TRACE_CHILD), str(spans_file),
                       repr(time.perf_counter()), str(i), "--", *job.argv]
            else:
                cmd = self.grassmd_cmd(job.argv)
            results.append((spans_file, *self.call(cmd)))
        wall = sum(r[1] for r in results)
        spans = []
        for job, (spans_file, _, rc, out) in zip(jobs, results):
            self.record(" ".join(job.argv), check(job, rc, out))
            if spans_file.exists():
                spans.append(json.loads(spans_file.read_text()))
                spans_file.unlink()
        return {"wall": wall, "walls": [r[1] for r in results], "spans": spans}


def check(job, rc, out) -> str | None:
    if rc is None:
        return "killed at the call deadline"
    if rc != job.expect_rc:
        return f"exit {rc}, expected {job.expect_rc}"
    try:
        return job.check(job, out)
    except Exception as e:  # a malformed output is a failed job, not a crash
        return f"output check raised {type(e).__name__}: {e}"


def subcommand_sums(jobs, p, scale: HostScale) -> dict:
    sums = dict.fromkeys(SUBCOMMANDS, 0.0)
    counts = dict.fromkeys(SUBCOMMANDS, 0)
    cells = {"verify": 0, "rank": 0}
    for job, t in zip(jobs, p["walls"]):
        sums[job.kind] += t
        counts[job.kind] += 1
        if job.kind in cells:
            cells[job.kind] += job.info.get("cells", 0)
    out = {f"{k}_s": scale.calls(v, counts[k]) for k, v in sums.items()}
    for k, c in cells.items():
        out[f"{k}_cells_per_s"] = c / out[f"{k}_s"] if counts[k] else 0.0
    return out


def layer_totals(spans_by_job) -> dict:
    """Per-layer self times and counts of one traced pass."""
    tot = defaultdict(float)
    for spans in spans_by_job:
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s, c in zip(spans, covered):
            tot[s["name"] + "_s"] += s["end"] - s["start"] - c
            layer = s["name"].split(".")[0]
            for key, v in s["counts"].items():
                tot[f"{layer}.{key}"] += v
    codes_s = sum(tot[f"grassmann.codes_{c}_s"] for c in ("q2", "prime_k2", "general"))
    cells = sum(tot[f"grassmann.cells_{c}"] for c in ("q2", "prime_k2", "general"))
    tot["grassmann.cells_per_s"] = cells / codes_s if codes_s else 0.0
    ranks = tot["rank.modular_decided"] + tot["rank.fallbacks"]
    tot["rank.modular_decided_frac"] = tot["rank.modular_decided"] / ranks if ranks else 0.0
    return tot


def median_of(dicts, key) -> float:
    return statistics.median(d.get(key, 0.0) for d in dicts)


def measure(runner, jobs, seconds: float, trace: bool) -> dict:
    # Warm-up, not counted: leaves the bytecode caches an install has.
    runner.setup_call()
    runner.reference_call()
    runner.reference.clear()
    plain, traced = [], []
    while True:
        plain.append(runner.run_pass(jobs, False, len(plain)))
        if trace:
            traced.append(runner.run_pass(jobs, True, len(traced)))
        per_round = runner.elapsed() / len(plain)
        if runner.elapsed() + per_round > min(seconds, RUN_HARD_LIMIT_S):
            break
    while (runner.elapsed() < min(seconds, RUN_HARD_LIMIT_S)
           or (not runner.reference and runner.elapsed() < RUN_HARD_LIMIT_S)):
        runner.sample_pair()
    raw_setup = statistics.median(runner.setup)
    scale = HostScale(raw_setup, runner.reference)
    sums = [subcommand_sums(jobs, p, scale) for p in plain]
    raw_wall = statistics.median(p["wall"] for p in plain)
    out = {
        "wall_s": scale.calls(raw_wall, len(jobs)),
        "setup_s": scale.startup * raw_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "passes": len(plain),
        "scale": scale,
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
    }
    out.update({k: median_of(sums, k) for k in sums[0]})
    if trace:
        layers = [layer_totals(p["spans"]) for p in traced]
        out.update({name: median_of(layers, name) for name in PER_LAYER})
        for name, unit in PER_LAYER.items():
            factor = scale.startup if name == "cli.startup_s" else scale.work
            if unit == "s":
                out[name] *= factor
            elif unit == "cells/s":
                out[name] /= factor
        out.update({f"cli.{k}": out[k] for k in sums[0]})
        out["trace.wall_s"] = scale.calls(statistics.median(p["wall"] for p in traced), len(jobs))
        out["trace.overhead_s"] = out["trace.wall_s"] - out["wall_s"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "grassmd" / "cli.py").is_file():
        print(f"error: no grassmd sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import make_jobs

    # SIGTERM unwinds like an exception, so the running call is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    build = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not build.is_absolute():
        build = ROOT / build
    build.mkdir(parents=True, exist_ok=True)
    workdir = build / f"perfbench-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        jobs = make_jobs(args.workload, args.seed, workdir)
        res = measure(runner, jobs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host = host_facts(runner.reference)

    print(f"host: {json.dumps(host)}")
    print(f"workload={args.workload} seed={args.seed} passes={res['passes']} "
          f"jobs/pass={len(jobs)} setup samples={len(runner.setup)} closed loop, 1 client")
    print(f"  scale to reference speed: start-up x{res['scale'].startup:.4f}, "
          f"rest x{res['scale'].work:.4f}; unscaled wall_s {res['raw_wall_s']:.6g} s, "
          f"setup_s {res['raw_setup_s']:.6g} s")
    for k in ("construct_s", "verify_s", "rank_s", "metricdim_s",
              "verify_cells_per_s", "rank_cells_per_s"):
        print(f"  {k:<22} {res[k]:.6g}")
    fail_frac = runner.failed / runner.attempted
    print(f"  {'fail_frac':<22} {fail_frac:.6g}  ({runner.failed} of {runner.attempted})")
    for e in runner.errors:
        print(f"  FAIL {e}")
    declared = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": res[name], "unit": unit} for name, unit in declared.items()}
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    correct = runner.failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
