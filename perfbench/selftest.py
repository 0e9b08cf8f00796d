"""Fast tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import ast
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import grassmd  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_byte_identical_reject_files(tmp_path):
    files = {}
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        d = tmp_path / name
        d.mkdir()
        workloads.make_jobs("reject", seed, d)
        files[name] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    assert files["a"] == files["b"]
    assert files["a"].keys() == files["c"].keys()
    assert files["a"] != files["c"]


def test_small_reject_family_is_rank_deficient_and_not_resolving():
    q, n, k = 2, 5, 2
    fam = workloads.reject_family(random.Random(0), q, n, k, 20)
    assert len(fam) == 20
    cert = grassmd.certify_resolving_by_rank(fam)
    assert not cert.certified
    assert cert.rank <= grassmd.gaussian_binomial(n - 1, 1, q)
    g = grassmd.GrassmannGraph(grassmd.field_new(q), n, k)
    verdict = grassmd.is_resolving(fam, g)
    assert not verdict.resolving
    a, b = verdict.pair
    assert all(grassmd.distance(a, u) == grassmd.distance(b, u) for u in fam)


def test_host_scale_cancels_host_speed_but_not_program_changes():
    ref = [(run.REFERENCE_STARTUP_S, run.REFERENCE_LOOP_S)] * 3
    # 4 calls, 0.3 s of start-up each and 8.8 s of work in all, on the
    # reference host ...
    assert abs(run.HostScale(0.3, ref).calls(10.0, 4) - 10.0) < 1e-9
    # ... and on a host that starts processes 1.5x and runs loops 2x slower.
    slow = [(1.5 * a, 2 * b) for a, b in ref]
    assert abs(run.HostScale(0.45, slow).calls(4 * 0.45 + 2 * 8.8, 4) - 10.0) < 1e-9
    # 50 ms more start-up per call shows in full on the slow host too.
    assert abs(run.HostScale(0.525, slow).calls(4 * 0.525 + 2 * 8.8, 4) - 10.2) < 1e-9


def test_metric_names_are_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == printed
        assert all(pattern.fullmatch(name) for name in printed)
    assert spec["workloads"] and {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def _private_names(tree) -> list:
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("grassmd"):
            bad.extend(a.name for a in node.names if a.name.startswith("_"))
            continue
        else:
            continue
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            bad.append(name)
    return bad


def test_traced_runner_uses_no_private_grassmd_name():
    source = (HERE / "trace_child.py").read_text()
    assert _private_names(ast.parse(source)) == []
    assert not re.search(r"grassmd\.\w*\._", source)


def _traced(tmp_path, job, argv):
    spans_file = tmp_path / f"spans_{job}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "trace_child.py"), str(spans_file), "0", str(job), "--",
         *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return proc, json.loads(spans_file.read_text())


def test_traced_call_mirrors_the_cli(tmp_path):
    q, n, k = 2, 5, 2
    fam = workloads.reject_family(random.Random(0), q, n, k, 20)
    f = tmp_path / "fam.txt"
    f.write_text(grassmd.format_family(q, n, k, fam))

    proc, rank_spans = _traced(tmp_path, 0, ["rank", "-f", str(f), "--json"])
    assert proc.returncode == 1 and not json.loads(proc.stdout)["certified"]
    names = [s["name"] for s in rank_spans]
    # `grassmd rank -f` builds the incidence matrix twice.
    assert names.count("rank.incidence") == 2
    exact = names.index("rank.exact")
    fallback = rank_spans[names.index("rank.fallback")]
    assert fallback["parent"] == exact

    proc, verify_spans = _traced(tmp_path, 1, ["verify", "2", "5", "2", "-f", str(f)])
    assert proc.returncode == 1 and proc.stdout.startswith("COLLISION")
    by_name = {s["name"]: i for i, s in enumerate(verify_spans)}
    assert verify_spans[by_name["grassmann.codes_q2"]]["parent"] == by_name["grassmann.verdict"]
    assert verify_spans[by_name["subspaces.enumerate"]]["parent"] == by_name["grassmann.graph"]

    totals = run.layer_totals([rank_spans, verify_spans])
    assert set(totals) <= set(run.PER_LAYER)
    assert totals["rank.fallbacks"] == 1 and totals["grassmann.collisions"] == 1
    assert totals["grassmann.cells_q2"] == grassmd.gaussian_binomial(n, k, q) * len(fam)
