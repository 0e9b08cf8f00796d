"""Command-line interface: exit codes, output formats, JSON schema conformance."""

import contextlib
import hashlib
import io
import json
import sys
import time
from importlib.resources import files

import jsonschema
import pytest

from grassmd import cli
from grassmd.famfile import format_family
from grassmd.gfq import field_new
from grassmd.subspaces import enumerate_k_subspaces


SCHEMA = json.loads(files("grassmd").joinpath("schema.json").read_text())


def run(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage failures
                rc = exc.code
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue(), err.getvalue()


def check_schema(payload):
    jsonschema.validate(payload, SCHEMA)


# --- binom ---------------------------------------------------------------


def test_binom_plain_and_json():
    rc, out, _ = run(["binom", "4", "2", "2"])
    assert (rc, out) == (0, "35\n")
    rc, out, _ = run(["binom", "6", "2", "3", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"command": "binom", "n": 6, "k": 2, "q": 3, "value": 11011}
    check_schema(payload)


def test_binom_accepts_any_integer_base():
    # the q-analog is a polynomial in q, so non-prime-power bases still evaluate
    rc, out, _ = run(["binom", "4", "2", "6"])
    assert (rc, out) == (0, "1591\n")


def test_binom_usage_errors():
    assert run(["binom", "4", "5", "2"])[0] == 2  # k > n
    assert run(["binom", "4", "2", "1"])[0] == 2  # base below 2
    assert run(["binom", "4", "2"])[0] == 2  # missing argument
    assert run([])[0] == 2
    assert run(["nosuchcmd"])[0] == 2


# --- construct / verify ---------------------------------------------------


@pytest.mark.parametrize("method", ["greedy", "partition"])
def test_construct_verify_round_trip(method):
    rc, famtext, _ = run(["construct", method, "2", "4", "2"])
    assert rc == 0
    assert famtext.splitlines()[0].startswith("# resolving family for G_2(4,2)")
    rc, out, _ = run(["verify", "2", "4", "2", "-f", "-"], stdin_text=famtext)
    assert rc == 0
    assert out == "RESOLVING\n"


def test_construct_spread_round_trip_json_verify():
    rc, famtext, _ = run(["construct", "spread", "2", "6", "2"])
    assert rc == 0
    rc, out, _ = run(["verify", "2", "6", "2", "-f", "-", "--json"], stdin_text=famtext)
    assert rc == 0
    payload = json.loads(out)
    assert payload["resolving"] is True and payload["family_size"] == 63
    assert payload["collision"] is None
    check_schema(payload)


def test_verify_detects_collision():
    rc, famtext, _ = run(["construct", "greedy", "2", "4", "2"])
    # keep only the first two blocks: far too small to resolve
    two = "2 4 2 2\n" + "\n".join(famtext.splitlines()[2:6]) + "\n"
    rc, out, _ = run(["verify", "2", "4", "2", "-f", "-"], stdin_text=two)
    assert rc == 1
    lines = out.splitlines()
    assert lines[0].startswith("COLLISION ")
    i, j = map(int, lines[0].split()[1:])
    assert 0 <= i < j
    rc, out, _ = run(["verify", "2", "4", "2", "-f", "-", "--json"], stdin_text=two)
    assert rc == 1
    payload = json.loads(out)
    assert payload["resolving"] is False
    assert payload["collision"] == [i, j]
    check_schema(payload)


def test_verify_header_must_match_arguments():
    rc, famtext, _ = run(["construct", "greedy", "2", "4", "2"])
    assert run(["verify", "3", "4", "2", "-f", "-"], stdin_text=famtext)[0] == 2
    assert run(["verify", "2", "5", "2", "-f", "-"], stdin_text=famtext)[0] == 2


def test_verify_missing_file():
    rc, _, err = run(["verify", "2", "4", "2", "-f", "/nonexistent/fam.txt"])
    assert rc == 2
    assert "error:" in err


def test_construct_output_file(tmp_path):
    target = tmp_path / "fam.txt"
    rc, out, _ = run(["construct", "greedy", "2", "4", "2", "-o", str(target)])
    assert rc == 0 and out == ""
    rc2, stdout_text, _ = run(["construct", "greedy", "2", "4", "2"])
    assert target.read_text() == stdout_text


def test_construct_malformed_file_round_trip(tmp_path):
    # tamper with one entry so the block is no longer in echelon form
    rc, famtext, _ = run(["construct", "greedy", "2", "4", "2"])
    lines = famtext.splitlines()
    lines[2] = "1 1 1 1"
    broken = "\n".join(lines) + "\n"
    rc, _, err = run(["verify", "2", "4", "2", "-f", "-"], stdin_text=broken)
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("case", ["verify-dir", "rank-binary", "construct-to-dir"])
def test_unusable_paths_exit_2_with_an_error_line(tmp_path, case):
    # OS and decoding failures are usage errors (exit 2), not the exit 1
    # of a negative verdict, and print one line instead of a traceback
    binary = tmp_path / "fam.bin"
    binary.write_bytes(b"\xff\xfe 2 4 2 1\n")
    argv = {
        "verify-dir": ["verify", "2", "4", "2", "-f", str(tmp_path)],
        "rank-binary": ["rank", "-f", str(binary)],
        "construct-to-dir": ["construct", "spread", "2", "6", "2", "-o", str(tmp_path)],
    }[case]
    rc, out, err = run(argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_huge_field_order_exits_promptly(tmp_path):
    # the order ceiling is checked before q is factored by trial division
    target = tmp_path / "fam.txt"
    target.write_text("1000000000000000003 4 2 0\n")
    t0 = time.perf_counter()
    rc, _, err = run(["verify", "2", "4", "2", "-f", str(target)])
    assert rc == 2 and "exceeds ceiling" in err
    assert time.perf_counter() - t0 < 5


# --- rank / gram ----------------------------------------------------------


def test_rank_all_and_json():
    rc, out, _ = run(["rank", "--all", "2", "4", "2"])
    assert rc == 0
    assert out == "CERTIFIED rank=15 required=15 shape=35x15\n"
    rc, out, _ = run(["rank", "--all", "2", "4", "2", "--json"])
    payload = json.loads(out)
    assert payload["certified"] is True and payload["rank"] == 15
    check_schema(payload)


def test_rank_from_file_inconclusive():
    rc, famtext, _ = run(["construct", "greedy", "2", "4", "2"])
    two = "2 4 2 2\n" + "\n".join(famtext.splitlines()[2:6]) + "\n"
    rc, out, _ = run(["rank", "-f", "-"], stdin_text=two)
    assert rc == 1
    assert out == "INCONCLUSIVE rank=2 required=15 shape=2x15\n"


def test_rank_certified_from_file():
    rc, famtext, _ = run(["construct", "spread", "2", "6", "2"])
    rc, out, _ = run(["rank", "-f", "-"], stdin_text=famtext)
    assert rc == 0
    assert out.startswith("CERTIFIED rank=63 required=63")


def test_rank_source_options_are_exclusive():
    rc, out, err = run(["rank", "-f", "/nonexistent", "--all", "2", "4", "2"])
    assert rc == 2 and out == "" and "not allowed" in err
    rc, out, err = run(["rank"])
    assert rc == 2 and out == "" and "need -f FILE or --all" in err


def test_incidence_cell_ceiling_exits_2(monkeypatch, tmp_path):
    # all 35 vertices of G_2(4,2) fit a budget of 50, but their incidence
    # block, 35 x 15 = 525 cells, is over the 10 * 50 ceiling
    target = tmp_path / "fam.txt"
    subs = enumerate_k_subspaces(field_new(2), 4, 2)
    target.write_text(format_family(2, 4, 2, subs))
    monkeypatch.setenv("GRASSMANN_BUDGET", "50")
    for argv in (["rank", "-f", str(target)], ["rank", "--all", "2", "4", "2"],
                 ["verify", "2", "4", "2", "-f", str(target)]):
        rc, out, err = run(argv)
        assert rc == 2 and out == "" and "incidence cells exceed" in err


def test_gram_plain_and_json():
    rc, out, _ = run(["gram", "2", "4", "2"])
    assert (rc, out) == (0, "GRAM-OK diag=7 offdiag=1\n")
    rc, out, _ = run(["gram", "3", "4", "2", "--json"])
    payload = json.loads(out)
    assert payload["ok"] is True and payload["diag"] == 13 and payload["offdiag"] == 1
    check_schema(payload)


# --- bounds ---------------------------------------------------------------


def test_bounds_single_json():
    rc, out, _ = run(["bounds", "2", "4", "2", "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["babai_M"] == 18 and payload["constructive_bound"] == 15
    check_schema(payload)


def test_bounds_grid_csv():
    rc, out, _ = run(["bounds", "--grid", "2:4:2,2:6:2"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,n,k,num_vertices")
    assert lines[1].startswith("2,4,2,35,")
    assert lines[2].startswith("2,6,2,651,")
    assert run(["bounds", "--grid", "2:4"])[0] == 2  # malformed triple


def test_bounds_log_base():
    rc, out, _ = run(["bounds", "2", "4", "2", "--log-base", "2", "--json"])
    payload = json.loads(out)
    assert payload["log_base"] == "2"
    assert payload["lower_log"] == pytest.approx(5.1293, abs=1e-3)


# --- metricdim ------------------------------------------------------------


def test_metricdim_greedy_plain_and_json():
    rc, out, _ = run(["metricdim", "greedy", "2", "4", "2"])
    assert rc == 0
    assert "# method=greedy size=" in out
    rc, out, _ = run(["metricdim", "greedy", "2", "4", "2", "--json"])
    payload = json.loads(out)
    assert payload["method"] == "greedy" and payload["mu"] is None
    assert payload["size"] >= 6  # exhaustive optimum for this graph
    check_schema(payload)


def test_metricdim_exact_limit_is_enforced():
    rc, _, err = run(["metricdim", "exact", "2", "4", "2", "--limit", "10"])
    assert rc == 2
    assert "exceed" in err


def test_metricdim_witness_verifies():
    rc, famtext, _ = run(["metricdim", "greedy", "2", "4", "2"])
    body = "\n".join(ln for ln in famtext.splitlines() if not ln.startswith("#"))
    rc, out, _ = run(["verify", "2", "4", "2", "-f", "-"], stdin_text=body + "\n")
    assert (rc, out) == (0, "RESOLVING\n")


# --- graph export ---------------------------------------------------------


def test_graph_export(tmp_path):
    rc, out, _ = run(["graph", "export", "2", "4", "2"])
    assert rc == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header == {"q": 2, "n": 4, "k": 2, "vertices": 35, "edges": 315}
    check_schema(header)
    assert len(lines) == 1 + 315
    seen = set()
    for ln in lines[1:]:
        i, j = map(int, ln.split())
        assert 0 <= i < j < 35
        seen.add((i, j))
    assert len(seen) == 315
    target = tmp_path / "graph.txt"
    assert run(["graph", "export", "2", "4", "2", "-o", str(target)])[0] == 0
    assert target.read_text() == out


def test_distance_table_budget_exits_2(monkeypatch):
    # G_2(4,2) has 35 vertices, within a budget of 100, but its 35^2-cell
    # distance table is over the 10 * 100 ceiling
    monkeypatch.setenv("GRASSMANN_BUDGET", "100")
    for argv in (["graph", "export", "2", "4", "2"], ["metricdim", "greedy", "2", "4", "2"]):
        rc, out, err = run(argv)
        assert rc == 2 and out == "" and "exceed" in err


# --- spread / partition export -------------------------------------------


@pytest.mark.parametrize("argv", [
    ["spread", "2", "40", "2"],
    ["construct", "spread", "2", "30", "2"],
    ["partition", "2", "31", "2"],
    ["construct", "partition", "2", "31", "2"],
])
def test_oversized_constructions_exit_2_promptly(argv):
    t0 = time.perf_counter()
    rc, out, err = run(argv)
    assert rc == 2 and out == "" and "exceed" in err
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("argv", [
    ["binom", "200000", "100000", "2"],
    ["bounds", "16", "4000", "1000"],
    ["bounds", "2", "200000", "3"],
])
def test_astronomical_binomials_exit_2_promptly(argv):
    # refused from the digit estimate k(n-k) log10 q before any product is
    # formed; the last one used to end in a traceback printing the value
    t0 = time.perf_counter()
    rc, out, err = run(argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "digits" in err
    assert time.perf_counter() - t0 < 5


def test_construct_partition_2_10_2_is_pinned():
    # 1279 = [10 1]_2 + 2^8 [1 1]_2 members, built over GF(2^9) and GF(2^3)
    rc, out, _ = run(["construct", "partition", "2", "10", "2"])
    assert rc == 0
    assert out.splitlines()[1] == "2 10 2 1279"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8d19552944254366db2a52f4978c21cd9f273db9c4ae4c541792f56a3b574198")


def test_spread_command():
    rc, out, _ = run(["spread", "2", "6", "2"])
    assert rc == 0
    assert "2 6 2 21" in out


def test_partition_command():
    rc, out, _ = run(["partition", "2", "5", "2"])
    assert rc == 0
    # three stacked family sections: spread parts, tail parts, joining subspace
    assert "2 5 3 1" in out
    assert "2 5 2 8" in out
    assert "joining subspace" in out.lower()
    assert run(["partition", "2", "6", "2"])[0] == 2  # no tail when k+1 divides n
