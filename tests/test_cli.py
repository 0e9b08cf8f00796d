"""Command-line interface: exit codes, output formats, JSON schema conformance."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tomllib
import tracemalloc
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grassmd import cli
from grassmd.famfile import format_family, parse_family
from grassmd.gfq import field_new
from grassmd.subspaces import SubspaceFamily, enumerate_k_subspaces


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


def parse_outcome(parser, argv):
    """Exit code, stdout and stderr of parsing argv, or the parsed namespace."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("cmd", cli.COMMANDS)
def test_one_subcommand_parser_reads_like_the_full_one(cmd):
    # a call naming a subcommand builds only its subparser; help, usage
    # errors and parses must not tell the two parsers apart
    full, one = cli.build_parser(), cli.build_parser(cmd)
    assert "{" + ",".join(cli.COMMANDS) + "}" in full.format_usage()
    for argv in ([cmd, "--help"], [cmd], [cmd, "--bogus"], [cmd, "2", "x"]):
        assert parse_outcome(one, argv) == parse_outcome(full, argv), argv


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


def test_token_past_the_int_digit_limit_exits_2():
    # a 5000-digit entry matches the token grammar but int() refuses it;
    # it is a malformed file (exit 2), not a collision or INCONCLUSIVE (1)
    text = "2 4 2 1\n1 0 0 0\n0 1 0 " + "1" * 5000 + "\n"
    for argv in (["verify", "2", "4", "2", "-f", "-"], ["rank", "-f", "-"]):
        rc, out, err = run(argv, stdin_text=text)
        assert rc == 2 and out == "" and "line 3: non-integer" in err


@pytest.mark.parametrize("text,message", [
    ("2 3000000000 3000000000 0\n", "empty family"),
    ("2 1000000000000000000000 2 1\n1 0\n0 1\n",
     "block 0: data shape does not match 2x1000000000000000000000"),
])
def test_headers_no_array_can_hold_exit_2(text, message):
    # k x n is past numpy's limits; only complete blocks may shape an array
    rc, out, err = run(["rank", "-f", "-"], stdin_text=text)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("case", ["verify-dir", "rank-binary", "construct-to-dir",
                                  "export-to-full-device"])
def test_unusable_paths_exit_2_with_an_error_line(tmp_path, case):
    # OS and decoding failures are usage errors (exit 2), not the exit 1
    # of a negative verdict, and print one line instead of a traceback
    binary = tmp_path / "fam.bin"
    binary.write_bytes(b"\xff\xfe 2 4 2 1\n")
    argv = {
        "verify-dir": ["verify", "2", "4", "2", "-f", str(tmp_path)],
        "rank-binary": ["rank", "-f", str(binary)],
        "construct-to-dir": ["construct", "spread", "2", "6", "2", "-o", str(tmp_path)],
        # a failed write is an OSError like a broken pipe, but still exit 2
        "export-to-full-device": ["graph", "export", "2", "4", "2", "-o", "/dev/full"],
    }[case]
    rc, out, err = run(argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_huge_field_order_exits_promptly(tmp_path):
    # the order ceiling is checked before q is factored
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
    target.write_text(format_family(2, 4, 2, SubspaceFamily(subs)))
    monkeypatch.setenv("GRASSMANN_BUDGET", "50")
    for argv in (["rank", "-f", str(target)], ["rank", "--all", "2", "4", "2"],
                 ["verify", "2", "4", "2", "-f", str(target)]):
        rc, out, err = run(argv)
        assert rc == 2 and out == "" and "incidence cells exceed" in err


@pytest.mark.parametrize("argv,out", [
    (["2", "9", "2"], "GRAM-OK diag=255 offdiag=1\n"),
    (["3", "7", "2"], "GRAM-OK diag=364 offdiag=1\n"),
    (["2", "8", "3"], "GRAM-OK diag=2667 offdiag=63\n"),
])
def test_gram_is_not_limited_by_an_incidence_block(argv, out):
    # 43435 x 511, 99463 x 1093 and 97155 x 255 incidence cells, all over
    # the 10^7 ceiling; the Gram tables hold at most 1093^2 cells
    assert run(["gram", *argv]) == (0, out, "")


def test_gram_refuses_k_equal_to_n():
    # k = n leaves one vertex and diag = offdiag, so b = 0 and the closed
    # form certifies nothing; the table itself would match it
    for argv in (["2", "3", "3"], ["3", "4", "4", "--json"]):
        rc, out, err = run(["gram", *argv])
        assert (rc, out) == (2, "") and "need 2 <= k < n" in err


@pytest.mark.parametrize("n,budget,err", [
    # N^2 for N = [10000 1]_2 has 6021 digits, past the 4300 Python prints
    ("10000", None, "about 10^6021 Gram cells exceed ceiling 10000000"),
    # a 4300-digit budget makes a 4301-digit ceiling
    ("7200", "9" * 4300, "about 10^4335 Gram cells exceed ceiling about 10^4301"),
])
def test_budget_refusals_past_the_digits_python_prints(monkeypatch, n, budget, err):
    if budget is not None:
        monkeypatch.setenv("GRASSMANN_BUDGET", budget)
    proc = run_process(["gram", "2", n, "2"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {err}\n")


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
    assert payload["lower_bound"] == 5
    check_schema(payload)


def test_bounds_grid_csv():
    rc, out, _ = run(["bounds", "--grid", "2:4:2,2:6:2"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,n,k,num_vertices")
    assert lines[1].startswith("2,4,2,35,")
    assert lines[2].startswith("2,6,2,651,")
    assert run(["bounds", "--grid", "2:4"])[0] == 2  # malformed triple


def test_bounds_grid_json_is_one_object():
    rc, out, _ = run(["bounds", "--grid", "2:4:2,3:6:2", "--json"])
    assert rc == 0 and out.count("\n") == 1
    payload = json.loads(out)
    check_schema(payload)
    singles = [json.loads(run(["bounds", *qnk, "--json"])[1])
               for qnk in (["2", "4", "2"], ["3", "6", "2"])]
    for single in singles:
        del single["command"]
    assert payload == {"command": "bounds", "grid": singles}


# SHA-256 of these outputs once the integer lower bound m + D^m >= N joined
# them; apart from it (a JSON field, a CSV column, one text line, and
# `log_k N` relabelled as an estimate) they are the outputs pinned since
# `bounds` was imported on demand and BoundsReport became a NamedTuple
@pytest.mark.parametrize("argv,digest", [
    (["2", "4", "2", "--json"], "7536d36e1729ce7b949d574468909936619671b61dfe289162d6eea0ca2c8e68"),
    (["3", "6", "2"], "aa0907e0f0ec1fa05eb2a2a2545a08e8a157c92e62c45f66b3862a4ab1abc15b"),
    (["--grid", "2:4:2,3:6:2"], "9c1dfb42a1bdae60031defbbb4af49ddda8207f12a666cec0fb17e99ce60d4ab"),
])
def test_bounds_output_is_pinned(argv, digest):
    rc, out, _ = run(["bounds", *argv])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("qnk", [["2", "4", "2"], ["2"]])
def test_bounds_grid_excludes_positionals(qnk):
    rc, out, err = run(["bounds", *qnk, "--grid", "3:4:2"])
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "--grid" in err


@pytest.mark.parametrize("argv,err", [
    # there is no field GF(6), so no graph G_6(4,2) to bound
    (["6", "4", "2"], "6 is not a prime power"),
    (["--grid", "2:4:2,6:4:2"], "6 is not a prime power"),
    (["--grid", "2:4:2,6:4:2", "--json"], "6 is not a prime power"),
    # every report is built before the CSV header is printed
    (["--grid", "2:4:2,2:4:3"], "need 2 <= k <= n/2, got n=4 k=3"),
    # a shape outside 2 <= k <= n/2 is named as it was given
    (["2", "0", "0"], "need 2 <= k <= n/2, got n=0 k=0"),
    (["2", "4", "1", "--json"], "need 2 <= k <= n/2, got n=4 k=1"),
])
def test_bounds_refusals_print_nothing(argv, err):
    assert run(["bounds", *argv]) == (2, "", f"error: {err}\n")


def test_bounds_log_base():
    rc, out, _ = run(["bounds", "2", "4", "2", "--log-base", "2", "--json"])
    payload = json.loads(out)
    assert payload["log_base"] == "2"
    assert payload["lower_log"] == pytest.approx(5.1293, abs=1e-3)


# --- accept ---------------------------------------------------------------


def test_accept_reports_a_failed_criterion(monkeypatch):
    from grassmd import acceptance

    results = [acceptance.CriterionResult(1, "first", True, 0.5, {}),
               acceptance.CriterionResult(2, "second check", False, 1.25, {"why": "no"})]
    monkeypatch.setattr(acceptance, "run_all", lambda: results)
    assert run(["accept"]) == (1, " 1  first         PASS     0.50s\n"
                                  " 2  second check  FAIL     1.25s\n"
                                  "1/2 criteria passed (1.8s)\n",
                               " 2  details: {'why': 'no'}\n")
    rc, out, err = run(["accept", "--json"])
    assert (rc, err) == (1, "")
    assert json.loads(out) == {"command": "accept", "passed": False,
                               "criteria": [r.to_json() for r in results]}


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


@pytest.mark.parametrize("argv,digest", [
    (["greedy", "3", "4", "2"], "a667a48fd129c971602f369ede39c47f95fa856f8cee7f808e56c3c78566a438"),
    (["greedy", "2", "5", "2"], "82268c43dc2bccb687789d410a93ec7cfc1b5ea5678c9071be5ea2ddaeabbd44"),
    (["greedy", "4", "4", "2"], "f5795f689f8054a420a5e66de875807501bbc655eaf0d8a597a15765c6709331"),
    (["exact", "2", "4", "2"], "52549d033572bf1251cfc4cfaf38b5f235ac93222d6851aba12b6fda1875447b"),
])
def test_metricdim_json_is_pinned(argv, digest):
    rc, out, _ = run(["metricdim", *argv, "--json"])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_metricdim_json_and_output_file_are_exclusive(monkeypatch, tmp_path):
    # --json prints the witness and -o writes the family text, so the pair
    # is a usage error, refused before the graph is enumerated
    def no_graph(*args):
        raise AssertionError("the graph was enumerated")

    monkeypatch.setattr(cli, "GrassmannGraph", no_graph)
    target = tmp_path / "f"
    rc, out, err = run(["metricdim", "greedy", "2", "4", "2", "--json", "-o", str(target)])
    assert (rc, out) == (2, "") and "not allowed with argument --json" in err
    assert not target.exists()


def test_metricdim_exact_limit_is_enforced():
    rc, _, err = run(["metricdim", "exact", "2", "4", "2", "--limit", "10"])
    assert rc == 2
    assert "exceed" in err


@pytest.mark.parametrize("n,vertices", [(10, 174251), (12, 2794155)])
def test_metricdim_exact_refuses_over_limit_before_enumerating(monkeypatch, n, vertices):
    # [n 2]_2 alone decides the refusal: the graph is never built, so the
    # enumeration budget (2794155 > 10^6) is not what refuses G_2(12,2)
    def no_graph(*args):
        raise AssertionError("the graph was enumerated")

    monkeypatch.setattr(cli, "GrassmannGraph", no_graph, raising=False)
    rc, out, err = run(["metricdim", "exact", "2", str(n), "2"])
    assert (rc, out) == (2, "")
    assert err == f"error: {vertices} vertices exceed exact-search limit 120\n"


def test_metricdim_exact_reports_field_and_shape_before_the_limit():
    assert run(["metricdim", "exact", "6", "12", "2"])[2] == "error: 6 is not a prime power\n"
    rc, _, err = run(["metricdim", "exact", "2", "12", "7"])
    assert (rc, err) == (2, "error: need 2 <= k <= n/2, got n=12 k=7\n")


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


@pytest.mark.parametrize("argv,digest", [
    (["2", "4", "2"], "11abf56f56932f217e431ecae5bdf4b23b3fc42e06cf3e0a76bd9a4304728316"),
    (["3", "5", "2"], "05d65ea32c434da3995b1fa5508bffeffa3994f5bf3f39b7eccc633f72d4341b"),
    (["2", "6", "3"], "52ddbfe3acd458507072fea49ed1ced213bd03ec0a3bbc7ee295a57622526ed8"),
    (["2", "7", "2"], "e47038cc5e2915e076bd7fb6854882fdc01c91f46f5b1009de209f36dcce8f57"),
])
def test_graph_export_is_pinned(argv, digest):
    rc, out, _ = run(["graph", "export", *argv])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_graph_export_writes_edges_as_it_finds_them(tmp_path):
    # G_2(7,2): 2667 vertices, 248031 edges; no list of all edges or lines
    # is held, so the call peaks near the V^2-byte distance table
    target = tmp_path / "graph.txt"
    tracemalloc.start()
    try:
        rc = cli.main(["graph", "export", "2", "7", "2", "-o", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert json.loads(target.read_text().split("\n", 1)[0])["edges"] == 248031
    assert peak < 1.5 * 2667**2


def test_distance_table_budget_exits_2(monkeypatch):
    # G_2(4,2) has 35 vertices, within a budget of 100, but its 35^2-cell
    # distance table is over the 10 * 100 ceiling
    monkeypatch.setenv("GRASSMANN_BUDGET", "100")
    for argv in (["graph", "export", "2", "4", "2"], ["metricdim", "greedy", "2", "4", "2"]):
        rc, out, err = run(argv)
        assert rc == 2 and out == "" and "exceed" in err


@pytest.mark.parametrize("argv,budget,err", [
    (["verify", "2", "4", "2", "-f", "{hyperplane}"], "10", "35 2-subspaces exceed budget 10"),
    (["rank", "--all", "2", "40", "2"], "1000000",
     "201487636601888439970475 2-subspaces exceed budget 1000000"),
])
def test_budget_messages_name_what_they_count(tmp_path, monkeypatch, argv, budget, err):
    hyperplane = write_hyperplane_family(tmp_path / "hyperplane.txt")
    monkeypatch.setenv("GRASSMANN_BUDGET", budget)
    assert run([a.format(hyperplane=hyperplane) for a in argv]) == (2, "", f"error: {err}\n")


# --- spread / partition export -------------------------------------------


@pytest.mark.parametrize("argv", [
    ["spread", "2", "40", "2"],
    ["construct", "spread", "2", "30", "2"],
    ["partition", "2", "31", "2"],
    ["construct", "partition", "2", "31", "2"],
    # the extension degree is checked before q^s is formed
    ["partition", "2", "3000000001", "2"],
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
    ["spread", "2", "20000", "1"],
    ["construct", "partition", "2", "100000001", "2"],
    ["spread", "2", "3000000000", "3000000000"],
    ["construct", "partition", "2", "3000000001", "2"],
])
def test_astronomical_binomials_exit_2_promptly(argv):
    # refused from the digit estimate k(n-k) log10 q before any product is
    # formed, so no count too long to print and no power of q with n in the
    # billions is computed
    t0 = time.perf_counter()
    rc, out, err = run(argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "digits" in err and err.count("\n") == 1
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("argv", [
    ["bounds", str(2**61 - 1), "4", "2"],
    ["bounds", str(2**3217 - 1), "6", "3"],
    ["bounds", "--grid", f"2:4:2,{2**61 - 1}:4:2"],
])
def test_huge_field_orders_exit_2_promptly(argv):
    # a q above gfq.FACTOR_MAX_ORDER is refused before it is factored;
    # the trial division that once factored q took minutes for 2^61 - 1
    t0 = time.perf_counter()
    rc, out, err = run(argv)
    assert rc == 2 and out == "" and "exceeds ceiling" in err
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_bounds_beyond_float_range_exit_2(extra):
    # [1900 7]_2 has 3990 digits: allowed, but sqrt(N) overflows a float,
    # and `--json` would print the non-JSON token Infinity
    rc, out, err = run(["bounds", "2", "1900", "7", *extra])
    assert rc == 2 and "inf" not in out.lower()
    assert err.startswith("error:") and "float" in err


# SHA-256 of `construct` on the benchmark's certify grid, the same values
# as perfbench/workloads.py's CONSTRUCT_SHA256: the family file is a
# byte-identical contract
CONSTRUCT_SHA256 = {
    ("spread", 2, 6, 2): "eb4da157e319abe814dc3b6f6791242df219b1aab69e2eaee55e585a6e23f056",
    ("spread", 3, 6, 2): "197a378cc5ad5196ca53be6890b960d928df4656017cba7e16456fc70dd86803",
    ("partition", 2, 7, 2): "b759690e03b0d352da2548e85a67cd9abc68be48da14bbf3a31a0ea5d7fd8fc5",
    ("partition", 3, 5, 2): "8244833244b32c62933a6e013c03752e5fa80405a6eef2841350777ec8842009",
    ("partition", 4, 4, 2): "1ef2f6b6f13d70d98c7ec9b6d7fc7974a7bb0c936b6482886ea7236bed1682d1",
    ("greedy", 4, 4, 2): "7616b05d525e14998a4922cb724d0a00efef2f3775ed924ab4ba1456df4a5c0f",
}


@pytest.mark.parametrize("instance", sorted(CONSTRUCT_SHA256))
def test_construct_is_pinned(instance):
    rc, out, _ = run(["construct", *map(str, instance)])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_SHA256[instance]


# SHA-256 of the stdout of family exports and of the all-vertex rank,
# taken before families became one basis array
@pytest.mark.parametrize("argv,digest", [
    (["spread", "2", "6", "3"], "203458bfb44faa84a3a46a4187b8ad1e21db88733c55047a6a243997e3c27341"),
    (["spread", "3", "6", "2"], "4e69f1821f749a55dd567d5ba2ae774e6a9c8156a94c2f0d812803d8bf0b4365"),
    (["partition", "2", "7", "2"], "b6481756c65cc50a1b6c038c1d4a415ca8afea21f582629ea7a02bf39eaf78e1"),
    (["partition", "3", "5", "2"], "0d64be393de3108790c4788210e76c5b4c65113cf0cd5ceadc879577ab6dcfee"),
    (["rank", "--all", "2", "6", "2", "--json"],
     "df276ed92660187fd967e389793c76dd8cc05cd6bc3874ac465ad8751655858b"),
])
def test_family_exports_and_all_vertex_rank_are_pinned(argv, digest):
    rc, out, _ = run(argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 and exit code of results printed while each handler held its own
# `--json` branch and verify printed a collision through `Subspace.to_text`;
# {spread} is `construct spread 2 6 2`'s family, {hyperplane} the colliding
# family of write_hyperplane_family
@pytest.mark.parametrize("argv,code,digest", [
    (["binom", "4", "2", "2"], 0, "90d7ec0f0acef104d8b6252794295f661a0149634868d02a1ae0c358099638f5"),
    (["binom", "6", "2", "3", "--json"], 0,
     "0a530c6205ffa661c394f775879bf2a57ca1b4eb4dcdac976252c99af7efab38"),
    (["verify", "2", "6", "2", "-f", "{spread}"], 0,
     "b3dd9a00ba694f6e7a60e44723e7dea589735a8007a3cc65c66644d583d8a705"),
    (["verify", "2", "4", "2", "-f", "{hyperplane}"], 1,
     "980259ffa430bfeec919ef363fbc6ba907c0f414145506511fb04f93f803564f"),
    (["verify", "2", "4", "2", "-f", "{hyperplane}", "--json"], 1,
     "3bf0241df6f2905b1b9e5289546be347f9baa9c0963bbf8aa9b105fa2c5457e6"),
    (["rank", "-f", "{hyperplane}"], 1, "4dd35a58a71927fd51c6d105db4b2786a90dbdaddc80b7f80e90a4d96533c356"),
    (["rank", "-f", "{spread}", "--json"], 0,
     "9ebe0c1c38334ead93873d8df89eb150d72fc02d237900f7eac1eeb1292ae09e"),
    (["rank", "--all", "3", "4", "2"], 0, "1c925f21b57f9c6e22cfe7327bf1dc48203e1c6ea6507c7b4db5248008913193"),
    (["rank", "--all", "2", "5", "2", "--json"], 0,
     "92b925af87cabe9db5949cbc44bff11126fe375bb1798f525cf3255769a622aa"),
    (["gram", "3", "5", "2"], 0, "0846456b9e422d656d453bbd1dac4ab0fc946d7aae631f8c216d2e2a67cf192f"),
    (["gram", "2", "6", "3", "--json"], 0,
     "e352ce8ec63484441114b81065c57e7abb37fc92183f6a54655bcfa723f416c6"),
    (["bounds", "2", "4", "2"], 0, "03077358810ffc59f105b2d63e51944a6231d9d21a901681bb802461b40728d3"),
    (["bounds", "4", "7", "3", "--log-base", "10"], 0,
     "2f3265590019311e525c0379347a3e27334ddb4ec105164dea5961668be70c94"),
])
def test_results_are_pinned(tmp_path, argv, code, digest):
    spread = tmp_path / "spread.txt"
    spread.write_text(run(["construct", "spread", "2", "6", "2"])[1])
    hyperplane = write_hyperplane_family(tmp_path / "hyperplane.txt")
    rc, out, _ = run([a.format(spread=spread, hyperplane=hyperplane) for a in argv])
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_partition_2_10_2_is_pinned():
    # 1279 = [10 1]_2 + 2^8 [1 1]_2 members, built over GF(2^9) and GF(2^3)
    rc, out, _ = run(["construct", "partition", "2", "10", "2"])
    assert rc == 0
    assert out.splitlines()[1] == "2 10 2 1279"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8d19552944254366db2a52f4978c21cd9f273db9c4ae4c541792f56a3b574198")


# SHA-256 of the stdout of constructions over GF(q^t) beyond the benchmark
# grid, taken while GF(q^t) products were polynomial products
@pytest.mark.parametrize("argv,digest", [
    (["spread", "2", "12", "4"], "031640ca4d9a385c2e4fce28081e0412837799a5b86090fe6827cd51924564ac"),
    (["spread", "4", "6", "3"], "0fef8f640e169ef6624c0ced546b419795505d11f4c379d68470f3d91b84d6b9"),
    (["spread", "3", "8", "2"], "b27dcd37ebedf66ac60528d77a83e3d6577f0eb947eb66c4bdfcdaf840970078"),
    (["spread", "2", "14", "7"], "a43befce1bad2c37292d0342f641ec45dac199db6f4c91f493fef16d50a31b10"),
    (["partition", "2", "11", "3"], "84946f167b5224feacaedc82df6ab0b286710634e6b5caaba8360c27f113a88a"),
    (["partition", "4", "5", "2"], "d4eeff0ae47eeda10437c0b1839b0ba9f7916ed95d9aa66d12e73c902c743cbc"),
    (["construct", "partition", "3", "7", "2"],
     "a4a8b1be5c4c834f4ba58be58559583767a6855a702631cc09fa3beb186bd75d"),
    (["construct", "spread", "2", "12", "2"],
     "3b2431d710422179afe9cdf6821ad8fa04608e72022a9aeee9cb238eedf577d4"),
    (["construct", "partition", "2", "11", "2"],
     "ebda09b01a7fc1ecab443b45c6d7819d85356af1aca76f8daf7ef31e821085a0"),
])
def test_extension_field_constructions_are_pinned(argv, digest):
    rc, out, _ = run(argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


# --- the command as a process ------------------------------------------------


def child_env():
    """The environment of a child process that imports this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_process(argv, entry=("-m", "grassmd.cli")):
    """`python ENTRY ARGV` in a child process, on this checkout; ENTRY is
    `-m grassmd.cli` unless given."""
    return subprocess.run([sys.executable, *entry, *argv], env=child_env(),
                          capture_output=True, text=True)


def write_hyperplane_family(path):
    """The 2-subspaces of the hyperplane x_4 = 0 of V(4,2): lines outside it
    that meet it in the same point have the same code."""
    ctx = field_new(2)
    fam = [s for s in enumerate_k_subspaces(ctx, 4, 2)
           if all(row[3] == 0 for row in s.basis.data)]
    path.write_text(format_family(2, 4, 2, SubspaceFamily(fam)))
    return str(path)


def script_target():
    """The installed `grassmd` command's target, `module:function`, from pyproject.toml."""
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]["scripts"]["grassmd"]


def test_the_command_runs_what_the_main_block_runs():
    tree = ast.parse(Path(cli.__file__).read_text())
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    [stmt] = block.body
    call = stmt.value.args[0]
    assert ast.unparse(stmt) == f"sys.exit({call.func.id}())"
    assert script_target() == f"grassmd.cli:{call.func.id}"


def test_the_command_exits_like_python_m(tmp_path):
    # the entry the installed script runs, `sys.exit(function())`, against
    # `python -m grassmd.cli`: a resolving family, a collision, a usage error
    module, function = script_target().split(":")
    script = ("-c", f"import sys; from {module} import {function}; sys.exit({function}())")
    spread = tmp_path / "spread.txt"
    spread.write_text(run(["construct", "spread", "2", "6", "2"])[1])
    cases = [["verify", "2", "6", "2", "-f", str(spread)],
             ["verify", "2", "4", "2", "-f", write_hyperplane_family(tmp_path / "h.txt")],
             ["metricdim", "greedy", "2", "4", "2", "--json", "-o", str(tmp_path / "f")]]
    codes = []
    for argv in cases:
        by_script, by_module = run_process(argv, script), run_process(argv)
        assert (by_script.returncode, by_script.stdout, by_script.stderr) == (
            by_module.returncode, by_module.stdout, by_module.stderr), argv
        codes.append(by_module.returncode)
    assert codes == [0, 1, 2]


def test_process_exit_0_writes_the_output_file(tmp_path):
    target = tmp_path / "fam.txt"
    proc = run_process(["construct", "greedy", "2", "4", "2", "-o", str(target)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert target.read_bytes() == run(["construct", "greedy", "2", "4", "2"])[1].encode()


def test_process_exit_1_prints_the_whole_json_line(tmp_path):
    target = write_hyperplane_family(tmp_path / "hyperplane.txt")
    argv = ["verify", "2", "4", "2", "-f", target, "--json"]
    proc = run_process(argv)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == run(argv)[1]
    assert proc.stdout.endswith("}\n") and json.loads(proc.stdout)["resolving"] is False


def test_a_reader_that_stops_early_gets_exit_141():
    # 248031 edges fill the pipe long before the reader closes it; the
    # broken pipe is no input error (exit 2) and prints nothing
    proc = subprocess.Popen([sys.executable, "-m", "grassmd.cli", "graph", "export", "2", "7", "2"],
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(proc.stdout.readline())["edges"] == 248031
    proc.stdout.close()
    assert (proc.wait(), proc.stderr.read()) == (141, b"")
    proc.stderr.close()


def test_one_function_prints_json():
    # every --json document is printed by _report; graph export's header
    # line is the one other JSON text
    tree = ast.parse(Path(cli.__file__).read_text())
    callers = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "json.dumps"}
    assert callers == {"_report", "_cmd_graph"}
    # famfile.format_rows is the one writer of basis rows as text
    sources = Path(cli.__file__).parent.glob("*.py")
    assert not [(path.name, node.name) for path in sources
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "to_text" for f in node.body)]


def test_process_exit_2_prints_an_error_line():
    proc = run_process(["spread", "2", "4", "0"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# --- no input ends in a traceback ------------------------------------------


# outside each command's domain: a dimension below 1, a non-integer grid entry
BAD_INPUTS = [
    ["spread", "2", "4", "0"],
    ["spread", "2", "-1", "1"],
    ["spread", "2", "0", "1"],
    ["bounds", "--grid", "a:b:c"],
    ["bounds", "--grid", "2.0:4:2"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS)
def test_bad_inputs_exit_2_with_an_error_line(argv):
    rc, out, err = run(argv)
    assert (rc, out) == (2, "") and err.startswith("error:")


@pytest.mark.parametrize("argv", [["rank"], ["verify", "2", "4", "2"]])
def test_empty_family_file_exits_2(tmp_path, argv):
    path = tmp_path / "empty.txt"
    path.write_text("2 4 2 0\n")
    rc, out, err = run(argv + ["-f", str(path)])
    assert (rc, out, err) == (2, "", "error: empty family\n")


QNK_COMMANDS = [["binom"], ["spread"], ["partition"], ["construct", "spread"],
                ["construct", "partition"], ["construct", "greedy"], ["gram"], ["bounds"],
                ["rank", "--all"], ["graph", "export"], ["metricdim", "greedy"],
                ["metricdim", "exact"]]


@st.composite
def qnk_argv(draw):
    cmd = draw(st.sampled_from(QNK_COMMANDS))
    q, n, k = (str(draw(st.integers(-1, 6))) for _ in range(3))
    return cmd + ([n, k, q] if cmd == ["binom"] else [q, n, k])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(qnk_argv())
@example(BAD_INPUTS[0])
@example(BAD_INPUTS[1])
@example(BAD_INPUTS[2])
@example(BAD_INPUTS[3])
@example(BAD_INPUTS[4])
def test_cli_never_raises(argv):
    # every command on small, often invalid, q n k: an exit code, never an
    # exception, and every family it writes reads back
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GRASSMANN_BUDGET", "2000")
        rc, out, err = run(argv)
    assert rc in (0, 1, 2)
    assert rc != 2 or err
    if rc == 0 and argv[0] in ("spread", "construct"):
        parse_family(out)
