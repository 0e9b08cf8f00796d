"""Package namespace: everything advertised in __all__ resolves."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import grassmd


# the public names: loading them on first use keeps the list
PUBLIC_NAMES = [
    "BoundsReport", "BudgetExceeded", "DegenerateBound", "DimensionMismatch", "FieldCtx",
    "GrassmannGraph", "GrassmdError", "IncidenceMatrix", "InvalidArgs", "InvalidShape",
    "MatGFq", "MixedPartition", "NotDivisor", "NotPrimePower", "RankCertificate",
    "ResolvingVerdict", "Subspace", "SubspaceFamily", "TooLarge", "babai_general",
    "babai_strong", "bfs_distances_from", "build_mixed_partition", "build_spread",
    "certify_resolving_by_rank", "codes_table", "compare", "distance", "distance_class_size",
    "enumerate_bases", "enumerate_k_subspaces", "exact_rank",
    "factor_prime_power", "field_new", "format_family", "gaussian_binomial",
    "gram_closed_form", "incidence_matrix", "is_resolving", "lower_bound",
    "metric_dimension_exact", "metric_dimension_from_distances", "metric_dimension_greedy",
    "parse_family", "resolving_from_partition", "resolving_from_spread",
    "resolving_greedy_rank", "verify_gram",
]


def test_all_exports_resolve():
    for name in grassmd.__all__:
        assert hasattr(grassmd, name), name


def test_namespace_is_pinned():
    assert grassmd.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(grassmd))
    namespace = {}
    exec("from grassmd import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(PUBLIC_NAMES)
    # each name is the object its module defines
    rank = importlib.import_module("grassmd.rank")
    assert namespace["exact_rank"] is rank.exact_rank
    assert namespace["compare"] is importlib.import_module("grassmd.bounds").compare
    assert grassmd.rank is rank and isinstance(rank, types.ModuleType)
    # perfbench/trace_child.py wraps the re-export
    assert rank.enumerate_k_subspaces is grassmd.enumerate_k_subspaces


# What the benchmark harness (perfbench/) reads of the package; tier-1 does
# not run the harness, so only these tests notice when one of them goes or
# when the harness starts reading another (`harness_names` reads its source).
BENCHMARK_NAMES = {
    "grassmd": ["GrassmannGraph", "Subspace", "SubspaceFamily", "certify_resolving_by_rank",
                "distance", "enumerate_k_subspaces", "field_new", "format_family",
                "gaussian_binomial", "is_resolving"],
    "grassmd.cli": ["main", "format_family", "parse_family", "resolving_from_spread",
                    "resolving_from_partition", "resolving_greedy_rank", "is_resolving",
                    "metric_dimension_exact", "metric_dimension_greedy"],
    "grassmd.grassmann": ["GrassmannGraph", "codes_table"],
    "grassmd.linalg": ["mat_mul"],
    "grassmd.rank": ["BareissEliminator", "enumerate_k_subspaces", "exact_rank",
                     "incidence_matrix"],
}


def test_benchmark_names_resolve():
    for module, names in BENCHMARK_NAMES.items():
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name}"
    assert isinstance(grassmd.rank, types.ModuleType)
    assert callable(grassmd.Subspace.from_rows)
    assert callable(grassmd.GrassmannGraph.distance_rows)
    fam = grassmd.SubspaceFamily(grassmd.enumerate_k_subspaces(grassmd.field_new(2), 4, 2))
    M = grassmd.rank.incidence_matrix(fam)
    assert (M.m, M.N) == (35, 15)


HARNESS = Path(__file__).resolve().parent.parent / "perfbench"
TRACED_MODULES = ("cli", "constructions", "grassmann", "rank")


def harness_names() -> dict:
    """{module: names} that perfbench/*.py reads of grassmd, from its AST:
    `grassmd.X` chains, `from grassmd... import X`, and in trace_child.py
    the attributes read on the four modules `install` imports by name."""
    package = Path(grassmd.__file__).parent

    def module(node, aliases):
        # the grassmd module an expression names, or None
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and (parent := module(node.value, aliases)):
            name = f"{parent}.{node.attr}"
            sub = package.joinpath(*name.split(".")[1:])
            return name if sub.with_suffix(".py").is_file() else None
        return None

    names = {}
    for path in sorted(HARNESS.glob("*.py")):
        aliases = {"grassmd": "grassmd"}
        if path.name == "trace_child.py":
            aliases.update({m: f"grassmd.{m}" for m in TRACED_MODULES})
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "grassmd":
                names.setdefault(node.module, set()).update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and (parent := module(node.value, aliases)) and not module(node, aliases)):
                names.setdefault(parent, set()).add(node.attr)
    return names


def test_benchmark_names_are_what_the_harness_reads():
    # a name the harness starts or stops reading shows here, not by hand
    assert (HARNESS / "trace_child.py").is_file()
    assert harness_names() == {module: set(names) for module, names in BENCHMARK_NAMES.items()}


def test_cli_names_are_the_package_names():
    # `grassmd.cli` keeps no name table of its own: the names the harness
    # reads and rebinds on it are the package's
    cli = importlib.import_module("grassmd.cli")
    for name in BENCHMARK_NAMES["grassmd.cli"]:
        if name != "main":
            assert getattr(cli, name) is getattr(grassmd, name), name
    with pytest.raises(AttributeError):
        cli.no_such_name
    # only public names pass through: the package's `__path__` would make
    # `cli` look like a package to the import system
    assert not hasattr(cli, "__path__")
    assert not hasattr(cli, "_REBINDABLE")


def test_top_level_workflow():
    ctx = grassmd.field_new(2)
    g = grassmd.GrassmannGraph(ctx, 4, 2)
    fam = grassmd.resolving_greedy_rank(ctx, 4, 2)
    assert grassmd.is_resolving(fam, g).resolving
    assert grassmd.certify_resolving_by_rank(fam).certified


def run_python(*args):
    """stdout of `python ARGS` on this checkout's sources."""
    src = os.path.dirname(os.path.dirname(grassmd.__file__))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


# `python -m grassmd.cli ARGV` in-process, reporting its exit code and the
# grassmd modules loaded by then
CLI_PROBE = """
import runpy, sys
sys.argv = ["grassmd", *{argv!r}]
try:
    runpy.run_module("grassmd.cli", run_name="__main__")
except SystemExit as e:
    print(e.code, sorted(m for m in sys.modules if m.split(".")[0] == "grassmd"))
"""

# what every subcommand loads, what each loads beyond that, and its exit
# code; the rows share one family file, so those that overwrite it come
# after its readers.  Only a verdict's colliding pair loads `linalg`; a
# repeated member is named by its basis rows.
CLI_BASE_MODULES = {"grassmd", "grassmd.errors", "grassmd.gfq", "grassmd.subspaces"}
CLI_MODULES = [
    (["binom", "6", "3", "2"], set(), 0),
    (["construct", "spread", "2", "6", "2", "-o", "{fam}"], {"famfile", "constructions"}, 0),
    (["verify", "2", "6", "2", "-f", "{fam}"], {"famfile", "grassmann"}, 0),
    (["rank", "-f", "{fam}"], {"famfile", "rank"}, 0),
    (["metricdim", "greedy", "2", "4", "2", "--json"], {"grassmann", "search"}, 0),
    (["metricdim", "greedy", "2", "4", "2"], {"grassmann", "search", "famfile"}, 0),
    (["construct", "partition", "2", "5", "2", "-o", "{fam}"], {"famfile", "constructions"}, 0),
    (["construct", "greedy", "2", "4", "2", "-o", "{fam}"], {"famfile", "rank", "constructions"}, 0),
    # a 2-spread of V(4,2) is not resolving for G_2(4,2)
    (["spread", "2", "4", "2", "-o", "{fam}"], {"famfile", "constructions"}, 0),
    (["verify", "2", "4", "2", "-f", "{fam}"], {"famfile", "grassmann", "linalg"}, 1),
    (["verify", "2", "4", "2", "-f", "{dup}"], {"famfile"}, 2),
]


def test_cli_import_skips_mpmath_and_acceptance(tmp_path):
    # every subcommand pays for what `grassmd.cli` imports at start-up
    out = run_python(
        "-c", "import sys, grassmd.cli\n"
        "print(sorted({'mpmath', 'grassmd.acceptance', 'grassmd.bounds'} & set(sys.modules)))\n"
        "import grassmd, grassmd.bounds\n"
        "print(grassmd.compare is grassmd.bounds.compare)\n")
    assert out.split() == ["[]", "True"]
    out = run_python("-c", "import sys, grassmd\n"
                     "print([m for m in sys.modules if m.startswith(('grassmd', 'numpy'))])\n")
    assert out.split() == ["['grassmd']"]
    # each subcommand loads its own modules and no others
    fam, dup = str(tmp_path / "fam.txt"), tmp_path / "dup.txt"
    dup.write_text("2 4 2 2\n1 0 0 0\n0 1 0 0\n1 0 0 0\n0 1 0 0\n")
    for argv, extra, code in CLI_MODULES:
        argv = [a.format(fam=fam, dup=dup) for a in argv]
        loaded = run_python("-c", CLI_PROBE.format(argv=argv)).splitlines()[-1]
        expected = CLI_BASE_MODULES | {f"grassmd.{m}" for m in extra}
        assert loaded == f"{code} {sorted(expected)}", argv[0]


def test_acceptance_records_are_not_dataclasses():
    # CriterionResult is a NamedTuple, as the result records are elsewhere
    out = run_python("-c", "import sys, grassmd.acceptance\n"
                     "print('dataclasses' in sys.modules)\n")
    assert out.split() == ["False"]


def test_readme_start_up_table_quotes_each_line_total():
    # the `lines` column of README's start-up table holds the newline count
    # of each CLI_MODULES row's modules with `cli`, and no other number
    src = Path(grassmd.__file__).parent

    def lines(module):
        return (src / f"{module.partition('.')[2] or '__init__'}.py").read_text().count("\n")

    totals = {sum(map(lines, CLI_BASE_MODULES | {"grassmd.cli"} | {f"grassmd.{m}" for m in extra}))
              for _, extra, _ in CLI_MODULES}
    readme = (src.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| subcommand | grassmd modules it loads | lines |\n")[1].split("\n\n")[0]
    quoted = {int(number.replace(",", "")) for row in table.splitlines()[1:]
              for number in re.findall(r"[0-9][0-9,]*", row.rsplit("|", 2)[1])}
    assert quoted == totals


def test_no_module_imports_mpmath():
    # numpy is the one runtime dependency: the bound formulas run on the
    # standard library's `decimal`, and mpmath is the tests' oracle
    importers = set()
    for path in Path(grassmd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "mpmath" for m in modules):
                importers.add(path.stem)
    assert importers == set()


# the span names `perfbench/trace_child.py` records for one CLI call
TRACED_SPANS = [
    (["construct", "spread", "3", "6", "2", "-o", "{fam}"],
     {"cli.startup", "constructions.spread", "famfile.format"}),
    (["verify", "3", "6", "2", "-f", "{fam}"],
     {"cli.startup", "famfile.parse", "grassmann.graph", "grassmann.verdict"}),
    (["rank", "-f", "{fam}"], {"cli.startup", "famfile.parse", "rank.exact", "rank.incidence"}),
    (["metricdim", "greedy", "2", "5", "2", "--json"],
     {"cli.startup", "grassmann.graph", "search.distance_rows", "search.greedy"}),
]


def test_trace_child_records_each_layer(tmp_path):
    # the harness rebinds names on `grassmd.cli` and wraps module functions;
    # each call must still reach the wrappers
    script = Path(grassmd.__file__).parents[2] / "perfbench" / "trace_child.py"
    fam, spans = str(tmp_path / "fam.txt"), tmp_path / "spans.json"
    for argv, names in TRACED_SPANS:
        argv = [a.format(fam=fam) for a in argv]
        run_python(str(script), str(spans), str(time.perf_counter()), "0", "--", *argv)
        assert {span["name"] for span in json.loads(spans.read_text())} == names, argv[0]


@pytest.mark.parametrize("name,make,attr", [
    ("GrassmannGraph", lambda ctx: grassmd.GrassmannGraph(ctx, 4, 2), "bases"),
    ("SubspaceFamily", lambda ctx: grassmd.SubspaceFamily.from_bases(ctx, [[[1, 0, 0]]]), "bases"),
    ("Subspace", lambda ctx: grassmd.Subspace.from_rows(ctx, 3, [[1, 1, 0]]), "basis"),
    ("MatGFq", lambda ctx: grassmd.MatGFq(ctx, 1, 2, [[1, 0]]), "data"),
])
def test_held_attributes_cannot_be_reassigned(name, make, attr):
    obj = make(grassmd.field_new(2))
    held = getattr(obj, attr)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        setattr(obj, attr, held)
    assert getattr(obj, attr) is held


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        grassmd.no_such_name


@pytest.mark.parametrize("enabled", [True, False])
def test_import_restores_the_collector_state(enabled):
    out = run_python("-c", f"import gc\n"
                     f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
                     f"import grassmd\n"
                     f"print(gc.isenabled())\n")
    assert out.strip() == str(enabled)


class _Uses(ast.NodeVisitor):
    """(module.function, name) for every call, name and attribute read in a
    module, plus the string constants, scoped by enclosing function."""

    def __init__(self, module):
        self.scope, self.calls, self.names, self.strings = [module], [], [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        self.calls.append((".".join(self.scope), getattr(func, "id", getattr(func, "attr", None))))
        for kw in node.keywords:
            if kw.arg == "dtype" and getattr(kw.value, "id", None) == "float":
                self.names.append((".".join(self.scope), "dtype=float"))
        self.generic_visit(node)

    def visit_Name(self, node):
        self.names.append((".".join(self.scope), node.id))

    def visit_Attribute(self, node):
        self.names.append((".".join(self.scope), node.attr))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.strings.append((".".join(self.scope), node.value))


def test_one_budget_guard_and_no_float_dtype():
    calls, names, strings = [], [], []
    for path in sorted(Path(grassmd.__file__).parent.glob("*.py")):
        uses = _Uses(path.stem)
        uses.visit(ast.parse(path.read_text()))
        calls += uses.calls
        names += uses.names
        strings += uses.strings
    # every input-sized ceiling goes through subspaces.check_budget; the
    # exact search's vertex limit is the one other refusal
    raisers = {scope for scope, name in calls if name == "BudgetExceeded"}
    assert raisers == {"subspaces.check_budget", "search._check_limit"}
    readers = {scope.split(".")[0] for scope, name in calls if name == "enumeration_budget"}
    assert readers == {"subspaces"}
    readers = {scope.split(".")[0] for scope, name in names if name == "DISTANCE_TABLE_FACTOR"}
    assert readers == {"subspaces"}
    # no float near a certificate: only the bound formulas use floats
    float_dtype = re.compile(r"float(16|32|64|128|_)|floating|dtype=float|f[248]")
    floats = {(scope, name) for scope, name in names + strings
              if float_dtype.fullmatch(name) and not scope.startswith("bounds")}
    assert floats == set()


def _accumulations(tree, module):
    """Scopes of the loops `out = add[out, mul[...]]`: a table lookup that
    adds a looked-up product into the array it reassigns."""
    found = set()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.For):
            for stmt in ast.walk(node):
                if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Subscript)
                        and isinstance(stmt.value.slice, ast.Tuple)
                        and len(stmt.value.slice.elts) == 2):
                    acc, term = stmt.value.slice.elts
                    target = stmt.targets[0]
                    if (isinstance(term, ast.Subscript) and isinstance(acc, ast.Name)
                            and isinstance(target, ast.Name) and acc.id == target.id):
                        found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, [module])
    return found


def test_one_coefficient_basis_product():
    # the graph and the constructions use the array product, never the
    # tuple-matrix `mat_mul` or a Python RREF per row
    loops = set()
    for path in sorted(Path(grassmd.__file__).parent.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        loops |= _accumulations(tree, path.stem)
        if path.stem in ("grassmann", "constructions"):
            uses = _Uses(path.stem)
            uses.visit(tree)
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names}
            used = {name for _, name in uses.calls + uses.names} | imported
            assert not used & {"mat_mul", "rref_rows"}, path.stem
        # GF(q^t) products are `gf_matmul` calls against power-basis
        # matrices; the polynomial product lives in the test oracles
        assert "ExtensionField" not in text and "_poly_mul" not in text, path.stem
    assert loops == {"gfq.gf_matmul"}


def test_one_rref_one_product_one_table_form():
    # GF(q) arithmetic is the read-only uint8 tables, row reduction is
    # `gfq.gf_rref` and a product `gfq.gf_matmul`; the element-wise Python
    # Gauss-Jordan is the tests' oracle
    ctx = grassmd.field_new(4)
    assert [name for name in dir(ctx) if name.endswith("_table")] == []
    assert not {"add", "sub", "mul"} & set(dir(ctx))
    homes = {}
    for path in Path(grassmd.__file__).parent.glob("*.py"):
        text = path.read_text()
        assert "rref_rows" not in text, path.stem
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and node.name in ("gf_rref", "gf_matmul"):
                homes.setdefault(node.name, set()).add(path.stem)
    assert homes == {"gf_rref": {"gfq"}, "gf_matmul": {"gfq"}}


def test_gfq_alone_reads_the_product_tables():
    # outside `gfq`, sums, negations, products and inverses are `gf_matmul`
    # and `gf_rref` calls; no table is converted to lists for a Python
    # loop, and the polynomial trial division and the three-rank
    # intersection dimension are the tests' oracles
    tables = {"add_array", "mul_array", "neg_array", "inv_array"}
    readers, listers, defined = set(), set(), set()
    for path in Path(grassmd.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in tables:
                readers.add(path.stem)
            if isinstance(node, ast.stmt) and not hasattr(node, "body"):  # a simple statement
                attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                if "tolist" in attrs and attrs & tables:
                    listers.add(path.stem)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    assert readers == {"gfq"}
    assert listers == set()
    assert not defined & {"_poly_rem", "_is_irreducible", "intersect_dim"}


def test_families_stay_arrays():
    # the file format, the constructions, the search, the rank certificate,
    # the acceptance grid and the CLI read and write a family's basis array;
    # none of them names `Subspace` or converts to it through the tuple
    # matrix or its RREF
    src = Path(grassmd.__file__).parent
    forbidden = {"Subspace", "MatGFq", "rref_rows", "subspaces_from_bases", "basis_array"}
    for stem in ("famfile", "constructions", "search", "rank", "acceptance", "cli"):
        tree = ast.parse((src / f"{stem}.py").read_text())
        uses = _Uses(stem)
        uses.visit(tree)
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        used = {name for _, name in uses.calls + uses.names}
        used |= {alias.name for node in imports for alias in node.names}
        assert not used & forbidden, (stem, used & forbidden)
    # the tuple-object edge is one module, which no module imports at module
    # level: the functions that take or hand out objects import it when they
    # run, and no other module reads a `Subspace`'s basis or dimension
    edge = {"Subspace", "subspaces_from_bases", "bases_of", "distance", "MatGFq",
            "as_array", "mat_mul"}
    importers, homes, readers, sites = set(), {}, set(), []
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                importers.add(path.stem)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                sites += [(path.stem, node.name) for n in ast.walk(node)
                          if isinstance(n, ast.ImportFrom) and n.module == "linalg"]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in edge:
                homes.setdefault(node.name, set()).add(path.stem)
            if isinstance(node, ast.Attribute) and node.attr in ("basis", "dim"):
                readers.add(path.stem)
    assert importers == set()
    # building a family, iterating it, `enumerate_k_subspaces` and a
    # verdict's colliding pair; no error message loads it
    assert sorted(sites) == [("grassmann", "is_resolving"), ("subspaces", "__init__"),
                             ("subspaces", "__iter__"), ("subspaces", "enumerate_k_subspaces")]
    assert homes == {name: {"linalg"} for name in edge}
    assert readers == {"linalg"}
    assert not hasattr(grassmd.subspaces, "basis_array")
    assert not hasattr(grassmd.subspaces, "incidence_block")
    # object helpers only the tests use live in tests/oracles.py
    assert not hasattr(grassmd.linalg.Subspace, "contains")
    assert not hasattr(grassmd.linalg.Subspace, "pivots")
    for name in ("vertex", "vertices", "_vertices", "ordinal"):
        assert not hasattr(grassmd.grassmann.GrassmannGraph, name), name
    assert not hasattr(grassmd.subspaces.SubspaceFamily, "__getitem__")
    assert not hasattr(grassmd.grassmann, "edge_list")
