"""Package namespace: everything advertised in __all__ resolves."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import grassmd


def test_all_exports_resolve():
    for name in grassmd.__all__:
        assert hasattr(grassmd, name), name


# What the benchmark harness (perfbench/) reads of the package; tier-1 does
# not run the harness, so only this test notices when one of them goes.
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


def test_top_level_workflow():
    ctx = grassmd.field_new(2)
    g = grassmd.GrassmannGraph(ctx, 4, 2)
    fam = grassmd.resolving_greedy_rank(ctx, 4, 2)
    assert grassmd.is_resolving(fam, g).resolving
    assert grassmd.certify_resolving_by_rank(fam).certified


def run_python(code):
    src = os.path.dirname(os.path.dirname(grassmd.__file__))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_skips_mpmath_and_acceptance():
    # every subcommand pays for what `grassmd.cli` imports at start-up
    out = run_python(
        "import sys, grassmd.cli\n"
        "print(sorted({'mpmath', 'grassmd.acceptance', 'grassmd.bounds'} & set(sys.modules)))\n"
        "import grassmd, grassmd.bounds\n"
        "print(grassmd.compare is grassmd.bounds.compare)\n")
    assert out.split() == ["[]", "True"]


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        grassmd.no_such_name


@pytest.mark.parametrize("enabled", [True, False])
def test_import_restores_the_collector_state(enabled):
    out = run_python(f"import gc\n"
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
    # tuple product or a Python RREF per row
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


def test_families_stay_arrays():
    # the file format, the constructions, the search and the CLI read and
    # write a family's basis array; none of them builds or converts
    # `Subspace` objects through the tuple matrix or its RREF
    src = Path(grassmd.__file__).parent
    for stem in ("famfile", "constructions", "search", "cli"):
        tree = ast.parse((src / f"{stem}.py").read_text())
        uses = _Uses(stem)
        uses.visit(tree)
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        used = {name for _, name in uses.calls + uses.names}
        used |= {alias.name for node in imports for alias in node.names}
        assert not used & {"MatGFq", "rref_rows", "subspaces_from_bases", "basis_array"}, stem
        if stem == "famfile":
            assert "linalg" not in {node.module for node in imports}
    assert not hasattr(grassmd.subspaces, "basis_array")
    assert not hasattr(grassmd.subspaces, "incidence_block")
