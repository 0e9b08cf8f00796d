"""Package namespace: everything advertised in __all__ resolves."""

import os
import subprocess
import sys

import grassmd


def test_all_exports_resolve():
    for name in grassmd.__all__:
        assert hasattr(grassmd, name), name


def test_top_level_workflow():
    ctx = grassmd.field_new(2)
    g = grassmd.GrassmannGraph(ctx, 4, 2)
    fam = grassmd.resolving_greedy_rank(ctx, 4, 2)
    assert grassmd.is_resolving(fam, g).resolving
    assert grassmd.certify_resolving_by_rank(fam).certified


def test_cli_import_skips_mpmath_and_acceptance():
    # every subcommand pays for what `grassmd.cli` imports at start-up
    code = ("import sys, grassmd.cli; "
            "print(sorted({'mpmath', 'grassmd.acceptance'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(grassmd.__file__))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
