"""The package runs without numpy, which only the tests use: importing
every module, solving, ``permdeg batch`` cold and warm, table files,
sd-files, ``verify all``, the byte view ``FiniteGroup.mult`` and the
benchmark's tracer leave it unimported.  Each check runs in a fresh
interpreter."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _numpy_imported(code: str, cwd: Path = ROOT) -> bool:
    """Run ``code`` in a fresh interpreter with the package on its path;
    whether numpy was imported by the end."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport sys\nprint('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'perfbench'}"})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_import_loads_no_numpy():
    assert not _numpy_imported("import permdeg, permdeg.cli")


def test_large_suite_solves_without_numpy():
    assert not _numpy_imported(
        "import permdeg as pd\n"
        "from workloads import LARGE_SUITE\n"
        "for name in LARGE_SUITE:\n"
        "    pd.mu_exact(pd.build(pd.parse_group_expr(name)))")


def test_batch_cold_and_warm_run_without_numpy(tmp_path):
    # the second command hits the cache the first one wrote
    assert not _numpy_imported(
        "from permdeg.cli import cli\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        cli.main(['--json', '--cache', 'c.json', 'batch',\n"
        "                  '--max-order', '16'], prog_name='permdeg')\n"
        "    except SystemExit as e:\n"
        "        assert e.code == 0, e.code", cwd=tmp_path)
    assert (tmp_path / "c.json").stat().st_size


def test_package_and_mult_run_without_numpy(tmp_path):
    (tmp_path / "c3.tbl").write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    (tmp_path / "s3.sd").write_text("G C3\nH C2\nh 1 : 0 2 1\n")
    for code in (
            "import importlib, pkgutil\n"
            "import permdeg as pd\n"
            "for m in pkgutil.iter_modules(pd.__path__, 'permdeg.'):\n"
            "    importlib.import_module(m.name)",
            "import permdeg as pd\n"
            "G = pd.build(pd.parse_group_expr('table:c3.tbl x C2'))\n"
            "assert pd.mu_exact(G).mu == 5",
            "import permdeg as pd\n"
            "G = pd.build(pd.parse_group_expr('sd:s3.sd'))\n"
            "assert G.order == 6 and not G.is_abelian()",
            "from permdeg.cli import cli\n"
            "try:\n"
            "    cli.main(['verify', 'all'], prog_name='permdeg')\n"
            "except SystemExit as e:\n"
            "    assert e.code == 0, e.code",
            # the view: read-only, the table's entries, and a table that
            # builds the same group again
            "import permdeg as pd\n"
            "G = pd.make_dihedral(4)\n"
            "assert G.mult.readonly and G.mult[5, 3] == G.table[5][3]\n"
            "assert G.mult.tolist() == [list(row) for row in G.table]\n"
            "H = pd.FiniteGroup(G.mult)\n"
            "assert (H.table_bytes, H.inv) == (G.table_bytes, G.inv)"):
        assert not _numpy_imported(code, cwd=tmp_path)


def test_tracer_counts_distinct_tables_without_numpy():
    # perfbench/run.py installs spans.Tracer over the package, and the
    # tracer tells repeated solves apart by G.mult.tobytes(): each suite
    # group is built and solved twice, as two groups with one table
    assert not _numpy_imported(
        "import permdeg as pd, permdeg.cli\n"
        "import spans\n"
        "from workloads import LARGE_SUITE\n"
        "tracer = spans.Tracer()\n"
        "tracer.install(pd)\n"
        "for _ in range(2):\n"
        "    for name in LARGE_SUITE:\n"
        "        pd.mu_exact(pd.build(pd.parse_group_expr(name)))\n"
        "tracer.uninstall()\n"
        "n, counts = len(LARGE_SUITE), tracer.counts\n"
        "assert counts['solver.mu_exact_calls'] == 2 * n, counts\n"
        "assert counts['solver.useful_solves'] == n, counts")
