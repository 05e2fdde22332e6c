"""numpy stays off the import path: importing the package, solving,
``permdeg batch`` cold and warm, table files, sd-files and ``verify all``
leave it unimported; only ``FiniteGroup.mult`` imports it.  Each check
runs in a fresh interpreter."""

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


def test_only_mult_imports_numpy(tmp_path):
    (tmp_path / "c3.tbl").write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    (tmp_path / "s3.sd").write_text("G C3\nH C2\nh 1 : 0 2 1\n")
    for code in (
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
            "    assert e.code == 0, e.code"):
        assert not _numpy_imported(code, cwd=tmp_path)
    assert _numpy_imported(
        "import permdeg as pd\n"
        "G = pd.make_dihedral(4)\n"
        "assert G.mult.tolist() == [list(row) for row in G.table]\n"
        "assert G.mult.dtype == 'int64' and not G.mult.flags.writeable")
