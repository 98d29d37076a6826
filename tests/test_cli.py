import json
import subprocess
import sys
from pathlib import Path

import pytest

from bvlsc.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
BUNDLES = ["example_1_2", "example_1_2_extended", "norm_square",
           "negnorm_square", "nulllag_square"]


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in BUNDLES:
        assert name in out


def test_unknown_config_exits_2(capsys):
    assert main(["analyze", "no_such_scenario"]) == 2


def test_liminf_subcommand(tmp_path):
    code = main(["liminf", "example_1_2", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"]["extras"]["liminf"]["verdict"] == (
        "lsc violated empirically"
    )
    assert (tmp_path / "tables" / "liminf.csv").exists()


def test_decompose_subcommand(tmp_path):
    code = main(["decompose", "example_1_2", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    dec = report["verdict"]["extras"]["decomposition"]
    assert dec["properties"]["reassembly_ok"] is True
    assert dec["properties"]["charge_ok"] is True
    assert dec["additivity"]["verdict"] == "additive"


def test_recession_subcommand(tmp_path):
    code = main(["recession", "norm_square", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "recession.json").read_text())
    for row in report["recession_samples"]:
        assert row["estimate"] == pytest.approx(row["analytic"], abs=1e-6)
    mus = [r.get("analytic", r["sampled"]) for r in report["mu_table"]]
    assert mus[-1] < 1e-3


def test_h_flag_overrides_mesh(tmp_path):
    code = main(["analyze", "example_1_2", "--out-dir", str(tmp_path),
                 "--h", "0.0625"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario"]["qslb"]["h"] == 0.0625


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "bvlsc.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "example_1_2" in proc.stdout


@pytest.mark.parametrize("name", BUNDLES)
def test_golden_reports(name, tmp_path):
    golden = GOLDEN_DIR / f"{name}.report.json"
    assert golden.exists(), (
        f"golden file missing; regenerate with python tests/make_goldens.py"
    )
    code = main(["analyze", name, "--out-dir", str(tmp_path)])
    assert code == 0
    fresh = (tmp_path / "report.json").read_bytes()
    assert fresh == golden.read_bytes()


def test_scipy_is_not_imported_by_the_cli_or_a_1d_analysis():
    code = (
        "import sys\n"
        "import bvlsc.cli\n"
        "assert 'scipy' not in sys.modules, 'imported by bvlsc.cli'\n"
        "from bvlsc.verdict import Scenario, analyze\n"
        "analyze(Scenario.from_file(bvlsc.cli.resolve_config('example_1_2')))\n"
        "assert 'scipy' not in sys.modules, 'imported by a 1D analysis'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
