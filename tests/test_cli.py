import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bvlsc.cli import main, resolve_config

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
    # example_1_2's cover, {0} and [0.125, 1], leaves (0, 0.125) uncovered
    with pytest.warns(UserWarning, match="cover gap"):
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


def test_recession_seed_override_draws_the_samples(tmp_path):
    assert main(["recession", "norm_square", "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "recession.json").read_text())
    xi = np.random.default_rng(5).normal(size=(1, 2))
    assert report["recession_samples"][0]["xi"] == xi.tolist()


def test_recession_of_an_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n "domain": {"kind": "interval", "a": 0.0, "b": 1.0}\n}\n')
    assert main(["recession", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "integrand" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_an_execution_error_exits_1_and_writes_no_report(tmp_path, capsys, monkeypatch):
    import bvlsc.verdict

    def failing(scenario):
        raise RuntimeError("boom")

    monkeypatch.setattr(bvlsc.verdict, "analyze", failing)
    assert main(["analyze", "example_1_2", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out == "execution error: boom\n"
    assert not (tmp_path / "out").exists()


def test_recession_prices_its_mu_table_before_any_draw(tmp_path, capsys, monkeypatch):
    # 5 t values x 2000 samples x 40,000 entries: about 640 MB of normals per t
    import bvlsc.integrands

    def no_draw(*args, **kwargs):
        raise AssertionError("mu_estimate called for a table over the budget")

    monkeypatch.setattr(bvlsc.integrands, "mu_estimate", no_draw)
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["integrand"] = {"tag": "norm", "params": {"M": 40_000, "N": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["recession", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().out == ("config error: mu table needs 5 x 2000 samples x "
                                       "40000 entries, over the budget 5e+07\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "liminf", "decompose", "recession"])
def test_negative_seed_override_is_a_config_error(command, tmp_path, capsys):
    assert main([command, "example_1_2", "--seed", "-1",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error: --seed must be non-negative" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("params", ['{"matrix": [[1e400, 1.0]]}', '{"matrix": [[NaN, 1.0]]}',
                                    '{"a": [1e400], "t": [0.0, 1.0]}'])
def test_non_finite_integrand_parameter_exits_2(tmp_path, capsys, params):
    text = resolve_config("nulllag_square").read_text()
    tag = "boundary_null_lagrangian" if '"a"' in params else "linear"
    lines = [f' "integrand": {{"tag": "{tag}", "params": {params}}},'
             if line.startswith(' "integrand":') else line for line in text.splitlines()]
    path = tmp_path / "cfg.json"
    path.write_text("\n".join(lines) + "\n")
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "config error" in out and "integrand" in out and "finite" in out
    assert not (tmp_path / "out" / "report.json").exists()


def test_h_flag_overrides_mesh(tmp_path):
    code = main(["analyze", "example_1_2", "--out-dir", str(tmp_path),
                 "--h", "0.0625"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["scenario"]["qslb"]["h"] == 0.0625


def test_recession_refuses_a_mesh_size_override(tmp_path, capsys):
    # the recession estimates build no mesh, so --h is not one of its options
    with pytest.raises(SystemExit) as exc:
        main(["recession", "example_1_2", "--h", "-3", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --h" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_make_goldens_check_lists_the_differing_golden(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "make_goldens", Path(__file__).parent / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    before = {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()}
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "a.json").write_text("1\n")
    (golden / "b.json").write_text("2\n")

    def regenerate(out_dir):
        # stands in for the full regeneration, which the golden tests cover
        written = [out_dir / "a.json", out_dir / "b.json", out_dir / "c.json"]
        for path, text in zip(written, ["1\n", "3\n", "4\n"]):
            path.write_text(text)
        return written

    monkeypatch.setattr(make_goldens, "GOLDEN_DIR", golden)
    monkeypatch.setattr(make_goldens, "regenerate", regenerate)
    assert make_goldens.check() == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"differs: {golden / 'b.json'}", "  $: 2 -> 3",
                   f"differs: {golden / 'c.json'}", "largest numeric drift: 1 at b.json $",
                   "changed string leaves: none", "1 of 3 golden files byte-identical"]
    assert [p.read_text() for p in sorted(golden.iterdir())] == ["1\n", "2\n"]
    (golden / "b.json").write_text("3\n")
    (golden / "c.json").write_text("4\n")
    assert make_goldens.check() == 0
    assert capsys.readouterr().out == "3 of 3 golden files byte-identical\n"
    assert {p.name: p.read_bytes() for p in GOLDEN_DIR.iterdir()} == before


def test_make_goldens_names_each_changed_json_path():
    spec = importlib.util.spec_from_file_location(
        "make_goldens", Path(__file__).parent / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    old = {"a": [1, {"b": 2.0, "c": "x"}], "d": [1, 2], "e": 1, "f": True}
    new = {"a": [1, {"b": 2.5, "c": "x"}], "d": [1, 2, 3], "e": 1.0, "f": True, "g": None}
    assert make_goldens.changed_paths(old, new) == [
        ("$.a[1].b", 2.0, 2.5), ("$.d", [1, 2], [1, 2, 3]), ("$.e", 1, 1.0),
        ("$.g", make_goldens.MISSING, None)]
    assert make_goldens.changed_paths(old, old) == []


def test_make_goldens_summarizes_the_largest_drift_and_changed_strings():
    spec = importlib.util.spec_from_file_location(
        "make_goldens", Path(__file__).parent / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    old = {"overall": "wlsc-plausible", "qslb": [{"deficit": -0.5, "verdict": "x"}],
           "n": 3, "flag": True, "gone": 1.0, "rows": [1, 2]}
    new = {"overall": "not-wlsc", "qslb": [{"deficit": -0.25, "verdict": "x"}],
           "n": 2, "flag": False, "rows": [1, 2, 3], "added": "note"}
    changes = [("r.json", *c) for c in make_goldens.changed_paths(old, new)]
    assert make_goldens.drift_summary(changes) == [
        "largest numeric drift: 1 at r.json $.n",
        "changed string leaves: r.json $.added, r.json $.overall"]
    small = [("r.json", "$.a", 1e-17, 3e-17), ("s.json", "$.b", 0.5, 0.5 + 1e-16)]
    assert make_goldens.drift_summary(small) == [
        "largest numeric drift: 1.11022e-16 at s.json $.b", "changed string leaves: none"]
    assert make_goldens.drift_summary([]) == ["largest numeric drift: none",
                                              "changed string leaves: none"]


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


ANALYZE = (
    "from bvlsc.cli import resolve_config\n"
    "from bvlsc.verdict import Scenario, analyze\n"
    "analyze(Scenario.from_file(resolve_config({!r})))\n"
)
HALFBALL_SOLVE = (
    "from bvlsc.boundary import halfball_deficit\n"
    "from bvlsc.integrands import catalog_get\n"
    "from bvlsc.meshing import BoundaryPoint\n"
    "from bvlsc.minimize import SolverOptions\n"
    "f = catalog_get('norm', {'M': 1, 'N': 2})\n"
    "rep = halfball_deficit(f.recession, BoundaryPoint([0.0, 0.0], [0.6, 0.8]), h=0.1,\n"
    "                       options=SolverOptions(restarts=2, max_iter=60))\n"
    "assert rep.diagnostics['source'] == 'mesh'\n"
)


@pytest.mark.parametrize("code", [
    *(pytest.param(ANALYZE.format(name), id=name)
      for name in ("norm_square", "nulllag_square", "negnorm_square")),
    pytest.param(HALFBALL_SOLVE, id="halfball_deficit"),
])
def test_a_2d_analysis_or_halfball_solve_leaves_scipy_unloaded(code):
    """The half-ball mesh is zipped ring to ring without scipy (negnorm_square
    builds its qslb witness on it); the qslb deficits of norm_square and
    nulllag_square come in closed form, with no mesh at all."""
    proc = subprocess.run([sys.executable, "-c", code + "import sys\n"
                           "assert 'scipy' not in sys.modules\n"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
