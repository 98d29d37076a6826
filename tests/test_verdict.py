import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bvlsc.boundary
import bvlsc.meshing
import bvlsc.minimize
import bvlsc.verdict
from bvlsc.cli import bundled_scenarios, main, resolve_config
from bvlsc.integrands import catalog_get
from bvlsc.meshing import BoundaryPoint
from bvlsc.minimize import minimize_fields
from bvlsc.verdict import ConfigError, Scenario, analyze, run_scenario


def load(name):
    return Scenario.from_file(resolve_config(name))


def linear_square():
    """norm_square's square with f = A : xi, A = [[0.6, -0.8]]: A nu != 0 on
    every edge, so every boundary point takes the half-ball mesh solve."""
    cfg = json.loads(resolve_config("norm_square").read_text())
    cfg["integrand"] = {"tag": "linear", "params": {"matrix": [[0.6, -0.8]]}}
    return Scenario(cfg)


def test_bundles_resolve():
    names = set(bundled_scenarios())
    assert {"example_1_2", "example_1_2_extended", "norm_square",
            "negnorm_square", "nulllag_square"} <= names


def test_missing_integrand_is_schema_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{\n "domain": {"kind": "interval", "a": 0.0, "b": 1.0}\n}\n')
    code, verdict = run_scenario(cfg, out_dir=tmp_path / "out")
    assert code == 2
    assert verdict is None


def test_schema_error_reports_line(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        '{\n "integrand": {"tag": "norm"},\n'
        ' "domain": {"kind": "orbital", "a": 0.0}\n}\n'
    )
    code, _ = run_scenario(cfg, out_dir=tmp_path / "out")
    assert code == 2
    out = capsys.readouterr().out
    assert "line 3" in out


def test_invalid_json_is_schema_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json}")
    code, _ = run_scenario(cfg, out_dir=tmp_path / "out")
    assert code == 2


def test_example_scenario_end_to_end(tmp_path):
    code, verdict = run_scenario(resolve_config("example_1_2"),
                                 out_dir=tmp_path / "out")
    assert code == 0
    assert verdict.overall == "not-wlsc"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    v = report["verdict"]
    assert all(r["verdict"] == "violated" for r in v["qslb"])
    assert v["extras"]["liminf"]["verdict"] == "lsc violated empirically"
    assert v["extras"]["necessity_certificate"]["certificate"] is True
    # witness files exported for the violations
    assert (tmp_path / "out" / "witness_qslb_0.json").exists()
    assert (tmp_path / "out" / "tables" / "liminf.csv").exists()
    # timings live outside the deterministic report
    assert "timing" not in json.dumps(report)
    assert (tmp_path / "out" / "timings.txt").exists()


def _accounted_files(report, verdict):
    """The files a run writes for its report: report.json, timings.txt, the
    tables its verdict part holds and a witness file per witness."""
    v = report["verdict"]
    files = {"report.json", "timings.txt", "tables/qc_deficits.csv", "tables/qslb.csv"}
    files |= {f"tables/{name}.csv" for name in ("liminf", "refinement") if name in v["extras"]}
    for check, reps in (("qc", [r for _, r in verdict.qc_reports]),
                        ("qslb", verdict.qslb_reports)):
        files |= {f"witness_{check}_{i}.json"
                  for i in range(sum(r.witness is not None for r in reps))}
    return files


def test_a_rerun_replaces_the_whole_output_set_and_keeps_other_files(tmp_path):
    out = tmp_path / "out"
    config = resolve_config("negnorm_square")
    code, _ = run_scenario(config, out_dir=out)
    assert code == 0
    assert (out / "witness_qc_0.json").exists() and (out / "tables" / "liminf.csv").exists()
    (out / "notes.txt").write_text("kept\n")
    code, verdict = run_scenario(config, out_dir=out, only=["qslb"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"]["qc"] == [] and "liminf" not in report["verdict"]["extras"]
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == _accounted_files(report, verdict) | {"notes.txt"}
    assert (out / "notes.txt").read_text() == "kept\n"


def _new_files_only(monkeypatch):
    """Make bvlsc.verdict's open record each path and check that it does not
    exist yet; returns the list of opened paths."""
    opened = []

    def fresh_open(path, *args, **kwargs):
        assert not Path(path).exists(), path
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(bvlsc.verdict, "open", fresh_open, raising=False)
    return opened


def test_a_rerun_opens_no_existing_output(tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = resolve_config("example_1_2")
    assert run_scenario(config, out_dir=out)[0] == 0
    first = (out / "report.json").read_bytes()
    opened = _new_files_only(monkeypatch)
    assert run_scenario(config, out_dir=out)[0] == 0
    assert {"report.json", "timings.txt", "liminf.csv", "witness_qslb_0.json"} <= set(opened)
    assert (out / "report.json").read_bytes() == first
    opened.clear()
    assert main(["recession", "example_1_2", "--out-dir", str(out)]) == 0
    assert main(["recession", "example_1_2", "--out-dir", str(out)]) == 0
    assert opened == ["recession.json", "recession.json"]


def test_seed_override_changes_config_echo(tmp_path):
    code, _ = run_scenario(resolve_config("example_1_2"),
                           out_dir=tmp_path / "out", seed=7)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["scenario"]["seed"] == 7


def test_sampling_monotonicity_more_points_keep_violation():
    base = load("example_1_2")
    verdict1 = analyze(base)
    assert verdict1.overall == "not-wlsc"
    more = Scenario(json.loads(json.dumps(base.cfg)))
    more.cfg["interior_points"] = [[0.3], [0.5], [0.7]]
    verdict2 = analyze(more)
    assert verdict2.overall == "not-wlsc"
    assert len(verdict2.qc_reports) > len(verdict1.qc_reports)


def test_interior_point_count_on_an_interval_takes_the_golden_ratio_lattice():
    sc = load("example_1_2")
    sc.cfg["interior_points"] = {"count": 3}
    a, b = sc.domain.params["a"], sc.domain.params["b"]
    t = [(0.5 + i * 0.6180339887498949) % 1.0 for i in range(3)]
    want = [[a + (0.25 + 0.5 * ti) * (b - a)] for ti in t]
    assert [p.tolist() for p in sc.interior_points()] == want
    verdict = analyze(sc)
    assert {tuple(x.tolist()) for x, _ in verdict.qc_reports} == set(map(tuple, want))
    assert verdict.overall == "not-wlsc"


def test_corner_points_routed_to_note():
    cfg = {
        "name": "corner",
        "domain": {"kind": "polygon",
                   "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]},
        "integrand": {"tag": "norm", "params": {"M": 1, "N": 2}},
        "checks": {"qc": False, "qslb": True, "sequences": False},
        "boundary_points": [[0.0, 0.0], [0.5, 0.0]],
        "qslb": {"h": 0.2, "tol": 0.001},
    }
    verdict = analyze(Scenario(cfg))
    assert len(verdict.qslb_reports) == 1  # the corner was not half-ball tested
    assert "corner_notes" in verdict.extras


def test_sample_point_outside_domain_rejected():
    base = load("example_1_2")
    base.cfg["interior_points"] = [[3.5]]
    with pytest.raises(ConfigError):
        analyze(base)


@pytest.mark.parametrize("name, point", [("example_1_2", [0.5]),
                                         ("norm_square", [0.5, 0.5])])
def test_boundary_point_off_the_boundary_is_a_config_error(name, point):
    sc = load(name)
    sc.cfg["boundary_points"] = [point]
    with pytest.raises(ConfigError, match="boundary_points"):
        analyze(sc)


@pytest.mark.parametrize("key, point", [("interior_points", [1.5]),
                                        ("boundary_points", [0.5])])
def test_point_off_the_domain_exits_2_without_a_report(tmp_path, capsys, key, point):
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg[key] = [point]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    assert run_scenario(path, out_dir=tmp_path / "out") == (2, None)
    assert "config error: " in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("only", [[], ["qslb"], ["equivalence"]])
def test_interior_point_off_the_domain_exits_2_whichever_checks_run(tmp_path, only):
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["interior_points"] = [[0.5], [1.5]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    assert run_scenario(path, out_dir=tmp_path / "out", only=only) == (2, None)
    assert not (tmp_path / "out").exists()


def test_equivalence_builds_only_the_interior_point_it_uses(monkeypatch):
    # each lattice point of a polygon is one boundary_distance probe
    sc = load("norm_square")
    sc.cfg["interior_points"] = {"count": 10**6}
    sc.cfg["checks"] = {c: c == "equivalence" for c in sc.cfg["checks"]}
    probes, used = [], []
    probe = sc.domain.boundary_distance
    monkeypatch.setattr(sc.domain, "boundary_distance", lambda x: probes.append(x) or probe(x))
    monkeypatch.setattr(bvlsc.verdict, "build_mesh", lambda domain, h: None)
    monkeypatch.setattr(bvlsc.verdict, "equivalence_harness",
                        lambda f, finf, p, mesh, options: used.append(p) or {})
    verdict = analyze(sc)
    assert len(probes) == 1 and len(used) == 1
    assert verdict.extras["equivalence"] == [{}] and not verdict.errors


def test_dimension_mismatch_rejected():
    cfg = {
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
        "integrand": {"tag": "norm", "params": {"M": 1, "N": 2}},
    }
    with pytest.raises(ConfigError):
        Scenario(cfg)


def test_errored_check_makes_verdict_inconclusive():
    # the half-ball mesh at h=0.001 is over the cell budget, so no check runs
    sc = load("negnorm_square")
    sc.cfg["checks"]["qc"] = False
    sc.cfg["qslb"]["h"] = 0.001
    verdict = analyze(sc)
    assert verdict.qc_reports == [] and verdict.qslb_reports == []
    assert [e["job"] for e in verdict.errors] == ["qslb"]
    assert "budget" in verdict.errors[0]["error"]
    assert verdict.overall == "inconclusive"


def test_violation_with_errored_check_is_still_not_wlsc():
    sc = load("example_1_2")
    sc.cfg["checks"]["sequences"] = False
    sc.cfg["qc"]["h"] = 1e-9  # the qc mesh is over the cell budget
    verdict = analyze(sc)
    assert verdict.qc_reports == []
    assert [e["job"] for e in verdict.errors] == ["qc"]
    assert all(r.verdict == "violated" for r in verdict.qslb_reports)
    assert verdict.overall == "not-wlsc"


@pytest.mark.parametrize("params", [{"h": 4e-6}, {"resolution": 199_984}],
                         ids=["jump_migration_h", "boundary_rescale_resolution"])
def test_an_over_budget_sequence_member_is_an_errored_liminf_job(params):
    # 250,001 grid cells, or 16 grid cells and 199,985 profile points: a few
    # MB per member were the budget not checked
    sc = load("example_1_2")
    sc.cfg["sequence"].update(params=params)
    if "resolution" in params:
        sc.cfg["sequence"]["kind"] = "boundary_rescale"
    verdict = analyze(sc)
    assert "liminf" not in verdict.extras
    assert [e["job"] for e in verdict.errors] == ["liminf"]
    assert "over the budget 200000" in verdict.errors[0]["error"]
    assert verdict.overall != "wlsc-plausible"


def test_a_solver_budget_beyond_the_float_range_is_reported(tmp_path):
    # 10**400 iterations: the work product is an int that float() overflows.
    # A nu != 0 on every edge of the square, so every qslb job solves on the
    # mesh; the linear qc jobs take their closed form and run no solve
    def edit(cfg):
        cfg["integrand"] = {"tag": "linear", "params": {"matrix": [[1.0, 1.0]]}}
        cfg["solver"] = {"max_iter": 10**400}

    code, verdict = _run_modified(tmp_path, edit)
    assert code == 0
    assert [e["job"] for e in verdict.errors] == ["qslb"] * 4
    assert all("over the budget" in e["error"] for e in verdict.errors)
    assert all("iterations = 3.89e+403" in e["error"] for e in verdict.errors)
    assert [rep.deficit for _, rep in verdict.qc_reports] == [0.0, 0.0]
    assert verdict.overall == "inconclusive"

    # area has no split, so its qc jobs would solve: the family is over the budget
    def edit_area(cfg):
        cfg["integrand"] = {"tag": "area", "params": {"M": 1, "N": 2}}
        cfg["solver"] = {"max_iter": 10**400}
        cfg["checks"]["qslb"] = False

    code, verdict = _run_modified(tmp_path, edit_area)
    assert code == 0
    assert [e["job"] for e in verdict.errors] == ["qc"]
    assert "over the budget" in verdict.errors[0]["error"]
    assert verdict.qc_reports == [] and verdict.overall == "inconclusive"


@pytest.mark.parametrize("resolution", [10**9, 10**400], ids=["1e9", "1e400"])
def test_a_resolution_beyond_the_float_range_is_over_the_cell_budget(tmp_path, resolution):
    # 10**400 + 1 profile points: an int that float() overflows, so the
    # budget compares and formats the count without it
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["checks"].update(qc=False, qslb=False)
    cfg["sequence"].update(kind="boundary_rescale", params={"resolution": resolution})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    errors = json.loads((tmp_path / "out" / "report.json").read_text())["verdict"]["errors"]
    assert [e["job"] for e in errors] == ["liminf"]
    msg = errors[0]["error"]
    assert msg.startswith(f"h=0.0625 on [0.0, 1.0] with {resolution + 1} more points ")
    assert msg.endswith(" cells, over the budget 200000")
    if resolution == 10**9:
        assert "implies about 1000000017 cells" in msg


def test_unbudgeted_solver_work_fails_fast(tmp_path):
    # 194,688 qc cells pass the cell budget, but 8 restarts x 400 iterations
    # on them would run for about an hour: the area integrand has no split,
    # so its qc jobs solve on the mesh
    cfg = json.loads(resolve_config("norm_square").read_text())
    cfg["integrand"] = {"tag": "area", "params": {"M": 1, "N": 2}}
    cfg["qc"]["h"] = 0.0032
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    t0 = time.perf_counter()
    code, verdict = run_scenario(path, out_dir=tmp_path / "out")
    assert time.perf_counter() - t0 < 15.0
    assert code == 0
    assert verdict.qc_reports == [] and verdict.qslb_reports
    assert {e["job"] for e in verdict.errors} == {"qc"}
    assert all("over the budget" in e["error"] for e in verdict.errors)
    assert verdict.overall == "inconclusive"


def test_a_closed_form_qc_family_on_a_fine_mesh_is_answered(tmp_path):
    # the same 194,688 qc cells with norm, which splits: its qc jobs take the
    # closed form, priced at one pass over the cells per cap, and run no solve
    cfg = json.loads(resolve_config("norm_square").read_text())
    cfg["qc"]["h"] = 0.0032
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    code, verdict = run_scenario(path, out_dir=tmp_path / "out")
    assert code == 0
    assert verdict.errors == []
    assert [rep.deficit for _, rep in verdict.qc_reports] == [0.0, 0.0]
    assert all(d["source"] == "closed_form" for _, rep in verdict.qc_reports
               for d in rep.diagnostics)
    assert verdict.overall == "wlsc-plausible"


def _builtin_json(obj):
    """True when obj holds only what json.dumps writes as itself: dicts with
    str keys, lists and tuples, str, int, float, bool and None.  A numpy
    float64 is a float subclass that json.dumps takes, so the types are
    compared exactly."""
    if isinstance(obj, dict):
        return all(type(k) is str and _builtin_json(v) for k, v in obj.items())
    if type(obj) in (list, tuple):
        return all(_builtin_json(v) for v in obj)
    return obj is None or type(obj) in (str, int, float, bool)


_CHECKS = ("qc", "qslb", "sequences", "decomposition", "equivalence", "mu", "refinement")


@pytest.mark.filterwarnings("ignore:compact sets leave a cover gap")
def test_every_bundled_output_is_plain_data(tmp_path, monkeypatch):
    # report.json, the witness files and recession.json are json.dumps of
    # the values the checks return, with no conversion between: each value
    # must be a JSON builtin where it is made.  Each bundle runs with its own
    # checks and with every check on (decomposition only on an interval)
    written, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda obj, **kw: written.append(obj) or dumps(obj, **kw))
    for name, path in bundled_scenarios().items():
        cfg = json.loads(path.read_text())
        cfg["checks"] = {c: c != "decomposition" or cfg["domain"]["kind"] == "interval"
                         for c in _CHECKS}
        every = tmp_path / f"{name}.json"
        every.write_text(dumps(cfg))
        for config in (path, every):
            code, verdict = run_scenario(config, out_dir=tmp_path / name)
            assert code == 0
            assert _builtin_json(verdict.to_json()), name
        assert (verdict.extras.get("decomposition") is not None) == (
            cfg["domain"]["kind"] == "interval")
        assert main(["recession", name, "--out-dir", str(tmp_path / name)]) == 0
    assert all(_builtin_json(obj) for obj in written)
    assert sum("check" in obj for obj in written) >= 2  # witness files
    assert sum("recession_samples" in obj for obj in written) == len(bundled_scenarios())


def test_quotient_outside_homogeneity_bound_is_errored_qslb_check(monkeypatch):
    def out_of_bound(*args, **kwargs):
        results = minimize_fields(*args, **kwargs)
        for res in results:
            res.value = -3.0  # both recession functions below have C_inf = 1
        return results

    monkeypatch.setattr(bvlsc.boundary, "minimize_fields", out_of_bound)
    norm = catalog_get("norm", {"M": 1, "N": 2})
    with pytest.raises(bvlsc.boundary.QuotientBoundError):
        bvlsc.boundary.halfball_deficit(
            norm.recession, BoundaryPoint([0.0, 0.5], [-1.0, 0.0]), h=0.25)
    sc = linear_square()
    sc.cfg["checks"]["qc"] = False
    verdict = analyze(sc)
    assert verdict.qslb_reports == []
    assert verdict.errors and {e["job"] for e in verdict.errors} == {"qslb"}
    assert all("homogeneity bound" in e["error"] for e in verdict.errors)
    assert verdict.overall == "inconclusive"


def test_a_vector_valued_linear_boundary_check_passes_its_homogeneity_bound():
    # the sampled sphere maximum of |A : xi| (2.416) fell short of |A| = 2.5,
    # below the quotients the refinement check's mesh solves reach at h = 1/8
    # and 1/16 (-2.4987 and -2.4840)
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["integrand"] = {"tag": "linear", "params": {"matrix": [[1], [2], [-1], [0.5]]}}
    cfg["qslb"]["h"] = 0.125
    sc = Scenario(cfg)
    sc.cfg["checks"].update(qc=False, sequences=False, refinement=True)
    verdict = analyze(sc)
    assert verdict.errors == []
    assert [r.deficit for r in verdict.qslb_reports] == [-2.5, -2.5]
    assert [r.diagnostics["sphere_bound"] for r in verdict.qslb_reports] == [2.5, 2.5]
    rows = verdict.extras["refinement"]
    assert len(rows) == 4 and all(-2.5 <= r["deficit"] < -2.45 for r in rows)
    assert verdict.overall == "not-wlsc"


def test_refinement_rows_of_a_vector_valued_1d_field_reach_the_closed_form():
    # the half-ball solves start from the strip ramp along -A nu / |A nu|;
    # from coordinate directions alone they stopped at -2.3966 (h = 1/32)
    # and -2.3035 (h = 1/64)
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["integrand"] = {"tag": "linear", "params": {"matrix": [[1], [2], [-1], [0.5]]}}
    sc = Scenario(cfg)
    sc.cfg["checks"].update(qc=False, sequences=False, refinement=True)
    verdict = analyze(sc)
    assert verdict.errors == []
    assert [r.deficit for r in verdict.qslb_reports] == [-2.5, -2.5]
    rows = verdict.extras["refinement"]
    assert [r["h"] for r in rows] == [1.0 / 32, 1.0 / 64] * 2
    assert all(abs(r["deficit"] + 2.5) <= 1e-9 for r in rows)


@pytest.mark.parametrize("name", ["norm_square", "nulllag_square"])
def test_closed_form_boundary_checks_build_no_mesh_and_run_no_solve(name, monkeypatch):
    sc = load(name)
    sc.cfg["checks"]["qc"] = False
    want = [r.to_json() for r in analyze(sc).qslb_reports]

    def refused(*args, **kwargs):
        raise AssertionError("no half-ball mesh or solve expected")

    monkeypatch.setattr(bvlsc.boundary, "halfball_mesh", refused)
    monkeypatch.setattr(bvlsc.boundary, "minimize_fields", refused)
    verdict = analyze(sc)
    assert verdict.errors == []
    assert [r.to_json() for r in verdict.qslb_reports] == want
    assert len(want) == len(sc.boundary_points()[0]) > 0
    assert all(r["diagnostics"]["source"] == "closed_form" for r in want)
    assert verdict.overall == "inconclusive"  # no qc report


@pytest.mark.parametrize("section", ["mesh", "qc", "qslb"])
@pytest.mark.parametrize("h", [0.0, -0.1])
def test_nonpositive_mesh_size_is_schema_error(tmp_path, capsys, section, h):
    cfg = json.loads(resolve_config("norm_square").read_text())
    cfg[section]["h"] = h
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    code, verdict = run_scenario(path, out_dir=tmp_path / "out")
    assert (code, verdict) == (2, None)
    assert f"'{section}.h' must be a positive number" in capsys.readouterr().out


def test_an_integer_beyond_the_float_range_is_schema_error(tmp_path, capsys):
    cfg = json.loads(resolve_config("norm_square").read_text())
    cfg["mesh"]["h"] = 10**400
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    code, verdict = run_scenario(path, out_dir=tmp_path / "out")
    assert (code, verdict) == (2, None)
    assert "'mesh.h' must be a positive number" in capsys.readouterr().out


@pytest.mark.parametrize("h", [0.0, -0.1])
def test_nonpositive_h_override_is_rejected(tmp_path, h):
    code, verdict = run_scenario(resolve_config("norm_square"),
                                 out_dir=tmp_path / "out", h=h)
    assert (code, verdict) == (2, None)
    assert not (tmp_path / "out").exists()


def _run_modified(tmp_path, edit):
    cfg = json.loads(resolve_config("norm_square").read_text())
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    return run_scenario(path, out_dir=tmp_path / "out")


def test_errored_refinement_check_is_inconclusive(tmp_path):
    # h=0.0015 puts every half-ball mesh over the cell budget: the refinement
    # check's mesh solves err, while the closed-form qslb jobs build none
    def edit(cfg):
        cfg["checks"].update(refinement=True, qc=False)
        cfg["qslb"]["h"] = 0.0015

    code, verdict = _run_modified(tmp_path, edit)
    assert code == 0
    assert verdict.overall == "inconclusive"
    assert {e["job"] for e in verdict.errors} == {"refinement"}
    assert verdict.extras["refinement"] == []
    assert len(verdict.qslb_reports) == 4
    assert all((r.deficit, r.diagnostics["source"]) == (1.0, "closed_form")
               for r in verdict.qslb_reports)


@pytest.mark.parametrize("name", ["example_1_2", "norm_square"])
def test_refinement_rows_equal_one_halfball_deficit_per_point_and_h(name):
    sc = load(name)
    sc.cfg["checks"].update(refinement=True, qc=False)
    verdict = analyze(sc)
    q, points = sc.cfg["qslb"], sc.boundary_points()[0]
    alone = [{"x0": bp.x0.tolist(), "h": hh,
              "deficit": bvlsc.boundary.halfball_deficit(
                  sc.recession, bp, h=hh, tol=q["tol"],
                  options=sc.solver_options(9000)).deficit}
             for bp in points for hh in (q["h"], q["h"] / 2)]
    assert len(alone) == 2 * len(points) > 0
    assert json.dumps(verdict.extras["refinement"]) == json.dumps(alone)


def test_an_over_budget_refinement_h_is_an_error_in_point_order(monkeypatch):
    # norm_square's half-balls take 400 cells at h = 0.1 and 1,600 at h = 0.05
    monkeypatch.setattr(bvlsc.meshing, "MAX_CELLS", 1000)
    sc = load("norm_square")
    sc.cfg["checks"].update(refinement=True, qc=False)
    verdict = analyze(sc)
    points = sc.boundary_points()[0]
    rows = verdict.extras["refinement"]
    assert [(r["x0"], r["h"]) for r in rows] == [(bp.x0.tolist(), 0.1) for bp in points]
    assert [e["job"] for e in verdict.errors] == ["refinement"] * len(points)
    assert all("h=0.05 implies about 1600 cells" in e["error"] for e in verdict.errors)
    assert verdict.overall == "inconclusive"


def test_decomposition_on_a_polygon_builds_no_member(monkeypatch):
    calls = []

    def counted(*args, _inner=bvlsc.verdict.generate):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(bvlsc.verdict, "generate", counted)
    sc = load("norm_square")
    sc.cfg["checks"].update(qc=False, qslb=False, decomposition=True)
    sc.cfg["sequence"].update(kind="fixed_trace_oscillation")
    sc.cfg["decomposition"]["prefix"] = 128
    verdict = analyze(sc)
    assert calls == []
    assert verdict.extras["decomposition"] is None
    assert verdict.errors == [{"job": "decomposition", "error": (
        "decomposition is implemented for 1D meshes (cutoff level sets must be "
        "mesh-exact); 2D sequences are not supported")}]


@pytest.mark.filterwarnings("ignore:compact sets leave a cover gap")
@pytest.mark.parametrize("prefix", [1, 80])
def test_decomposition_prefix_is_the_number_of_members_built(monkeypatch, prefix):
    built = []

    def counted(spec, n, _inner=bvlsc.verdict.generate):
        built.append(n)
        return _inner(spec, n)

    monkeypatch.setattr(bvlsc.verdict, "generate", counted)
    sc = load("example_1_2")
    sc.cfg["checks"].update(qc=False, qslb=False, sequences=False, decomposition=True)
    sc.cfg["decomposition"]["prefix"] = prefix
    verdict = analyze(sc)
    assert built == list(range(1, prefix + 1))
    if prefix == 1:  # one member cannot reach n_max = 16
        assert [e["job"] for e in verdict.errors] == ["decomposition"]
        assert verdict.errors[0]["error"].startswith("prefix too short")
    else:
        assert verdict.errors == []
        assert verdict.extras["decomposition"]["result"]["n_values"] == list(range(1, 17))


@pytest.mark.parametrize("term", [{"w": 1, "term": {"tag": "norm"}},
                                  {"w": 1, "term": {"tag": "norm"}, "x": 2}],
                         ids=["two_keys", "three_keys"])
def test_a_composite_term_given_as_an_object_is_a_config_error(tmp_path, capsys, term):
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["integrand"] = {"tag": "composite", "params": {"terms": [
        [1.0, {"tag": "linear", "params": {"matrix": [[1.0]]}}], term]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert (f"'integrand.params.terms[1]' must be [weight, {{\"tag\": ..., \"params\": "
            f"...}}], got {term!r}") in out
    assert not (tmp_path / "out").exists()


def test_errored_mu_table_is_inconclusive(monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("tail did not settle")

    monkeypatch.setattr(bvlsc.verdict, "mu_estimate", broken)
    sc = load("nulllag_square")
    sc.cfg["checks"]["mu"] = True
    verdict = analyze(sc)
    assert [e["job"] for e in verdict.errors] == ["mu"]
    assert "mu_table" not in verdict.extras
    assert verdict.overall == "inconclusive"


def test_empty_cap_grid_is_schema_error(tmp_path, capsys):
    code, verdict = _run_modified(tmp_path, lambda cfg: cfg["qc"].update(L_grid=[]))
    assert (code, verdict) == (2, None)
    assert "'qc.L_grid' must be a non-empty list" in capsys.readouterr().out


@pytest.mark.parametrize("cap", [-1, 0.0, "4", True, None])
def test_nonpositive_or_nonnumeric_cap_is_schema_error(tmp_path, capsys, cap):
    code, verdict = _run_modified(tmp_path,
                                  lambda cfg: cfg["qc"].update(L_grid=[1.0, cap]))
    assert (code, verdict) == (2, None)
    assert "caps must be positive finite numbers" in capsys.readouterr().out


def test_unknown_check_key_is_schema_error(tmp_path, capsys):
    code, verdict = _run_modified(tmp_path,
                                  lambda cfg: cfg["checks"].update(refinment=True))
    assert (code, verdict) == (2, None)
    assert "unknown check 'refinment'" in capsys.readouterr().out


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: cfg["solver"].update(max_iter=0, patience=-3),
     "'solver.max_iter' must be a positive integer"),
    (lambda cfg: cfg["solver"].update(restarts="many"),
     "'solver.restarts' must be a positive integer"),
    (lambda cfg: cfg["solver"].update(patience=2.0),
     "'solver.patience' must be a positive integer"),
    (lambda cfg: cfg["solver"].update(step0=-0.1), "'solver.step0' must be"),
    (lambda cfg: cfg["solver"].update(smoothing=[0.1, float("inf")]),
     "'solver.smoothing' must be a list"),
    (lambda cfg: cfg["solver"].update(smoothing=0.1), "'solver.smoothing' must be"),
    (lambda cfg: cfg.update(solver=[8]), "'solver' must be an object"),
    (lambda cfg: cfg["sequence"].update(kind="bogus"), "unknown sequence kind 'bogus'"),
    (lambda cfg: cfg["domain"].update(a="x"), "interval domain needs finite numbers"),
    (lambda cfg: cfg["domain"].update(b=None), "interval domain needs finite numbers"),
])
def test_degenerate_solver_sequence_and_domain_are_schema_errors(tmp_path, capsys,
                                                                 edit, message):
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["solver"] = {}
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    code, verdict = run_scenario(path, out_dir=tmp_path / "out")
    assert (code, verdict) == (2, None)
    assert message in capsys.readouterr().out


@pytest.mark.parametrize("edit, message", [
    (lambda cfg: cfg.update(interior_points="x"), "'interior_points' must be a list"),
    (lambda cfg: cfg["xi_samples"].update(random="two"),
     "'xi_samples.random' must be a non-negative integer"),
    (lambda cfg: cfg["integrand"].update(params={"M": "a"}),
     "'integrand.params.M' must be a positive integer"),
    (lambda cfg: cfg.update(boundary_points=3), "'boundary_points' must be a list"),
    (lambda cfg: cfg["integrand"].update(tag="nosuch"), "unknown integrand tag 'nosuch'"),
], ids=["interior_points", "xi_random", "params_M", "boundary_points", "tag"])
def test_mistyped_points_samples_and_integrand_exit_2(tmp_path, capsys, edit, message):
    cfg = json.loads(resolve_config("example_1_2").read_text())
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert message in out
    assert not (tmp_path / "out").exists()


def _mutated(cfg, key, action, value=None):
    """cfg with the dotted key deleted ("delete"), set to value ("set"), or
    given an unknown sibling ("sibling"); missing or non-object sections on
    the way are made empty objects."""
    *path, name = key.split(".")
    parent = cfg
    for part in path:
        if not isinstance(parent.get(part), dict):
            parent[part] = {}
        parent = parent[part]
    if action == "delete":
        parent.pop(name, None)
    elif action == "set":
        parent[name] = value
    else:
        parent[name + "_x"] = value
    return cfg


_MOTIVATION = [("qc", 5, "'qc' must be an object"),
               ("seed", -1, "'seed' must be a non-negative integer"),
               ("seed", True, "'seed' must be a non-negative integer"),
               ("checks.qc", "no", "'checks.qc' must be true or false"),
               ("liminf_tol", "x", "'liminf_tol' must be a non-negative"),
               ("solver.restart", 3, "unknown key 'restart' in 'solver'"),
               ("integrand.params.zzz", 1, "'linear' takes parameters ['matrix']"),
               ("qslb.tol", "x", "'qslb.tol' must be a non-negative"),
               ("decomposition.prefix", -80, "'decomposition.prefix' must be a positive"),
               ("decomposition.cover", [{"pt": [0.0]}], "'decomposition.cover' must be"),
               ("decomposition.n_max", "16", "'decomposition.n_max' must be a positive"),
               ("sequence.n_max", 10**6, "'sequence.n_max' must be a positive integer "
                                         "at most 128, got 1000000"),
               ("decomposition.prefix", 10**5, "'decomposition.prefix' must be a positive "
                                               "integer at most 128, got 100000"),
               # a one-cell grid that read as an lsc violation, a division by
               # zero and a type error in the liminf job, each with exit 0
               ("sequence.params.h", -0.5,
                "'sequence.params.h' must be a positive number, got -0.5"),
               ("sequence.params.h", 0, "'sequence.params.h' must be a positive number, got 0"),
               ("sequence.params.h", "x",
                "'sequence.params.h' must be a positive number, got 'x'")]


@pytest.mark.parametrize("key, value, message", _MOTIVATION,
                         ids=[f"{k}={v!r}" for k, v, _ in _MOTIVATION])
def test_mistyped_or_unknown_key_exits_2(tmp_path, capsys, key, value, message):
    cfg = _mutated(json.loads(resolve_config("example_1_2").read_text()), key, "set",
                   value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert "config error (line " in out and message in out
    assert not (tmp_path / "out").exists()


def test_a_polygon_that_is_not_simple_exits_2(tmp_path, capsys):
    cfg = json.loads(resolve_config("norm_square").read_text())
    cfg["domain"]["vertices"] = [[0, 0], [3, 0], [3, 2], [2, -1], [1, 2]]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    line = bvlsc.verdict._line_of(path.read_text(), "domain")
    assert (f"config error (line {line}): polygon vertex loop is self-intersecting"
            in capsys.readouterr().out)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", bvlsc.verdict.SEQUENCE_KINDS)
def test_an_unknown_sequence_param_exits_2(tmp_path, capsys, kind):
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["sequence"].update(kind=kind, params={"zz": 1})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    line = next(i for i, s in enumerate(path.read_text().splitlines()) if '"zz"' in s)
    known = ", ".join(bvlsc.verdict._SEQUENCE_PARAMS[kind])
    assert (f"config error (line {line + 1}): unknown key 'zz' in 'sequence.params' "
            f"of kind {kind!r} (known: {known})" in capsys.readouterr().out)


@pytest.mark.parametrize("params, bad", [
    ({"h": 0.125, "x0": 0.0, "profile": "bump", "resolution": 8}, None),
    ({"profile": "tent"}, "'sequence.params.profile' must be one of hat|bump, got 'tent'"),
    ({"resolution": 2.5}, "'sequence.params.resolution' must be a positive integer"),
    ({"x0": float("inf")}, "'sequence.params.x0' must be a finite number, got inf"),
])
def test_boundary_rescale_params_are_checked(params, bad):
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["sequence"].update(kind="boundary_rescale", params=params)
    if bad is None:
        assert Scenario(cfg).cfg["sequence"]["params"] == params
    else:
        with pytest.raises(ConfigError, match=re.escape(bad)):
            Scenario(cfg)


def test_every_bundled_scenario_loads_with_its_sequence_params():
    # every kind has its row, so no kind's params go unchecked
    assert set(bvlsc.verdict._SEQUENCE_PARAMS) == {*bvlsc.verdict.SEQUENCE_KINDS, "none"}
    for path in bundled_scenarios().values():
        Scenario.from_file(path)


def test_a_top_level_key_is_reported_at_its_own_line(tmp_path, capsys):
    # "qc" is quoted first inside "checks", on an earlier line
    text = resolve_config("example_1_2").read_text()
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(' "qc":'))
    assert any('"qc"' in line for line in lines[:at])
    lines[at] = ' "qc": 5,'
    path = tmp_path / "cfg.json"
    path.write_text("\n".join(lines) + "\n")
    code, _ = run_scenario(path, out_dir=tmp_path / "out")
    assert code == 2
    assert f"config error (line {at + 1}): 'qc' must be an object" in capsys.readouterr().out
    assert bvlsc.verdict._line_of(text, "checks.qc") < at + 1
    assert bvlsc.verdict._line_of(text, "qc.h") == at + 1
    assert bvlsc.verdict._line_of('{"a": {"b": "]{", "c": 1},\n "c": 2}', "c") == 2
    assert bvlsc.verdict._line_of('{"a": {"c": 1}}', "c") is None


def test_every_default_is_filled_in():
    sc = Scenario({"domain": {"kind": "interval", "a": 0.0, "b": 1.0},
                   "integrand": {"tag": "norm"}})
    for key, (_, default) in bvlsc.verdict._SCHEMA.items():
        value = sc.cfg
        for part in key.split("."):
            value = value[part]
        if default is not bvlsc.verdict._REQUIRED:
            assert value == default, key
    assert sc.cfg["integrand"] == {"tag": "norm", "params": {}}
    assert sc.solver_options(3) == bvlsc.verdict.SolverOptions(
        restarts=8, max_iter=400, seed=3, step0=0.0, smoothing=(0.1, 0.01, 0.001),
        patience=60)


def test_formats_md_has_a_row_for_every_key():
    text = (Path(__file__).resolve().parent.parent / "FORMATS.md").read_text()
    rows = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows[cells[0].strip("`")] = cells[2]
    assert set(rows) == set(bvlsc.verdict._SCHEMA)
    for key, (_, default) in bvlsc.verdict._SCHEMA.items():
        want = ("required" if default is bvlsc.verdict._REQUIRED
                else f"`{json.dumps(default)}`")
        assert rows[key] == want, key


@pytest.mark.parametrize("key, value", [("xi_samples.random", 10**6),
                                        ("interior_points", {"count": 10**6})])
def test_qc_family_over_the_work_budget_is_one_errored_job(tmp_path, key, value):
    # about 1.4 ms a sample: a million samples would run for about 25 minutes
    cfg = _mutated(json.loads(resolve_config("norm_square").read_text()), key, "set",
                   value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1))
    t0 = time.perf_counter()
    code, verdict = run_scenario(path, out_dir=tmp_path / "out")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert verdict.qc_reports == [] and verdict.qslb_reports
    assert len(verdict.errors) == 1 and verdict.errors[0]["job"] == "qc"
    assert "over the budget" in verdict.errors[0]["error"]
    assert verdict.overall == "inconclusive"


def _vector_norm_on_interval(M):
    """example_1_2's interval with f = |xi| on M x 1 matrices: one interior
    point, qc only, 1 + M xi samples of M entries each."""
    cfg = json.loads(resolve_config("example_1_2").read_text())
    cfg["integrand"] = {"tag": "norm", "params": {"M": M, "N": 1}}
    cfg["checks"] = {"qc": True, "qslb": False}
    cfg["xi_samples"] = {"random": 0}
    return Scenario(cfg)


def test_qc_xi_samples_over_the_work_budget_are_one_errored_job(monkeypatch):
    # 31 samples x 30 entries = 930 > 800, while the 31 closed-form jobs
    # x 8 cells x 3 caps = 744 fit: the samples are refused before one is built
    monkeypatch.setattr(bvlsc.minimize, "MAX_WORK", 800)
    monkeypatch.setattr(Scenario, "xi_samples", None)
    verdict = analyze(_vector_norm_on_interval(30))
    assert verdict.qc_reports == []
    assert verdict.errors == [{"job": "qc", "error": "qc family needs 31 xi samples x 30 "
                                                     "entries, over the budget 800"}]
    assert verdict.overall == "inconclusive"


def test_mu_table_over_the_work_budget_is_one_errored_job(monkeypatch):
    # 5 t values x 2,000 samples x 40,000 entries: about 640 MB a draw, priced
    # and refused before mu_estimate allocates anything
    def no_draw(*args, **kwargs):
        raise AssertionError("mu_estimate ran")

    monkeypatch.setattr(bvlsc.verdict, "mu_estimate", no_draw)
    scenario = _vector_norm_on_interval(40_000)
    scenario.cfg["checks"] = {**scenario.cfg["checks"], "qc": False, "mu": True}
    verdict = analyze(scenario)
    assert "mu_table" not in verdict.extras
    assert verdict.errors == [{"job": "mu", "error": "mu table needs 5 x 2000 samples x "
                                                     "40000 entries, over the budget 5e+07"}]
    assert verdict.overall == "inconclusive"


def test_mu_table_within_the_work_budget_runs():
    scenario = _vector_norm_on_interval(2)
    scenario.cfg["checks"] = {**scenario.cfg["checks"], "qc": False, "mu": True}
    verdict = analyze(scenario)
    assert verdict.errors == [] and len(verdict.extras["mu_table"]) == 5


def test_a_thousand_row_qc_family_fits_the_default_budget():
    verdict = analyze(_vector_norm_on_interval(1000))
    assert verdict.errors == [] and len(verdict.qc_reports) == 1001
    assert all(rep.verdict == "qc-plausible" for _, rep in verdict.qc_reports)


_BUNDLED_CONFIGS = {name: json.loads(path.read_text())
                    for name, path in bundled_scenarios().items()}
_FIELDS = ["kind", "a", "b", "vertices", "restarts", "max_iter", "patience",
           "step0", "smoothing", "n_max", "params"]
_PARAM_KEYS = ["h", "x0", "profile", "resolution", "amplitude"]  # sequence.params
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["interval", "polygon", "none", "jump_migration", "hat"])
    | st.text(max_size=6)
    | st.lists(st.lists(st.integers(-2, 2) | st.floats(-2, 2), min_size=2, max_size=2),
               min_size=3, max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_PARAM_KEYS) | st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
_json_objects = st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=6),
                                _json_values, max_size=5)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_BUNDLED_CONFIGS)),
       section=st.sampled_from(["domain", "solver", "sequence"]),
       obj=_json_objects)
def test_any_object_as_domain_solver_or_sequence_is_valid_or_a_config_error(
        name, section, obj):
    cfg = json.loads(json.dumps(_BUNDLED_CONFIGS[name]))
    cfg[section] = obj
    try:
        scenario = Scenario(cfg)
    except ConfigError:
        return
    scenario.solver_options()


# -- no wlsc-plausible without evidence ---------------------------------------------


def test_no_check_run_is_inconclusive():
    # negnorm is not quasiconvex; with every check off nothing says so
    sc = load("negnorm_square")
    sc.cfg["checks"] = {key: False for key in sc.cfg["checks"]}
    verdict = analyze(sc)
    assert verdict.qc_reports == [] and verdict.qslb_reports == []
    assert verdict.errors == []
    assert verdict.overall == "inconclusive"


def test_unchecked_corner_and_empirical_liminf_violation_are_inconclusive():
    # the only requested boundary point is a corner, so no half-ball test
    # runs, and the liminf table shows an empirical lsc violation
    sc = load("negnorm_square")
    sc.cfg["checks"]["qc"] = False
    sc.cfg["boundary_points"] = [[0.0, 0.0]]
    verdict = analyze(sc)
    assert verdict.qslb_reports == [] and "corner_notes" in verdict.extras
    assert verdict.extras["liminf"]["verdict"] == "lsc violated empirically"
    assert verdict.errors == []
    assert verdict.overall == "inconclusive"


@pytest.mark.parametrize("edit", ["qc_off", "qslb_off", "corner", "liminf_violated"])
def test_each_missing_piece_of_evidence_alone_is_inconclusive(edit, monkeypatch):
    sc = load("norm_square")
    if edit == "qc_off":
        sc.cfg["checks"]["qc"] = False
    elif edit == "qslb_off":
        sc.cfg["checks"]["qslb"] = False
    elif edit == "corner":
        sc.cfg["boundary_points"] = [[0.5, 0.0], [1.0, 1.0]]
    else:
        def violated(*args, **kwargs):
            return {"verdict": "lsc violated empirically", "table": []}

        monkeypatch.setattr(bvlsc.verdict, "empirical_liminf", violated)
        sc.cfg["checks"]["sequences"] = True
    sc.cfg["qc"]["L_grid"] = [1.0]
    verdict = analyze(sc)
    assert verdict.errors == []
    assert verdict.overall == "inconclusive"
    sc.cfg["boundary_points"] = []  # nothing requested: nothing missing
    if edit in ("qslb_off", "corner"):
        assert analyze(sc).overall == "wlsc-plausible"


def test_a_qc_family_that_raises_gives_each_job_its_error(monkeypatch):
    # area has no split, so every qc job solves on the mesh; the family
    # raises as a whole and each job records the one error
    import bvlsc.quasiconvex

    def raising(objective, problems, on=None, floors=None):
        raise RuntimeError("boom")

    cfg = json.loads(resolve_config("norm_square").read_text())
    cfg["integrand"] = {"tag": "area", "params": {"M": 1, "N": 2}}
    sc = Scenario(cfg)
    sc.cfg["checks"].update(qslb=False, sequences=False)
    monkeypatch.setattr(bvlsc.quasiconvex, "minimize_fields", raising)
    verdict = analyze(sc)
    jobs = len(list(sc.interior_points())) * len(list(sc.xi_samples()))
    assert jobs > 1
    assert verdict.errors == [{"job": "qc", "error": "boom"}] * jobs
    assert verdict.qc_reports == []
    assert verdict.overall == "inconclusive"


def test_a_family_that_raises_gives_each_job_its_error(monkeypatch):
    # the qslb family of four mesh solves raises as a whole: it runs once, and
    # each boundary point records the one error
    calls = []

    def raising(objective, problems, on=None, floors=None):
        calls.append(len(problems))
        raise RuntimeError("boom")

    sc = linear_square()
    sc.cfg["checks"].update(qc=False, sequences=False)
    monkeypatch.setattr(bvlsc.boundary, "minimize_fields", raising)
    verdict = analyze(sc)
    assert calls == [4]
    assert verdict.errors == [{"job": "qslb", "error": "boom"}] * 4
    assert verdict.qslb_reports == []
    assert verdict.overall == "inconclusive"


# -- whole-config fuzz ------------------------------------------------------------


_KEYS = sorted(set(bvlsc.verdict._SCHEMA) | set(filter(None, bvlsc.verdict._SECTIONS)))
_wrong_typed = (st.none() | st.booleans() | st.text(max_size=4) | st.sampled_from([5, 0.5])
                | st.lists(st.integers(-2, 2) | st.floats(-2, 2), max_size=3)
                | st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2))
_out_of_range = (st.integers(-10**9, 0) | st.floats(max_value=0.0)
                 | st.sampled_from([float("inf"), float("nan"), 10**400]))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(_BUNDLED_CONFIGS)), key=st.sampled_from(_KEYS),
       action=st.sampled_from(["delete", "set", "sibling"]),
       value=_wrong_typed | _out_of_range)
@example(name="example_1_2", key="qc", action="set", value=5)
@example(name="example_1_2", key="seed", action="set", value=-1)
@example(name="example_1_2", key="seed", action="set", value=True)
@example(name="example_1_2", key="checks.qc", action="set", value="no")
@example(name="example_1_2", key="liminf_tol", action="set", value="x")
@example(name="example_1_2", key="solver.restarts", action="sibling", value=3)
@example(name="example_1_2", key="integrand.params.zzz", action="set", value=1)
@example(name="example_1_2", key="qslb.tol", action="set", value="x")
@example(name="example_1_2", key="decomposition.prefix", action="set", value="x")
@example(name="example_1_2", key="decomposition.cover", action="set", value=[{}])
@example(name="example_1_2", key="decomposition.n_max", action="set", value=-1)
def test_any_mutated_bundled_config_runs_or_is_a_config_error(name, key, action, value):
    cfg = _mutated(json.loads(json.dumps(_BUNDLED_CONFIGS[name])), key, action, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg, indent=1))
        t0 = time.perf_counter()
        code, _ = run_scenario(path, out_dir=Path(tmp) / "out")
        assert time.perf_counter() - t0 < 20.0
    assert code in (0, 2)
