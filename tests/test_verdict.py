import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvlsc.boundary
import bvlsc.verdict
from bvlsc.cli import bundled_scenarios, main, resolve_config
from bvlsc.integrands import catalog_get
from bvlsc.meshing import BoundaryPoint
from bvlsc.minimize import minimize_fields
from bvlsc.verdict import ConfigError, Scenario, analyze, run_scenario


def load(name):
    return Scenario.from_file(resolve_config(name))


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


def test_unbudgeted_solver_work_fails_fast(tmp_path):
    # 194,688 qc cells pass the cell budget, but 8 restarts x 400 iterations
    # on them would run for about an hour
    cfg = json.loads(resolve_config("norm_square").read_text())
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


def test_quotient_outside_homogeneity_bound_is_errored_qslb_check(monkeypatch):
    def out_of_bound(*args, **kwargs):
        results = minimize_fields(*args, **kwargs)
        for res in results:
            res.value = -3.0  # the norm's recession function has C_inf = 1
        return results

    monkeypatch.setattr(bvlsc.boundary, "minimize_fields", out_of_bound)
    norm = catalog_get("norm", {"M": 1, "N": 2})
    with pytest.raises(bvlsc.boundary.QuotientBoundError):
        bvlsc.boundary.halfball_deficit(
            norm.recession, BoundaryPoint([0.0, 0.5], [-1.0, 0.0]), h=0.25)
    sc = load("norm_square")
    sc.cfg["checks"]["qc"] = False
    verdict = analyze(sc)
    assert verdict.qslb_reports == []
    assert verdict.errors and {e["job"] for e in verdict.errors} == {"qslb"}
    assert all("homogeneity bound" in e["error"] for e in verdict.errors)
    assert verdict.overall == "inconclusive"


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
    # h=0.0015 puts every half-ball mesh over the cell budget, the refinement
    # check's included
    def edit(cfg):
        cfg["checks"].update(refinement=True, qc=False)
        cfg["qslb"]["h"] = 0.0015

    code, verdict = _run_modified(tmp_path, edit)
    assert code == 0
    assert verdict.overall == "inconclusive"
    assert {e["job"] for e in verdict.errors} == {"qslb", "refinement"}
    assert verdict.extras["refinement"] == []


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


_BUNDLED_CONFIGS = {name: json.loads(path.read_text())
                    for name, path in bundled_scenarios().items()}
_FIELDS = ["kind", "a", "b", "vertices", "restarts", "max_iter", "patience",
           "step0", "smoothing", "n_max", "params"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["interval", "polygon", "none", "jump_migration"])
    | st.text(max_size=6)
    | st.lists(st.lists(st.integers(-2, 2) | st.floats(-2, 2), min_size=2, max_size=2),
               min_size=3, max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
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


def test_a_family_that_raises_falls_back_to_each_job_alone(monkeypatch):
    # a family holding the boundary point of seed 1001 raises as a whole; run
    # alone, that point errs and the other keeps its violation
    def raising(objective, problems, on=None):
        if any(opts.seed == 1001 for _, _, opts in problems):
            raise RuntimeError("boom")
        return minimize_fields(objective, problems, on)

    sc = load("example_1_2")
    sc.cfg["checks"].update(qc=False, sequences=False)
    want = analyze(sc)
    assert len(want.qslb_reports) == 2
    monkeypatch.setattr(bvlsc.boundary, "minimize_fields", raising)
    verdict = analyze(sc)
    assert verdict.errors == [{"job": "qslb", "error": "boom"}]
    assert [r.to_json() for r in verdict.qslb_reports] == [want.qslb_reports[0].to_json()]
    assert verdict.qslb_reports[0].verdict == "violated"
    assert verdict.overall == "not-wlsc"
