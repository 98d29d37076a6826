import json
import re

import numpy as np
import pytest

from bvlsc import boundary, minimize
from bvlsc.boundary import (
    _halfball_clamped,
    _strip_witness,
    epsdelta_probe,
    equivalence_harness,
    halfball_deficit,
    qslb_deficits,
)
from bvlsc.integrands import RecessionFn, catalog_get, freeze_x, modulate
from bvlsc.meshing import BoundaryPoint, Domain, MeshBudgetError, build_mesh, halfball_mesh
from bvlsc.minimize import BulkObjective, SolverBudgetError, SolverOptions, TVObjective

FAST = SolverOptions(restarts=6, max_iter=200)
LIN = catalog_get("linear", {"matrix": [[1.0]]})


def test_halfball_1d_linear_quotient_minus_one():
    bp = BoundaryPoint([0.0], [-1.0])
    rep = halfball_deficit(LIN.recession, bp, h=1.0 / 16, options=FAST)
    assert rep.deficit == pytest.approx(-1.0, abs=1e-9)
    assert rep.verdict == "violated"
    assert rep.witness is not None
    assert rep.witness.gradient_tv() == pytest.approx(1.0, abs=1e-9)


def test_halfball_bound_uses_c_inf_at_the_boundary_point():
    # c(x) = 1 + x / 2: at x0 = 1 the quotient is -c(1) = -1.5, past the
    # sphere bound C_inf = 1 of the origin
    rec = modulate(LIN, 1.0, [0.5]).recession
    assert rec.sup_on_sphere() == pytest.approx(1.0)
    rep = halfball_deficit(rec, BoundaryPoint([1.0], [1.0]), h=0.0625)
    assert rep.deficit == pytest.approx(-1.5, abs=1e-6)
    assert rep.diagnostics["sphere_bound"] == pytest.approx(1.5)
    assert rep.verdict == "violated"


def test_every_caller_init_of_a_2d_halfball_is_run(monkeypatch):
    """The starts hold the four tents, all eight boundary-layer ramps (four
    widths, two signs) and both caller inits, none cut off by the restart
    count."""
    nu = np.array([1.0, 0.0])
    mesh = halfball_mesh(nu, 0.2)
    clamped = _halfball_clamped(mesh, nu)
    caller = np.random.default_rng(9).normal(size=(2, mesh.n_vertices, 1))
    caller[:, clamped] = 0.0
    starts = []

    def recorded(*args, _inner=minimize.default_inits):
        starts.extend(_inner(*args))
        return starts

    monkeypatch.setattr(minimize, "default_inits", recorded)
    opts = SolverOptions(restarts=8, max_iter=30, extra_inits=tuple(caller))
    halfball_deficit(catalog_get("norm", {"M": 1, "N": 2}).recession,
                     BoundaryPoint([0.0, 0.0], nu), h=0.2, options=opts)
    assert len(starts) == 4 + 8 + 2
    for u in caller:
        assert any(np.array_equal(u, v) for v in starts)


def test_halfball_tangential_null_lagrangian_vanishes():
    nu = np.array([1.0, 0.0])
    f = catalog_get("boundary_null_lagrangian", {"a": [1.0], "t": [0.0, 1.0]})
    bp = BoundaryPoint([0.0, 0.0], nu)
    rep = halfball_deficit(f.recession, bp, h=0.05, options=FAST)
    assert abs(rep.deficit) <= 1e-3
    assert rep.verdict == "qslb-plausible"

    # brute force: the integral vanishes for every admissible discrete field
    mesh = halfball_mesh(nu, 0.1)
    from bvlsc.boundary import _halfball_clamped

    clamped = _halfball_clamped(mesh, nu)
    g = freeze_x(f.recession.as_integrand(), bp.x0)
    obj = BulkObjective(mesh, g)
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.normal(size=(mesh.n_vertices, 1))
        v[clamped] = 0.0
        assert abs(obj.value(v)) <= 1e-10


def test_halfball_norm_quotient_is_one():
    f = catalog_get("norm", {"M": 1, "N": 2})
    bp = BoundaryPoint([0.0, 0.0], [1.0, 0.0])
    rep = halfball_deficit(f.recession, bp, h=0.1, options=FAST)
    assert rep.deficit == pytest.approx(1.0, abs=1e-6)


def test_halfball_rotation_equivariance():
    a = [1.0]
    vals = []
    for nu in ([1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)], [0.0, -1.0]):
        nu = np.asarray(nu) / np.linalg.norm(nu)
        f = catalog_get("boundary_null_lagrangian", {"a": a, "t": nu.tolist()})
        bp = BoundaryPoint([0.0, 0.0], nu)
        rep = halfball_deficit(f.recession, bp, h=0.1, options=FAST)
        vals.append(rep.deficit)
    assert max(vals) - min(vals) <= 0.05


def test_halfball_refinement_stability():
    f = catalog_get("norm", {"M": 1, "N": 2})
    bp = BoundaryPoint([0.0, 0.0], [1.0, 0.0])
    d1 = halfball_deficit(f.recession, bp, h=0.1, options=FAST).deficit
    d2 = halfball_deficit(f.recession, bp, h=0.05, options=FAST).deficit
    assert abs(d1 - d2) <= 0.05


def test_epsdelta_linear_unbounded_signature():
    mesh = build_mesh(Domain.interval(0.0, 1.0), 1.0 / 32)
    bp = BoundaryPoint([0.0], [-1.0])
    probe = epsdelta_probe(LIN, bp, mesh, eps_grid=(0.5,), delta_grid=(0.3,),
                           options=FAST)
    minima = {r["R"]: r["minimum"] for r in probe["rows"]}
    for R in (1.0, 10.0, 100.0):
        assert minima[R] == pytest.approx(-(1.0 - 0.5) * R, rel=1e-6)
    assert probe["verdicts"][(0.5, 0.3)] == "unbounded-below"


def test_epsdelta_norm_plateau_at_zero():
    mesh = build_mesh(Domain.interval(0.0, 1.0), 1.0 / 32)
    bp = BoundaryPoint([0.0], [-1.0])
    f = catalog_get("norm")
    probe = epsdelta_probe(f, bp, mesh, eps_grid=(0.5,), delta_grid=(0.3,),
                           options=FAST)
    assert all(abs(r["minimum"]) <= 1e-12 for r in probe["rows"])
    assert probe["verdicts"][(0.5, 0.3)] == "bounded plausible"


def test_epsdelta_eps_dominates_lipschitz():
    mesh = build_mesh(Domain.interval(0.0, 1.0), 1.0 / 32)
    bp = BoundaryPoint([0.0], [-1.0])
    probe = epsdelta_probe(LIN, bp, mesh, eps_grid=(2.0,), delta_grid=(0.3,),
                           options=FAST)
    assert all(r["minimum"] >= -1e-9 for r in probe["rows"])
    assert probe["verdicts"][(2.0, 0.3)] == "bounded plausible"


def test_epsdelta_monotone_in_eps():
    mesh = build_mesh(Domain.interval(0.0, 1.0), 1.0 / 32)
    bp = BoundaryPoint([0.0], [-1.0])
    probe = epsdelta_probe(LIN, bp, mesh, eps_grid=(0.1, 0.5, 0.9),
                           delta_grid=(0.3,), options=FAST)
    at_R10 = {r["eps"]: r["minimum"] for r in probe["rows"] if r["R"] == 10.0}
    assert at_R10[0.1] <= at_R10[0.5] <= at_R10[0.9]


def test_epsdelta_probe_at_polygon_corner():
    # corners have no single normal: the patch probe is the offered route
    sq = build_mesh(Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.125)
    f = catalog_get("norm", {"M": 1, "N": 2})
    probe = epsdelta_probe(f, np.array([0.0, 0.0]), sq, eps_grid=(0.5,),
                           delta_grid=(0.25,), options=FAST)
    assert all(abs(r["minimum"]) <= 1e-12 for r in probe["rows"])
    assert probe["verdicts"][(0.5, 0.25)] == "bounded plausible"


def test_equivalence_refuses_curved_boundary():
    f = catalog_get("norm", {"M": 1, "N": 2})
    hb = halfball_mesh([1.0, 0.0], 0.2)
    arc_point = BoundaryPoint([-1.0, 0.0], [-1.0, 0.0])
    with pytest.raises(ValueError, match="curved"):
        equivalence_harness(f, f.recession, arc_point, hb, options=FAST)


def test_equivalence_interior_norm_all_agree():
    f = catalog_get("norm")
    mesh = build_mesh(Domain.interval(0.0, 1.0), 1.0 / 16)
    rep = equivalence_harness(f, f.recession, np.array([0.5]), mesh, options=FAST)
    assert rep["agreement"]
    assert rep["forms"]["qc_at_zero"]["verdict"] == "qslb-plausible"


def test_equivalence_interior_negnorm_all_violated():
    f = catalog_get("negnorm")
    mesh = build_mesh(Domain.interval(0.0, 1.0), 1.0 / 16)
    rep = equivalence_harness(f, f.recession, np.array([0.5]), mesh, options=FAST)
    assert rep["agreement"]
    assert all(v["verdict"] == "violated" for v in rep["forms"].values())


def test_equivalence_boundary_linear_all_violated():
    mesh = build_mesh(Domain.interval(0.0, 1.0), 1.0 / 16)
    bp = BoundaryPoint([0.0], [-1.0])
    rep = equivalence_harness(LIN, LIN.recession, bp, mesh, options=FAST)
    assert rep["agreement"]
    assert rep["forms"]["halfball"]["verdict"] == "violated"
    assert rep["forms"]["frozen"]["verdict"] == "violated"
    assert rep["forms"]["unfrozen"]["verdict"] == "violated"


# -- closed-form half-ball quotients ----------------------------------------------


def _nulllag(a, t):
    return catalog_get("boundary_null_lagrangian", {"a": a, "t": t})


NORM2 = catalog_get("norm", {"M": 1, "N": 2})
BP1 = BoundaryPoint([0.0], [-1.0])
BP2 = BoundaryPoint([0.0, 0.5], [-1.0, 0.0])
# (recession, boundary point): every catalog form, 1D and 2D with A nu = 0
CLOSED = {
    "norm-1d": (catalog_get("norm").recession, BP1),
    "norm-2d": (NORM2.recession, BP2),
    "negnorm-1d": (catalog_get("negnorm").recession, BoundaryPoint([1.0], [1.0])),
    "negnorm-2d": (catalog_get("negnorm", {"M": 1, "N": 2}).recession, BP2),
    "area-2d": (catalog_get("area", {"M": 1, "N": 2}).recession, BP2),
    "norm_sin-1d": (catalog_get("norm_sin").recession, BP1),
    "norm_sin-2d": (catalog_get("norm_sin", {"M": 1, "N": 2}).recession,
                    BoundaryPoint([0.5, 1.0], [0.0, 1.0])),
    "nulllag-tangential": (_nulllag([1.0], [0.0, 1.0]).recession, BP2),
    "nulllag-tangential-rotated": (
        _nulllag([2.0], [-np.sqrt(0.5), np.sqrt(0.5)]).recession,
        BoundaryPoint([0.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)])),
    "linear-1d-M1": (LIN.recession, BP1),
    "linear-1d-M3": (catalog_get("linear", {"matrix": [[1.0], [-2.0], [0.5]]}).recession,
                     BoundaryPoint([1.0], [1.0])),
    "composite-1d": (catalog_get("composite", {"terms": [
        [1.0, {"tag": "norm"}], [-0.5, {"tag": "linear", "params": {"matrix": [[3.0]]}}],
    ]}).recession, BP1),
    "composite-2d": (catalog_get("composite", {"terms": [
        [2.0, {"tag": "norm", "params": {"M": 1, "N": 2}}],
        [1.0, {"tag": "boundary_null_lagrangian", "params": {"a": [5.0], "t": [0.0, 1.0]}}],
    ]}).recession, BP2),
    "modulate-1d": (modulate(LIN, 1.0, [0.5]).recession, BoundaryPoint([1.0], [1.0])),
    "modulate-2d": (modulate(NORM2, 1.0, [0.5, -0.25]).recession,
                    BoundaryPoint([1.0, 0.5], [1.0, 0.0])),
    "freeze_x-1d": (freeze_x(modulate(LIN, 2.0, [-1.0]), [0.5]).recession, BP1),
    "freeze_x-2d": (freeze_x(modulate(NORM2, 1.0, [1.0, 1.0]), [0.5, 0.5]).recession, BP2),
}


def _ramp_quotient(finf, bp, h):
    """The exact mesh quotient of the strip ramp of bp's half-ball at h."""
    c, A = finf.split_at(bp.x0)
    a_nu = A @ bp.normal
    r = np.linalg.norm(a_nu)
    s = -a_nu / r if r > 1e-12 * np.linalg.norm(A) else np.eye(finf.M)[0]
    mesh = halfball_mesh(bp.normal, h)
    witness = _strip_witness(mesh, bp.normal, s)
    g = freeze_x(finf.as_integrand(), bp.x0)
    return (BulkObjective(mesh, g).value(witness.values)
            / TVObjective(mesh, finf.M).value(witness.values)), witness


@pytest.mark.parametrize("case", sorted(CLOSED))
def test_closed_form_deficit_is_its_witness_ramps_mesh_quotient(case):
    finf, bp = CLOSED[case]
    h = 0.25 if len(bp.normal) == 2 else 1.0 / 16
    (rep,) = qslb_deficits(finf, [(bp, FAST)], h=h)
    c, A = finf.split_at(bp.x0)
    assert rep.deficit == c - np.linalg.norm(A @ bp.normal)
    assert rep.diagnostics["source"] == "closed_form"
    assert rep.diagnostics["iterations"] == 0 and not rep.low_confidence
    quotient, witness = _ramp_quotient(finf, bp, h)
    assert abs(rep.deficit - quotient) <= 1e-12
    assert rep.verdict == ("violated" if rep.deficit < -rep.tol else "qslb-plausible")
    if rep.verdict == "violated":
        assert rep.witness.values.tobytes() == witness.values.tobytes()
        assert rep.witness.gradient_tv() == pytest.approx(1.0, abs=1e-12)
        assert rep.diagnostics["witness_quotient"] == pytest.approx(quotient, abs=1e-15)
        assert rep.diagnostics["h"] == halfball_mesh(bp.normal, h).h
    else:
        assert rep.witness is None
        assert {"h", "witness_quotient"}.isdisjoint(rep.diagnostics)
    if finf.M == 1:
        mesh_rep = halfball_deficit(finf, bp, h=h, options=FAST)
        assert abs(rep.deficit - mesh_rep.deficit) <= 1e-6


def test_closed_form_bounds_the_mesh_solve_of_a_vector_valued_1d_field():
    # |A| = sqrt(2): the half-ball infimum is attained by a monotone profile
    # times -A/|A|, the strip ramp the mesh solve starts from
    finf = catalog_get("linear", {"matrix": [[1.0], [1.0]]}).recession
    (rep,) = qslb_deficits(finf, [(BP1, None)], h=1.0 / 16)
    assert rep.deficit == -np.sqrt(2.0)
    assert rep.diagnostics["witness_quotient"] == pytest.approx(-np.sqrt(2.0), abs=1e-12)
    assert rep.deficit <= halfball_deficit(finf, BP1, h=1.0 / 16, options=FAST).deficit


def test_a_2d_job_with_a_normal_trace_takes_the_mesh_solve():
    finf = catalog_get("linear", {"matrix": [[0.6, -0.8]]}).recession
    bp = BoundaryPoint([0.5, 0.0], [0.0, -1.0])
    (rep,) = qslb_deficits(finf, [(bp, FAST)], h=0.25)
    want = halfball_deficit(finf, bp, h=0.25, options=FAST)
    assert rep.diagnostics["source"] == "mesh"
    assert json.dumps(rep.to_json()) == json.dumps(want.to_json())


def test_jobs_without_a_closed_form_run_as_one_family_in_job_order(monkeypatch):
    families = []

    def recorded(finf, jobs, h=0.05, tol=1e-3, _inner=boundary.halfball_deficits):
        families.append([bp for bp, _ in jobs])
        return _inner(finf, jobs, h=h, tol=tol)

    monkeypatch.setattr(boundary, "halfball_deficits", recorded)
    # f = 2 |xi| + 0.5 * (0.6, -0.8) . xi: A nu != 0 on the bottom and left
    # edges, A nu = 0 on none
    f = catalog_get("composite", {"terms": [
        [2.0, {"tag": "norm", "params": {"M": 1, "N": 2}}],
        [0.5, {"tag": "linear", "params": {"matrix": [[0.6, -0.8]]}}]]})
    pts = [BoundaryPoint([0.5, 0.0], [0.0, -1.0]), BoundaryPoint([0.0, 0.5], [-1.0, 0.0])]
    user = RecessionFn(lambda x, xi: 2.0 * np.linalg.norm(xi.reshape(len(xi), -1), axis=1),
                       1, 2)
    reps = qslb_deficits(f.recession, [(bp, FAST) for bp in pts], h=0.25)
    assert families == [pts]
    assert [r.diagnostics["source"] for r in reps] == ["mesh", "mesh"]
    reps = qslb_deficits(user, [(pts[0], FAST)], h=0.25)
    assert families[-1] == [pts[0]] and reps[0].deficit == pytest.approx(2.0, abs=1e-6)
    tangential = _nulllag([1.0], [0.0, 1.0]).recession
    families.clear()
    reps = qslb_deficits(tangential, [(pts[0], FAST), (pts[1], FAST)], h=0.25)
    assert families == [[pts[0]]]
    assert [r.diagnostics["source"] for r in reps] == ["mesh", "closed_form"]


def test_a_closed_form_job_errs_as_its_mesh_solve_would_over_budget():
    # the M = 4 field's solve also starts from its strip ramp
    lin4 = catalog_get("linear", {"matrix": [[1.0], [2.0], [-1.0], [0.5]]})
    for finf, bp, h, opts in [(NORM2.recession, BP2, 1e-3, FAST),
                              (LIN.recession, BP1, 1e-6, FAST),
                              (LIN.recession, BP1, 1.0 / 16, SolverOptions(max_iter=10**9)),
                              (lin4.recession, BP1, 1.0 / 16, SolverOptions(max_iter=10**9))]:
        (got,) = qslb_deficits(finf, [(bp, opts)], h=h)
        with pytest.raises(type(got), match=re.escape(str(got))):
            halfball_deficit(finf, bp, h=h, options=opts)
        assert isinstance(got, (MeshBudgetError, SolverBudgetError))
    assert "x 41 restarts x" in str(got)  # 8 tents and ramps per component + the strip


def test_exact_sphere_bound_keeps_a_vector_valued_quotient_in_bounds():
    # the 256-sample sphere maximum of |A : xi| is 2.416 < |A| = 2.5, below
    # the quotient the solver reaches
    finf = catalog_get("linear", {"matrix": [[1.0], [2.0], [-1.0], [0.5]]}).recession
    assert finf.sup_on_sphere([0.0]) < 2.45
    rep = halfball_deficit(finf, BP1, h=1.0 / 16)
    assert rep.diagnostics["sphere_bound"] == 2.5
    assert -2.5 <= rep.deficit < -2.45
    assert rep.verdict == "violated"
