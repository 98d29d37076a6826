import numpy as np
import pytest

from bvlsc import minimize
from bvlsc.boundary import (
    _halfball_clamped,
    epsdelta_probe,
    equivalence_harness,
    halfball_deficit,
)
from bvlsc.integrands import catalog_get, freeze_x, modulate
from bvlsc.meshing import BoundaryPoint, Domain, build_mesh, halfball_mesh
from bvlsc.minimize import BulkObjective, SolverOptions

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
