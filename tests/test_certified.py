"""Certified stops: a solve ends once its best value reaches a proven lower
bound (its floor).  The checks take the floors from integrand metadata: 0 for
the qc deficit of a convex integrand (Jensen), and the minimum of f_inf on
the unit sphere for the half-ball quotient (1-homogeneity), c - |A|_F where
f_inf(x0, xi) = c |xi|_F + A : xi."""

import dataclasses

import numpy as np
import pytest

import bvlsc.quasiconvex
from bvlsc import minimize
from bvlsc.boundary import _sphere_floor, halfball_deficit
from bvlsc.integrands import (
    Integrand,
    catalog_get,
    composite,
    estimated_recession,
    freeze_x,
    modulate,
)
from bvlsc.meshing import BoundaryPoint, unit_square_mesh
from bvlsc.minimize import BulkObjective, SolverOptions, minimize_field, minimize_fields
from bvlsc.quasiconvex import qc_deficit, qc_deficits
from test_families import _assert_same_result, _recording

NORM = catalog_get("norm", {"M": 1, "N": 2})
LIN = catalog_get("linear", {"matrix": [[0.6, -0.8]]})

# tag and params -> (convex, the floor of the recession)
FLOORS = [
    ("linear", {"matrix": [[0.6, -0.8]]}, True, -1.0),
    ("linear", {"matrix": [[1.0, 2.0], [-2.0, 4.0]]}, True, -5.0),
    ("boundary_null_lagrangian", {"a": [2.0], "t": [0.0, 1.5]}, True, -3.0),
    ("norm", {"M": 2, "N": 2}, True, 1.0),
    ("area", {"M": 1, "N": 2}, True, 1.0),
    ("norm_sin", {"M": 1, "N": 2}, False, 1.0),
    ("negnorm", {"M": 1, "N": 2}, False, -1.0),
    ("composite", {"terms": [[0.5, {"tag": "norm", "params": {"M": 1, "N": 2}}],
                             [2.0, {"tag": "linear", "params": {"matrix": [[0.6, -0.8]]}}]]},
     True, -1.5),
    ("composite", {"terms": [[1.0, {"tag": "area", "params": {"M": 1, "N": 2}}],
                             [0.5, {"tag": "norm_sin", "params": {"M": 1, "N": 2}}]]},
     False, 1.5),
]


def _assert_floor_on_the_sphere(finf, x, floor):
    """floor is a lower bound of finf(x, .) on the unit sphere, attained up to
    sampling."""
    xi = np.random.default_rng(0).normal(size=(4000, finf.M, finf.N))
    xi /= np.linalg.norm(xi.reshape(len(xi), -1), axis=1)[:, None, None]
    vals = finf(np.tile(x, (len(xi), 1)), xi)
    assert vals.min() >= floor - 1e-12
    assert vals.min() <= floor + 0.05 * (1 + abs(floor))


@pytest.mark.parametrize("tag, params, convex, floor", FLOORS,
                         ids=[f"{t}{i}" for i, (t, *_) in enumerate(FLOORS)])
def test_floor_metadata_of_each_catalog_entry(tag, params, convex, floor):
    f = catalog_get(tag, params)
    x = np.zeros(f.N)
    assert f.convex is convex
    assert _sphere_floor(f.recession, x) == pytest.approx(floor, abs=1e-15)
    # freezing the point keeps both
    frozen = freeze_x(f, x)
    assert frozen.convex is convex
    assert _sphere_floor(frozen.recession, x) == _sphere_floor(f.recession, x)
    _assert_floor_on_the_sphere(f.recession, x, floor)


def test_no_floor_without_a_proof():
    def fn(x, xi):
        return np.abs(xi[:, 0, 0])

    user = Integrand(fn, 1, 1, growth=1.0)
    assert user.convex is False
    assert _sphere_floor(estimated_recession(user), np.zeros(1)) is None
    assert NORM.recession.convex is False
    mod = modulate(NORM, 1.0, [0.5, 0.0])
    assert mod.convex is False
    negative = composite([(1.0, NORM), (-0.5, NORM)])
    assert negative.convex is False
    assert composite([(1.0, NORM), (0.5, catalog_get("negnorm", {"M": 1, "N": 2}))]
                     ).convex is False


@pytest.mark.parametrize("name", ["modulated", "negative_weight", "frozen_modulated"])
def test_split_recessions_get_their_exact_floor(name):
    """A modulated recession and a composite with a negative weight: the floor
    at x0 is c - |A|_F of the split there, the minimum on the unit sphere."""
    x0 = np.array([0.2, 0.2])
    finf = {
        "modulated": lambda: modulate(composite([(1.0, NORM), (0.5, LIN)]), 1.0,
                                      [0.5, 0.0]).recession,
        "negative_weight": lambda: composite([(1.0, NORM), (-2.0, LIN)]).recession,
        "frozen_modulated": lambda: freeze_x(modulate(LIN, 1.0, [0.5, 0.0]), x0).recession,
    }[name]()
    c, A = finf.split_at(x0)
    floor = _sphere_floor(finf, x0)
    assert floor == float(c) - float(np.linalg.norm(A))
    assert floor == pytest.approx({"modulated": 0.55, "negative_weight": -1.0,
                                   "frozen_modulated": -1.1}[name], abs=1e-15)
    _assert_floor_on_the_sphere(finf, x0, floor)


# -- the checks end at their floors -------------------------------------------------


FAST = SolverOptions(restarts=6, max_iter=200)


def test_convex_qc_check_ends_after_its_starts(monkeypatch):
    seen = _recording(monkeypatch, bvlsc.quasiconvex)
    rep = qc_deficit(NORM, [[0.4, -0.2]], options=FAST)
    assert rep.deficit == 0.0 and rep.verdict == "qc-plausible"
    assert [v for _, v in rep.per_cap] == [0.0, 0.0, 0.0]
    assert [d["iterations"] for d in rep.diagnostics] == [0, 0, 0]
    assert [set(res.stop_reasons) for (res,) in seen] == [{"certified"}] * 3


def test_nonconvex_qc_check_runs_its_iterations(monkeypatch):
    seen = _recording(monkeypatch, bvlsc.quasiconvex)
    rep = qc_deficit(catalog_get("negnorm", {"M": 1, "N": 2}), [[0.0, 0.0]], options=FAST)
    assert rep.verdict == "violated"
    assert all(d["iterations"] > 0 for d in rep.diagnostics)
    assert not any("certified" in res.stop_reasons for (res,) in seen)


@pytest.mark.parametrize("A", [1.0, 2.0, -0.7])
@pytest.mark.parametrize("end", [0, 1])
def test_1d_linear_halfball_ends_at_minus_norm(A, end):
    bp = [BoundaryPoint([0.0], [-1.0]), BoundaryPoint([1.0], [1.0])][end]
    finf = catalog_get("linear", {"matrix": [[A]]}).recession
    rep = halfball_deficit(finf, bp, h=1.0 / 16, options=FAST)
    assert rep.deficit == -abs(A) and rep.verdict == "violated"
    assert rep.diagnostics["iterations"] == 0
    assert rep.witness.gradient_tv() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("end", [0, 1])
def test_1d_modulated_linear_halfball_ends_at_its_floor(end):
    # f_inf(x, xi) = (1 - x / 2) xi: the floor -c(x0) is reached by a start
    bp = [BoundaryPoint([0.0], [-1.0]), BoundaryPoint([1.0], [1.0])][end]
    finf = modulate(catalog_get("linear", {"matrix": [[1.0]]}), 1.0, [-0.5]).recession
    rep = halfball_deficit(finf, bp, h=1.0 / 16, options=FAST)
    assert rep.deficit == _sphere_floor(finf, bp.x0) == [-1.0, -0.5][end]
    assert rep.diagnostics["iterations"] == 0


# -- a floor stops a problem at the same point alone and in a family ---------------


def _family():
    """Three qc-like problems of a nonconvex integrand frozen at three points,
    at one gradient cap."""
    f = modulate(catalog_get("norm_sin", {"M": 1, "N": 2}), 1.0, [0.4, -0.3])
    points = ([0.3, 0.6], [0.7, 0.4], [0.5, 0.5])
    xis = np.array([[[0.0, 0.0]], [[1.0, 0.0]], [[0.3, -0.8]]])
    gs = [freeze_x(f, x) for x in points]
    opts = [SolverOptions(restarts=5, max_iter=90, patience=15, grad_cap=4.0, seed=s)
            for s in (3, 4, 5)]
    return gs, xis, opts


@pytest.mark.parametrize("chunk", ["batch", "split"])
def test_family_with_floors_equals_each_problem_alone(monkeypatch, chunk):
    mesh = unit_square_mesh(4)
    clamped = mesh.boundary_vertices
    gs, xis, opts = _family()

    def alone(p):
        return BulkObjective(mesh, gs[p], xi0=xis[p])

    free = [minimize_field(alone(p), mesh, clamped, opts[p]) for p in range(3)]
    # problem 0 has no floor, problem 1 reaches its floor mid-solve, and
    # problem 2 is certified by its starts
    floors = [None, free[1].value + 1e-3, np.inf]
    if chunk == "split":
        # two restarts a chunk: each problem's five restarts span three chunks
        monkeypatch.setattr(minimize, "BATCH_CELLS", 2 * mesh.n_cells)
    family = BulkObjective(mesh, gs, xi0=xis)
    results = minimize_fields(family, [(mesh, clamped, o) for o in opts], floors=floors)
    for p in range(3):
        # alone, through the one-problem branch, which hands minimize_field
        # the floor
        (solo,) = minimize_fields(alone(p), [(mesh, clamped, opts[p])], floors=[floors[p]])
        _assert_same_result(results[p], solo)
    _assert_same_result(results[0], free[0])
    assert 0 < results[1].iterations < free[1].iterations
    assert results[1].value <= floors[1] and "certified" in results[1].stop_reasons
    assert results[2].iterations == 0
    assert set(results[2].stop_reasons) == {"certified"}


def test_floors_of_none_change_nothing():
    mesh = unit_square_mesh(4)
    gs, xis, opts = _family()
    family = BulkObjective(mesh, gs, xi0=xis)
    problems = [(mesh, mesh.boundary_vertices, o) for o in opts]
    for got, want in zip(minimize_fields(family, problems, floors=[None] * 3),
                         minimize_fields(family, problems)):
        _assert_same_result(got, want)
    with pytest.raises(ValueError, match="2 floors for 3 problems"):
        minimize_fields(family, problems, floors=[None, None])


# -- without floors the solver reaches the same answers on convex integrands -------


@pytest.mark.parametrize("f", [NORM, catalog_get("area", {"M": 1, "N": 2}),
                               composite([(0.5, NORM), (2.0, LIN)])],
                         ids=["norm", "area", "composite"])
def test_floorless_solves_agree_on_convex_integrands(monkeypatch, f):
    xis = list(np.random.default_rng(1).normal(size=(3, 1, 2)))
    jobs = [(f, xi, dataclasses.replace(FAST, seed=s)) for s, xi in enumerate(xis)]
    mesh = unit_square_mesh(4)
    certified = qc_deficits(jobs, mesh=mesh)

    def floorless(objective, problems, on=None, floors=None):
        return minimize_fields(objective, problems, on)

    monkeypatch.setattr(bvlsc.quasiconvex, "minimize_fields", floorless)
    free = qc_deficits(jobs, mesh=mesh)
    for got, want in zip(certified, free):
        assert got.verdict == want.verdict == "qc-plausible"
        assert got.deficit == pytest.approx(want.deficit, abs=1e-12)
        assert sum(d["iterations"] for d in want.diagnostics) > 0
