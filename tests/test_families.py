"""Family solves: the solves of one check family advance as one lockstep batch,
and every problem's result equals its solve alone, bit for bit."""

import dataclasses

import numpy as np
import pytest

import bvlsc.boundary
import bvlsc.quasiconvex
from bvlsc import minimize
from bvlsc.boundary import halfball_deficit, halfball_deficits
from bvlsc.integrands import Integrand, catalog_get, freeze_x, modulate
from bvlsc.meshing import BoundaryPoint, MeshStack, halfball_mesh, interval_mesh, unit_square_mesh
from bvlsc.minimize import (
    BulkObjective,
    FieldEvaluationError,
    RayleighQuotient,
    SolveResult,
    SolverOptions,
    TVObjective,
    minimize_field,
    minimize_fields,
)
from bvlsc.quasiconvex import qc_deficit, qc_deficits


def _assert_same_result(got, want):
    """Every SolveResult field equal, the witness bit for bit and on a mesh
    with the same vertices and cells."""
    for f in dataclasses.fields(SolveResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "witness":
            assert a.mesh.vertices.tobytes() == b.mesh.vertices.tobytes()
            assert np.array_equal(a.mesh.cells, b.mesh.cells)
            assert np.array_equal(a.clamped, b.clamped)
            assert a.values.tobytes() == b.values.tobytes()
        else:
            assert a == b, f.name


def _recording(monkeypatch, module):
    """Every list of results minimize_fields returns inside `module`."""
    seen = []

    def record(objective, problems, on=None):
        results = minimize.minimize_fields(objective, problems, on)
        seen.append(results)
        return results

    monkeypatch.setattr(module, "minimize_fields", record)
    return seen


def _assert_same_report(got, want):
    assert got.to_json() == want.to_json()
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.values.tobytes() == want.witness.values.tobytes()


# -- quasiconvexity: three xi samples at two interior points, caps chained ------


def _qc_jobs():
    f = modulate(catalog_get("norm_sin", {"M": 1, "N": 2}), 1.0, [0.4, -0.3])
    xis = [np.zeros((1, 2)), np.array([[1.0, 0.0]]), np.array([[0.3, -0.8]])]
    jobs = []
    for pi, x0 in enumerate(([0.3, 0.6], [0.7, 0.4])):
        g = freeze_x(f, x0)
        for si, xi in enumerate(xis):
            jobs.append((g, xi, SolverOptions(restarts=5, max_iter=60, patience=15,
                                              seed=17 * pi + si)))
    return jobs


def test_qc_family_equals_each_job_alone(monkeypatch):
    mesh = unit_square_mesh(4)
    seen = _recording(monkeypatch, bvlsc.quasiconvex)
    reps = qc_deficits(_qc_jobs(), mesh=mesh, L_grid=(1.0, 4.0, 16.0))
    family = seen[:]
    assert [len(r) for r in family] == [6, 6, 6]  # one batch per cap
    for j, (g, xi, opts) in enumerate(_qc_jobs()):
        del seen[:]
        alone = qc_deficit(g, xi, mesh=mesh, L_grid=(1.0, 4.0, 16.0), options=opts)
        assert [len(r) for r in seen] == [1, 1, 1]
        for cap in range(3):
            _assert_same_result(family[cap][j], seen[cap][0])
        _assert_same_report(reps[j], alone)


# -- half-balls -------------------------------------------------------------------


FAST = SolverOptions(restarts=4, max_iter=90, patience=20)


def _halfball_family_matches(monkeypatch, finf, points, h):
    jobs = [(bp, SolverOptions(restarts=4, max_iter=90, patience=20, seed=1000 + i), None)
            for i, bp in enumerate(points)]
    seen = _recording(monkeypatch, bvlsc.boundary)
    reps = halfball_deficits(finf, jobs, h=h)
    assert [len(r) for r in seen] == [len(points)]  # one batch
    family = seen[0]
    for j, (bp, opts, _) in enumerate(jobs):
        del seen[:]
        alone = halfball_deficit(finf, bp, h=h, options=opts)
        _assert_same_result(family[j], seen[0][0])
        _assert_same_report(reps[j], alone)
    return reps


def test_1d_halfball_family_of_both_ends_equals_each_alone(monkeypatch):
    f = modulate(catalog_get("linear", {"matrix": [[1.0]]}), 1.0, [-0.5])
    points = [BoundaryPoint([0.0], [-1.0]), BoundaryPoint([1.0], [1.0])]
    reps = _halfball_family_matches(monkeypatch, f.recession, points, h=1.0 / 16)
    # the ends see c(0) = 1 and c(1) = 0.5 times the linear quotient
    assert reps[0].deficit == pytest.approx(-1.0, abs=1e-6)
    assert reps[1].deficit == pytest.approx(-0.5, abs=1e-6)


NORMALS = ([1.0, 0.0], [0.0, 1.0], [-0.6, 0.8], [0.28, -0.96])


@pytest.mark.parametrize("tag", ["linear", "norm"])
@pytest.mark.parametrize("chunk", ["batch", "one_row"])
def test_2d_halfball_family_of_four_normals_equals_each_alone(monkeypatch, tag, chunk):
    f = catalog_get("linear", {"matrix": [[0.6, -0.8]]}) if tag == "linear" else (
        catalog_get("norm", {"M": 1, "N": 2}))
    if chunk == "one_row":
        monkeypatch.setattr(minimize, "BATCH_CELLS", halfball_mesh(NORMALS[0], 0.1).n_cells)
    points = [BoundaryPoint([0.1 * i, 0.5], nu) for i, nu in enumerate(NORMALS)]
    reps = _halfball_family_matches(monkeypatch, f.recession, points, h=0.1)
    if tag == "linear":
        assert any(r.verdict == "violated" for r in reps)


def test_mesh_stack_needs_one_cells_array():
    with pytest.raises(ValueError, match="one cells array"):
        MeshStack([interval_mesh(0.0, 1.0, 0.25), interval_mesh(0.0, 1.0, 0.5)])


# -- errors stay per problem --------------------------------------------------------


def _blows_up_right_of_half():
    """-xi^2, which favours concentrated gradients; at x > 0.5 non-finite
    once |xi| > 0.6."""
    def fn(x, xi):
        v = xi[:, 0, 0]
        return np.where((x[:, 0] > 0.5) & (np.abs(v) > 0.6), np.nan, -v * v)

    def grad(x, xi):
        return -2.0 * xi

    return Integrand(fn, 1, 1, growth=1.0, grad=grad)


@pytest.mark.parametrize("chunk", ["batch", "one_row"])
def test_a_problem_that_turns_nonfinite_mid_solve_errors_alone(monkeypatch, chunk):
    f = _blows_up_right_of_half()
    mesh = interval_mesh(0.0, 1.0, 0.125)
    if chunk == "one_row":
        # the chunks after the one where problem 1 fails hold only its rows
        monkeypatch.setattr(minimize, "BATCH_CELLS", mesh.n_cells)
    points = ([0.2], [0.8], [0.3])
    # the zero field and two tents of slope 0.5 under the cap: finite starts
    opts = [SolverOptions(restarts=3, max_iter=60, tv_cap=0.5, seed=s) for s in (1, 2, 3)]
    family = BulkObjective(mesh, [freeze_x(f, x) for x in points])
    results = minimize_fields(family, [(mesh, mesh.boundary_vertices, o) for o in opts])
    assert isinstance(results[1], FieldEvaluationError)
    assert results[1].values is not None
    assert str(results[1]) in ("objective non-finite", "non-finite gradient")
    for j in (0, 2):
        alone = BulkObjective(mesh, freeze_x(f, points[j]))
        _assert_same_result(results[j], minimize_field(alone, mesh, mesh.boundary_vertices,
                                                        opts[j]))
        assert results[j].iterations > 0
    with pytest.raises(FieldEvaluationError):
        minimize_field(BulkObjective(mesh, freeze_x(f, points[1])), mesh,
                       mesh.boundary_vertices, opts[1])


def test_an_over_budget_problem_errors_alone(monkeypatch):
    mesh = unit_square_mesh(3)
    norm = catalog_get("norm", {"M": 1, "N": 2})
    small, big = SolverOptions(restarts=2, max_iter=20), SolverOptions(restarts=3,
                                                                       max_iter=20)
    monkeypatch.setattr(minimize, "MAX_WORK", mesh.n_cells * 2 * 20)
    obj = BulkObjective(mesh, norm)
    results = minimize_fields(obj, [(mesh, mesh.boundary_vertices, o)
                                    for o in (small, big, small)])
    assert isinstance(results[1], minimize.SolverBudgetError)
    alone = minimize_field(obj, mesh, mesh.boundary_vertices, small)
    _assert_same_result(results[0], alone)
    _assert_same_result(results[2], alone)


def test_qc_jobs_left_after_an_error_keep_their_own_copies(monkeypatch):
    # job 1 is over the work budget at the first cap, so the later caps
    # solve jobs 0 and 2 on copies 0 and 2 of the family objective
    mesh = unit_square_mesh(4)
    jobs = [(g, xi, dataclasses.replace(o, restarts=3 if j == 1 else 2))
            for j, (g, xi, o) in enumerate(_qc_jobs()[1:4])]
    monkeypatch.setattr(minimize, "MAX_WORK", mesh.n_cells * 2 * jobs[0][2].max_iter)
    reps = qc_deficits(jobs, mesh=mesh, L_grid=(1.0, 4.0))
    assert isinstance(reps[1], minimize.SolverBudgetError)
    for j in (0, 2):
        g, xi, opts = jobs[j]
        _assert_same_report(reps[j], qc_deficit(g, xi, mesh=mesh, L_grid=(1.0, 4.0),
                                                options=opts))


def test_family_options_must_agree_beyond_starts():
    mesh = unit_square_mesh(3)
    obj = BulkObjective(mesh, catalog_get("norm", {"M": 1, "N": 2}))
    with pytest.raises(ValueError, match="differ only"):
        minimize_fields(obj, [(mesh, [], SolverOptions(grad_cap=1.0)),
                              (mesh, [], SolverOptions(grad_cap=2.0))])


# -- one report per job, in job order -------------------------------------------------


def test_one_report_per_job_in_job_order():
    jobs = _qc_jobs()[:4]
    reps = qc_deficits(jobs, mesh=unit_square_mesh(3), L_grid=(1.0,))
    assert len(reps) == len(jobs)
    for (_, xi, _), rep in zip(jobs, reps):
        assert np.array_equal(rep.xi, xi)

    finf = catalog_get("norm", {"M": 1, "N": 2}).recession
    points = [BoundaryPoint([0.0, 0.5], [-1.0, 0.0]), [0.5, 0.0],
              BoundaryPoint([0.5, 1.0], [0.0, 1.0]), BoundaryPoint([0.5, 0.0], [0.0, -1.0])]
    reps = halfball_deficits(finf, [(bp, FAST, None) for bp in points], h=0.25)
    assert len(reps) == len(points)
    assert isinstance(reps[1], TypeError)  # not a BoundaryPoint: that job alone errs
    for bp, rep in zip(points, reps):
        if isinstance(bp, BoundaryPoint):
            assert np.array_equal(rep.x0, bp.x0) and np.array_equal(rep.nu, bp.normal)
            assert rep.deficit == pytest.approx(1.0, abs=1e-3)


def test_stacked_objectives_evaluate_each_copy_as_its_own():
    meshes = [halfball_mesh(nu, 0.25) for nu in NORMALS]
    finf = catalog_get("norm_sin", {"M": 1, "N": 2}).recession.as_integrand()
    gs = [freeze_x(finf, [0.1 * i, 0.2]) for i in range(4)]
    stack = MeshStack(meshes)
    family = RayleighQuotient(BulkObjective(stack, gs), TVObjective(stack, 1))
    batch = np.random.default_rng(3).normal(size=(4, meshes[0].n_vertices, 1))
    for delta in (0.0, 1e-2):
        vals, grads = family.value_and_grad(batch, delta)
        for p in range(4):
            alone = RayleighQuotient(BulkObjective(meshes[p], gs[p]), TVObjective(meshes[p], 1))
            v, g = alone.value_and_grad(batch[p], delta)
            assert vals[p] == v and grads[p].tobytes() == g.tobytes()
            assert family.value(batch[[p, p]], delta, on=[p, p]).tolist() == [v, v]
