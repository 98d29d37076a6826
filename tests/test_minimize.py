import dataclasses
import itertools

import numpy as np
import pytest

from bvlsc import minimize
from bvlsc.integrands import Integrand, catalog_get, catalog_tags, freeze_x, modulate
from bvlsc.meshing import Mesh, halfball_mesh, interval_mesh, unit_square_mesh
from bvlsc.minimize import (
    BulkObjective,
    FieldEvaluationError,
    LinearCombo,
    RayleighQuotient,
    SolveResult,
    SolverOptions,
    TVObjective,
    default_inits,
    minimize_field,
)


def square_integrand(M=1, N=2):
    def fn(x, xi):
        return np.linalg.norm(xi.reshape(len(xi), -1), axis=1) ** 2

    def grad(x, xi):
        return 2.0 * xi

    return Integrand(fn, M, N, growth=100.0, tag="square", grad=grad)


def test_convex_quadratic_min_is_zero_field():
    mesh = unit_square_mesh(6)
    obj = BulkObjective(mesh, square_integrand())
    res = minimize_field(obj, mesh, mesh.boundary_vertices,
                         SolverOptions(restarts=4, max_iter=120))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.witness.values, 0.0)


def test_normalized_neg_tv_ratio_is_minus_one():
    mesh = unit_square_mesh(4)
    tv = TVObjective(mesh, 1)
    obj = RayleighQuotient(LinearCombo([(-1.0, tv)]), tv)
    res = minimize_field(obj, mesh, mesh.boundary_vertices,
                         SolverOptions(restarts=3, max_iter=60,
                                       mode="normalize"))
    assert res.value == pytest.approx(-1.0, abs=1e-10)
    # witness comes back rescaled to unit gradient TV
    assert res.witness.gradient_tv() == pytest.approx(1.0, abs=1e-10)


def brute_force_halfball_1d():
    # 3-vertex mesh of (0,1) clamped at 1: fields (a, b, 0); minimize the
    # quotient int phi' / int |phi'| over a dense (a, b) grid
    best = np.inf
    for a, b in itertools.product(np.linspace(-2, 2, 81), repeat=2):
        num = -a  # phi(1) - phi(0)
        den = abs(b - a) + abs(0.0 - b)
        if den < 1e-9:
            continue
        best = min(best, num / den)
    return best


def test_halfball_quotient_matches_bruteforce():
    oracle = brute_force_halfball_1d()
    assert oracle == pytest.approx(-1.0, abs=1e-12)
    mesh = interval_mesh(0.0, 1.0, 0.5)
    lin = catalog_get("linear", {"matrix": [[1.0]]})
    clamped = [int(np.argmax(mesh.vertices[:, 0]))]
    obj = RayleighQuotient(BulkObjective(mesh, lin), TVObjective(mesh, 1))
    res = minimize_field(obj, mesh, clamped,
                         SolverOptions(restarts=4, max_iter=150,
                                       mode="normalize"))
    assert res.value == pytest.approx(oracle, abs=1e-6)
    vals = res.witness.values[np.argsort(mesh.vertices[:, 0]), 0]
    assert np.all(np.diff(vals) <= 1e-9)  # monotone decreasing ramp


def test_multistart_monotone_in_restarts():
    mesh = unit_square_mesh(5)
    neg = catalog_get("negnorm", {"M": 1, "N": 2})
    obj = BulkObjective(mesh, neg)
    vals = []
    for restarts in (2, 8):
        res = minimize_field(
            obj, mesh, mesh.boundary_vertices,
            SolverOptions(restarts=restarts, max_iter=150, grad_cap=1.0),
        )
        vals.append(res.value)
    assert vals[1] <= vals[0] + 1e-12


def test_normalize_mode_scale_invariance():
    mesh = interval_mesh(0.0, 1.0, 0.25)
    lin = catalog_get("linear", {"matrix": [[1.0]]})
    clamped = [int(np.argmax(mesh.vertices[:, 0]))]
    obj = RayleighQuotient(BulkObjective(mesh, lin), TVObjective(mesh, 1))
    seed_field = np.linspace(1.0, 0.0, mesh.n_vertices)[:, None]
    out = []
    for alpha in (1.0, 37.5):
        res = minimize_field(
            obj, mesh, clamped,
            SolverOptions(restarts=1, max_iter=50, mode="normalize",
                          extra_inits=(alpha * seed_field,)),
        )
        out.append(res.value)
    assert out[0] == pytest.approx(out[1], abs=1e-8)


def test_zero_field_always_evaluated():
    mesh = unit_square_mesh(4)
    # objective whose minimum over our iterates could exceed 0 if the zero
    # field were skipped
    obj = BulkObjective(mesh, square_integrand())
    res = minimize_field(obj, mesh, mesh.boundary_vertices,
                         SolverOptions(restarts=1, max_iter=5))
    assert res.value <= obj.value(np.zeros((mesh.n_vertices, 1))) + 1e-15


def test_nonfinite_objective_reports_field():
    mesh = interval_mesh(0.0, 1.0, 0.5)

    def fn(x, xi):
        out = np.linalg.norm(xi.reshape(len(xi), -1), axis=1)
        return np.where(out > 0.1, np.nan, out)

    bad = Integrand(fn, 1, 1, growth=1.0)
    obj = BulkObjective(mesh, bad)
    with pytest.raises(FieldEvaluationError) as exc:
        minimize_field(obj, mesh, [0], SolverOptions(restarts=2, max_iter=30))
    assert exc.value.values is not None


def test_clamped_vertices_stay_zero():
    mesh = unit_square_mesh(4)
    neg = catalog_get("negnorm", {"M": 1, "N": 2})
    obj = BulkObjective(mesh, neg)
    res = minimize_field(obj, mesh, mesh.boundary_vertices,
                         SolverOptions(restarts=3, max_iter=80, grad_cap=1.0))
    assert np.all(res.witness.values[mesh.boundary_vertices] == 0.0)


def test_gradient_cap_respected():
    mesh = unit_square_mesh(4)
    neg = catalog_get("negnorm", {"M": 1, "N": 2})
    obj = BulkObjective(mesh, neg)
    res = minimize_field(obj, mesh, mesh.boundary_vertices,
                         SolverOptions(restarts=4, max_iter=100, grad_cap=1.0))
    g = res.witness.gradients()
    mags = np.linalg.norm(g.reshape(len(g), -1), axis=1)
    assert np.max(mags) <= 1.0 + 1e-9


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 0.1), unit_square_mesh(4)],
                         ids=["1d", "2d"])
def test_gradient_masses_sum_to_tv_objective(mesh):
    v = np.random.default_rng(5).normal(size=(mesh.n_vertices, 2))
    masses = mesh.gradient_masses(mesh.p1_gradient(v))
    assert masses.shape == (mesh.n_cells,)
    assert float(np.sum(masses)) == TVObjective(mesh, 2).value(v)


# -- lockstep batch against the per-restart loop -------------------------------


def _reference_project(values, mesh, options):
    if options.grad_cap > 0:
        g = mesh.p1_gradient(values)
        mx = float(np.max(np.linalg.norm(g.reshape(len(g), -1), axis=1), initial=0.0))
        if mx > options.grad_cap:
            values = values * (options.grad_cap / mx)
    if options.tv_cap > 0:
        tv = TVObjective(mesh, values.shape[1]).value(values)
        if tv > options.tv_cap:
            values = values * (options.tv_cap / tv)
    return values


def reference_minimize(objective, mesh, clamped, options):
    """The solver with its restarts run one after another, each to its end;
    the lockstep batch must reproduce it bit for bit."""
    clamped = np.asarray(clamped, dtype=np.int64)
    rng = np.random.default_rng(options.seed)
    inits = default_inits(mesh, objective.M, clamped, options, rng)
    best_val, best_values, best_restart, best_hit_cap = np.inf, None, -1, False
    total_iters = 0
    normalize = options.mode == "normalize"
    restart_values, stop_reasons = [], []
    for ridx, values in enumerate(inits):
        values = values.copy()
        values[clamped] = 0.0
        values = _reference_project(values, mesh, options)
        if normalize:
            d = objective.denominator(values)
            if d < 1e-12:
                restart_values.append(np.inf)
                stop_reasons.append("unusable_start")
                continue
            values = values / d
        v0 = objective.value(values, 0.0)
        if not np.isfinite(v0):
            raise FieldEvaluationError("objective non-finite at init", values)
        local_best, local_best_values = v0, values.copy()
        since_improve = 0
        hit_cap = False
        scale = max(float(np.max(np.abs(values), initial=0.0)), 0.1)
        step0 = options.step0 if options.step0 > 0 else 0.3 * scale
        stages = list(options.smoothing) or [0.0]
        iters_per_stage = max(1, options.max_iter // len(stages))
        k_global = 0
        stop = False
        for delta in stages:
            if stop:
                break
            reason = "iteration_cap"
            for _ in range(iters_per_stage):
                _, g = objective.value_and_grad(values, delta)
                g[clamped] = 0.0
                gn = float(np.linalg.norm(g))
                if not np.isfinite(gn):
                    raise FieldEvaluationError("non-finite gradient", values)
                if gn < 1e-15:
                    reason = "zero_gradient"
                    break
                alpha = step0 / np.sqrt(1.0 + k_global)
                values = values - alpha * (g / gn)
                values[clamped] = 0.0
                values = _reference_project(values, mesh, options)
                if normalize:
                    d = objective.denominator(values)
                    if d > 1e-12:
                        values = values / d
                k_global += 1
                total_iters += 1
                v = objective.value(values, 0.0)
                if not np.isfinite(v):
                    raise FieldEvaluationError("objective non-finite", values)
                if v < local_best - 1e-14 * (1.0 + abs(local_best)):
                    local_best, local_best_values = v, values.copy()
                    since_improve = 0
                    hit_cap = k_global >= options.max_iter - 1
                else:
                    since_improve += 1
                    if since_improve >= options.patience:
                        stop = True
                        reason = "patience"
                        break
        restart_values.append(local_best)
        stop_reasons.append(reason)
        if local_best < best_val:
            best_val = local_best
            best_values = local_best_values
            best_restart = ridx
            best_hit_cap = hit_cap

    if best_values is None:
        raise FieldEvaluationError("no usable start (degenerate inits)", None)
    if normalize:
        d = objective.denominator(best_values)
        if d > 1e-12:
            best_values = best_values / d
        best_val = objective.value(best_values, 0.0)
    delta_min = min(options.smoothing) if options.smoothing else 0.0
    _, gfin = objective.value_and_grad(best_values, delta_min)
    gfin[clamped] = 0.0
    residual = float(np.max(np.abs(gfin), initial=0.0))
    return SolveResult(
        value=float(best_val),
        witness=minimize.TestField(mesh, best_values, clamped),
        iterations=total_iters,
        restarts_used=len(inits),
        stationarity_residual=residual,
        best_restart=best_restart,
        low_confidence=bool(best_hit_cap and residual > options.stationarity_tol),
        seed=options.seed,
        restart_values=tuple(restart_values),
        stop_reasons=tuple(stop_reasons),
    )


def _norm(M=1, N=2):
    return catalog_get("norm", {"M": M, "N": N})


def _lockstep_cases():
    sq = unit_square_mesh(5)
    iv = interval_mesh(0.0, 1.0, 0.125)
    hb = halfball_mesh([0.6, 0.8], 0.2)
    hb_clamped = hb.boundary_vertices[np.linalg.norm(
        hb.vertices[hb.boundary_vertices], axis=1) > 1.0 - 1e-9]
    area = catalog_get("area", {"M": 2, "N": 2})
    lin = catalog_get("linear", {"matrix": [[0.3, -0.8]]})
    neg = catalog_get("negnorm", {"M": 1, "N": 2})
    return {
        "plain_grad_cap": (
            BulkObjective(sq, area, xi0=[[0.4, 0.0], [0.0, -0.3]],
                          subtract_offset=True),
            sq, sq.boundary_vertices,
            SolverOptions(restarts=7, max_iter=90, grad_cap=1.0, seed=3)),
        "plain_tv_cap": (
            LinearCombo([(1.0, BulkObjective(sq, neg)), (0.1, TVObjective(sq, 1))]),
            sq, sq.boundary_vertices,
            SolverOptions(restarts=6, max_iter=90, tv_cap=1.0, seed=4)),
        "normalize_degenerate_init": (
            RayleighQuotient(BulkObjective(hb, lin.recession.as_integrand()),
                             TVObjective(hb, 1)),
            hb, hb_clamped,
            SolverOptions(restarts=6, max_iter=120, mode="normalize", seed=5,
                          extra_inits=(np.zeros(hb.n_vertices),))),
        "patience_stop": (
            BulkObjective(iv, catalog_get("negnorm", {"M": 1, "N": 1})),
            iv, iv.boundary_vertices,
            SolverOptions(restarts=5, max_iter=150, grad_cap=2.0, patience=4,
                          seed=6)),
        "zero_gradient_stage": (
            BulkObjective(sq, _norm()), sq, sq.boundary_vertices,
            SolverOptions(restarts=4, max_iter=60, seed=7)),
    }


def _assert_same_result(got, want):
    for f in dataclasses.fields(SolveResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "witness":
            assert a.mesh is b.mesh
            assert np.array_equal(a.clamped, b.clamped)
            assert a.values.tobytes() == b.values.tobytes()
        else:
            assert a == b, f.name


@pytest.mark.parametrize("case", list(_lockstep_cases()))
@pytest.mark.parametrize("chunked", [False, True], ids=["one_batch", "chunked"])
def test_lockstep_matches_per_restart_loop(case, chunked, monkeypatch):
    objective, mesh, clamped, opts = _lockstep_cases()[case]
    if chunked:
        # at most 2 restarts per objective call
        monkeypatch.setattr(minimize, "BATCH_CELLS", 2 * mesh.n_cells)
    got = minimize_field(objective, mesh, clamped, opts)
    want = reference_minimize(objective, mesh, clamped, opts)
    _assert_same_result(got, want)
    reason = {"normalize_degenerate_init": "unusable_start",
              "patience_stop": "patience",
              "zero_gradient_stage": "zero_gradient"}.get(case)
    if reason is not None:
        assert reason in got.stop_reasons
    assert len(got.restart_values) == len(got.stop_reasons) == got.restarts_used
    assert got.restart_values[got.best_restart] == min(got.restart_values)


def test_lockstep_raises_where_per_restart_loop_raises():
    mesh = interval_mesh(0.0, 1.0, 0.5)

    def fn(x, xi):
        out = np.linalg.norm(xi.reshape(len(xi), -1), axis=1)
        return np.where(out > 0.1, np.nan, out)

    obj = BulkObjective(mesh, Integrand(fn, 1, 1, growth=1.0))
    opts = SolverOptions(restarts=3, max_iter=30)
    with pytest.raises(FieldEvaluationError):
        reference_minimize(obj, mesh, [0], opts)
    with pytest.raises(FieldEvaluationError) as exc:
        minimize_field(obj, mesh, [0], opts)
    assert exc.value.values is not None


@pytest.mark.parametrize("chunked", [False, True], ids=["one_batch", "one_row"])
def test_lockstep_raises_mid_solve_where_per_restart_loop_raises(chunked, monkeypatch):
    """A restart that turns non-finite mid-solve ends the solve, also when
    the later chunks of its iteration hold no restart left to run."""
    if chunked:
        monkeypatch.setattr(minimize, "BATCH_CELLS", 1)
    mesh = interval_mesh(0.0, 1.0, 0.25)

    def fn(x, xi):
        v = xi[:, 0, 0]
        return np.where(np.abs(v) > 3.0, np.nan, -v * v)

    obj = BulkObjective(mesh, Integrand(fn, 1, 1, growth=1.0, grad=lambda x, xi: -2.0 * xi))
    opts = SolverOptions(restarts=4, max_iter=60)
    with pytest.raises(FieldEvaluationError) as want:
        reference_minimize(obj, mesh, [0], opts)
    with pytest.raises(FieldEvaluationError) as got:
        minimize_field(obj, mesh, [0], opts)
    assert str(want.value) in ("objective non-finite", "non-finite gradient")
    assert str(got.value) == str(want.value)
    assert got.value.values is not None


def test_work_budget_is_checked_before_the_starts_are_built(monkeypatch):
    mesh = unit_square_mesh(3)

    def no_starts(*args):
        raise AssertionError("starts built for an over-budget solve")

    monkeypatch.setattr(minimize, "default_inits", no_starts)
    with pytest.raises(minimize.SolverBudgetError, match="over the budget"):
        minimize_field(BulkObjective(mesh, _norm()), mesh, mesh.boundary_vertices,
                       SolverOptions(restarts=10**9))


def test_no_usable_start_raises():
    mesh = unit_square_mesh(3)
    tv = TVObjective(mesh, 1)
    obj = RayleighQuotient(tv, tv)
    # every vertex clamped: every start has zero denominator
    opts = SolverOptions(restarts=3, max_iter=10, mode="normalize")
    with pytest.raises(FieldEvaluationError, match="no usable start"):
        minimize_field(obj, mesh, np.arange(mesh.n_vertices), opts)


# -- batched objectives ----------------------------------------------------------


def _objectives(mesh):
    M, N = 1, mesh.dim
    bulk = BulkObjective(mesh, catalog_get("norm_sin", {"M": M, "N": N}),
                         xi0=np.full((M, N), 0.3), subtract_offset=True)
    tv = TVObjective(mesh, M)
    combo = LinearCombo([(1.0, BulkObjective(mesh, _norm(M, N))), (-0.7, tv)])
    quotient = RayleighQuotient(
        BulkObjective(mesh, catalog_get("linear", {"matrix": [[1.0] * N]})), tv)
    return {"bulk": bulk, "tv": tv, "combo": combo, "quotient": quotient}


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 0.1), unit_square_mesh(4)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("delta", [0.0, 1e-2])
@pytest.mark.parametrize("name", ["bulk", "tv", "combo", "quotient"])
def test_batch_of_five_equals_five_single_calls(mesh, delta, name):
    obj = _objectives(mesh)[name]
    batch = np.random.default_rng(11).normal(size=(5, mesh.n_vertices, 1))
    batch[2] = 0.0  # zero denominator: the quotient is +inf there
    vals = obj.value(batch, delta)
    vg_vals, grads = obj.value_and_grad(batch, delta)
    assert vals.shape == vg_vals.shape == (5,)
    assert grads.shape == batch.shape
    for r in range(5):
        v = obj.value(batch[r], delta)
        vg, g = obj.value_and_grad(batch[r], delta)
        assert isinstance(v, float) and isinstance(vg, float)
        assert vals[r] == v and vg_vals[r] == vg
        assert grads[r].tobytes() == g.tobytes()
    if name == "quotient" and delta == 0.0:
        # smoothing lifts the denominator of the zero field to delta * |domain|
        assert vals[2] == np.inf
        assert np.isfinite(vg_vals[2])


# -- mesh operator calls per iteration ------------------------------------------


@pytest.mark.parametrize("case", ["normalize_degenerate_init", "plain_grad_cap",
                                  "plain_tv_cap"])
@pytest.mark.parametrize("chunked", [False, True], ids=["one_batch", "chunked"])
def test_iteration_takes_two_gradients_and_one_assembly(case, chunked, monkeypatch):
    """Each iterate is evaluated once: one from_cells call, which carries the
    gradient, then one assembly, with at most two P1 gradients per step."""
    objective, mesh, clamped, opts = _lockstep_cases()[case]
    n_chunks = 1
    if chunked:
        monkeypatch.setattr(minimize, "BATCH_CELLS", 2 * mesh.n_cells)
        n_chunks = -(-opts.restarts // 2)
    calls = {"p1_gradient": 0, "p1_assemble": 0, "project": 0}
    for name in ("p1_gradient", "p1_assemble"):
        def counted(self, *args, _name=name, _inner=getattr(Mesh, name)):
            calls[_name] += 1
            return _inner(self, *args)
        monkeypatch.setattr(Mesh, name, counted)

    def projected(*args, _inner=minimize._project):
        calls["project"] += 1
        return _inner(*args)

    monkeypatch.setattr(minimize, "_project", projected)
    # per from_cells call of the solver loop: rows, whether it carries the
    # gradient, and the counts so far; the final value and stationarity
    # gradient after the loop go through value and value_and_grad
    seen, after_loop = [], []
    inner = objective.from_cells

    def marked(grads, delta=0.0, with_grad=False):
        if not after_loop:
            seen.append((len(grads), with_grad, calls["p1_gradient"],
                         calls["p1_assemble"], calls["project"]))
        return inner(grads, delta, with_grad)

    for name in ("value", "value_and_grad"):
        def ends_loop(*args, _inner=getattr(objective, name)):
            after_loop.append(True)
            return _inner(*args)
        monkeypatch.setattr(objective, name, ends_loop)
    monkeypatch.setattr(objective, "from_cells", marked)
    res = minimize_field(objective, mesh, clamped, opts)
    rows = np.array([r for r, *_ in seen])
    assert all(with_grad for _, with_grad, *_ in seen)
    between = np.diff(np.array([s[2:] for s in seen]), axis=0)
    gradients, assemblies, projections = between.T
    # every evaluation is assembled once, before the next evaluation
    assert np.all(assemblies == 1)
    assert gradients.max() <= 2
    # an iteration projects its step once; every stepped row is evaluated once
    step = projections > 0
    assert np.all(projections[step] == 1)
    assert rows[1:][step].sum() == res.iterations >= 10 * opts.restarts
    # the other evaluations: the starts, and each later smoothing stage's once
    assert len(seen) - step.sum() <= n_chunks * len(opts.smoothing)
    if case == "normalize_degenerate_init":
        # the stepped field, then the field renormalized to unit denominator
        assert np.all(gradients[step] == 2)


# -- frozen integrands: one evaluation per cell -----------------------------------


def _catalog_entry(tag, N):
    params = {"linear": {"matrix": [[0.7, -0.4][:N]]},
              "boundary_null_lagrangian": {"a": [1.0], "t": [0.6, 0.8][:N]}}
    return catalog_get(tag, params.get(tag, {"M": 1, "N": N}))


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 0.1), unit_square_mesh(4)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("delta", [0.0, 1e-2])
@pytest.mark.parametrize("tag", sorted(catalog_tags()))
def test_frozen_integrand_once_per_cell_equals_every_quadrature_point(mesh, delta, tag):
    f = _catalog_entry(tag, mesh.dim)
    x0 = [0.3, 0.6][:mesh.dim]
    batch = np.random.default_rng(2).normal(size=(3, mesh.n_vertices, 1))
    for g in (f, modulate(f, 1.2, [0.5, -0.4][:mesh.dim])):
        per_cell = freeze_x(g, x0)
        per_point = freeze_x(g, x0)
        per_point.frozen = None  # seen as x-dependent: every quadrature point
        xi0 = np.full((1, mesh.dim), 0.3)
        for kwargs in ({}, {"xi0": xi0, "subtract_offset": True}):
            a = BulkObjective(mesh, per_cell, **kwargs)
            b = BulkObjective(mesh, per_point, **kwargs)
            va, ga = a.value_and_grad(batch, delta)
            vb, gb = b.value_and_grad(batch, delta)
            assert va.tobytes() == vb.tobytes() and ga.tobytes() == gb.tobytes()
            assert a.value(batch[0], delta) == b.value(batch[0], delta)
