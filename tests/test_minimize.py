import dataclasses
import itertools

import numpy as np
import pytest

from bvlsc import minimize
from bvlsc.boundary import epsdelta_probe, halfball_deficit
from bvlsc.integrands import (Integrand, catalog_get, catalog_tags, composite, freeze_x,
                               modulate)
from bvlsc.meshing import (BoundaryPoint, Domain, Mesh, build_mesh, halfball_mesh,
                           interval_mesh, unit_square_mesh)
from bvlsc.quasiconvex import qc_deficit
from bvlsc.minimize import (
    BulkObjective,
    FieldEvaluationError,
    RayleighQuotient,
    SolveResult,
    SolverOptions,
    TVObjective,
    default_inits,
    minimize_field,
    minimize_fields,
    tent_field,
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


def test_tent_along_a_degenerate_direction_is_zero():
    # the mesh does not spread along the direction: no tent fits, the field is 0
    mesh = unit_square_mesh(3)
    for space_dir in ([0.0, 0.0], [1e-16, 0.0]):
        values = tent_field(mesh, [1.0, -2.0], space_dir, mesh.boundary_vertices)
        assert values.shape == (mesh.n_vertices, 2)
        assert not values.any()


def test_normalized_neg_tv_ratio_is_minus_one():
    mesh = unit_square_mesh(4)
    tv = TVObjective(mesh, 1)
    obj = RayleighQuotient(BulkObjective(mesh, catalog_get("negnorm", {"M": 1, "N": 2})), tv)
    res = minimize_field(obj, mesh, mesh.boundary_vertices,
                         SolverOptions(restarts=3, max_iter=60))
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
                         SolverOptions(restarts=4, max_iter=150))
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
            SolverOptions(restarts=1, max_iter=50, extra_inits=(alpha * seed_field,)),
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
    """A field and its cell gradients, rescaled together onto the caps."""
    g = mesh.p1_gradient(values)
    if options.grad_cap > 0:
        mx = float(np.max(np.linalg.norm(g.reshape(len(g), -1), axis=1), initial=0.0))
        if mx > options.grad_cap:
            values, g = values * (options.grad_cap / mx), g * (options.grad_cap / mx)
    if options.tv_cap > 0:
        tv = TVObjective(mesh, values.shape[1]).from_cells(g[None])[0]
        if tv > options.tv_cap:
            values, g = values * (options.tv_cap / tv), g * (options.tv_cap / tv)
    return values, g


def reference_minimize(objective, mesh, clamped, options):
    """The solver with its restarts run one after another, each to its end;
    the lockstep batch must reproduce it bit for bit.  A step takes the cell
    gradients of the stepped field once; a rescaling scales them with the
    field, and the next step's gradient is assembled from them."""
    clamped = np.asarray(clamped, dtype=np.int64)
    rng = np.random.default_rng(options.seed)
    normalize = getattr(objective, "den", None) is not None
    inits = default_inits(mesh, objective.M, clamped, options, rng, normalize)
    best_val, best_values, best_restart, best_hit_cap = np.inf, None, -1, False
    total_iters = 0
    restart_values, stop_reasons = [], []
    for ridx, values in enumerate(inits):
        values = values.copy()
        values[clamped] = 0.0
        values, g = _reference_project(values, mesh, options)
        if normalize:
            d = objective.den.from_cells(g[None])[0]
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
            _, g = objective.value_and_grad(values, delta)
            for _ in range(iters_per_stage):
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
                values, G = _reference_project(values, mesh, options)
                if normalize:
                    d = objective.den.from_cells(G[None])[0]
                    if d > 1e-12:
                        values, G = values / d, G / d
                k_global += 1
                total_iters += 1
                v = objective.from_cells(G[None], 0.0)[0]
                g = mesh.p1_assemble(objective.from_cells(G[None], delta, True)[2][0])
                if not np.isfinite(v):
                    raise FieldEvaluationError("objective non-finite", values)
                if v < local_best - 1e-14 * (1.0 + abs(local_best)):
                    local_best, local_best_values = v, values.copy()
                    since_improve = 0
                    # at or next to the last iteration the stages allow
                    hit_cap = k_global >= len(stages) * iters_per_stage - 1
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
        d = objective.den.value(best_values, 0.0)
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
        low_confidence=bool(best_hit_cap and residual > minimize.STATIONARITY_TOL),
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
            BulkObjective(sq, area, xi0=[[0.4, 0.0], [0.0, -0.3]]),
            sq, sq.boundary_vertices,
            SolverOptions(restarts=7, max_iter=90, grad_cap=1.0, seed=3)),
        "plain_tv_cap": (
            BulkObjective(sq, composite([(1.0, neg), (0.1, _norm())])),
            sq, sq.boundary_vertices,
            SolverOptions(restarts=6, max_iter=90, tv_cap=1.0, seed=4)),
        "normalize_degenerate_init": (
            RayleighQuotient(BulkObjective(hb, lin.recession),
                             TVObjective(hb, 1)),
            hb, hb_clamped,
            SolverOptions(restarts=6, max_iter=120, seed=5,
                          extra_inits=(np.zeros(hb.n_vertices),))),
        "patience_stop": (
            BulkObjective(iv, catalog_get("negnorm", {"M": 1, "N": 1})),
            iv, iv.boundary_vertices,
            SolverOptions(restarts=5, max_iter=150, grad_cap=2.0, patience=4,
                          seed=6)),
        "zero_gradient_stage": (
            BulkObjective(sq, _norm()), sq, sq.boundary_vertices,
            SolverOptions(restarts=4, max_iter=60, seed=7)),
        # a fixed first step, a config's solver.step0, for every restart
        "fixed_step0": (
            BulkObjective(sq, composite([(1.0, neg), (0.1, _norm())])),
            sq, sq.boundary_vertices,
            SolverOptions(restarts=5, max_iter=90, step0=0.05, tv_cap=1.0, seed=8)),
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


# -- compaction: the restarts still iterating form a prefix of the batch ------------


def _pull_to_slope_one():
    """(xi - 1)^2 on [0, 1] clamped at 0 only: the field x is its minimum,
    where the gradient vanishes."""
    def fn(x, xi):
        return (xi[:, 0, 0] - 1.0) ** 2

    return Integrand(fn, 1, 1, growth=1.0, grad=lambda x, xi: 2.0 * (xi - 1.0))


def _compaction_cases():
    """Per case: the family's objective, then per problem its objective
    alone, mesh, clamped set, options and floor."""
    iv = interval_mesh(0.0, 1.0, 0.125)
    pull = BulkObjective(iv, _pull_to_slope_one())
    # restart 3 of 6 starts at the minimum: it stops at its first iteration,
    # before any other restart
    stuck = SolverOptions(restarts=6, max_iter=60, patience=10, seed=2,
                          extra_inits=(iv.vertices[:, 0],))
    quotient, hb, hb_clamped, unusable = _lockstep_cases()["normalize_degenerate_init"]
    sq = unit_square_mesh(4)
    f = modulate(catalog_get("norm_sin", {"M": 1, "N": 2}), 1.0, [0.4, -0.3])
    gs = [freeze_x(f, x) for x in ([0.3, 0.6], [0.7, 0.4])]
    xis = np.array([[[0.0, 0.0]], [[1.0, 0.0]]])
    qc = [SolverOptions(restarts=5, max_iter=90, patience=15, grad_cap=4.0, seed=s)
          for s in (3, 4)]
    # problem 0 reaches its floor mid-solve; problem 1 has none
    qc_alone = [BulkObjective(sq, g, xi0=xi) for g, xi in zip(gs, xis)]
    free0 = minimize_field(qc_alone[0], sq, sq.boundary_vertices, qc[0])
    return {
        "middle_restart_stops_first": (pull, [
            (pull, iv, [0], stuck, None),
            (pull, iv, [0], dataclasses.replace(stuck, seed=5, extra_inits=()), None)]),
        "unusable_start_mid_batch": (quotient, [
            (quotient, hb, hb_clamped, unusable, None),
            (quotient, hb, hb_clamped, dataclasses.replace(unusable, seed=9), None)]),
        "problem_0_certified_mid_solve": (
            BulkObjective(sq, gs, xi0=xis),
            [(qc_alone[0], sq, sq.boundary_vertices, qc[0], free0.value + 1e-3),
             (qc_alone[1], sq, sq.boundary_vertices, qc[1], None)]),
    }


@pytest.mark.parametrize("case", ["middle_restart_stops_first", "unusable_start_mid_batch",
                                  "problem_0_certified_mid_solve"])
@pytest.mark.parametrize("batch_cells", [None, lambda nc: 2 * nc, lambda nc: 1],
                         ids=["one_batch", "two_rows", "one_row"])
def test_compaction_keeps_every_bit(case, batch_cells, monkeypatch):
    """Restarts that stop leave the prefix of restarts still iterating; the
    family, each problem alone and the per-restart loop agree bit for bit,
    whatever the chunk size."""
    objective, problems = _compaction_cases()[case]
    if batch_cells is not None:
        monkeypatch.setattr(minimize, "BATCH_CELLS", batch_cells(problems[0][1].n_cells))
    family = minimize_fields(objective, [(m, c, o) for _, m, c, o, _ in problems],
                             floors=[f for *_, f in problems])
    for p, (alone, mesh, clamped, opts, floor) in enumerate(problems):
        (solo,) = minimize_fields(alone, [(mesh, clamped, opts)], floors=[floor])
        _assert_same_result(family[p], solo)
        if floor is None:
            _assert_same_result(family[p], reference_minimize(alone, mesh, clamped, opts))
    reasons = family[0].stop_reasons
    if case == "middle_restart_stops_first":
        assert reasons[3] == "zero_gradient"
        assert family[0].restart_values[3] == 0.0
        assert "zero_gradient" not in reasons[:3] + reasons[4:]
    elif case == "unusable_start_mid_batch":
        assert reasons[4] == "unusable_start" and len(reasons) == 6
    else:
        assert "certified" in reasons and "certified" not in family[1].stop_reasons
        assert family[0].iterations < family[1].iterations


@pytest.mark.parametrize("max_iter", [500, 501, 502])
def test_low_confidence_reads_the_cap_the_stages_allow(max_iter):
    """Three stages let a restart run 3 * (max_iter // 3) iterations; a best
    iterate at or next to that cap, with a large residual, is low confidence
    whatever max_iter % 3 (at 500 and 502 the cap once read max_iter and was
    never reached)."""
    finf = catalog_get("linear", {"matrix": [[0.6, -0.8]]}).recession
    rep = halfball_deficit(finf, BoundaryPoint([0.0, 0.0], [1.0, 0.0]), h=0.1,
                           options=SolverOptions(restarts=4, max_iter=max_iter))
    assert rep.diagnostics["stationarity_residual"] == pytest.approx(0.175, abs=1e-3)
    assert rep.diagnostics["low_confidence"]


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


@pytest.mark.parametrize("restarts, extras", [(8, 0), (8, 3), (1, 0), (2, 1), (2, 4), (0, 0)])
@pytest.mark.parametrize("M, normalize", [(1, False), (2, True)])
def test_start_count_is_the_number_of_starts_default_inits_makes(restarts, extras, M,
                                                                normalize):
    mesh = unit_square_mesh(2)
    opts = SolverOptions(restarts=restarts,
                         extra_inits=tuple(np.ones((mesh.n_vertices, M)) for _ in range(extras)))
    inits = default_inits(mesh, M, mesh.boundary_vertices, opts, np.random.default_rng(0),
                          normalize)
    assert len(inits) == minimize.start_count(restarts, extras)


def test_every_carried_start_is_kept_at_the_default_restarts(monkeypatch):
    # M = N = 2 at 8 restarts: the zero field and the 8 tents already fill
    # them, so the tents, not the carried witnesses, must give way
    calls = []

    def spy(mesh, M, clamped, options, rng, normalize):
        inits = default_inits(mesh, M, clamped, options, rng, normalize)
        calls.append((clamped, options.extra_inits, inits))
        return inits

    monkeypatch.setattr(minimize, "default_inits", spy)
    qc_deficit(catalog_get("negnorm", {"M": 2, "N": 2}), np.zeros((2, 2)),
               mesh=unit_square_mesh(4))
    square = build_mesh(Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.25)
    epsdelta_probe(catalog_get("linear", {"matrix": [[1.0, 0.0], [0.0, 1.0]]}),
                   np.array([0.5, 0.0]), square, eps_grid=(0.5,), delta_grid=(0.4,))
    carried = [(c, extra, inits) for c, extra, inits in calls if extra]
    assert len(calls) == 6 and len(carried) == 4  # caps 4 and 16; R = 10 and 100
    for clamped, extra, inits in carried:
        assert len(inits) == 8
        for e in extra:
            e = np.array(e, dtype=float).reshape(inits[0].shape)
            e[clamped] = 0.0
            assert np.abs(e).max() > 0.0
            assert any(np.array_equal(e, start) for start in inits)


def test_no_usable_start_raises():
    mesh = unit_square_mesh(3)
    tv = TVObjective(mesh, 1)
    obj = RayleighQuotient(tv, tv)
    # every vertex clamped: every start has zero denominator
    opts = SolverOptions(restarts=3, max_iter=10)
    with pytest.raises(FieldEvaluationError, match="no usable start"):
        minimize_field(obj, mesh, np.arange(mesh.n_vertices), opts)


# -- batched objectives ----------------------------------------------------------


def _objectives(mesh):
    M, N = 1, mesh.dim
    bulk = BulkObjective(mesh, catalog_get("norm_sin", {"M": M, "N": N}),
                         xi0=np.full((M, N), 0.3))
    tv = TVObjective(mesh, M)
    combo = BulkObjective(mesh, composite([(1.0, _norm(M, N)), (-0.7, _norm(M, N))]))
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


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 0.1), unit_square_mesh(4)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("delta", [0.0, 1e-2])
@pytest.mark.parametrize("name", ["bulk", "tv", "combo", "quotient", "frozen"])
def test_gradient_form_carries_the_bits_of_both_value_calls(mesh, delta, name):
    """from_cells(G, delta, True) gives from_cells(G, delta) and, as the exact
    values, from_cells(G, 0.0), from one integrand pass."""
    objectives = _objectives(mesh)
    objectives["frozen"] = BulkObjective(
        mesh, freeze_x(catalog_get("negnorm", {"M": 1, "N": mesh.dim}), [0.4] * mesh.dim),
        xi0=np.full((1, mesh.dim), 0.2))
    obj = objectives[name]
    batch = np.random.default_rng(12).normal(size=(4, mesh.n_vertices, 1))
    batch[1] = 0.0
    G = mesh.p1_gradient(batch)
    val, exact, _ = obj.from_cells(G, delta, True)
    if name != "quotient":  # whose gradient form reads no +inf at the zero field
        assert val.tobytes() == obj.from_cells(G, delta).tobytes()
    assert exact.tobytes() == obj.from_cells(G, 0.0).tobytes()


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 0.1), unit_square_mesh(4)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("name", ["bulk", "tv", "combo", "quotient"])
def test_gradient_is_the_derivative_of_the_value(mesh, name):
    """Central differences of value along random directions match the
    gradient of value_and_grad at smoothing 1e-2."""
    obj, delta, eps = _objectives(mesh)[name], 1e-2, 1e-6
    rng = np.random.default_rng(5)
    for _ in range(3):
        field, direction = rng.normal(size=(2, mesh.n_vertices, 1))
        _, grad = obj.value_and_grad(field, delta)
        slope = (obj.value(field + eps * direction, delta)
                 - obj.value(field - eps * direction, delta)) / (2 * eps)
        assert np.sum(grad * direction) == pytest.approx(slope, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("name", ["combo", "quotient"])
def test_one_evaluation_assembles_once_on_its_own_rows(name, monkeypatch):
    """Each gradient evaluation of the solver makes one p1_assemble call on as
    many rows as fields it evaluates, for combinations and quotients too."""
    mesh = unit_square_mesh(4)
    obj = _objectives(mesh)[name]
    events = []

    def assembled(self, per_cell, on=None, _inner=Mesh.p1_assemble):
        events.append(("assemble", len(per_cell)))
        return _inner(self, per_cell, on)

    def evaluated(grads, delta=0.0, with_grad=False, _inner=obj.from_cells):
        if with_grad:
            events.append(("evaluate", len(grads)))
        return _inner(grads, delta, with_grad)

    monkeypatch.setattr(Mesh, "p1_assemble", assembled)
    monkeypatch.setattr(obj, "from_cells", evaluated)
    opts = SolverOptions(restarts=4, max_iter=30)
    # clamped on the side x = 1 only, so the linear numerator is not zero
    res = minimize_field(obj, mesh, np.flatnonzero(mesh.vertices[:, 0] == 1.0), opts)
    assert res.iterations > 0
    assert len(events) > 2 and events[::2] == [("evaluate", r) for _, r in events[::2]]
    assert events[1::2] == [("assemble", r) for _, r in events[::2]]


# -- mesh operator calls per iteration ------------------------------------------


@pytest.mark.parametrize("case", ["normalize_degenerate_init", "plain_grad_cap",
                                  "plain_tv_cap"])
@pytest.mark.parametrize("chunked", [False, True], ids=["one_batch", "chunked"])
def test_iteration_takes_one_gradient_and_one_assembly(case, chunked, monkeypatch):
    """Each iterate is evaluated once: one P1 gradient, one from_cells call,
    which carries the gradient, then one assembly; a cap or a normalization
    rescales the cell gradients with the field."""
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
    # every evaluation is assembled once, before the next evaluation, and
    # takes the P1 gradient of its fields once
    assert np.all(assemblies == 1)
    assert np.all(gradients == 1)
    # an iteration projects its step once; every stepped row is evaluated once
    step = projections > 0
    assert np.all(projections[step] == 1)
    assert rows[1:][step].sum() == res.iterations >= 10 * opts.restarts
    # the other evaluations: the starts, and each later smoothing stage's once
    assert len(seen) - step.sum() <= n_chunks * len(opts.smoothing)


# -- frozen integrands: one evaluation per cell -----------------------------------


def _catalog_entry(tag, N):
    params = {"linear": {"matrix": [[0.7, -0.4][:N]]},
              "boundary_null_lagrangian": {"a": [1.0], "t": [0.6, 0.8][:N]}}
    return catalog_get(tag, params.get(tag, {"M": 1, "N": N}))


@pytest.mark.parametrize("mesh", [interval_mesh(0.0, 1.0, 0.1), unit_square_mesh(4)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "every_point"])
def test_cell_derivatives_sum_a_cells_points_as_einsum_does(mesh, frozen):
    """The per-cell derivative of from_cells is np.einsum("cq,cqmn->cmn") of
    the quadrature weights and the integrand's derivatives at the points, bit
    for bit, also at the -0.0 entries of a zero gradient."""
    f = catalog_get("negnorm", {"M": 2, "N": mesh.dim})
    g = (freeze_x(f, [0.4] * mesh.dim) if frozen
         else modulate(f, 1.2, [0.5, -0.4][:mesh.dim]))
    batch = np.random.default_rng(3).normal(size=(3, mesh.n_vertices, 2))
    batch[1] = 0.0
    G = mesh.p1_gradient(batch)
    _, _, dG = BulkObjective(mesh, g).from_cells(G, 1e-2, True)
    pts, wts = mesh.quadrature()
    nq = wts.shape[1]
    x = np.tile(pts.reshape(-1, mesh.dim), (3, 1))
    dg = g.evaluate(x, np.repeat(G.reshape(-1, 2, mesh.dim), nq, axis=0), 1e-2)[2]
    want = np.einsum("cq,cqmn->cmn", np.tile(wts, (3, 1)), dg.reshape(-1, nq, 2, mesh.dim))
    assert np.signbit(dg).any() and not np.signbit(want[want == 0.0]).any()
    assert dG.tobytes() == want.reshape(dG.shape).tobytes()


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
        for kwargs in ({}, {"xi0": xi0}):
            a = BulkObjective(mesh, per_cell, **kwargs)
            b = BulkObjective(mesh, per_point, **kwargs)
            va, ga = a.value_and_grad(batch, delta)
            vb, gb = b.value_and_grad(batch, delta)
            assert va.tobytes() == vb.tobytes() and ga.tobytes() == gb.tobytes()
            assert a.value(batch[0], delta) == b.value(batch[0], delta)
