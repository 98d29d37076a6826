import dataclasses

import numpy as np
import pytest

import bvlsc.quasiconvex
from bvlsc import minimize
from bvlsc.integrands import Integrand, catalog_get, composite, freeze_x, modulate
from bvlsc.meshing import unit_square_mesh
from bvlsc.minimize import BulkObjective, SolverOptions, minimize_fields
from bvlsc.quasiconvex import default_qc_mesh, qc_deficit, qc_deficits

FAST = SolverOptions(restarts=6, max_iter=200)


def test_convex_norm_is_qc_plausible():
    f = catalog_get("norm", {"M": 1, "N": 2})
    rep = qc_deficit(f, [[0.4, -0.2]], options=FAST)
    assert rep.deficit >= -rep.tol
    assert rep.verdict == "qc-plausible"
    assert rep.witness is None


def test_negnorm_violated_at_zero():
    f = catalog_get("negnorm", {"M": 1, "N": 2})
    rep = qc_deficit(f, [[0.0, 0.0]], options=FAST)
    assert rep.verdict == "violated"
    per_cap = dict(rep.per_cap)
    assert per_cap[1.0] < -0.5  # |B| = 1 for the unit square
    assert rep.witness is not None
    # stored witness re-evaluates to the reported deficit
    obj = BulkObjective(rep.witness.mesh, f, xi0=np.zeros((1, 2)))
    assert obj.value(rep.witness.values) == pytest.approx(rep.deficit, abs=1e-10)


def test_linear_deficit_vanishes_exactly():
    f = catalog_get("linear", {"matrix": [[1.5, -0.5]]})
    rep = qc_deficit(f, [[0.3, 0.8]], options=FAST)
    assert abs(rep.deficit) <= 1e-8

    # brute-force oracle: random clamped fields give exactly zero energy
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(0)
    obj = BulkObjective(mesh, f, xi0=np.array([[0.3, 0.8]]))
    for _ in range(10):
        v = rng.normal(size=(mesh.n_vertices, 1))
        v[mesh.boundary_vertices] = 0.0
        assert abs(obj.value(v)) <= 1e-10


def test_deficit_monotone_in_cap():
    f = catalog_get("negnorm", {"M": 1, "N": 2})
    rep = qc_deficit(f, [[0.0, 0.0]], L_grid=(1.0, 4.0, 16.0), options=FAST)
    vals = [v for _, v in rep.per_cap]
    assert vals[0] >= vals[1] >= vals[2]


def test_translation_consistency():
    f = catalog_get("norm", {"M": 1, "N": 2})
    xi = np.array([[0.6, 0.1]])
    rep1 = qc_deficit(f, xi, options=FAST)

    def shifted(x, eta):
        return f(x, eta + xi[None, :, :])

    def one_pass(x, eta, delta):
        v = shifted(x, eta)
        return v, v, f.grad_xi(x, eta + xi[None, :, :])

    g = Integrand(shifted, 1, 2, one_pass=one_pass)
    rep2 = qc_deficit(g, np.zeros((1, 2)), options=FAST)
    assert rep1.deficit == pytest.approx(rep2.deficit, abs=1e-6)


def test_adding_linear_does_not_change_deficit():
    base = catalog_get("area", {"M": 1, "N": 2})
    withlin = composite(
        [(1.0, base),
         (1.0, catalog_get("linear", {"matrix": [[0.7, -1.3]]}))]
    )
    xi = np.array([[0.2, 0.5]])
    r1 = qc_deficit(base, xi, options=FAST)
    r2 = qc_deficit(withlin, xi, options=FAST)
    assert r1.deficit == pytest.approx(r2.deficit, abs=1e-8)


def test_1d_qc_on_interval_domain():
    f = catalog_get("negnorm", {"M": 1, "N": 1})
    rep = qc_deficit(f, [[0.0]], options=FAST)
    assert rep.verdict == "violated"
    assert rep.deficit < -0.5


# -- closed form for frozen split integrands ----------------------------------------


def _frozen_split_cases():
    """(id, frozen integrand, xi) with a split: catalog entries, a composite and
    a modulation, each frozen at two points, for (M, N) = (1, 1), (1, 2), (2, 1);
    in 1D |xi| < 1, and for M = 2, N = 1 xi is parallel to e1."""
    xis = {(1, 1): [[0.6]], (1, 2): [[0.3, -0.5]], (2, 1): [[0.6], [0.0]]}
    points = {1: ([0.3], [0.7]), 2: ([0.3, 0.6], [0.7, 0.4])}
    for (M, N), xi in xis.items():
        neg = catalog_get("negnorm", {"M": M, "N": N})
        norm = catalog_get("norm", {"M": M, "N": N})
        lin = catalog_get("linear", {"matrix": np.linspace(-1.0, 1.5, M * N).reshape(M, N)})
        bases = {
            "negnorm": neg,
            "norm": norm,
            "linear": lin,
            "nulllag": catalog_get("boundary_null_lagrangian",
                                   {"a": [1.0, -0.5][:M], "t": [0.6, 0.8][:N]}),
            "composite": composite([(0.5, norm), (1.0, neg), (1.0, lin)]),
            "modulate": modulate(neg, 1.0, [0.4, -0.3][:N]),
        }
        for name, f in bases.items():
            for pi, x0 in enumerate(points[N]):
                yield f"{name}-{M}x{N}-p{pi}", freeze_x(f, x0), np.array(xi)


CASES = list(_frozen_split_cases())


def _job_mesh(g):
    return default_qc_mesh(g.N, 0.25)


@pytest.mark.parametrize("name,g,xi", CASES, ids=[c[0] for c in CASES])
def test_closed_form_lies_below_the_solver_and_random_fields(name, g, xi):
    mesh = _job_mesh(g)
    rep = qc_deficit(g, xi, mesh=mesh, L_grid=(1.0, 4.0), options=FAST)
    assert all(d["source"] == "closed_form" and d["iterations"] == 0
               for d in rep.diagnostics)
    objective = BulkObjective(mesh, g, xi0=xi)
    clamped = mesh.boundary_vertices
    rng = np.random.default_rng(3)
    for L, closed in rep.per_cap:
        opts = dataclasses.replace(FAST, grad_cap=L)
        (res,) = minimize_fields(objective, [(mesh, clamped, opts)])
        assert closed <= res.value + rep.tol
        for _ in range(20):
            v = rng.normal(size=(mesh.n_vertices, g.M))
            v[clamped] = 0.0
            top = np.max(np.linalg.norm(mesh.p1_gradient(v).reshape(mesh.n_cells, -1), axis=1))
            assert closed <= objective.value(v * (L * rng.random() / top)) + 1e-12


@pytest.mark.parametrize("name,g,xi", CASES, ids=[c[0] for c in CASES])
def test_a_closed_form_violation_has_a_mesh_witness_at_or_above_it(name, g, xi):
    mesh = _job_mesh(g)
    rep = qc_deficit(g, xi, mesh=mesh, L_grid=(1.0, 4.0), options=FAST)
    c = g.split_at(g.frozen[1])[0]
    assert (rep.verdict == "violated") == (c < 0.0)
    if c >= 0.0:
        assert rep.deficit == 0.0 and rep.witness is None
        assert all("witness_value" not in d for d in rep.diagnostics)
        return
    value = rep.diagnostics[-1]["witness_value"]
    assert rep.deficit - 1e-12 <= value < -rep.tol
    objective = BulkObjective(mesh, g, xi0=xi)
    assert objective.value(rep.witness.values) == value
    top = np.max(np.linalg.norm(rep.witness.gradients().reshape(mesh.n_cells, -1), axis=1))
    assert top == pytest.approx(4.0, rel=1e-12)
    if g.M == g.N == 1:  # |xi| < L: the pyramid is the two-gradient extreme
        assert value == pytest.approx(rep.deficit, abs=1e-12)
    if g.N == 1 < g.M:  # gradients perpendicular to xi, which lies along e1
        assert np.all(rep.witness.values @ xi[:, 0] == 0.0)


def test_closed_form_values_per_cap():
    f = catalog_get("negnorm", {"M": 1, "N": 2})
    rep = qc_deficit(freeze_x(f, [0.5, 0.5]), [[0.6, 0.0]], mesh=default_qc_mesh(2, 0.25),
                     L_grid=(4.0, 1.0))
    assert rep.per_cap == [(1.0, -(np.hypot(0.6, 1.0) - 0.6)),
                           (4.0, -(np.hypot(0.6, 4.0) - 0.6))]
    assert rep.deficit == rep.per_cap[-1][1]
    g = freeze_x(catalog_get("negnorm"), [0.5])
    rep = qc_deficit(g, [[-2.0]], L_grid=(1.0, 4.0))
    assert rep.per_cap == [(1.0, 0.0), (4.0, -2.0)]
    rep = qc_deficit(g, [[-5.0]], L_grid=(1.0, 4.0))
    assert rep.per_cap == [(1.0, 0.0), (4.0, 0.0)] and rep.verdict == "qc-plausible"


def test_unfrozen_or_split_free_jobs_still_run_the_solver():
    mod = modulate(catalog_get("negnorm", {"M": 1, "N": 2}), 1.0, [0.4, -0.3])
    area = freeze_x(catalog_get("area", {"M": 1, "N": 2}), [0.5, 0.5])
    diagnostics = [qc_deficit(g, [[0.3, -0.5]], mesh=unit_square_mesh(4), L_grid=(1.0,),
                              options=FAST).diagnostics[0] for g in (mod, area)]
    assert all(d["source"] == "mesh" and "stationarity_residual" in d for d in diagnostics)
    assert diagnostics[0]["iterations"] > 0


def test_closed_form_job_answers_where_its_mesh_solve_errs(monkeypatch):
    # one restart: the first cap fits the work budget, the second, which also
    # starts from the first cap's witness, does not; the closed form runs no solve
    mesh = unit_square_mesh(4)
    g = freeze_x(catalog_get("negnorm", {"M": 1, "N": 2}), [0.5, 0.5])
    opts = dataclasses.replace(FAST, restarts=1)
    monkeypatch.setattr(minimize, "MAX_WORK", mesh.n_cells * opts.max_iter)
    jobs = [(g, np.zeros((1, 2)), opts)]
    (closed,) = qc_deficits(jobs, mesh=mesh, L_grid=(1.0, 4.0))
    # c (sqrt(|xi|^2 + L^2) - |xi|) |B| at c = -1, xi = 0, L = 4, |B| = 1
    assert (closed.deficit, closed.verdict) == (-4.0, "violated")
    (mesh_err,) = bvlsc.quasiconvex._mesh_deficits(jobs, mesh, (1.0, 4.0))
    assert isinstance(mesh_err, minimize.SolverBudgetError)
    (solved,) = bvlsc.quasiconvex._mesh_deficits(jobs, mesh, (1.0,))
    assert [d["source"] for d in solved.diagnostics] == ["mesh"]


def test_a_violation_without_a_mesh_witness_is_an_error():
    # every vertex of a two-cell square lies on its boundary: no field to witness
    g = freeze_x(catalog_get("negnorm", {"M": 1, "N": 2}), [0.5, 0.5])
    (rep,) = qc_deficits([(g, np.zeros((1, 2)), FAST)], mesh=unit_square_mesh(1))
    assert isinstance(rep, ArithmeticError) and "witness" in str(rep)
