import itertools

import numpy as np
import pytest

from bvlsc.integrands import Integrand, catalog_get
from bvlsc.meshing import interval_mesh, unit_square_mesh
from bvlsc.minimize import (
    BulkObjective,
    FieldEvaluationError,
    LinearCombo,
    RayleighQuotient,
    SolverOptions,
    TVObjective,
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
