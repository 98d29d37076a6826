import numpy as np
import pytest

from bvlsc.bv import BVFunction, MatrixMeasure, derivative
from bvlsc.functional import (
    additivity_residual,
    eval_F,
    eval_G,
    four_term_residual,
    uniform_continuity_probe,
)
from bvlsc.integrands import (
    RecessionFn,
    catalog_get,
    catalog_tags,
    estimated_recession,
    freeze_x,
    modulate,
)
from bvlsc.meshing import (
    Domain,
    build_mesh,
    interval_mesh,
    interval_mesh_with,
    rectangle_mesh,
)

LIN = catalog_get("linear", {"matrix": [[1.0]]})


def jump_member(n, a=0.0, b=1.0):
    mesh = interval_mesh_with(a, b, 1.0 / 16, [0.0, 1.0 / n],
                              domain=Domain.interval(a, b))
    return BVFunction.indicator_1d(mesh, 0.0, 1.0 / n)


def test_migrating_jump_energy_is_exactly_minus_one():
    u = jump_member(4)
    val = eval_F(LIN, LIN.recession, u)
    assert val.bulk == 0.0
    assert val.singular == -1.0
    assert val.total == -1.0
    assert abs(val.total - (val.bulk + val.singular)) <= 1e-12


def test_zero_function_energy():
    u = 0.0 * jump_member(4)
    assert eval_F(LIN, LIN.recession, u).total == 0.0


def test_affine_norm_energy_on_unit_square():
    mesh = build_mesh(Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.4)
    f = catalog_get("norm", {"M": 1, "N": 2})
    xi = np.array([[0.3, -0.4]])
    u = BVFunction.affine(mesh, xi)
    assert eval_F(f, f.recession, u).total == pytest.approx(0.5, rel=1e-12)


def test_eval_G_matches_eval_F_on_derivatives():
    u = jump_member(6)
    for tag, params in [("linear", {"matrix": [[1.0]]}), ("area", {}), ("norm", {})]:
        f = catalog_get(tag, params)
        assert eval_G(f, f.recession, derivative(u)).total == pytest.approx(
            eval_F(f, f.recession, u).total, abs=1e-14
        )


def test_eval_G_single_atom():
    mesh = interval_mesh(0.0, 1.0, 0.25, domain=Domain.interval(0.0, 1.0))
    mu = MatrixMeasure(mesh, np.zeros((mesh.n_cells, 1, 1)), [0.5], [np.array([[-1.0]])])
    assert eval_G(LIN, LIN.recession, mu).total == pytest.approx(-1.0)


def test_eval_G_constant_density_area():
    mesh = interval_mesh(0.0, 1.0, 0.25, domain=Domain.interval(0.0, 1.0))
    f = catalog_get("area")
    xi0 = 0.75
    mu = MatrixMeasure(mesh, np.full((mesh.n_cells, 1, 1), xi0))
    assert eval_G(f, f.recession, mu).total == pytest.approx(
        np.sqrt(1 + xi0**2), rel=1e-12
    )


def test_partition_additivity_exact():
    u = jump_member(4)
    f = catalog_get("area")
    val = eval_F(f, f.recession, u)
    half = u.mesh.n_cells // 2
    part = np.sum(val.per_cell[:half]) + np.sum(val.per_cell[half:])
    assert part + val.singular == pytest.approx(val.total, abs=1e-12)


def test_one_homogeneous_scaling():
    u = jump_member(4) + BVFunction.affine(jump_member(4).mesh, [[0.7]])
    for tag, params in [("norm", {}), ("linear", {"matrix": [[1.0]]})]:
        f = catalog_get(tag, params)
        base = eval_F(f, f.recession, u).total
        for alpha in (0.0, 0.5, 2.0, 10.0):
            scaled = eval_F(f, f.recession, alpha * u).total
            assert scaled == pytest.approx(alpha * base, abs=1e-10)


def _atom_pair_generator(n):
    mesh = interval_mesh(0.0, 1.0, 0.25, domain=Domain.interval(0.0, 1.0))
    mu = MatrixMeasure(mesh, np.zeros((mesh.n_cells, 1, 1)), [0.5], [np.array([[1.0]])])
    lam = MatrixMeasure(mesh, np.zeros((mesh.n_cells, 1, 1)), [0.5],
                        [np.array([[1.0 + 1.0 / n]])])
    return mu, lam


def test_uniform_continuity_atom_mass_pair():
    f = catalog_get("area")
    rep = uniform_continuity_probe(f, f.recession, _atom_pair_generator, 32)
    # TV gap and value gap are both exactly 1/n for this pair
    assert rep["rows"][0]["tv_gap"] == pytest.approx(1.0)
    assert rep["rows"][0]["g_gap"] == pytest.approx(1.0)
    assert rep["rows"][-1]["g_gap"] == pytest.approx(1.0 / 32)
    assert rep["verdict"] == "consistent"


def test_uniform_continuity_identical_pair():
    f = catalog_get("area")

    def gen(n):
        mu, _ = _atom_pair_generator(n)
        return mu, mu

    rep = uniform_continuity_probe(f, f.recession, gen, 16)
    assert all(r["g_gap"] == 0.0 for r in rep["rows"])
    assert rep["verdict"] == "consistent"


def test_uniform_continuity_refuses_non_vanishing_gap():
    f = catalog_get("area")
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 8, [0.5],
                              domain=Domain.interval(0.0, 1.0))

    def gen(n):
        dens = np.zeros((mesh.n_cells, 1, 1))
        dens[mesh.centroids[:, 0] < 1.0 / n] = float(n)
        mu = MatrixMeasure(mesh, dens)
        lam = MatrixMeasure(mesh, np.zeros((mesh.n_cells, 1, 1)), [0.5], [np.array([[1.0]])])
        return mu, lam

    rep = uniform_continuity_probe(f, f.recession, gen, 8)
    assert rep["verdict"].startswith("hypothesis violated")


def test_uniform_continuity_mass_budget():
    f = catalog_get("area")

    def gen(n):
        mesh = interval_mesh(0.0, 1.0, 0.5, domain=Domain.interval(0.0, 1.0))
        mu = MatrixMeasure(mesh, np.full((mesh.n_cells, 1, 1), 1e9))
        return mu, mu

    with pytest.raises(ValueError):
        uniform_continuity_probe(f, f.recession, gen, 4)


def test_additivity_trivial_decomposition():
    members = [jump_member(n) for n in (2, 4, 8)]
    comps = [[m] for m in members]
    f = catalog_get("area")
    rep = additivity_residual(f, f.recession, None, members, comps)
    assert np.allclose(rep["residuals"], 0.0, atol=1e-12)
    assert rep["verdict"] == "additive"


def test_additivity_disjoint_linear_exact():
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [0.25, 0.75],
                              domain=Domain.interval(0.0, 1.0))
    left = BVFunction.indicator_1d(mesh, 0.0, 0.25)
    right = BVFunction.indicator_1d(mesh, 0.75, 1.0)
    u = left + right
    rep = additivity_residual(LIN, LIN.recession, None, [u], [[left, right]])
    assert rep["residuals"][0] == pytest.approx(0.0, abs=1e-13)


def test_additivity_rejects_bad_components():
    u = jump_member(4)
    with pytest.raises(ValueError):
        additivity_residual(LIN, LIN.recession, None, [u], [[0.5 * u]])


def test_spatially_modulated_integrand_quadrature_exact():
    # c(x) f(xi) with affine c: order-2 quadrature integrates c exactly
    from bvlsc.integrands import modulate

    mesh = interval_mesh(0.0, 1.0, 0.25, domain=Domain.interval(0.0, 1.0))
    fm = modulate(catalog_get("norm"), 1.0, [2.0])  # c(x) = 1 + 2x
    u = BVFunction.affine(mesh, [[3.0]])
    assert eval_F(fm, fm.recession, u).total == pytest.approx(6.0, rel=1e-12)


def test_four_term_residual_zero_perturbation():
    u = jump_member(4)
    zero = 0.0 * u
    f = catalog_get("area")
    rep = four_term_residual(f, f.recession, u, zero)
    assert abs(rep["residual"]) <= 1e-13


def _jump_fields():
    """Piecewise-constant fields with M = 1 and M = 2: atoms on an interval,
    facet jumps on a square."""
    rng = np.random.default_rng(7)
    line = interval_mesh_with(0.0, 1.0, 0.1, [1.0 / 3.0], domain=Domain.interval(0.0, 1.0))
    square = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 3)
    for mesh in (line, square):
        for M in (1, 2):
            yield BVFunction.from_cellwise_constant(mesh, rng.normal(size=(mesh.n_cells, M)))


def _recessions(M, N):
    """Every catalog recession on M x N matrices, a composite, an x-dependent
    modulation, a frozen x, an estimated recession and a user RecessionFn."""
    rng = np.random.default_rng(M * 10 + N)
    params = {"linear": {"matrix": rng.normal(size=(M, N)).tolist()},
              "boundary_null_lagrangian": {"a": rng.normal(size=M).tolist(),
                                           "t": rng.normal(size=N).tolist()}}
    for tag in catalog_tags():
        yield tag, catalog_get(tag, params.get(tag, {"M": M, "N": N})).recession
    yield "composite", catalog_get("composite", {"terms": [
        [0.5, {"tag": "norm_sin", "params": {"M": M, "N": N}}],
        [-1.5, {"tag": "linear", "params": params["linear"]}]]}).recession
    yield "modulate", modulate(catalog_get("norm", {"M": M, "N": N}), 1.0,
                               rng.uniform(0.5, 1.0, size=N)).recession
    yield "freeze_x", freeze_x(catalog_get("linear", params["linear"]),
                               rng.uniform(size=N)).recession
    yield "estimated", estimated_recession(catalog_get("area", {"M": M, "N": N}))
    yield "user", RecessionFn(
        lambda x, xi: np.abs(xi).sum(axis=(1, 2)) * (1.0 + x[:, 0] ** 2), M, N)


def test_one_recession_call_per_measure_matches_one_call_per_charge():
    # bit for bit: the singular values, the masses, the polars and the positions
    for u in _jump_fields():
        mu, mesh = derivative(u), u.mesh
        v = mesh.vertices
        if mesh.dim == 1:
            raw = [(f, j[:, None]) for f, j in zip(u.facets, u.jumps)]
            where = [v[f[0]] for f in u.facets]
        else:
            raw = []
            for f, j in zip(u.facets, u.jumps):
                e = v[f[1]] - v[f[0]]
                n = np.array([e[1], -e[0]]) / np.linalg.norm(e)
                raw.append((f, np.outer(j, n) * np.linalg.norm(e)))
            where = [0.5 * (v[f[0]] + v[f[1]]) for f in u.facets]
        masses = [float(np.linalg.norm(m)) for _, m in raw]
        assert len(masses) == len(mu.masses) > 3
        assert np.array(masses).tobytes() == mu.masses.tobytes()
        polars = np.array([m / mass for (_, m), mass in zip(raw, masses)])
        assert polars.tobytes() == mu.polars.tobytes()
        assert np.array(where).reshape(-1, mesh.dim).tobytes() == mu.positions.tobytes()
        for name, finf in _recessions(u.M, mesh.dim):
            got = eval_G(finf, finf, mu).per_charge
            want = [finf.at(x, p) * m for x, p, m in zip(where, polars, masses)]
            assert np.array(got).tobytes() == np.array(want).tobytes(), (
                name, mesh.dim, u.M)
