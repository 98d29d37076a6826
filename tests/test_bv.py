import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlsc import regions
from bvlsc.bv import (
    BVFunction,
    MatrixMeasure,
    cutoff_multiply,
    derivative,
    does_not_charge,
    l1_distance,
    refine_bv_1d,
    total_variation,
    tv_on_neighborhood,
    tv_on_neighborhoods,
    weakstar_diagnostics,
)
from bvlsc.meshing import (
    Domain,
    build_mesh,
    halfball_mesh,
    interval_mesh,
    interval_mesh_with,
    rectangle_mesh,
)
from mesh_helpers import shuffled_interval_mesh, shuffled_triangle_mesh


def jump_member(n, a=0.0, b=1.0, h=1.0 / 16):
    mesh = interval_mesh_with(a, b, h, [0.0, 1.0 / n],
                              domain=Domain.interval(a, b))
    return BVFunction.indicator_1d(mesh, 0.0, 1.0 / n)


def test_derivative_of_migrating_jump():
    u = jump_member(4)
    mu = derivative(u)
    assert np.allclose(mu.density, 0.0)
    assert len(mu.masses) == 1
    (loc,), polar, mass = mu.positions[0], mu.polars[0], mu.masses[0]
    assert loc == pytest.approx(0.25)
    assert polar[0, 0] == -1.0
    assert mass == 1.0


def test_derivative_of_affine_function():
    mesh = build_mesh(Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.4)
    xi = np.array([[0.3, -1.2]])
    u = BVFunction.affine(mesh, xi)
    mu = derivative(u)
    assert np.allclose(mu.density, np.broadcast_to(xi, mu.density.shape), atol=1e-12)
    assert len(mu.masses) == 0


def test_sum_of_jumps_given_with_opposite_normals():
    # u and v jump on the same facets, v's given with the opposite normal:
    # the sum and the difference turn v's jumps to u's normals, so that
    # D(u + v) = Du + Dv and D(u - v) = Du - Dv
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 2, 2)
    right = mesh.centroids[:, 0] > 0.5
    u = BVFunction.from_cellwise_constant(mesh, np.where(right, 0.7, 0.0))
    w = BVFunction.from_cellwise_constant(mesh, np.where(right, -0.2, 0.3))
    v = BVFunction(mesh, w.cell_values, jump_facets=[(f, -j, -n) for f, j, n in w.jump_facets])
    assert len(u.jump_facets) == len(v.jump_facets) == 2
    for (fu, _, nu), (fv, _, nv) in zip(u.jump_facets, v.jump_facets):
        assert fu == fv and np.array_equal(nu, -nv)

    def charges(mu):
        return {tuple(x): p * m
                for x, p, m in zip(mu.positions.tolist(), mu.polars, mu.masses)}

    du, dv = charges(derivative(u)), charges(derivative(v))
    for sign, s in ((1.0, u + v), (-1.0, u - v)):
        for (_, _, ns), (_, _, nu) in zip(s.jump_facets, u.jump_facets, strict=True):
            assert np.array_equal(ns, nu)
        got = charges(derivative(s))
        assert set(got) == set(du)
        for d in du:
            np.testing.assert_allclose(got[d], du[d] + sign * dv[d], rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
def test_measure_difference_merges_charges_at_one_position(dim):
    # v jumps where u does and elsewhere: Du - Dv holds one charge per
    # position, as D(u - v) does, and Du - Du none
    if dim == 1:
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 8, [0.25, 0.5],
                                  domain=Domain.interval(0.0, 1.0))
        x = mesh.centroids[:, 0]
        u = BVFunction.from_cellwise_constant(mesh, ((x > 0.25) & (x < 0.5)) * 1.0)
        v = BVFunction.from_cellwise_constant(mesh, (x < 0.5) * 0.25)
    else:
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 2, 2)
        right, top = mesh.centroids[:, 0] > 0.5, mesh.centroids[:, 1] > 0.5
        u = BVFunction.from_cellwise_constant(mesh, right * 0.7)
        v = BVFunction.from_cellwise_constant(mesh, right * 0.3 + top * 0.2)
    def charges(mu):
        return {tuple(x): p * m
                for x, p, m in zip(mu.positions.tolist(), mu.polars, mu.masses)}

    du, dv = derivative(u), derivative(v)
    diff = du - dv
    got, want = charges(diff), charges(derivative(u - v))
    assert len(diff.masses) == len(got) == len(want) < len(du.masses) + len(dv.masses)
    assert set(got) == set(want)
    for x in want:
        np.testing.assert_allclose(got[x], want[x], rtol=0, atol=1e-15)
    assert len((du - du).masses) == 0


def test_measure_drops_negligible_charges_and_keeps_nan_ones():
    mesh = interval_mesh(0.0, 1.0, 0.25, domain=Domain.interval(0.0, 1.0))
    mu = MatrixMeasure(mesh, np.zeros((mesh.n_cells, 1, 1)), [0.25, 0.5, 0.75, 0.8],
                       [[[np.nan]], [[1e-14]], [[-2.0]], [[0.0]]])
    assert mu.positions.tolist() == [[0.25], [0.75]]
    assert np.isnan(mu.masses[0]) and mu.masses[1] == 2.0 and mu.polars[1, 0, 0] == -1.0
    empty = MatrixMeasure(mesh, np.zeros((mesh.n_cells, 2, 1)))
    assert empty.positions.shape == (0, 1) and empty.polars.shape == (0, 2, 1)
    assert empty.masses.shape == (0,) and total_variation(empty) == 0.0


def test_facet_jump_against_distributional_pairing():
    # 2D: u jumps by j across the vertical line {x1 = 1/2} (normal e1).
    # Oracle: <Du, Phi> = -int u . div Phi for smooth Phi vanishing near the
    # boundary, evaluated with a dense midpoint grid.
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 2, 1)
    j = np.array([0.7])
    vals = np.where(mesh.centroids[:, 0] > 0.5, j[0], 0.0)
    u = BVFunction.from_cellwise_constant(mesh, vals)
    mu = derivative(u)
    assert len(mu.masses) == 1
    polar, mass = mu.polars[0], mu.masses[0]
    assert mass == pytest.approx(abs(j[0]) * 1.0)  # facet length 1
    assert np.allclose(polar * mass, np.outer(j, [1.0, 0.0]))

    def bump(t):
        return np.where((t > 0) & (t < 1), np.sin(np.pi * t) ** 2, 0.0)

    def bump_d(t):
        return np.where((t > 0) & (t < 1),
                        2 * np.pi * np.sin(np.pi * t) * np.cos(np.pi * t), 0.0)

    for comp in range(2):
        # Phi has a single nonzero column `comp`
        k = 800
        g = (np.arange(k) + 0.5) / k
        X, Y = np.meshgrid(g, g, indexing="ij")
        uxy = np.where(X > 0.5, j[0], 0.0)
        if comp == 0:
            divphi = bump_d(X) * bump(Y)
        else:
            divphi = bump(X) * bump_d(Y)
        lhs = -np.sum(uxy * divphi) / k**2
        # measure applied to Phi: singular charge only (density is zero)
        pos = mu.positions[0]
        phi_mat = np.zeros((1, 2))
        phi_mat[0, comp] = bump(pos[0]) * bump(pos[1])
        # the jump is constant along the facet; integrate Phi over it
        ys = (np.arange(k) + 0.5) / k
        phi_line = bump(0.5) * bump(ys) if comp == 0 else 0.0 * ys
        rhs = j[0] * np.sum(phi_line) / k  # charge j (x) e1 pairs with column 0
        assert lhs == pytest.approx(rhs, abs=2e-3)


def test_total_variation_examples():
    u = jump_member(4)
    assert total_variation(derivative(u)) == pytest.approx(1.0)
    zero = 0.0 * u
    assert total_variation(derivative(zero)) == 0.0
    mesh = build_mesh(Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.4)
    xi = np.array([[2.0, 0.0]])
    assert total_variation(derivative(BVFunction.affine(mesh, xi))) == pytest.approx(
        2.0, rel=1e-12
    )


def test_does_not_charge_migrating_jumps():
    seq = [derivative(jump_member(n)) for n in range(1, 65)]
    rep = does_not_charge(seq, regions.point([0.0]), [0.3, 0.1, 0.05])
    assert all(v == pytest.approx(1.0) for _, v in rep["table"])
    assert rep["verdict"] == "charges K"


def test_does_not_charge_far_supported_sequence():
    seq = []
    for n in range(1, 17):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [0.5, 0.75],
                                  domain=Domain.interval(0.0, 1.0))
        seq.append(derivative(BVFunction.indicator_1d(mesh, 0.5, 0.75)))
    rep = does_not_charge(seq, regions.point([0.0]), [0.3, 0.1, 0.05])
    assert [v for _, v in rep["table"]] == [0.0, 0.0, 0.0]
    assert rep["verdict"] == "tight"


def test_does_not_charge_lebesgue_density():
    mesh = interval_mesh(-1.0, 1.0, 1.0 / 32, domain=Domain.interval(-1.0, 1.0))
    u = BVFunction.affine(mesh, [[1.0]])
    seq = [derivative(u)] * 4
    rep = does_not_charge(seq, regions.point([0.0]), [0.1, 0.01, 0.001],
                          subdivisions=4)
    vals = [v for _, v in rep["table"]]
    assert vals[0] == pytest.approx(0.2, rel=0.2)  # ~ 2*delta
    assert rep["verdict"] == "tight"


def test_cutoff_multiply_identity_and_zero():
    u = jump_member(4)
    ones = np.ones(u.mesh.n_vertices)
    w = cutoff_multiply(u, ones)
    assert np.allclose(w.cell_values, u.cell_values)
    assert w.atoms == u.atoms
    z = cutoff_multiply(u, 0.0 * ones)
    assert z.linf_norm() == 0.0
    assert len(z.atoms) == 0


def test_cutoff_product_rule_explicit_pair():
    # u = chi_(0,1/4), phi ramps 1 -> 0 on (0,1/2): the atom picks up
    # phi(1/4) = 1/2 and the bulk density is u * phi' = -2 on (0,1/4).
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [0.25, 0.5],
                              domain=Domain.interval(0.0, 1.0))
    u = BVFunction.indicator_1d(mesh, 0.0, 0.25)
    phi = np.clip(1.0 - 2.0 * mesh.vertices[:, 0], 0.0, 1.0)
    w = cutoff_multiply(u, phi)
    assert len(w.atoms) == 1
    loc, jump = w.atoms[0]
    assert loc == pytest.approx(0.25)
    assert jump[0] == pytest.approx(-0.5)
    grads = w.gradients()[:, 0, 0]
    inside = u.mesh.centroids[:, 0] < 0.25
    assert np.allclose(grads[inside], -2.0, atol=1e-12)
    assert np.allclose(grads[~inside], 0.0, atol=1e-12)


def test_cutoff_tv_inequality():
    # |D(phi u)| <= int phi d|Du| + ||u (x) grad phi||_L1 + projection slack
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 32, [0.25, 0.5],
                              domain=Domain.interval(0.0, 1.0))
    u = BVFunction.indicator_1d(mesh, 0.0, 0.25)
    phi = np.clip(1.0 - 2.0 * mesh.vertices[:, 0], 0.0, 1.0)
    w = cutoff_multiply(u, phi)
    tv_w = total_variation(derivative(w))
    tv_u = total_variation(derivative(u))
    mixed = u.l1_norm() * 2.0  # |grad phi| = 2 on the support of u
    assert tv_w <= tv_u + mixed + 1e-10


def test_cutoff_scales_each_facet_jump_by_its_midpoint_value():
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 2, 2)
    u = BVFunction.from_cellwise_constant(mesh, (mesh.centroids[:, 0] > 0.5) * 0.7)
    phi = mesh.vertices[:, 1] ** 2  # not affine: the midpoint value is the mean
    w = cutoff_multiply(u, phi)
    assert len(w.jump_facets) == len(u.jump_facets) == 2
    for (fw, jw, nw), (f, j, n) in zip(w.jump_facets, u.jump_facets, strict=True):
        assert fw == f and np.array_equal(nw, n)
        assert jw.tobytes() == (0.5 * (phi[f[0]] + phi[f[1]]) * j).tobytes()
    assert [jw[0] for _, jw, _ in w.jump_facets] == pytest.approx([0.7 * 0.125, 0.7 * 0.625])


def test_weakstar_diagnostics_across_meshes():
    # members on their own meshes against the zero limit on another: the
    # distance is each member's L1 norm; a nonzero limit there is refused
    members = [jump_member(n) for n in (2, 4, 8)]
    zero = BVFunction.zero(interval_mesh(0.0, 1.0, 0.25, domain=Domain.interval(0.0, 1.0)))
    rep = weakstar_diagnostics(members, limit=zero)
    assert rep["l1_distances"] == [m.l1_norm() for m in members]
    with pytest.raises(ValueError, match="only the zero limit"):
        weakstar_diagnostics(members, limit=BVFunction.affine(zero.mesh, [[1.0]]))


def test_weakstar_diagnostics_unbounded_total_variation():
    members = [1e7 * jump_member(n) for n in (2, 4)]
    rep = weakstar_diagnostics(members)
    assert rep["tv_sup"] == pytest.approx(1e7)
    assert rep["verdict"] == "TV unbounded"


def test_weakstar_diagnostics_migrating_jumps():
    members = [jump_member(n) for n in range(1, 33)]
    rep = weakstar_diagnostics(members, l1_threshold=0.05)
    assert rep["l1_distances"][3] == pytest.approx(0.25, rel=1e-10)
    assert rep["tv_sup"] == pytest.approx(1.0)
    assert rep["verdict"] == "weak* plausible"


def test_weakstar_diagnostics_constant_sequence():
    u = jump_member(4)
    rep = weakstar_diagnostics([u, u, u], limit=u)
    assert rep["l1_distances"] == [0.0, 0.0, 0.0]


def test_weakstar_diagnostics_non_converging():
    members = []
    for n in range(1, 17):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 8, [1.0 / n],
                                  domain=Domain.interval(0.0, 1.0))
        members.append(float(n) * BVFunction.indicator_1d(mesh, 0.0, 1.0 / n))
    rep = weakstar_diagnostics(members)
    assert all(abs(d - 1.0) < 1e-10 for d in rep["l1_distances"])
    assert rep["verdict"] == "not L1-converging to limit"


def test_derivative_is_linear():
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [0.25, 0.5],
                              domain=Domain.interval(0.0, 1.0))
    u = BVFunction.indicator_1d(mesh, 0.0, 0.25)
    v = BVFunction.affine(mesh, [[1.5]])
    left = derivative(u + v)
    right_dens = derivative(u).density + derivative(v).density
    assert np.allclose(left.density, right_dens, atol=1e-13)
    assert len(left.masses) == len(derivative(u).masses)


@settings(max_examples=25, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_tv_invariant_under_constant_shift(c):
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 8, [0.25],
                              domain=Domain.interval(0.0, 1.0))
    u = BVFunction.indicator_1d(mesh, 0.0, 0.25)
    shifted = u + BVFunction.affine(mesh, [[0.0]], b=[c])
    assert total_variation(derivative(shifted)) == pytest.approx(
        total_variation(derivative(u)), abs=1e-12
    )


def test_polar_decomposition_recombines():
    u = jump_member(5)
    mu = derivative(u)
    for polar, mass in zip(mu.polars, mu.masses):
        assert abs(np.linalg.norm(polar) - 1.0) <= 1e-12
        assert np.allclose(polar * mass, np.array([[-1.0]]), atol=1e-12)


def test_atom_on_boundary_pruned_with_warning():
    mesh = interval_mesh(0.0, 1.0, 0.25, domain=Domain.interval(0.0, 1.0))
    cv = np.zeros((mesh.n_cells, 2, 1))
    with pytest.warns(UserWarning):
        u = BVFunction(mesh, cv, atoms=[(0.0, np.array([1.0]))])
    assert len(u.atoms) == 0


def test_refine_bv_1d_exact():
    u = jump_member(4)
    r = refine_bv_1d(u, [0.1234, 0.456, 0.789])
    assert r.mesh.n_cells > u.mesh.n_cells
    assert r.atoms == u.atoms
    diff = abs(total_variation(derivative(r)) - total_variation(derivative(u)))
    assert diff <= 1e-13
    assert abs(r.l1_norm() - u.l1_norm()) <= 1e-12


def _reference_refine_bv_1d(u, coords):
    """refine_bv_1d with its cells re-evaluated one at a time."""
    mesh = u.mesh
    old = mesh.vertices[:, 0]
    a, b = float(old.min()), float(old.max())
    coords = np.asarray(coords, dtype=float)
    coords = coords[(coords > a + 1e-14) & (coords < b - 1e-14)]
    pts = np.unique(np.concatenate([old, np.round(coords, 14)]))
    pts = pts[np.concatenate([[True], np.diff(pts) > 1e-14])]
    n = len(pts) - 1
    old_cells = mesh.vertices[mesh.cells][:, :, 0]
    lefts = old_cells[:, 0]
    new_cv = np.zeros((n, 2, u.M))
    mid = 0.5 * (pts[:-1] + pts[1:])
    parent = np.searchsorted(np.sort(lefts), mid, side="right") - 1
    order = np.argsort(lefts)
    for ci in range(n):
        pi = order[parent[ci]]
        x0, x1 = old_cells[pi]
        v0, v1 = u.cell_values[pi, 0], u.cell_values[pi, 1]
        for loc, x in enumerate((pts[ci], pts[ci + 1])):
            t = (x - x0) / (x1 - x0)
            new_cv[ci, loc] = v0 + t * (v1 - v0)
    return pts, new_cv


def test_refine_bv_1d_matches_cell_loop():
    rng = np.random.default_rng(3)
    mesh = interval_mesh_with(-1.0, 2.0, 0.3, [0.05, 0.7],
                              domain=Domain.interval(-1.0, 2.0))
    rough = BVFunction(mesh, rng.normal(size=(mesh.n_cells, 2, 2)))
    cases = [
        (jump_member(4), [0.1234, 0.456, 0.789]),
        (jump_member(7), np.linspace(-0.5, 1.5, 41)),
        (rough, rng.uniform(-1.2, 2.2, size=60)),
        (rough, np.concatenate([mesh.vertices[:, 0], [0.05 + 1e-15, 1.0]])),
    ]
    for u, coords in cases:
        r = refine_bv_1d(u, coords)
        pts, cv = _reference_refine_bv_1d(u, coords)
        assert r.mesh.vertices[:, 0].tobytes() == pts.tobytes()
        assert r.cell_values.tobytes() == cv.tobytes()


def test_tv_on_neighborhood_atoms_exact():
    u = jump_member(4)
    mu = derivative(u)
    assert tv_on_neighborhood(mu, regions.point([0.25]), 0.01) == pytest.approx(1.0)
    assert tv_on_neighborhood(mu, regions.point([0.9]), 0.01) == 0.0


def _measure_with_jumps_2d():
    mesh = rectangle_mesh(0, 1, 0, 1, 6, 6)
    step = (mesh.centroids[:, 0] > 0.5).astype(float)
    u = BVFunction.from_cellwise_constant(mesh, step) + BVFunction.affine(
        mesh, [[0.3, -0.7]])
    return derivative(u), regions.segment([0.5, 0.2], [0.5, 0.6])


@pytest.mark.parametrize("case", ["1d_atoms", "2d_facet_jumps"])
def test_tv_on_neighborhood_sequence_equals_scalar_calls(case):
    if case == "1d_atoms":
        u = jump_member(4)
        mu = derivative(u + BVFunction.affine(u.mesh, [[2.0]]))
        kset = regions.point([0.25])
    else:
        mu, kset = _measure_with_jumps_2d()
    assert len(mu.masses) and np.any(mu.density)
    deltas = [0.5, 0.3, 0.1, 0.04, 0.01]
    values = tv_on_neighborhood(mu, kset, deltas)
    assert values == [tv_on_neighborhood(mu, kset, d) for d in deltas]
    assert len(set(values)) > 2


@pytest.mark.parametrize("case", ["1d_atoms", "2d_facet_jumps"])
def test_tv_on_neighborhood_radii_share_sums_bit_for_bit(case):
    if case == "1d_atoms":
        # two atoms and a density; both atoms lie 0.25 from the point 0.5
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [0.25, 0.75],
                                  domain=Domain.interval(0.0, 1.0))
        step = BVFunction.indicator_1d(mesh, 0.25, 0.75)
        mu = derivative(step + BVFunction.affine(mesh, [[0.7]]))
        kset = regions.point([0.5])
        assert kset.dist(mu.positions).tolist() == [0.25, 0.25]
    else:
        mu, kset = _measure_with_jumps_2d()
    # unsorted and repeated radii, radii equal to sub-cell and charge distances
    dist = kset.dist(mu.mesh.refined_cells(2)[0])
    deltas = [0.3, 0.25, 0.1, 0.25, np.nextafter(0.25, 1.0), 0.6, 0.01, 0.3,
              float(dist[3]), float(dist[3]), float(np.median(dist)), 0.0, np.inf,
              np.nan, 0.02, 0.1]
    values = tv_on_neighborhood(mu, kset, deltas)
    assert values == [tv_on_neighborhood(mu, kset, d) for d in deltas]
    assert values[deltas.index(np.nan)] == 0.0 == values[deltas.index(0.0)]
    assert values[deltas.index(np.inf)] == pytest.approx(total_variation(mu))
    assert len(set(values)) > 5


def test_tv_on_neighborhood_scalar_delta_returns_float():
    mu, kset = _measure_with_jumps_2d()
    assert type(tv_on_neighborhood(mu, kset, 0.1)) is float
    assert type(tv_on_neighborhood(mu, kset, np.float64(0.1))) is float


def _reference_tv_on_neighborhood(mu, kset, radii):
    """One measure, one masked sum per radius: the sub-cell weights nearer
    than the radius summed by numpy, plus the masses of the charges nearer
    than it added left to right."""
    cent, sub_measure, parent = mu.mesh.refined_cells(2)
    weights = np.linalg.norm(mu.density.reshape(mu.mesh.n_cells, -1), axis=1)[parent]
    weights = weights * sub_measure
    dist, cdist = kset.dist(cent), kset.dist(mu.positions)
    return [float(weights[dist < d].sum())
            + sum(m for dc, m in zip(cdist, mu.masses.tolist()) if dc < d)
            for d in radii]


def _random_measure(rng, dim):
    """The derivative of a random step function plus a random affine part
    (charges and a density, M = 1 or 2), or of a random continuous P1
    function (a density only)."""
    M = int(rng.integers(1, 3))
    if dim == 1:
        mesh = shuffled_interval_mesh(int(rng.integers(100))) if rng.random() < 0.3 else \
            interval_mesh(0.0, 1.0, 1.0 / int(rng.integers(1, 40)))
    else:
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, *rng.integers(1, 6, size=2).tolist())
    if rng.random() < 0.3:
        return derivative(BVFunction.from_vertex_values(
            mesh, rng.normal(size=(mesh.n_vertices, M))))
    steps = rng.integers(-2, 3, size=(mesh.n_cells, M)).astype(float)
    u = BVFunction.from_cellwise_constant(mesh, steps)
    return derivative(u + BVFunction.affine(mesh, rng.normal(size=(M, dim))))


def _random_radii(rng, mu, kset):
    """0-7 radii: uniform ones, sub-cell and charge distances, 0, inf, NaN."""
    dist = np.concatenate([kset.dist(mu.mesh.refined_cells(2)[0]),
                           kset.dist(mu.positions)])
    pool = rng.uniform(0.0, 1.5, size=4).tolist() + rng.choice(dist, size=3).tolist()
    pool += [0.0, np.inf, np.nan]
    return [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(8)))]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2]),
       count=st.integers(1, 6))
def test_tv_on_neighborhoods_equals_each_measure_alone(seed, dim, count):
    # measures of different cell counts and shapes, charge-free ones among
    # them, against a point, a segment and (2D) a polygon
    rng = np.random.default_rng(seed)
    kset = regions.CompactSet(dim).add_point(rng.uniform(0, 1, dim))
    kset.add_segment(rng.uniform(0, 1, dim), rng.uniform(0, 1, dim))
    if dim == 2:
        kset.add_polygon([[0.6, 0.1], [0.9, 0.2], [0.7, 0.5]])
    measures = [_random_measure(rng, dim) for _ in range(count)]
    rows = [_random_radii(rng, mu, kset) for mu in measures]
    stacked = tv_on_neighborhoods(measures, kset, rows)
    assert len(stacked) == count
    for mu, row, values in zip(measures, rows, stacked):
        alone = tv_on_neighborhood(mu, kset, row)
        reference = _reference_tv_on_neighborhood(mu, kset, row)
        assert np.array(values).tobytes() == np.array(alone).tobytes()
        assert np.array(values).tobytes() == np.array(reference).tobytes()


def test_tv_on_neighborhoods_sums_a_measure_past_the_ufunc_buffer():
    # 2,100 cells give 8,400 sub-cells, more than numpy's 8,192-element
    # ufunc buffer, stacked with a small measure and a charge-free one
    rng = np.random.default_rng(12)
    big = interval_mesh(0.0, 1.0, 1.0 / 2100)
    steps = rng.integers(-3, 4, size=big.n_cells).astype(float)
    measures = [
        derivative(BVFunction.from_cellwise_constant(big, steps)
                   + BVFunction.affine(big, [[0.3]])),
        derivative(jump_member(4) + BVFunction.affine(jump_member(4).mesh, [[2.0]])),
        derivative(BVFunction.affine(interval_mesh(0.0, 1.0, 0.1), [[1.5]])),
    ]
    assert len(big.refined_cells(2)[0]) > 8192
    kset = regions.point([0.45])
    rows = [[0.6, 0.5, 0.3, np.nan, 0.01], [0.2, 0.6], [0.6, 0.05, 0.0]]
    stacked = tv_on_neighborhoods(measures, kset, rows)
    for mu, row, values in zip(measures, rows, stacked):
        reference = _reference_tv_on_neighborhood(mu, kset, row)
        assert np.array(values).tobytes() == np.array(reference).tobytes()
    assert stacked[0][0] == pytest.approx(total_variation(measures[0]))


def test_tv_on_neighborhoods_of_no_measures_is_empty():
    assert tv_on_neighborhoods([], regions.point([0.0]), []) == []
    mu = derivative(jump_member(4))
    with pytest.raises(ValueError, match="1 rows of radii for 2 measures"):
        tv_on_neighborhoods([mu, mu], regions.point([0.0]), [[0.1]])


def _loop_from_cellwise_constant_1d(mesh, values):
    """Reference: the per-cell facet dictionary from_cellwise_constant used in 1D."""
    vpc = np.asarray(values, dtype=float).reshape(mesh.n_cells, -1)
    owners = {}
    for ci in range(mesh.n_cells):
        for v in mesh.cells[ci]:
            owners.setdefault(int(v), []).append(ci)
    atoms = []
    for v, cs in owners.items():
        if len(cs) != 2:
            continue
        c0, c1 = cs
        left, right = (c0, c1) if mesh.centroids[c0, 0] < mesh.centroids[c1, 0] else (c1, c0)
        j = vpc[right] - vpc[left]
        if np.linalg.norm(j) > 1e-14:
            atoms.append((mesh.vertices[v, 0], j))
    return BVFunction(mesh, np.repeat(vpc[:, None, :], 2, axis=1), atoms=atoms)


def test_from_cellwise_constant_1d_matches_cell_loop():
    rng = np.random.default_rng(11)
    shuffled = shuffled_interval_mesh(11)
    member = jump_member(4)
    steps = rng.integers(0, 3, size=(shuffled.n_cells, 2)).astype(float)
    steps[::3, 1] += 1e-15  # jumps of norm 1e-15 are dropped
    cases = [
        (member.mesh, (member.mesh.centroids[:, 0] < 0.25).astype(float)),
        (shuffled, steps),
        (shuffled, 1e-9 * steps),
        (shuffled, rng.normal(size=shuffled.n_cells)),
        (shuffled, np.ones(shuffled.n_cells)),
    ]
    for mesh, values in cases:
        got = BVFunction.from_cellwise_constant(mesh, values)
        want = _loop_from_cellwise_constant_1d(mesh, values)
        assert got.cell_values.tobytes() == want.cell_values.tobytes()
        assert [loc for loc, _ in got.atoms] == [loc for loc, _ in want.atoms]
        assert [j.tobytes() for _, j in got.atoms] == [j.tobytes() for _, j in want.atoms]
    assert len(BVFunction.from_cellwise_constant(shuffled, steps).atoms) > 3


def _loop_from_cellwise_constant_2d(mesh, values):
    """Reference: the per-facet loop from_cellwise_constant used in 2D."""
    vpc = np.asarray(values, dtype=float).reshape(mesh.n_cells, -1)
    owners = {}
    for ci, c in enumerate(mesh.cells.tolist()):
        for f in ((c[0], c[1]), (c[1], c[2]), (c[0], c[2])):
            owners.setdefault(tuple(sorted(f)), []).append(ci)
    jumps = []
    for f, cs in owners.items():
        if len(cs) != 2:
            continue
        a, b = mesh.vertices[f[0]], mesh.vertices[f[1]]
        e = b - a
        n = np.array([e[1], -e[0]])
        n = n / np.linalg.norm(n)
        c0, c1 = cs
        plus, minus = (c0, c1) if n @ (mesh.centroids[c0] - 0.5 * (a + b)) > 0 else (c1, c0)
        j = vpc[plus] - vpc[minus]
        if np.linalg.norm(j) > 1e-14:
            jumps.append((f, j, n))
    return BVFunction(mesh, np.repeat(vpc[:, None, :], 3, axis=1), jump_facets=jumps)


def test_from_cellwise_constant_2d_matches_facet_loop():
    rng = np.random.default_rng(12)
    meshes = [shuffled_triangle_mesh(s, n) for s, n in [(0, 6), (1, 9), (2, 12)]]
    meshes.append(halfball_mesh([0.6, 0.8], 0.1))
    for mesh in meshes:
        steps = rng.integers(0, 3, size=(mesh.n_cells, 2)).astype(float)
        steps[::3, 1] += 1e-15  # jumps of norm 1e-15 are dropped
        for values in (steps, rng.normal(size=mesh.n_cells), np.ones(mesh.n_cells)):
            got = BVFunction.from_cellwise_constant(mesh, values)
            want = _loop_from_cellwise_constant_2d(mesh, values)
            assert got.cell_values.tobytes() == want.cell_values.tobytes()
            assert [f for f, _, _ in got.jump_facets] == [f for f, _, _ in want.jump_facets]
            assert ([j.tobytes() for _, j, _ in got.jump_facets]
                    == [j.tobytes() for _, j, _ in want.jump_facets])
            # a row-wise norm may round the last bit of a normal differently
            for (_, _, n), (_, _, m) in zip(got.jump_facets, want.jump_facets):
                assert np.max(np.abs(n - m)) <= 4.5e-16
        assert len(BVFunction.from_cellwise_constant(mesh, steps).jump_facets) > 10


def test_l1_distance_mismatch():
    u = jump_member(4)
    mesh2 = rectangle_mesh(0, 1, 0, 1, 2, 2)
    v = BVFunction.zero(mesh2, M=1)
    with pytest.raises(ValueError):
        l1_distance(u, v)
