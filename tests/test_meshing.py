import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlsc.bv import BVFunction
from bvlsc.meshing import (
    Domain,
    Mesh,
    MeshBudgetError,
    MeshStack,
    build_mesh,
    halfball_mesh,
    interval_grids,
    interval_mesh,
    interval_mesh_with,
    interval_points,
    local_patch,
    rectangle_mesh,
    row_norms,
    unit_square_mesh,
)
from bvlsc import meshing
from bvlsc.meshing import _canonical_halfball, _refine_all, _sub_measures
from bvlsc.quasiconvex import default_qc_mesh
from mesh_helpers import shuffled_interval_mesh, shuffled_triangle_mesh


def test_interval_mesh_counts():
    m = build_mesh(Domain.interval(0.0, 1.0), 0.25)
    assert m.n_cells == 4
    assert m.n_vertices == 5
    assert m.h == pytest.approx(0.25)


def _boundary_facets(mesh):
    facets, sides = mesh.facets()
    return facets[sides[:, 1] < 0]


def test_interval_boundary_normals():
    # the boundary of an interval mesh is its two end vertices, each the
    # facet of one cell
    m = build_mesh(Domain.interval(0.0, 1.0), 0.25)
    left = int(np.argmin(m.vertices[:, 0]))
    right = int(np.argmax(m.vertices[:, 0]))
    assert m.boundary_vertices.tolist() == sorted([left, right])
    assert _boundary_facets(m).tolist() == [[v] for v in sorted([left, right])]


def test_halfball_flat_facet_resolved():
    m = halfball_mesh([1.0, 0.0], 0.5)
    # no cell straddles {y1 = 0}; the flat facet lies exactly on it
    assert np.max(m.vertices[:, 0]) <= 1e-14
    bfacets = _boundary_facets(m)
    flat = bfacets[np.all(np.abs(m.vertices[bfacets, 0]) < 1e-12, axis=1)]
    assert len(flat) >= 2
    # the flat facets cover the diameter [-1, 1] of {y1 = 0}
    ends = m.vertices[flat, 1]
    assert np.sum(np.abs(ends[:, 1] - ends[:, 0])) == pytest.approx(2.0, abs=1e-12)


def test_halfball_rotated_frame():
    nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
    m = halfball_mesh(nu, 0.3)
    s = m.vertices @ nu
    assert np.max(s) <= 1e-12
    assert np.max(np.linalg.norm(m.vertices, axis=1)) <= 1.0 + 1e-12


def test_halfball_reflection_symmetry():
    nu = np.array([1.0, 0.0])
    m = halfball_mesh(nu, 0.3)
    reflected = m.vertices - 2.0 * np.outer(m.vertices @ nu, nu)
    assert np.min(reflected @ nu) >= -1e-12  # lands in the complementary side
    assert np.max(np.linalg.norm(reflected, axis=1)) <= 1.0 + 1e-12


def test_unit_square_polygon_boundary():
    m = build_mesh(Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.5)
    assert m.cell_measures.sum() == pytest.approx(1.0, abs=1e-12)
    # boundary facets tile the four sides: each lies on one side, and their
    # total length is 4
    ends = m.vertices[_boundary_facets(m)]  # (nb, 2 ends, 2 coordinates)
    on_side = np.isclose(ends, 0.0, atol=1e-12) | np.isclose(ends, 1.0, atol=1e-12)
    assert np.all(on_side.all(axis=1).any(axis=1))
    length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1).sum()
    assert length == pytest.approx(4.0, abs=1e-12)


def test_cell_measures_match_domain_measure():
    for dom, h in [
        (Domain.interval(-1.0, 2.5), 0.3),
        (Domain.polygon([[0, 0], [2, 0], [2, 1], [0, 1]]), 0.4),
    ]:
        m = build_mesh(dom, h)
        assert m.cell_measures.sum() == pytest.approx(dom.measure(), rel=1e-10)


HEXAGON = [[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)] for k in range(6)]


@pytest.mark.parametrize("vertices", [[[0, 0], [1, 0], [0.3, 0.8]], HEXAGON],
                         ids=["triangle", "hexagon"])
def test_polygon_mesh_has_no_sliver_cells(vertices):
    # rounding moves boundary points off a slanted edge, and Delaunay spans
    # near-flat triangles over them (0 degrees at h = 0.125 on the triangle
    # and h = 0.4 on the hexagon with an absolute measure filter)
    dom = Domain.polygon(vertices)
    for h in np.linspace(0.03, 0.6, 58):
        m = build_mesh(dom, h)
        assert np.degrees(_min_angle(m.vertices, m.cells)) > 10.0, h
        assert m.cell_measures.sum() == pytest.approx(dom.measure(), abs=1e-11), h


def test_unit_square_polygon_mesh_keeps_every_cell():
    m = build_mesh(Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.125)
    assert m.n_cells == 128


def test_halfball_area_within_chord_error():
    h = 0.1
    m = halfball_mesh([1.0, 0.0], h)
    # polygonal approximation: area deficit is O(h^2)
    assert 0 < np.pi / 2 - m.cell_measures.sum() < h * h


@pytest.mark.parametrize("normal", [[1.0], [-1.0], [0.6, 0.8]])
def test_halfball_domain_builds_its_mesh_and_measures(normal):
    dom = Domain.halfball(normal)
    m, want = build_mesh(dom, 0.1), halfball_mesh(normal, 0.1)
    assert m.domain.kind == "halfball"
    assert m.vertices.tobytes() == want.vertices.tobytes()
    assert np.array_equal(m.cells, want.cells)
    if len(normal) == 2:
        assert dom.measure() == np.pi / 2
        assert 0 < dom.measure() - m.cell_measures.sum() < 0.1 * 0.1
        return
    # the unit interval opposite the normal: its ends are 0 and -normal
    assert dom.measure() == 1.0 == m.cell_measures.sum()
    inside = -normal[0] * np.array([0.5, 0.1, 0.9, 0.0, 1.0])
    assert dom.boundary_distance(inside[:, None]) == pytest.approx([0.5, 0.1, 0.1, 0.0, 0.0])


HALFBALL_NORMALS = ([1.0, 0.0], [0.6, 0.8], [0.0, -1.0], [-np.sqrt(0.5), np.sqrt(0.5)])


@pytest.mark.parametrize("h", [0.5, 0.25, 0.1, 0.05])
def test_halfball_mesh_rotates_one_triangulation_per_h_as_a_fresh_build(h):
    """A fresh build zips the canonical ring points again, past the cache,
    and lets the rotated mesh orient its own cells."""
    meshes = [halfball_mesh(nu, h) for nu in HALFBALL_NORMALS]
    pts, cells = meshing._triangulated_halfball.__wrapped__(meshing._halfball_rings(h))
    for nu, mesh in zip(HALFBALL_NORMALS, meshes):
        nu = np.asarray(nu) / np.linalg.norm(nu)
        fresh = Mesh(pts @ np.array([[nu[0], -nu[1]], [nu[1], nu[0]]]).T, cells)
        assert mesh.vertices.tobytes() == fresh.vertices.tobytes()
        assert mesh.cells.tobytes() == fresh.cells.tobytes()


def _ring_points(rings):
    """The half-ball's ring points, built apart from meshing as the reference
    for their bytes, which the zip left as they were under scipy's Delaunay."""
    pts = [np.zeros(2)]
    for k, m in enumerate(rings, 1):
        r = k / len(rings)
        theta = np.linspace(np.pi / 2.0, 3.0 * np.pi / 2.0, m)
        ring = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        ring[0] = [0.0, r]
        ring[-1] = [0.0, -r]
        pts.append(ring)
    pts = np.vstack(pts)
    pts[np.abs(pts[:, 0]) < 1e-14, 0] = 0.0
    return pts


def _min_angle(pts, cells):
    v = pts[cells]
    cosines = []
    for i in range(3):
        a, b = v[:, (i + 1) % 3] - v[:, i], v[:, (i + 2) % 3] - v[:, i]
        cosines.append(np.sum(a * b, axis=1) / (row_norms(a) * row_norms(b)))
    return float(np.arccos(np.clip(np.max(cosines), -1.0, 1.0)))


def _in_circle(cells_pts, d):
    """In-circle determinants, positive where d lies inside the circumcircle
    of the counterclockwise triangle, and the size of their terms,
    (|a - d| |b - d| |c - d|)^(4/3)."""
    rel = cells_pts - d[:, None, :]
    lift = np.sum(rel * rel, axis=2)
    m = np.concatenate([rel, lift[:, :, None]], axis=2)
    return np.linalg.det(m), np.prod(lift, axis=1) ** (2.0 / 3.0)


def test_halfball_zip_is_a_conforming_delaunay_triangulation_of_the_ring_points():
    from scipy.spatial import Delaunay

    for h in np.linspace(0.02, 1.5, 407):
        rings = meshing._halfball_rings(h)
        pts, cells = _canonical_halfball(h)
        assert pts.tobytes() == _ring_points(rings).tobytes(), h
        tri = Delaunay(pts).simplices
        tri = tri[_sub_measures(pts, tri, 2) > 1e-13]
        assert len(cells) == len(tri), h
        mesh = Mesh(pts, cells)
        assert mesh.cells.tobytes() == cells.tobytes(), h  # all counterclockwise
        assert abs(mesh.cell_measures.sum() - _sub_measures(pts, tri, 2).sum()) <= 1e-14, h
        assert _min_angle(pts, cells) >= _min_angle(pts, tri) - 1e-12, h
        # conforming: every cell edge is a facet of Mesh.facets(), one cell on
        # each side of an interior facet, and the one-cell facets are the
        # flat side and the outer ring
        facets, sides = mesh.facets()
        inner = sides[:, 1] >= 0
        assert 2 * inner.sum() + (~inner).sum() == 3 * len(cells), h
        ends = pts[facets[~inner]]
        flat = np.all(ends[:, :, 0] == 0.0, axis=1)
        outer = np.all(np.abs(row_norms(ends) - 1.0) <= 1e-14, axis=1)
        assert np.all(flat | outer), h
        assert flat.sum() == 2 * len(rings) and outer.sum() == rings[-1] - 1, h
        # empty circumcircles: across each interior facet the far vertex of
        # one cell lies outside the other's circumcircle, which for a
        # triangulation of a convex point set holds for every point exactly
        # when it holds across every interior facet (the Delaunay lemma)
        edge, c1 = facets[inner], cells[sides[inner, 1]]
        far = c1[(c1 != edge[:, :1]) & (c1 != edge[:, 1:])]
        det, scale = _in_circle(pts[cells[sides[inner, 0]]], pts[far])
        assert np.all(det <= 1e-9 * scale), h


def test_halfball_cell_count_is_eulers_and_within_the_budget_estimate():
    # a triangulation of n points, b of them on its boundary, has 2 n - b - 2
    # cells; the budget check prices 4 nr^2 cells, never fewer than are built
    for h in np.linspace(0.02, 1.5, 407):
        rings = meshing._halfball_rings(h)
        mesh = Mesh(*_canonical_halfball(h))
        n, b = mesh.n_vertices, len(mesh.boundary_vertices)
        assert b == 2 * len(rings) + 1 + rings[-1] - 2, h
        assert mesh.n_cells == 2 * n - b - 2 <= 4 * len(rings) ** 2, h


def test_a_stack_of_four_halfball_normals_shares_one_cells_array():
    meshes = [halfball_mesh(nu, 0.1) for nu in HALFBALL_NORMALS]
    stack = MeshStack(meshes)
    assert all(m.cells is stack.cells for m in meshes)


@pytest.mark.parametrize("nu", [[1.0], [-1.0], [0.6, 0.8]])
def test_halfball_mesh_checks_the_budget_on_every_call(nu, monkeypatch):
    # also for a triangulation already kept
    halfball_mesh(nu, 0.25)
    monkeypatch.setattr(meshing, "MAX_CELLS", 3)
    with pytest.raises(MeshBudgetError):
        halfball_mesh(nu, 0.25)


def test_mesh_budget_rejected():
    with pytest.raises(MeshBudgetError):
        build_mesh(Domain.interval(0.0, 1.0), 1e-9)


def test_interval_mesh_with_counts_its_required_points_against_the_budget(monkeypatch):
    # 250,001 grid cells, a few MB were the check missing
    with pytest.raises(MeshBudgetError, match=re.escape("h=4e-06 on [0.0, 1.0] with 1 more")):
        interval_mesh_with(0.0, 1.0, 4e-6, [0.5])
    monkeypatch.setattr(meshing, "MAX_CELLS", 10)
    assert interval_mesh_with(0.0, 1.0, 0.125, [0.3, 0.6]).n_cells == 10
    with pytest.raises(MeshBudgetError, match="3 more points implies about 11 cells"):
        interval_mesh_with(0.0, 1.0, 0.125, [0.1, 0.3, 0.6])


def _required_points(a, b, h):
    """Lists of required points on [a, b]: on base points, exactly 0.0 and
    -0.0, within or just beyond 1e-14 outside [a, b], or anywhere, each
    list possibly duplicated or empty."""
    base = np.linspace(a, b, meshing._interval_cells(a, b, h) + 1).tolist()
    edges = [a - d for d in (0.0, 5e-15, 1e-14, 2e-14)] + [b + d for d in (0.0, 5e-15, 1e-14, 2e-14)]
    point = st.one_of(st.sampled_from(base), st.sampled_from([0.0, -0.0]),
                      st.sampled_from(edges), st.floats(a - 0.1, b + 0.1))
    return st.tuples(st.lists(point, max_size=6), st.booleans()).map(
        lambda pair: pair[0] * 2 if pair[1] else pair[0])


@st.composite
def _grid_cases(draw):
    a = draw(st.sampled_from([-1.0, -0.0, 0.0, 0.25]))
    b = a + draw(st.sampled_from([0.5, 1.0, 2.0]))
    h = draw(st.sampled_from([0.1, 1.0 / 16, 0.3, 5.0]))
    return a, b, h, draw(st.lists(_required_points(a, b, h), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(_grid_cases())
def test_stacked_grids_equal_one_interval_points_per_member(case):
    a, b, h, required = case
    x, sizes = interval_grids(a, b, h, required)
    assert len(sizes) == len(required) and sum(sizes) == len(x)
    for r, member in zip(required, np.split(x, np.cumsum(sizes)[:-1])):
        alone = interval_points(a, b, h, r)
        assert member.tobytes() == alone.tobytes()
        # the one np.unique per member they replace, by value: of 0.0 and
        # -0.0 its unstable sort may keep either
        pts = np.concatenate([np.linspace(a, b, meshing._interval_cells(a, b, h, len(r)) + 1), r])
        old = np.unique(np.round(pts[(pts >= a - 1e-14) & (pts <= b + 1e-14)], 14))
        assert np.array_equal(alone, old)
        assert np.all(np.diff(alone) > 0)


def test_stacked_grids_check_every_budget_before_building_any_array(monkeypatch):
    def no_array(*args, **kwargs):
        raise AssertionError("an array was built")

    monkeypatch.setattr(meshing, "MAX_CELLS", 10)
    monkeypatch.setattr(meshing.np, "linspace", no_array)
    monkeypatch.setattr(meshing.np, "lexsort", no_array)
    # one base cell; the third member is the first over the budget
    with pytest.raises(MeshBudgetError) as exc:
        interval_grids(0.0, 1.0, 1.0, [[0.5] * 2, [0.5] * 9, [0.5] * 12, [0.5] * 15])
    assert str(exc.value) == ("h=1.0 on [0.0, 1.0] with 12 more points implies about "
                              "13 cells, over the budget 10")


@pytest.mark.parametrize("build", [
    lambda: interval_mesh(0.0, 1.0, 1e-9),
    lambda: rectangle_mesh(0.0, 1.0, 0.0, 1.0, 1000, 1000),
    lambda: halfball_mesh([0.0, 1.0], 1e-3),
    lambda: build_mesh(Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]]), 1e-3),
    lambda: default_qc_mesh(2, 1e-3),
])
def test_sized_constructors_refuse_over_budget_meshes_fast(build):
    t0 = time.perf_counter()
    with pytest.raises(MeshBudgetError):
        build()
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("mesh", [
    interval_mesh(0.0, 1.0, 0.1),
    halfball_mesh([0.6, 0.8], 0.25),
], ids=["1d", "2d"])
def test_p1_assemble_is_adjoint_of_p1_gradient(mesh):
    rng = np.random.default_rng(3)
    v = rng.normal(size=(mesh.n_vertices, 2))
    G = rng.normal(size=(mesh.n_cells, 2, mesh.dim))
    lhs = np.sum(mesh.p1_gradient(v) * G)
    rhs = np.sum(v * mesh.p1_assemble(G))
    assert abs(lhs - rhs) <= 1e-12


def test_p1_gradient_and_vertex_values_gather_the_bits_of_fancy_indexing():
    # take(..., axis=0) in place of values[cells]: the same bytes, on one 2D
    # mesh and on a batch of fields over a MeshStack of four half-balls
    rng = np.random.default_rng(5)
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 7, 5)
    v = rng.normal(size=(mesh.n_vertices, 2))
    ref = np.einsum("cim,cid->cmd", v[mesh.cells], mesh.shape_gradients)
    assert mesh.p1_gradient(v).tobytes() == ref.tobytes()
    u = BVFunction.from_vertex_values(mesh, v)
    assert u.cell_values.tobytes() == v[mesh.cells].tobytes()
    assert BVFunction.from_vertex_values(mesh, v[:, 0]).cell_values.tobytes() == \
        v[:, :1][mesh.cells].tobytes()
    stack = MeshStack([halfball_mesh(nu, 0.25) for nu in HALFBALL_NORMALS])
    on = [3, 0, 2, 2, 1]
    V = rng.normal(size=(len(on), stack.n_vertices, 2))
    grads = stack.p1_gradient(V, on=on)
    for r, p in enumerate(on):
        ref = np.einsum("cim,cid->cmd", V[r][stack.cells], stack.meshes[p].shape_gradients)
        assert grads[r].tobytes() == ref.tobytes()


@pytest.mark.parametrize("mesh", [
    interval_mesh(0.0, 1.0, 0.1),
    halfball_mesh([0.6, 0.8], 0.25),
], ids=["1d", "2d"])
def test_batched_p1_operators_equal_one_field_at_a_time(mesh):
    rng = np.random.default_rng(4)
    V = rng.normal(size=(4, mesh.n_vertices, 2))
    G = rng.normal(size=(4, mesh.n_cells, 2, mesh.dim))
    for R in (4, 2):  # a smaller batch after a larger one: the leading copies
        grads, assembled = mesh.p1_gradient(V[:R]), mesh.p1_assemble(G[:R])
        assert grads.shape == (R, mesh.n_cells, 2, mesh.dim)
        assert assembled.shape == (R, mesh.n_vertices, 2)
        for r in range(R):
            assert grads[r].tobytes() == mesh.p1_gradient(V[r]).tobytes()
            assert assembled[r].tobytes() == mesh.p1_assemble(G[r]).tobytes()


@pytest.mark.parametrize("mesh", [
    interval_mesh(0.0, 1.0, 0.1),
    halfball_mesh([0.6, 0.8], 0.25),
], ids=["1d", "2d"])
@pytest.mark.parametrize("M", [1, 3])
def test_p1_assemble_matches_add_at_scatter(mesh, M):
    """Reference: the einsum and np.add.at scatter p1_assemble used to run."""
    rng = np.random.default_rng(5)
    G = rng.normal(size=(3, mesh.n_cells, M, mesh.dim))
    G *= np.exp(4.0 * rng.normal(size=G.shape))
    for per_cell in (G[0], G):
        batch = per_cell.shape[:-3]
        R = int(np.prod(batch, dtype=int))
        cells = (mesh.cells[None] + mesh.n_vertices * np.arange(R)[:, None, None])
        grads = np.tile(mesh.shape_gradients, (R, 1, 1))
        contrib = np.einsum("cmn,cin->cim", per_cell.reshape(-1, M, mesh.dim), grads)
        want = np.zeros((R * mesh.n_vertices, M))
        np.add.at(want, cells.reshape(-1, mesh.dim + 1), contrib)
        got = mesh.p1_assemble(per_cell)
        assert got.shape == batch + (mesh.n_vertices, M)
        assert got.tobytes() == want.tobytes()


def _stack(h=0.25):
    return MeshStack([halfball_mesh(nu, h) for nu in ([1.0, 0.0], [0.6, 0.8], [0.0, -1.0])])


@pytest.mark.parametrize("make", [lambda: unit_square_mesh(3), lambda: interval_mesh(0.0, 1.0, 0.1),
                                  _stack], ids=["2d", "1d", "stack"])
def test_p1_assemble_with_cached_scatter_slots_equals_a_fresh_mesh(make):
    """Scatter slots are kept per component count for the most rows asked so
    far; fewer rows, then another component count, still assemble as a mesh
    that never saw a batch.  A stack takes batches only."""
    mesh = make()
    rng = np.random.default_rng(8)
    for R, M in ((8, 1), (3, 1), (5, 2), (None, 2), (8, 2)):
        shape = (mesh.n_cells, M, mesh.dim) if R is None else (R, mesh.n_cells, M, mesh.dim)
        G = rng.normal(size=shape)
        # on a stack, field r on mesh r mod 3; one field on mesh 1 errs
        on = None if mesh.copies == 1 else np.arange(R or 1) % 3 + (R is None)
        if R is None and mesh.copies > 1:
            with pytest.raises(ValueError, match="batch"):
                mesh.p1_assemble(G, on)
            with pytest.raises(ValueError, match="batch"):
                mesh.p1_gradient(rng.normal(size=(mesh.n_vertices, M)), on)
            continue
        got = mesh.p1_assemble(G, on)
        want = make().p1_assemble(G, on)
        assert got.shape == shape[:-3] + (mesh.n_vertices, M)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 2, 3, 4, 6])
def test_row_norms_equal_numpy_norm_bit_for_bit(width):
    rng = np.random.default_rng(width)
    for shape in [(20_000, width), (1, width), (7, 50, width)]:
        x = rng.normal(size=shape) * np.exp(3.0 * rng.normal(size=shape))
        assert row_norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
    x = rng.normal(size=(20_000, width))
    assert row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()


def _loop_rectangle_cells(nx, ny):
    """Reference: the per-quad loop rectangle_mesh used to build its cells."""
    def vid(i, j):
        return i * (ny + 1) + j

    cells = []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            cells.append([a, b, c])
            cells.append([a, c, d])
    return np.array(cells)


def _loop_facets(mesh):
    """Reference: each facet's incident cells, from a per-cell loop."""
    owners = {}
    for ci, c in enumerate(mesh.cells.tolist()):
        pairs = [c[:1], c[1:]] if mesh.dim == 1 else [c[:2], c[1:], c[::2]]
        for f in pairs:
            owners.setdefault(tuple(sorted(f)), []).append(ci)
    facets = sorted(owners)
    sides = [owners[f] + [-1] * (2 - len(owners[f])) for f in facets]
    verts = sorted({v for f in facets if len(owners[f]) == 1 for v in f})
    return np.array(facets), np.array(sides), np.array(verts, dtype=np.int64)


def test_facet_table_is_built_on_first_use():
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 3)
    assert mesh._facets is None
    assert len(mesh.boundary_vertices) == 12
    facets, sides = mesh.facets()
    assert len(facets) == 33 and np.count_nonzero(sides[:, 1] < 0) == 12


@pytest.mark.parametrize("build, grid", [
    (lambda: rectangle_mesh(0.0, 1.0, 0.0, 1.0, 1, 1), (1, 1)),
    (lambda: rectangle_mesh(-1.0, 2.0, 0.5, 1.5, 3, 5), (3, 5)),
    (lambda: rectangle_mesh(0.0, 1.0, 0.0, 1.0, 8, 8), (8, 8)),
    (lambda: halfball_mesh([0.6, 0.8], 0.05), None),
    (lambda: interval_mesh_with(0.0, 1.0, 0.1, [0.33, 0.5]), None),
    (lambda: shuffled_interval_mesh(5), None),
    (lambda: shuffled_triangle_mesh(5), None),
    (lambda: Mesh([[0.0], [0.1], [0.2], [0.5], [0.6]], [[0, 1], [2, 1], [3, 4]]), None),
], ids=["rect1x1", "rect3x5", "rect8x8", "halfball", "interval", "interval_shuffled",
        "triangles_shuffled", "interval_two_pieces"])
def test_vectorized_mesh_build_matches_loops(build, grid):
    mesh = build()
    if grid is not None:
        ref = Mesh(mesh.vertices, _loop_rectangle_cells(*grid))
        assert np.array_equal(mesh.cells, ref.cells)
    facets, sides, verts = _loop_facets(mesh)
    got_facets, got_sides = mesh.facets()
    assert mesh.facets() is mesh.facets()  # built once
    assert np.array_equal(got_facets, facets) and np.array_equal(got_sides, sides)
    assert got_facets.dtype == got_sides.dtype == np.int64
    assert mesh.boundary_vertices.dtype == verts.dtype
    assert np.array_equal(mesh.boundary_vertices, verts)


@pytest.mark.parametrize("build", [
    lambda: interval_mesh_with(0.0, 1.0, 0.1, [0.33]),
    lambda: halfball_mesh([0.6, 0.8], 0.25),
], ids=["1d", "2d"])
def test_refined_cells_cached_and_mass_preserving(build):
    mesh = build()
    cent, measures, parent = mesh.refined_cells(2)
    assert mesh.refined_cells(2) is mesh.refined_cells(2)
    assert not (cent.flags.writeable or measures.flags.writeable
                or parent.flags.writeable)
    assert len(cent) == len(measures) == len(parent) == mesh.n_cells * (
        2 if mesh.dim == 1 else 4) ** 2
    assert abs(measures.sum() - mesh.cell_measures.sum()) <= 1e-14
    assert np.allclose(np.bincount(parent, measures), mesh.cell_measures,
                       rtol=0, atol=1e-15)


def _loop_refine_all_1d(vertices, cells):
    """Reference: the per-cell midpoint dictionary _refine_all used in 1D."""
    mid = {}
    verts = list(vertices)
    new_cells = []
    for a, b in cells:
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = len(verts)
            verts.append(0.5 * (vertices[a] + vertices[b]))
        m = mid[key]
        new_cells.append([a, m])
        new_cells.append([m, b])
    return np.array(verts), np.array(new_cells)


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
def test_refine_all_1d_matches_cell_loop(order):
    mesh = interval_mesh_with(-1.0, 2.0, 0.3, [0.05, 0.7 + 1e-9])
    verts, cells = np.asarray(mesh.vertices), np.asarray(mesh.cells)
    if order == "reversed":
        cells = cells[::-1, ::-1]
    elif order == "shuffled":
        shuffled = shuffled_interval_mesh(7)
        verts, cells = np.asarray(shuffled.vertices), np.asarray(shuffled.cells)
    for _ in range(3):
        got, want = _refine_all(verts, cells, 1), _loop_refine_all_1d(verts, cells)
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        verts, cells = got


def _loop_refine_all_2d(vertices, cells):
    """Reference: the per-cell midpoint dictionary _refine_all used in 2D."""
    mid = {}
    verts = list(vertices)

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = len(verts)
            verts.append(0.5 * (vertices[a] + vertices[b]))
        return mid[key]

    new_cells = []
    for a, b, c in cells:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_cells.extend([[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]])
    return np.array(verts), np.array(new_cells)


_TRIANGLE_MESHES = {
    "rectangle": lambda: rectangle_mesh(-1.0, 4.0, 0.0, 3.0, 5, 3),
    "halfball": lambda: halfball_mesh([0.6, -0.8], 0.25),
    "shuffled": lambda: shuffled_triangle_mesh(3, n=4),
}


@pytest.mark.parametrize("name", sorted(_TRIANGLE_MESHES))
def test_refine_all_2d_matches_cell_loop(name):
    mesh = _TRIANGLE_MESHES[name]()
    verts, cells = np.asarray(mesh.vertices), np.asarray(mesh.cells)
    for _ in range(3):
        got, want = _refine_all(verts, cells, 2), _loop_refine_all_2d(verts, cells)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        verts, cells = got


@pytest.mark.parametrize("name", sorted(_TRIANGLE_MESHES))
def test_local_patch_and_refined_cells_match_the_cell_loop(name, monkeypatch):
    def outputs():
        mesh = _TRIANGLE_MESHES[name]()
        x0 = mesh.vertices[mesh.n_vertices // 2]
        patch = local_patch(mesh, x0, 2.0 * mesh.h, refine_levels=2)
        return [patch.mesh.vertices, patch.mesh.cells, patch.clamped_vertices,
                patch.free_vertices, *mesh.refined_cells(2)]

    got = outputs()
    monkeypatch.setattr(meshing, "_refine_all", lambda v, c, dim: _loop_refine_all_2d(v, c))
    want = outputs()
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_degenerate_polygon_rejected():
    # a bow tie has signed area 0, so it fails the orientation test first
    with pytest.raises(ValueError, match="must be positively oriented"):
        Domain.polygon([[0, 0], [1, 1], [1, 0], [0, 1]])
    with pytest.raises(ValueError, match="self-intersecting"):
        Domain.polygon([[0, 0], [3, 0], [3, 2], [2, -1], [1, 2]])
    with pytest.raises(ValueError, match="must be positively oriented"):
        Domain.polygon([[0, 0], [0, 1], [1, 1], [1, 0]])
    with pytest.raises(ValueError, match=r"needs an \(k, 2\) vertex loop with k >= 3"):
        Domain.polygon([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match=r"interval needs a < b, got \[1.0, 1.0\]"):
        Domain.interval(1.0, 1.0)


def test_degenerate_halfball_normal_rejected():
    with pytest.raises(ValueError, match="normal must be nonzero"):
        Domain.halfball([0, 0])
    with pytest.raises(ValueError, match="normal must be a unit vector"):
        Domain.halfball([2, 0])


def test_local_patch_interval_markers():
    m = build_mesh(Domain.interval(0.0, 1.0), 1.0 / 16)
    patch = local_patch(m, np.array([0.0]), 0.3)
    free = patch.mesh.vertices[patch.free_vertices][:, 0]
    clamped = patch.mesh.vertices[patch.clamped_vertices][:, 0]
    assert list(free) == [0.0]
    assert len(clamped) == 1
    assert abs(clamped[0] - 0.3) <= m.h


def test_local_patch_halfdisk_classification():
    # brute-force check of the free/clamped geometric predicate
    m = unit_square_mesh(8)
    x0 = np.array([0.0, 0.5])
    delta = 0.2
    patch = local_patch(m, x0, delta, refine_levels=2)
    free = patch.mesh.vertices[patch.free_vertices]
    assert np.all(np.abs(free[:, 0]) < 1e-9)  # free part on the side {x1 = 0}
    clamped = patch.mesh.vertices[patch.clamped_vertices]
    d = np.linalg.norm(clamped - x0, axis=1)
    assert np.all(d > delta - 2 * patch.mesh.h)  # clamped near the arc
    # area against Monte-Carlo sampling of the true intersection
    rng = np.random.default_rng(0)
    pts = rng.random((200_000, 2))
    mc = np.mean(np.linalg.norm(pts - x0, axis=1) < delta)
    area = patch.mesh.cell_measures.sum()
    assert area == pytest.approx(mc, rel=0.15)


def test_local_patch_covers_full_mesh_for_large_delta():
    m = build_mesh(Domain.interval(0.0, 1.0), 0.125)
    patch = local_patch(m, np.array([0.0]), 5.0)
    assert patch.mesh.n_cells == m.n_cells
    assert len(patch.clamped_vertices) == 0


def test_local_patch_monotone_in_delta():
    m = unit_square_mesh(8)
    x0 = np.array([0.0, 0.5])
    small = local_patch(m, x0, 0.15, refine_levels=0)
    big = local_patch(m, x0, 0.3, refine_levels=0)

    def cell_keys(patch):
        c = patch.mesh.centroids
        return {tuple(np.round(p, 12)) for p in c}

    assert cell_keys(small) <= cell_keys(big)


def test_local_patch_empty_error():
    m = build_mesh(Domain.interval(0.0, 1.0), 0.125)
    with pytest.raises(ValueError):
        local_patch(m, np.array([5.0]), 0.01)


def test_boundary_point_normals():
    dom = Domain.polygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    bp = dom.boundary_point([0.5, 0.0])
    assert np.allclose(bp.normal, [0.0, -1.0])
    bp = dom.boundary_point([1.0, 0.5])
    assert np.allclose(bp.normal, [1.0, 0.0])
    with pytest.raises(ValueError):
        dom.boundary_point([0.0, 0.0])  # corner: no single normal
    with pytest.raises(ValueError):
        dom.boundary_point([0.5, 0.5])  # interior


# the quadrature rule on a segment mesh, a structured triangle mesh and a
# half-ball mesh with a tilted normal
RULE_MESHES = {
    "interval": lambda: interval_mesh(-0.5, 1.0, 0.1),
    "square": lambda: unit_square_mesh(4),
    "halfball": lambda: halfball_mesh([0.6, 0.8], 0.25),
}


def _degree3_integral(mesh, p):
    """Integral of p over the mesh by Simpson's rule on segments and the
    vertex/midpoint/centroid rule on triangles, both exact for cubics."""
    v = mesh.vertices[mesh.cells]
    if mesh.dim == 1:
        nodes, w = [v[:, 0], v.mean(axis=1), v[:, 1]], np.array([1, 4, 1]) / 6
    else:
        mids = [0.5 * (v[:, i] + v[:, (i + 1) % 3]) for i in range(3)]
        nodes = [v[:, 0], v[:, 1], v[:, 2], *mids, v.mean(axis=1)]
        w = np.array([3, 3, 3, 8, 8, 8, 27]) / 60
    return sum(wi * np.sum(mesh.cell_measures * p(x)) for wi, x in zip(w, nodes))


@pytest.mark.parametrize("name", RULE_MESHES)
def test_quadrature_integrates_a_random_quadratic_exactly(name):
    mesh = RULE_MESHES[name]()
    rng = np.random.default_rng(3)
    c, b, A = rng.normal(), rng.normal(size=mesh.dim), rng.normal(size=(mesh.dim,) * 2)

    def p(x):
        return c + x @ b + np.einsum("...i,ij,...j->...", x, A, x)

    pts, wts = mesh.quadrature()
    assert mesh.quadrature() is mesh.quadrature()  # built once
    assert np.sum(wts * p(pts)) == pytest.approx(_degree3_integral(mesh, p), abs=1e-13)


QUADRATURE_MESHES = {
    **RULE_MESHES,
    "qc_interval": lambda: default_qc_mesh(1),
    "qc_square": lambda: default_qc_mesh(2, 0.25),
    "rectangle": lambda: rectangle_mesh(-1.0, 2.0, 0.0, 0.5, 18, 9),
    "halfball_qslb": lambda: halfball_mesh([0.0, -1.0], 0.1),
}


@pytest.mark.parametrize("name", QUADRATURE_MESHES)
def test_quadrature_points_are_the_einsum_bit_for_bit(name):
    mesh = QUADRATURE_MESHES[name]()
    bary = meshing.QUADRATURE[mesh.dim][0]
    want = np.einsum("qi,cid->cqd", bary, mesh.vertices[mesh.cells])
    assert mesh.quadrature()[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_quadrature_points_of_random_cells_are_the_einsum_bit_for_bit(dim):
    # 20,000 cells of independent random vertices, magnitudes 1e-3 to 1e3
    rng = np.random.default_rng(dim)
    v = rng.uniform(-1.0, 1.0, (20_000, dim + 1, dim))
    v *= 10.0 ** rng.uniform(-3.0, 3.0, (20_000, 1, 1))
    cells = np.arange(v.size // dim).reshape(-1, dim + 1)
    measures = rng.uniform(size=len(cells))
    pts, wts = meshing.cell_quadrature(v.reshape(-1, dim), cells, measures)
    want = np.einsum("qi,cid->cqd", meshing.QUADRATURE[dim][0], v)
    assert pts.tobytes() == want.tobytes()
    assert wts.tobytes() == np.outer(measures, meshing.QUADRATURE[dim][1]).tobytes()


def _p1_in_cell(mesh, values, c, x):
    """The P1 field of the vertex values at the point x of cell c, from the
    barycentric coordinates of x in the cell."""
    verts = mesh.vertices[mesh.cells[c]]
    lam = np.linalg.solve(np.vstack([np.ones(mesh.dim + 1), verts.T]), np.append(1.0, x))
    return lam @ values[mesh.cells[c]]


@pytest.mark.parametrize("name", RULE_MESHES)
def test_values_at_quadrature_of_a_p1_field_are_its_point_values(name):
    mesh = RULE_MESHES[name]()
    values = np.random.default_rng(4).normal(size=(mesh.n_vertices, 2))
    pts, _, vals = BVFunction.from_vertex_values(mesh, values).values_at_quadrature()
    want = [[_p1_in_cell(mesh, values, c, x) for x in cell] for c, cell in enumerate(pts)]
    assert np.max(np.abs(vals - np.array(want))) <= 1e-14


@pytest.mark.parametrize("name", RULE_MESHES)
def test_l1_norm_of_a_positive_affine_field_is_its_integral(name):
    mesh = RULE_MESHES[name]()
    slope = np.random.default_rng(5).uniform(-0.5, 0.5, size=(1, mesh.dim))
    u = BVFunction.affine(mesh, slope, b=2.0)  # >= 1 wherever |x| <= 2
    exact = np.sum(mesh.cell_measures * (2.0 + mesh.centroids @ slope[0]))
    assert u.l1_norm() == pytest.approx(exact, abs=1e-13)
