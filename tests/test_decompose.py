import importlib.util
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bvlsc import regions
from bvlsc.bv import (BVFunction, VariationStack, _frobenius, cutoff_multiply, derivative,
                      does_not_charge, reassembly_deviation, refine_bv_1d, refined_1d,
                      refined_bv)
from bvlsc.decompose import (
    GRAD_SLACK,
    SELECTION_BOUND_FACTOR,
    CoverSpec,
    DecompositionResult,
    PrefixTooShortError,
    _abs_integral_times_grad,
    _breakpoints_1d,
    _cutoff_values,
    _union,
    local_decompose,
    verify_properties,
)
from bvlsc.meshing import Domain, interval_mesh_with, rectangle_mesh
from bvlsc.sequences import SequenceSpec, generate

OMEGA = Domain.interval(0.0, 1.0)
COVER = CoverSpec([regions.point([0.0]), regions.box([0.125], [1.0])])


def jump_members(count, domain=OMEGA):
    spec = SequenceSpec("jump_migration", domain, n_max=count + 1)
    return [generate(spec, n) for n in range(1, count + 1)]


@pytest.fixture(scope="module")
def migrating_decomposition():
    members = jump_members(140)
    with pytest.warns(UserWarning):  # the example cover leaves a gap
        return local_decompose(members, COVER, n_max=64)


def test_whole_function_absorbed_near_the_point(migrating_decomposition):
    res = migrating_decomposition
    for n in (4, 16, 64):
        first, rest = res.components[n]
        # the selected member lives inside the inner cutoff plateau, so the
        # first component is the member itself and the remainder vanishes
        assert rest.linf_norm() == 0.0
        assert len(rest.jumps) == 0
        diff = res.subsequence[n] - first
        assert diff.linf_norm() <= 1e-14
        assert res.k_map[n] + 1 == 2 * n  # member u_{2n}


def test_far_supported_sequence_untouched():
    members = []
    for n in range(1, 33):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [0.5, 0.75], domain=OMEGA)
        members.append((1.0 / n) * BVFunction.indicator_1d(mesh, 0.5, 0.75))
    with pytest.warns(UserWarning):
        res = local_decompose(members, COVER, n_max=8)
    for n in (3, 8):
        first, rest = res.components[n]
        assert first.linf_norm() == 0.0
        assert (rest - res.subsequence[n]).linf_norm() <= 1e-14


def test_constant_smooth_function_fixed_cutoff_split():
    # constant-in-n smooth u against a middle segment: the first component is
    # exactly one cutoff evaluation (independently recomputed here)
    mid = regions.box([0.4], [0.6])
    sides = regions.CompactSet(1).add_segment([0.0], [0.45]).add_segment(
        [0.55], [1.0]
    )
    members = []
    for n in range(1, 41):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 32, [], domain=OMEGA)
        members.append((1.0 / n) * BVFunction.affine(mesh, [[1.0]]))
    res = local_decompose(members, CoverSpec([mid, sides]), n_max=8)
    n = 8
    uk = res.subsequence[n]
    d = mid.dist(uk.mesh.vertices)
    r_out, r_in = 1.0 / n, 0.5 / n
    phi = np.clip((r_out - d) / (r_out - r_in), 0.0, 1.0)
    manual = cutoff_multiply(uk, phi)
    assert (res.components[n][0] - manual).linf_norm() <= 1e-14
    assert (res.components[n][1] - (uk - manual)).linf_norm() <= 1e-14


def test_exact_reassembly(migrating_decomposition):
    rep = verify_properties(migrating_decomposition)
    assert rep["reassembly_dev"] <= 1e-14
    assert rep["reassembly_ok"]


def test_mass_bound_with_zero_slack(migrating_decomposition):
    rep = verify_properties(migrating_decomposition)
    assert rep["mass_bound_ok"]
    assert rep["cutoff_gradient_ok"]
    # the cutoff is constant on the member support: recorded slack is zero
    assert max(rep["slack_recorded"]) <= 1e-12


def test_charge_table_tight(migrating_decomposition):
    rep = verify_properties(migrating_decomposition, deltas=(0.1, 0.02, 0.005),
                            charge_threshold=1e-3)
    table = rep["charge_tables"]["2"]
    assert table["verdict"] == "tight"
    assert table["table"][-1][1] < 1e-3


def test_adversarial_cutoff_flagged():
    # components built with a cutoff of slope 4n: the mass bound must flag
    # the cells where the function is large
    members = jump_members(40)
    n = 4
    k = 2 * n - 1
    brk = [0.5 / (4 * n), 1.0 / (4 * n)]
    from bvlsc.bv import refine_bv_1d

    uk = refine_bv_1d(members[k], brk)
    d = regions.point([0.0]).dist(uk.mesh.vertices)
    r_out, r_in = 1.0 / (4 * n), 0.5 / (4 * n)  # slope 4n instead of 2n
    phi = np.clip((r_out - d) / (r_out - r_in), 0.0, 1.0)
    first = cutoff_multiply(uk, phi)
    rest = uk - first
    res = DecompositionResult(
        cover=COVER, n_values=[n], k_map={n: k},
        subsequence={n: uk}, components={n: [first, rest]},
        cutoffs={n: [(phi, n, uk)]}, s_table=None,
    )
    rep = verify_properties(res)
    assert not rep["cutoff_gradient_ok"]
    assert any(f["check"] == "cutoff_gradient" for f in rep["flags"])
    assert any(f["check"] == "mass_bound" for f in rep["flags"])


def test_zero_sequence_trivially_passes():
    members = []
    for _ in range(20):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [], domain=OMEGA)
        members.append(BVFunction.zero(mesh))
    with pytest.warns(UserWarning):
        res = local_decompose(members, COVER, n_max=6)
    rep = verify_properties(res)
    assert rep["reassembly_ok"]
    assert rep["mass_bound_ok"]
    assert rep["charge_ok"]
    assert rep["flags"] == []


def test_prefix_too_short():
    # constant-in-n indicator does not vanish in L1: no index achieves the bound
    members = []
    for _ in range(10):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 32, [0.0625, 0.125],
                                  domain=OMEGA)
        members.append(BVFunction.indicator_1d(mesh, 0.0, 0.125))
    with pytest.raises(PrefixTooShortError):
        with pytest.warns(UserWarning):
            local_decompose(members, COVER, n_max=8)


def _assert_three_set_cover_nests(members, stage1_n):
    """The three-set decomposition of the members equals stage one against
    K1 run to n = stage1_n, then its remainders against K2/K3."""
    cover3 = CoverSpec([
        regions.point([0.0]),
        regions.box([0.1], [0.6]),
        regions.box([0.55], [1.0]),
    ])
    # every cover below leaves (0, 0.1) uncovered
    with pytest.warns(UserWarning, match="cover gap"):
        res3 = local_decompose(members, cover3, n_max=8)

    # manual nesting: stage one against K1, then the remainders against K2/K3
    cover_first = CoverSpec([regions.point([0.0]), regions.box([0.1], [1.0])])
    with pytest.warns(UserWarning, match="cover gap"):
        stage1 = local_decompose(members, cover_first, n_max=stage1_n)
    remainders = [stage1.components[n][1] for n in stage1.n_values]
    cover_rest = CoverSpec([regions.box([0.1], [0.6]),
                            regions.box([0.55], [1.0])])
    with pytest.warns(UserWarning, match="cover gap"):
        stage2 = local_decompose(remainders, cover_rest, n_max=8)

    for n in stage2.n_values:
        manual_last = stage2.components[n][1]
        direct_last = res3.components[n][2]
        assert np.allclose(
            np.sort(manual_last.mesh.vertices[manual_last.facets[:, 0], 0]),
            np.sort(direct_last.mesh.vertices[direct_last.facets[:, 0], 0]), atol=1e-12,
        )
        assert manual_last.l1_norm() == pytest.approx(direct_last.l1_norm(),
                                                      abs=1e-12)
    assert [res3.k_map[n] for n in stage2.n_values] == [
        stage1.k_map[stage2.k_map[n] + 1] for n in stage2.n_values
    ]
    return cover_first


def test_three_set_cover_matches_nested_two_set_runs():
    # the last stage reads stage one's first 8 picks, well inside the 40
    # that the manual stage one runs to
    _assert_three_set_cover_nests(jump_members(120), 40)


def test_three_set_cover_stage_one_stops_where_its_prefix_runs_out():
    # stage one picks u_2n for n, so 30 members reach n = 15 and no further:
    # the stage stops there, and the last stage still finds its n_max = 8
    members = jump_members(30)
    cover_first = _assert_three_set_cover_nests(members, 15)
    with pytest.raises(PrefixTooShortError):
        with pytest.warns(UserWarning, match="cover gap"):
            local_decompose(members, cover_first, n_max=16)


def _reference_single_stage(members, kset, n_target, lo, hi, best_effort=False):
    """One cutoff stage as the recursive decomposition ran it: under
    best_effort it stops where the members run out instead of raising."""
    n_values, k_map, subsequence, firsts, cutoffs = [], {}, {}, {}, {}
    remainders = []
    k_prev = -1
    for n in range(1, n_target + 1):
        bound = SELECTION_BOUND_FACTOR / n
        brk = _breakpoints_1d(kset, n, lo, hi)
        pick, best = None, np.inf
        for k in range(k_prev + 1, len(members)):
            pts, cell_values = refined_1d(members[k], brk)
            phi = _cutoff_values(pts[:, None], kset, n)
            mixed = _abs_integral_times_grad(pts, cell_values, phi)
            if mixed < best:
                best = mixed
            if mixed <= bound:
                pick = (k, pts, cell_values, phi)
                break
        if pick is None:
            if best_effort:
                break
            raise PrefixTooShortError(n, best, bound)
        k, pts, cell_values, phi = pick
        k_prev = k
        uk = refined_bv(members[k], pts, cell_values)
        first = cutoff_multiply(uk, phi)
        n_values.append(n)
        k_map[n] = k
        subsequence[n] = uk
        firsts[n] = first
        cutoffs[n] = [(phi, n, uk)]
        remainders.append(uk - first)
    return n_values, k_map, subsequence, firsts, cutoffs, remainders


def _reference_reinterp(old_mesh, values, new_mesh):
    """P1 values at each vertex of new_mesh, each from the first cell of
    old_mesh whose closure, widened by 1e-10, holds it."""
    v = old_mesh.vertices[old_mesh.cells][:, :, 0]
    out = np.zeros(new_mesh.n_vertices)
    for i, x in enumerate(new_mesh.vertices[:, 0]):
        ci = np.where((v[:, 0] - 1e-10 <= x) & (x <= v[:, 1] + 1e-10))[0][0]
        t = (x - v[ci, 0]) / (v[ci, 1] - v[ci, 0])
        out[i] = (np.array([1 - t, t]) @ values[:, None][old_mesh.cells[ci]])[0]
    return out


def _reference_decompose(members, sets, n_max, lo, hi):
    """The decomposition as a recursion: one best-effort stage against
    sets[0], capped at 4 n_max + 8 picks, then the remainders against the
    rest of the cover; two sets take one stage that must reach n_max.  Where
    the later stages read fewer picks than the cap, the cap changes
    nothing."""
    if len(sets) == 2:
        n_values, k_map, subsequence, firsts, cutoffs, remainders = _reference_single_stage(
            members, sets[0], n_max, lo, hi)
        components = {n: [firsts[n], remainders[i]] for i, n in enumerate(n_values)}
        return n_values, k_map, subsequence, components, cutoffs
    cap = min(len(members), 4 * n_max + 8)
    n1, k_map, subsequence, firsts, cutoffs, remainders = _reference_single_stage(
        members, sets[0], cap, lo, hi, best_effort=True)
    sub_n, sub_k, sub_subseq, sub_comp, sub_cut = _reference_decompose(
        remainders, sets[1:], n_max, lo, hi)
    final_n, final_k, final_sub, final_compo, final_cutoffs = [], {}, {}, {}, {}
    for n in sub_n:
        stage1_n = n1[sub_k[n]]
        coords = sub_subseq[n].mesh.vertices[:, 0]
        parent = refine_bv_1d(subsequence[stage1_n], coords)
        final_n.append(n)
        final_k[n] = k_map[stage1_n]
        final_sub[n] = parent
        final_compo[n] = [refine_bv_1d(firsts[stage1_n], coords)] + sub_comp[n]
        phi1, rad1, _ = cutoffs[stage1_n][0]
        phi1_ref = _reference_reinterp(subsequence[stage1_n].mesh, phi1, parent.mesh)
        final_cutoffs[n] = [(phi1_ref, rad1, parent)] + sub_cut[n]
    return final_n, final_k, final_sub, final_compo, final_cutoffs


def _bv_bytes(u):
    return (u.mesh.vertices.tobytes(), u.cell_values.tobytes(), u.facets.tobytes(),
            u.jumps.tobytes())


def _assert_matches_the_recursion(members, cover, n_max):
    """local_decompose against _reference_decompose: the picks, every
    subsequence member, component and stage input bit for bit, each cutoff
    within 2.3e-16 (np.interp against the reference's dot product)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # cover-gap note
        res = local_decompose(members, cover, n_max=n_max)
    vertices = members[0].mesh.vertices
    n_values, k_map, subsequence, components, cutoffs = _reference_decompose(
        members, cover.sets, n_max, float(vertices.min()), float(vertices.max()))
    assert res.n_values == n_values and res.k_map == k_map
    for n in n_values:
        assert _bv_bytes(res.subsequence[n]) == _bv_bytes(subsequence[n])
        assert len(res.components[n]) == len(components[n]) == len(cover.sets)
        for got, want in zip(res.components[n], components[n]):
            assert _bv_bytes(got) == _bv_bytes(want)
        assert len(res.cutoffs[n]) == len(cutoffs[n]) == len(cover.sets) - 1
        for (phi, rad, stage_input), (want_phi, want_rad, want_input) in zip(
                res.cutoffs[n], cutoffs[n]):
            assert rad == want_rad
            assert _bv_bytes(stage_input) == _bv_bytes(want_input)
            assert np.max(np.abs(phi - want_phi)) <= 2.3e-16
    return res


COVER3 = CoverSpec([regions.point([0.0]), regions.box([0.1], [0.6]),
                    regions.box([0.55], [1.0])])


@pytest.mark.parametrize("count", [120, 30])
def test_a_three_set_cover_matches_the_recursion(count):
    # 120 members: the reference's stage one stops at its cap, 4 n_max + 8
    # = 40; 30 members: it stops where its members run out, at n = 15
    _assert_matches_the_recursion(jump_members(count), COVER3, 8)


def test_an_earlier_stage_builds_only_the_picks_its_next_stage_reads(monkeypatch):
    import bvlsc.decompose

    stage_of, built = [None], []

    def values(vertices, kset, n, _inner=bvlsc.decompose._cutoff_values):
        stage_of[0] = kset
        return _inner(vertices, kset, n)

    def multiply(u, phi, _inner=bvlsc.decompose.cutoff_multiply):
        built.append(stage_of[0])  # a pick of the stage that scanned last
        return _inner(u, phi)

    monkeypatch.setattr(bvlsc.decompose, "_cutoff_values", values)
    monkeypatch.setattr(bvlsc.decompose, "cutoff_multiply", multiply)
    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(jump_members(120), COVER3, n_max=8)
    # a final pick's first cutoff carries the n of the stage-one pick it
    # came from: the last stage reads stage-one picks n = 1..8, not 40
    read = max(res.cutoffs[n][0][1] for n in res.n_values)
    assert read == 8
    assert built.count(COVER3.sets[0]) == read
    assert built.count(COVER3.sets[1]) == len(res.n_values) == 8


def test_a_four_set_cover_matches_the_recursion():
    # two stages carry their picks and cutoffs onto the final meshes
    spec = SequenceSpec("pure_boundary_concentration", OMEGA, n_max=300)
    members = [generate(spec, n) for n in range(1, 140)]
    cover = CoverSpec([regions.point([0.0]), regions.point([1.0]),
                       regions.box([0.05], [0.5]), regions.box([0.45], [0.95])])
    res = _assert_matches_the_recursion(members, cover, 6)
    assert res.n_values == list(range(1, 7))
    assert any(c.l1_norm() > 0 for n in res.n_values for c in res.components[n][1:3])


def test_a_last_stage_that_runs_short_raises_the_recursions_error():
    members = jump_members(30)
    with pytest.raises(PrefixTooShortError) as want:
        _reference_decompose(members, COVER3.sets, 16, 0.0, 1.0)
    with pytest.raises(PrefixTooShortError, match=re.escape(str(want.value))):
        with pytest.warns(UserWarning, match="cover gap"):
            local_decompose(members, COVER3, n_max=16)


def test_a_two_set_stage_builds_one_refined_mesh_per_pick(monkeypatch):
    import bvlsc.bv

    built = []

    def counted(*args, _inner=bvlsc.bv.Mesh, **kwargs):
        built.append(args)
        return _inner(*args, **kwargs)

    members = jump_members(60)
    monkeypatch.setattr(bvlsc.bv, "Mesh", counted)
    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(members, COVER, n_max=16)
    # the picks skip candidates: 32 members are scanned for the 16 picks
    assert res.k_map[16] + 1 == 2 * len(res.n_values)
    assert len(built) == len(res.n_values) == 16


def test_each_table_and_support_check_takes_one_distance_pass_per_set(monkeypatch):
    import bvlsc.bv
    import bvlsc.decompose

    calls, tables = [], []

    def counted(self, x, _inner=regions.CompactSet.dist):
        calls.append(self)
        return _inner(self, x)

    def recorded(stack, kset, radii, _inner=bvlsc.bv.tv_on_neighborhoods):
        before = len(calls)
        out = _inner(stack, kset, radii)
        tables.append((len(stack.n_sub), kset, calls[before:]))
        return out

    monkeypatch.setattr(regions.CompactSet, "dist", counted)
    monkeypatch.setattr(bvlsc.bv, "tv_on_neighborhoods", recorded)
    monkeypatch.setattr(bvlsc.decompose, "tv_on_neighborhoods", recorded)
    members = jump_members(60)
    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(members, COVER, n_max=16)
    # the S-table: 60 members, one distance pass
    assert tables == [(60, COVER.sets[0], [COVER.sets[0]])]
    del calls[:]
    verify_properties(res)
    # the support checks: one pass per set; the charge table of component 2
    # (against K_1): one pass over its 16 measures
    (count, kset, passes), = tables[1:]
    assert count == 16 and passes == [kset]
    assert calls == list(COVER.sets) + [kset]


def _reference_support_points(u):
    """The centroids of u's support cells and the vertices u jumps at."""
    mesh = u.mesh
    return np.concatenate([mesh.centroids[u.support_cells()], mesh.vertices[u.facets[:, 0]]])


def _reference_support_flags(result):
    """verify_properties' support flags with one distance call per (n,
    component, set)."""
    sets, flags = result.cover.sets, []
    for n in result.n_values:
        h = result.subsequence[n].mesh.h
        for j, c in enumerate(result.components[n]):
            pts = _reference_support_points(c)
            if not len(pts):
                continue
            d_own = sets[min(j, len(sets) - 1)].dist(pts)
            if np.max(d_own) > 1.0 / n + 2 * h:
                flags.append({"n": n, "component": j + 1, "check": "support_inclusion",
                              "max_dist": float(np.max(d_own))})
            for i in range(j):
                d_prev = sets[i].dist(pts)
                if np.min(d_prev) < 0.5 / n - 2 * h - 1e-12:
                    flags.append({"n": n, "component": j + 1, "check": "support_exclusion",
                                  "earlier_set": i, "min_dist": float(np.min(d_prev))})
    return flags


def test_stacked_support_checks_flag_as_one_pass_per_component():
    # components on the wrong sets of a three-set cover, and empty ones:
    # inclusion and exclusion flags, in (n, component, set) order
    cover = CoverSpec([regions.point([0.0]), regions.box([0.4], [0.7]),
                       regions.box([0.65], [1.0])])
    subsequence, components = {}, {}
    for n in (2, 4, 8, 16):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 256, [0.01, 0.5, 0.6], domain=OMEGA)
        far = BVFunction.indicator_1d(mesh, 0.5, 0.6)
        near = (1.0 / n) * BVFunction.indicator_1d(mesh, 0.0, 0.01)
        zero = BVFunction.zero(mesh)
        components[n] = [far, near, 0.5 * far] if n < 16 else [zero, near, zero]
        subsequence[n] = components[n][0] + components[n][1] + components[n][2]
    res = DecompositionResult(
        cover=cover, n_values=[2, 4, 8, 16], k_map={2: 0, 4: 1, 8: 2, 16: 3},
        subsequence=subsequence, components=components,
        cutoffs={n: [] for n in components}, s_table=None)
    flags = [f for f in verify_properties(res)["flags"]
             if f["check"].startswith("support")]
    assert flags == _reference_support_flags(res)
    assert {(f["check"], f.get("earlier_set")) for f in flags} == {
        ("support_inclusion", None), ("support_exclusion", 0), ("support_exclusion", 1)}


def test_abs_integral_on_a_cell_where_u_changes_sign():
    # u = 2 -> -1 on [0, 0.5] and |grad phi| = 2: two triangles of areas 1/3
    # and 1/12
    got = _abs_integral_times_grad(np.array([0.0, 0.5]), np.array([[[2.0], [-1.0]]]),
                                   np.array([0.0, 1.0]))
    assert got == pytest.approx(2.0 * (1.0 / 3.0 + 1.0 / 12.0), rel=1e-15)


def _exact_abs_integral(v0, v1, length):
    """The integral of |v0 + (v1 - v0) t| over a cell of the length, in
    closed form: sqrt(A) / 2 [u sqrt(u^2 + k) + k asinh(u / sqrt k)] between
    u = t + B / (2A) at t = 0 and 1, for |.|^2 = A t^2 + B t + C, k > 0."""
    q = v1 - v0
    A, B, C = q @ q, 2.0 * (v0 @ q), v0 @ v0
    k = C / A - (B / (2.0 * A)) ** 2

    def s(u):
        return u * np.sqrt(u * u + k) + k * np.arcsinh(u / np.sqrt(k))

    return length * 0.5 * np.sqrt(A) * (s(1.0 + B / (2.0 * A)) - s(B / (2.0 * A)))


def test_abs_integral_for_vector_fields_is_a_tight_upper_bound():
    # M = 2: the 9-point trapezoid rule of the convex |u| never reads below
    # the integral, and over random cells at most 1/64 above it
    rng = np.random.default_rng(0)
    ratios = []
    for i in range(2000):
        v, length = rng.normal(size=(2, 2)), rng.uniform(0.01, 1.0)
        exact = _exact_abs_integral(v[0], v[1], length)
        if i < 3:  # the closed form against a 200,001-point trapezoid rule
            t = np.linspace(0.0, 1.0, 200_001)[:, None]
            fine = np.trapezoid(np.linalg.norm(v[0] * (1 - t) + v[1] * t, axis=1),
                                dx=length / 200_000)
            assert exact == pytest.approx(fine, rel=1e-10)
        pts = np.array([0.0, length])  # phi = x: |grad phi| = 1
        ratios.append(_abs_integral_times_grad(pts, v[None], pts) / exact)
    assert 1.0 <= min(ratios) and max(ratios) <= 1.0 + 1.0 / 64.0


def test_s_table_recorded(migrating_decomposition):
    tbl = migrating_decomposition.s_table
    assert tbl["monotone"]
    assert len(tbl["rows"]) == 64


def test_cover_needs_two_sets():
    with pytest.raises(ValueError):
        CoverSpec([regions.point([0.0])])


def test_decompose_tables_match_golden():
    # criterion 6's s_table and charge tables, byte for byte (floats by repr)
    make_goldens = _make_goldens()
    golden = make_goldens.DECOMPOSE_GOLDEN
    assert golden.exists(), "regenerate with python tests/make_goldens.py"
    assert make_goldens.decompose_tables_json().encode() == golden.read_bytes()


def _reference_reassembly_deviation(u, components):
    """How far u is from the sum of the components, by BVFunction sums: the
    largest norm of a cell value of u minus the sum, plus the norms of its
    jumps."""
    total = components[0]
    for c in components[1:]:
        total = total + c
    diff = u - total
    return diff.linf_norm() + sum(_frobenius(diff.jumps).tolist())


def _reference_verify_properties(result, deltas=(0.2, 0.1, 0.05, 0.02),
                                 charge_threshold=1e-2):
    """verify_properties one n at a time: the report as the per-n loop made
    it, with one derivative per component of a charge table."""
    tol = 1e-12
    sets = result.cover.sets
    J = len(sets)
    flags, slack_recorded = [], []
    reassembly_dev, grad_bound_ok = 0.0, True
    for n in result.n_values:
        uk, comps = result.subsequence[n], result.components[n]
        reassembly_dev = max(reassembly_dev, _reference_reassembly_deviation(uk, comps))
        allowed_grad = 2.0 * n * (1.0 + GRAD_SLACK)
        measured = np.zeros(uk.mesh.n_cells)
        for phi, rad, stage_input in result.cutoffs[n]:
            g = np.abs(uk.mesh.p1_gradient(phi)[:, 0, 0])
            if np.max(g, initial=0.0) > 2.0 * rad * (1.0 + GRAD_SLACK):
                grad_bound_ok = False
                flags.append({"n": n, "check": "cutoff_gradient", "max_grad": float(np.max(g)),
                              "allowed": 2.0 * rad * (1.0 + GRAD_SLACK)})
            si_max = np.max(np.linalg.norm(stage_input.cell_values, axis=2), axis=1)
            measured += np.minimum(si_max * g, si_max * allowed_grad)
        slack_cells = measured * uk.mesh.cell_measures
        slack_recorded.append(float(np.sum(slack_cells)))
        parent_mass = uk.mesh.gradient_masses(uk.gradients())
        parent_jumps = dict(zip(uk.facets[:, 0].tolist(), map(np.linalg.norm, uk.jumps)))
        h = uk.mesh.h
        for j, c in enumerate(comps):
            lhs = c.mesh.gradient_masses(c.gradients())
            rhs = parent_mass + uk.mesh.cell_measures / n + slack_cells + tol
            for ci in np.where(lhs > rhs)[0]:
                flags.append({"n": n, "component": j + 1, "check": "mass_bound",
                              "cell": int(ci), "mass": float(lhs[ci]), "bound": float(rhs[ci])})
            for v, jv in zip(c.facets[:, 0].tolist(), c.jumps):
                pm = parent_jumps.get(v, 0.0)
                if np.linalg.norm(jv) > pm + tol:
                    flags.append({"n": n, "component": j + 1, "check": "atom_bound",
                                  "x": float(c.mesh.vertices[v, 0]),
                                  "mass": float(np.linalg.norm(jv)), "bound": pm})
            pts = _reference_support_points(c)
            if not len(pts):
                continue
            d_own = float(np.max(sets[min(j, J - 1)].dist(pts)))
            if d_own > 1.0 / n + 2 * h:
                flags.append({"n": n, "component": j + 1, "check": "support_inclusion",
                              "max_dist": d_own})
            for i in range(j):
                d_prev = float(np.min(sets[i].dist(pts)))
                if d_prev < 0.5 / n - 2 * h - 1e-12:
                    flags.append({"n": n, "component": j + 1, "check": "support_exclusion",
                                  "earlier_set": i, "min_dist": d_prev})
    charge_tables = {}
    for j in range(1, J):
        union = sets[0]
        for s in sets[1:j]:
            union = _union(union, s)
        seq = [derivative(result.components[n][j]) for n in result.n_values]
        table = does_not_charge(VariationStack.of(seq), union, deltas,
                                threshold=charge_threshold)
        charge_tables[str(j + 1)] = {"verdict": table["verdict"], "table": table["table"]}
    return {
        "reassembly_dev": reassembly_dev,
        "reassembly_ok": reassembly_dev <= 1e-14 * 10,
        "cutoff_gradient_ok": grad_bound_ok,
        "mass_bound_ok": not any(f["check"] == "mass_bound" for f in flags),
        "slack_recorded": slack_recorded,
        "charge_tables": charge_tables,
        "charge_ok": all(t["verdict"] == "tight" for t in charge_tables.values()),
        "s_table": result.s_table,
        "flags": flags,
    }


def _make_goldens():
    path = Path(__file__).parent / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["jump_to_boundary", "jump_to_interior", "boundary_bumps"])
def test_verify_properties_equals_the_per_n_reference_on_criterion_6(name):
    (members, cover), = [(m, c) for f, m, c in _make_goldens().decomposition_families()
                         if f == name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # cover-gap note
        res = local_decompose(members, cover, n_max=64)
    for kwargs in ({}, {"deltas": (0.1, 0.02, 0.005), "charge_threshold": 1e-3}):
        assert verify_properties(res, **kwargs) == _reference_verify_properties(res, **kwargs)


def _flagged_results():
    """Built results that raise every flag kind, several n apiece."""
    members = jump_members(40)
    subsequence, components, cutoffs = {}, {}, {}
    for n in (2, 3, 4):
        # a cutoff of slope 4n, not 2n: gradient and mass flags
        uk = refine_bv_1d(members[2 * n - 1], [0.5 / (4 * n), 1.0 / (4 * n)])
        d = regions.point([0.0]).dist(uk.mesh.vertices)
        phi = np.clip((1.0 / (4 * n) - d) / (0.5 / (4 * n)), 0.0, 1.0)
        first = cutoff_multiply(uk, phi)
        subsequence[n], components[n], cutoffs[n] = uk, [first, uk - first], [(phi, n, uk)]
    for n in (5, 6):
        # twice the member, with a slope, and minus it: mass and atom flags
        # on the first piece
        uk = members[n] + BVFunction.affine(members[n].mesh, [[1.0]])
        subsequence[n], components[n] = uk, [2.0 * uk, uk - 2.0 * uk]
        cutoffs[n] = [(np.zeros(uk.mesh.n_vertices), n, uk)]
    # pieces that miss half of a step function with many jumps: the jumps
    # left over add to the reassembly deviation
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [], domain=OMEGA)
    uk = BVFunction.from_cellwise_constant(mesh, np.random.default_rng(7).normal(size=16))
    subsequence[7], components[7] = uk, [uk, -0.5 * uk]
    cutoffs[7] = [(np.zeros(mesh.n_vertices), 7, uk)]
    yield DecompositionResult(cover=COVER, n_values=[2, 3, 4, 5, 6, 7],
                              k_map={n: n for n in subsequence}, subsequence=subsequence,
                              components=components, cutoffs=cutoffs, s_table=None)
    cover = CoverSpec([regions.point([0.0]), regions.box([0.4], [0.7]),
                       regions.box([0.65], [1.0])])
    subsequence, components = {}, {}
    for n in (2, 4, 8, 16):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 256, [0.01, 0.5, 0.6], domain=OMEGA)
        far = BVFunction.indicator_1d(mesh, 0.5, 0.6)
        near = (1.0 / n) * BVFunction.indicator_1d(mesh, 0.0, 0.01)
        zero = BVFunction.zero(mesh)
        components[n] = [far, near, 0.5 * far] if n < 16 else [zero, near, zero]
        subsequence[n] = components[n][0] + components[n][1] + components[n][2]
    yield DecompositionResult(
        cover=cover, n_values=[2, 4, 8, 16], k_map={2: 0, 4: 1, 8: 2, 16: 3},
        subsequence=subsequence, components=components,
        cutoffs={n: [] for n in components}, s_table=None)
    # pieces whose jumps at x = 0.5 sum to 2^-54, a negligible jump the sum
    # drops, so u_k's jump 0.5 is left over whole
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 8, [], domain=OMEGA)
    zero, v = np.zeros((mesh.n_cells, 2, 1)), [4]
    pieces = [BVFunction(mesh, zero, v, [[0.1 + 0.2]]), BVFunction(mesh, zero, v, [[-0.3]])]
    yield DecompositionResult(cover=COVER, n_values=[3], k_map={3: 0},
                              subsequence={3: BVFunction(mesh, zero, v, [[0.5]])},
                              components={3: pieces}, cutoffs={3: []}, s_table=None)


def test_verify_properties_equals_the_per_n_reference_on_every_flag_kind():
    kinds = set()
    for res in _flagged_results():
        report = verify_properties(res)
        assert report == _reference_verify_properties(res)
        kinds |= {f["check"] for f in report["flags"]}
        assert report["reassembly_ok"] == (res.n_values[-1] not in (3, 7))
    assert report["reassembly_dev"] == 0.5  # the last result: not 0.5 - 2^-54
    assert kinds == {"cutoff_gradient", "mass_bound", "atom_bound", "support_inclusion",
                     "support_exclusion"}


def test_reassembly_deviation_equals_the_sum_by_bvfunction_arithmetic():
    # the stacked rule of one member against BVFunction sums, on the flagged
    # results (jumps left over, a cancelled sum) and on 2D functions whose
    # pieces jump on shared and separate facets
    for res in _flagged_results():
        for n in res.n_values:
            uk, comps = res.subsequence[n], res.components[n]
            got = reassembly_deviation(uk, comps)
            assert type(got) is float
            assert got == _reference_reassembly_deviation(uk, comps)
    rng = np.random.default_rng(11)
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 3)
    edges = np.unique(np.sort(mesh.cells[:, :2], axis=1), axis=0)
    for M in (1, 2):
        pieces = [BVFunction(mesh, rng.normal(size=(mesh.n_cells, 3, M)),
                             edges[rng.choice(len(edges), 4, replace=False)][:, ::-1],
                             rng.normal(size=(4, M))) for _ in range(3)]
        u = pieces[0] + pieces[1] + pieces[2]
        for wobble in (0.0, 1e-3):
            v = u + wobble * pieces[1]
            assert (reassembly_deviation(v, pieces)
                    == _reference_reassembly_deviation(v, pieces))
        assert reassembly_deviation(u, pieces) <= 1e-14
    with pytest.raises(ValueError):
        reassembly_deviation(pieces[0], [BVFunction.zero(
            rectangle_mesh(0.0, 1.0, 0.0, 1.0, 2, 2), M=2)])


def test_verify_properties_needs_one_shape_of_decomposition_per_n():
    res = next(_flagged_results())
    ragged = DecompositionResult(res.cover, res.n_values, res.k_map, res.subsequence,
                                 {**res.components, 6: res.components[6][:1]},
                                 res.cutoffs, None)
    with pytest.raises(ValueError, match="as many components and cutoffs"):
        verify_properties(ragged)
    elsewhere = refine_bv_1d(res.components[5][0], [0.3])
    moved = DecompositionResult(res.cover, res.n_values, res.k_map, res.subsequence,
                                {**res.components, 5: [elsewhere, res.components[5][1]]},
                                res.cutoffs, None)
    with pytest.raises(ValueError, match="their member's mesh"):
        verify_properties(moved)


def test_an_empty_sequence_is_refused():
    with pytest.raises(ValueError, match="empty sequence"):
        local_decompose([], COVER)
    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(jump_members(4), COVER, n_max=0)
    assert res.n_values == [] and res.s_table == {"rows": [], "monotone": True}
    with pytest.raises(ValueError, match="empty sequence of measures"):
        verify_properties(res)


def test_n_max_defaults_to_half_the_members():
    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(jump_members(40), COVER)
    assert res.n_values == list(range(1, 21))
    assert len(res.s_table["rows"]) == 20
