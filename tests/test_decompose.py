import importlib.util
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from bvlsc import meshing, regions
from bvlsc.bv import (BVFunction, Family1D, VariationStack, _frobenius, cutoff_multiply,
                      derivative, does_not_charge, reassembly_deviation, refine_bv_1d,
                      total_variation)
from bvlsc.decompose import (
    GRAD_SLACK,
    SELECTION_BOUND_FACTOR,
    CoverSpec,
    DecompositionResult,
    PrefixTooShortError,
    _cutoff_values,
    _interp,
    _mixed_terms,
    _pieces,
    _union,
    local_decompose,
    verify_properties,
)
from bvlsc.meshing import (Domain, interval_mesh_with, rectangle_mesh,
                            segment_shape_gradients)
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


def _reference_breakpoints(kset, n, lo, hi):
    """The cutoff breakpoints of level n inside (lo, hi), anchor by anchor."""
    pts = []
    for kind, data in kset.pieces:
        anchors = [data[0]] if kind == "point" else [data[0][0], data[1][0]]
        for a in anchors:
            for r in (0.5 / n, 1.0 / n):
                pts.extend([a - r, a + r])
    return [p for p in pts if lo < p < hi]


def _abs_integral_times_grad(pts, cell_values, phi_values):
    """Integral of |u| |grad phi| for u affine with the cell values (n, 2, M)
    on the cells between the sorted vertices pts (n + 1,) and phi continuous
    P1 with the vertex values phi_values: _mixed_terms of the one run."""
    return float(_mixed_terms(pts, cell_values, np.array([0, len(pts)]), phi_values)[0])


def _reference_abs_integral_times_grad(pts, cell_values, phi_values):
    """_abs_integral_times_grad cell by cell: each cell where grad phi is
    not zero adds its term to a Python float, in cell order."""
    x = np.column_stack([pts[:-1], pts[1:]])
    corners = np.column_stack([phi_values[:-1], phi_values[1:]])[:, :, None]
    gphi = np.einsum("cim,cid->cmd", corners,
                     segment_shape_gradients(x[:, 1] - x[:, 0]))[:, 0, 0]
    total = 0.0
    for ci in np.where(np.abs(gphi) > 1e-15)[0]:
        v0, v1 = cell_values[ci, 0], cell_values[ci, 1]
        length = x[ci, 1] - x[ci, 0]
        if cell_values.shape[2] == 1:
            a, b = float(v0[0]), float(v1[0])
            if a * b >= 0:
                area = 0.5 * abs(a + b) * length
            else:
                t = a / (a - b)
                area = 0.5 * length * (abs(a) * t + abs(b) * (1 - t))
        else:
            ts = np.linspace(0.0, 1.0, 9)
            vals = np.linalg.norm(v0[None, :] * (1 - ts)[:, None]
                                  + v1[None, :] * ts[:, None], axis=1)
            area = float(np.trapezoid(vals, dx=length / 8.0))
        total += area * abs(gphi[ci])
    return total


def _reference_single_stage(members, kset, n_target, lo, hi, best_effort=False):
    """One cutoff stage as the recursive decomposition ran it: under
    best_effort it stops where the members run out instead of raising."""
    n_values, k_map, subsequence, firsts, cutoffs = [], {}, {}, {}, {}
    remainders = []
    k_prev = -1
    for n in range(1, n_target + 1):
        bound = SELECTION_BOUND_FACTOR / n
        brk = _reference_breakpoints(kset, n, lo, hi)
        pick, best = None, np.inf
        for k in range(k_prev + 1, len(members)):
            uk = refine_bv_1d(members[k], brk)
            phi = _cutoff_values(uk.mesh.vertices, kset, n)
            mixed = _reference_abs_integral_times_grad(uk.mesh.vertices[:, 0], uk.cell_values,
                                                       phi)
            if mixed < best:
                best = mixed
            if mixed <= bound:
                pick = (k, uk, phi)
                break
        if pick is None:
            if best_effort:
                break
            raise PrefixTooShortError(n, best, bound)
        k, uk, phi = pick
        k_prev = k
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

    stages = []

    def stage(candidates, kset, lo, hi, picks, levels=None, _inner=bvlsc.decompose._stage):
        stages.append((kset, picks))  # the stage's picks, one entry per block
        return _inner(candidates, kset, lo, hi, picks, levels)

    monkeypatch.setattr(bvlsc.decompose, "_stage", stage)
    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(jump_members(120), COVER3, n_max=8)
    built = [(kset, sum(len(ns) for ns, *_ in picks)) for kset, picks in stages]
    # a final pick's first cutoff carries the n of the stage-one pick it
    # came from: the last stage reads stage-one picks n = 1..8, not 40
    read = max(res.cutoffs[n][0][1] for n in res.n_values)
    assert read == 8
    assert built == [(COVER3.sets[0], read), (COVER3.sets[1], len(res.n_values))]
    assert len(res.n_values) == 8


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


def _criterion_6(name):
    (members, cover), = [(m, c) for f, m, c in _make_goldens().decomposition_families()
                         if f == name]
    return members, cover


@pytest.mark.parametrize("name", ["jump_to_boundary", "jump_to_interior", "boundary_bumps"])
def test_the_block_scan_equals_the_one_candidate_reference_on_criterion_6(name):
    # jump_to_boundary scans two candidates per level, jump_to_interior one
    # and boundary_bumps a mix: a block's picks sit at every place of its
    # triangle of (candidate, level) pairs
    _assert_matches_the_recursion(*_criterion_6(name), 64)


def test_a_member_list_that_ends_mid_block_matches_the_reference():
    # stage one picks u_2n from blocks of 8 and then of the 5 members left;
    # the last stage's one block asks for its 6 levels, and stage one's
    # sixth pick is its last
    res = _assert_matches_the_recursion(jump_members(13), COVER3, 6)
    assert res.k_map == {n: 2 * n - 1 for n in range(1, 7)}


def test_the_last_stage_pulls_only_the_inputs_it_reads(monkeypatch):
    import bvlsc.decompose

    sizes = []

    def scan(block, *args, _inner=bvlsc.decompose._scan_block):
        sizes.append(len(block))
        return _inner(block, *args)

    monkeypatch.setattr(bvlsc.decompose, "_scan_block", scan)
    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(jump_members(60), COVER, n_max=16)
    # picks u_2n, two members a level: blocks of 8 up to n = 13, then as
    # many members as levels left (4, 2, 1 and 1 again after u_31 fails at
    # n = 16): 32 members for 16 picks
    assert sizes == [8, 8, 8, 4, 2, 1, 1]
    assert sum(sizes) == res.k_map[16] + 1

@pytest.mark.parametrize("members, n_max", [
    # no member achieves the bound: level 1 scans a block of 8, then one
    # of the 2 members left, and the best of all 10 is reported
    ([BVFunction.indicator_1d(interval_mesh_with(0.0, 1.0, 1.0 / 32, [0.0625, 0.125],
                                                 domain=OMEGA), 0.0, 0.125)] * 10, 8),
    # picks u_2n until the members run out at n = 15, mid-block
    (jump_members(29), 16),
])
def test_a_stage_that_runs_short_mid_block_raises_the_references_error(members, n_max):
    with pytest.raises(PrefixTooShortError) as want:
        _reference_decompose(members, COVER.sets, n_max, 0.0, 1.0)
    with pytest.raises(PrefixTooShortError) as got:
        with pytest.warns(UserWarning, match="cover gap"):
            local_decompose(members, COVER, n_max=n_max)
    assert "best achieved" in str(got.value) and str(got.value) == str(want.value)
    assert ((got.value.n, got.value.achieved, got.value.bound)
            == (want.value.n, want.value.achieved, want.value.bound))


def vector_members(count, c=0.5):
    """M = 2 members: (1, -2) on (c - c/n, c) plus (x, 1 - x) / n, whose
    smooth part keeps the mixed term above the bound for many members."""
    members = []
    for n in range(1, count + 1):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [c - c / n, c], domain=OMEGA)
        step = BVFunction.indicator_1d(mesh, c - c / n, c)
        vec = np.array([1.0, -2.0])
        members.append(BVFunction(mesh, step.cell_values * vec, step.facets[:, 0],
                                  step.jumps * vec)
                       + (1.0 / n) * BVFunction.affine(mesh, [[1.0], [-1.0]], [0.0, 1.0]))
    return members


def test_a_vector_valued_decomposition_matches_the_reference():
    # the trapezoid rule of the mixed term, through the block scan
    sides = regions.CompactSet(1).add_segment([0.0], [0.46]).add_segment([0.54], [1.0])
    members = vector_members(60)
    res = _assert_matches_the_recursion(members, CoverSpec([regions.point([0.5]), sides]), 6)
    assert res.subsequence[6].M == 2
    # the picks skip members: some candidates fail the bound
    assert res.k_map[6] > 2 * 6


def test_mixed_terms_equal_the_cell_loop_run_by_run():
    # runs of random cells, M = 1 and 2: cells where u changes sign, where
    # it is zero and where phi is flat
    rng = np.random.default_rng(11)
    for M in (1, 2):
        runs = []
        for _ in range(12):
            cells = int(rng.integers(1, 9))
            cv = rng.normal(size=(cells, 2, M))
            cv[rng.random(cells) < 0.2] = 0.0
            runs.append((np.sort(rng.uniform(0.0, 1.0, cells + 1)), cv,
                         np.clip(rng.normal(0.5, 0.6, cells + 1), 0.0, 1.0)))
        want = [_reference_abs_integral_times_grad(*run) for run in runs]
        off = np.cumsum([0] + [len(pts) for pts, _, _ in runs])
        pts, cv, phi = (np.concatenate(a) for a in zip(*runs))
        got = _mixed_terms(pts, cv, off, phi)
        assert got.tobytes() == np.array(want).tobytes()
        assert [_abs_integral_times_grad(*run) for run in runs] == want


def _computed_results():
    """local_decompose results: the criterion-6 families, a three-set cover,
    M = 2 and members whose jumps lie where every cutoff is 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # cover-gap note
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [0.5, 0.75], domain=OMEGA)
        yield local_decompose([(1.0 / n) * BVFunction.indicator_1d(mesh, 0.5, 0.75)
                               for n in range(1, 33)], COVER, n_max=8)
        for name in ("jump_to_boundary", "jump_to_interior", "boundary_bumps"):
            yield local_decompose(*_criterion_6(name), n_max=64)
        yield local_decompose(jump_members(40), COVER3, n_max=8)
        sides = regions.CompactSet(1).add_segment([0.0], [0.46]).add_segment([0.54], [1.0])
        yield local_decompose(vector_members(60), CoverSpec([regions.point([0.5]), sides]),
                              n_max=6)


def _decomposition_results():
    """Results of every kind whose component_tv to_json writes."""
    yield from _computed_results()
    yield from _flagged_results()


def test_each_pick_splits_as_the_cutoff_product_and_the_difference():
    # a final pick's first piece and remainder, built from the block's
    # arrays, against cutoff_multiply and BVFunction subtraction of its
    # stage input, bit for bit: jumps where phi = 1 (the remainder drops
    # them), where 0 < phi < 1 and where phi = 0 (the first piece drops
    # them), and M = 2
    phis, sizes = [], set()
    for res in _computed_results():
        for n in res.n_values:
            phi, _, uk = res.cutoffs[n][-1]
            first, rest = res.components[n][-2:]
            want = cutoff_multiply(uk, phi)
            assert _bv_bytes(first) == _bv_bytes(want)
            assert _bv_bytes(rest) == _bv_bytes(uk - want)
            phis += phi[uk.facets[:, 0]].tolist()
            sizes.add(uk.M)
    assert 1.0 in phis and 0.0 in phis and any(0.0 < p < 1.0 for p in phis)
    assert sizes == {1, 2}
    # one member straight through _pieces, phi = 0, 1e-15, 0.5 and 1 at its
    # jumps: the first piece drops the jump at 1e-15, which the remainder
    # keeps whole
    mesh = interval_mesh_with(0.0, 1.0, 1.0 / 8, [], domain=OMEGA)
    u = BVFunction.from_cellwise_constant(mesh, np.arange(8.0) % 3)
    phi = np.full(mesh.n_vertices, 0.25)
    phi[u.facets[:, 0]] = np.resize([0.0, 1e-15, 0.5, 1.0], len(u.facets))
    _, _, first, rest = _pieces(Family1D.of([u]), phi, np.array([0]))
    want = cutoff_multiply(u, phi)
    for got, w in ((first, want), (rest, u - want)):
        assert got.values.tobytes() == w.cell_values.tobytes()
        assert got.jump_at.tobytes() == w.facets[:, 0].tobytes()
        assert got.jumps.tobytes() == w.jumps.tobytes()
    assert len(first.jumps) == 3 and len(rest.jumps) == 6


def test_the_stacked_interpolation_has_the_bits_of_np_interp():
    # rows of sorted points holding their row's nodes and points between
    # them, as a final mesh holds the points of an earlier stage's pick
    rng = np.random.default_rng(3)
    nodes = [np.sort(rng.uniform(0.0, 1.0, int(rng.integers(2, 9)))) for _ in range(30)]
    points = [np.sort(np.concatenate([xp, rng.uniform(xp[0], xp[-1], int(rng.integers(9)))]))
              for xp in nodes]
    values = [rng.uniform(0.0, 1.0, len(xp)) for xp in nodes]

    def stack(rows):
        off = np.cumsum([0] + [len(r) for r in rows])
        return Family1D(np.concatenate(rows), None, None, None, None, off, None, None)

    got = _interp(stack(points), stack(nodes), np.concatenate(values))
    want = [np.interp(x, xp, fp) for x, xp, fp in zip(points, nodes, values)]
    assert got.tobytes() == np.concatenate(want).tobytes()


def test_component_tv_equals_the_total_variation_of_each_derivative():
    for res in _decomposition_results():
        got = res.to_json()["component_tv"]
        want = {str(n): [total_variation(derivative(c)) for c in comps]
                for n, comps in res.components.items()}
        assert got.keys() == want.keys()
        for n in want:
            assert np.array(got[n]).tobytes() == np.array(want[n]).tobytes()
    empty = DecompositionResult(COVER, [], {}, {}, {}, {}, None)
    assert empty.to_json()["component_tv"] == {}


def test_a_decomposition_builds_one_mesh_per_n_it_reads(monkeypatch):
    meshes, stacked = [], []

    def counted(self, *args, _inner=meshing.Mesh.__init__, **kwargs):
        meshes.append(self)
        _inner(self, *args, **kwargs)

    def of(cls, functions, _inner=Family1D.of):
        stacked.append(len(functions))
        return _inner(functions)

    members = jump_members(60)
    monkeypatch.setattr(meshing.Mesh, "__init__", counted)
    monkeypatch.setattr(Family1D, "of", classmethod(of))
    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(members, COVER, n_max=16)
    verify_properties(res)
    res.to_json()
    # the members are stacked once, for the S-table and the scan, and no
    # mesh is built; the picks skip candidates: 32 members are scanned for
    # the 16 picks
    assert stacked == [60] and meshes == []
    assert res.k_map[16] + 1 == 2 * len(res.n_values)
    assert list(res.components) == res.n_values and len(res.cutoffs) == 16
    # one n read: one mesh, shared by its member, components and stage input
    uk, comps, ((_, _, stage_input),) = res.subsequence[8], res.components[8], res.cutoffs[8]
    assert len(meshes) == 1
    assert all(u.mesh is meshes[0] for u in [uk, *comps, stage_input])
    assert res.components[8][0].mesh is meshes[0] and len(meshes) == 1


def test_a_dropped_result_is_freed_without_a_garbage_collection():
    # the mappings that read a result's stacks hold no reference to it
    import gc
    import weakref

    with pytest.warns(UserWarning, match="cover gap"):
        res = local_decompose(jump_members(20), COVER, n_max=4)
    assert len(res.components[2]) == len(res.cutoffs[2]) + 1 == 2
    gone = weakref.ref(res)
    gc.disable()
    try:
        del res
        assert gone() is None
    finally:
        gc.enable()


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
    support = np.max(np.linalg.norm(u.cell_values, axis=2), axis=1) > 1e-13
    return np.concatenate([mesh.centroids[support], mesh.vertices[u.facets[:, 0]]])


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


def test_a_built_result_needs_one_shape_of_decomposition_per_n():
    res = next(_flagged_results())

    def built(components=None, cutoffs=None):
        return DecompositionResult(res.cover, res.n_values, res.k_map, res.subsequence,
                                   {**res.components, **(components or {})},
                                   {**res.cutoffs, **(cutoffs or {})}, None)

    with pytest.raises(ValueError, match="as many components and cutoffs"):
        built(components={6: res.components[6][:1]})
    with pytest.raises(ValueError, match="as many components and cutoffs"):
        built(cutoffs={6: []})
    elsewhere = refine_bv_1d(res.components[5][0], [0.3])
    with pytest.raises(ValueError, match="components must live on their member's mesh"):
        built(components={5: [elsewhere, res.components[5][1]]})
    (phi, rad, uk), = res.cutoffs[5]
    for cut in ((phi, rad, refine_bv_1d(uk, [0.3])), (phi[:-1], rad, uk)):
        with pytest.raises(ValueError, match="cutoffs must live on their member's mesh"):
            built(cutoffs={5: [cut]})
    assert verify_properties(built()) == verify_properties(res)


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
