import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bvlsc import regions
from bvlsc.bv import BVFunction, cutoff_multiply
from bvlsc.decompose import (
    CoverSpec,
    DecompositionResult,
    PrefixTooShortError,
    _abs_integral_times_grad,
    _support_points,
    local_decompose,
    verify_properties,
)
from bvlsc.meshing import Domain, interval_mesh_with
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
        cutoffs={n: [(phi, n, uk)]}, selection_bound_factor=0.5,
        grad_slack=0.05, s_table=None,
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
    # stage one stops at its cap, 4 n_max + 8 = 40 of the 120 members
    _assert_three_set_cover_nests(jump_members(120), 40)


def test_three_set_cover_stage_one_stops_where_its_prefix_runs_out():
    # stage one picks u_2n for n, so 30 members reach n = 15 and no further:
    # the stage stops there, and the last stage still finds its n_max = 8
    members = jump_members(30)
    cover_first = _assert_three_set_cover_nests(members, 15)
    with pytest.raises(PrefixTooShortError):
        with pytest.warns(UserWarning, match="cover gap"):
            local_decompose(members, cover_first, n_max=16)


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

    def recorded(measures, kset, radii, *args, _inner=bvlsc.bv.tv_on_neighborhoods):
        before = len(calls)
        out = _inner(measures, kset, radii, *args)
        tables.append((len(out), kset, calls[before:]))
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


def _reference_support_flags(result):
    """verify_properties' support flags with one distance call per (n,
    component, set)."""
    sets, flags = result.cover.sets, []
    for n in result.n_values:
        h = result.subsequence[n].mesh.h
        for j, c in enumerate(result.components[n]):
            pts = _support_points(c)
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
        cutoffs={n: [] for n in components}, selection_bound_factor=0.5,
        grad_slack=0.05, s_table=None)
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
    path = Path(__file__).parent / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    golden = make_goldens.DECOMPOSE_GOLDEN
    assert golden.exists(), "regenerate with python tests/make_goldens.py"
    assert make_goldens.decompose_tables_json().encode() == golden.read_bytes()
