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
        assert len(rest.atoms) == 0
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
        cover=COVER, members=members, n_values=[n], k_map={n: k},
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


def test_three_set_cover_matches_nested_two_set_runs():
    members = jump_members(120)
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
        stage1 = local_decompose(members, cover_first, n_max=40)
    remainders = [stage1.components[n][1] for n in stage1.n_values]
    cover_rest = CoverSpec([regions.box([0.1], [0.6]),
                            regions.box([0.55], [1.0])])
    with pytest.warns(UserWarning, match="cover gap"):
        stage2 = local_decompose(remainders, cover_rest, n_max=8)

    for n in stage2.n_values:
        manual_last = stage2.components[n][1]
        direct_last = res3.components[n][2]
        assert np.allclose(
            sorted(x for x, _ in manual_last.atoms),
            sorted(x for x, _ in direct_last.atoms), atol=1e-12,
        )
        assert manual_last.l1_norm() == pytest.approx(direct_last.l1_norm(),
                                                      abs=1e-12)
    assert [res3.k_map[n] for n in stage2.n_values] == [
        stage1.k_map[stage2.k_map[n] + 1] for n in stage2.n_values
    ]


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
