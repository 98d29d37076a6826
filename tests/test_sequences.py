import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bvlsc.boundary import halfball_deficit
from bvlsc.bv import derivative, total_variation, weakstar_diagnostics
from bvlsc.functional import four_term_residual
from bvlsc.integrands import catalog_get
from bvlsc.meshing import BoundaryPoint, Domain
from bvlsc.minimize import SolverOptions
from bvlsc.sequences import (
    NecessityTransferError,
    SequenceSpec,
    empirical_liminf,
    generate,
    limit_energy_check,
    necessity_witness,
)

LIN = catalog_get("linear", {"matrix": [[1.0]]})
OMEGA = Domain.interval(0.0, 1.0)


def _first_cell_at(mesh, x):
    """The smallest index of a 1D cell whose closure, widened by 1e-10,
    holds the point x."""
    v = mesh.vertices[mesh.cells][:, :, 0]
    return int(np.flatnonzero((v[:, 0] - 1e-10 <= x) & (x <= v[:, 1] + 1e-10))[0])


def test_jump_migration_member():
    spec = SequenceSpec("jump_migration", OMEGA, n_max=16)
    u = generate(spec, 7)
    assert len(u.jumps) == 1
    loc, j = u.mesh.vertices[u.facets[0, 0], 0], u.jumps[0]
    assert loc == pytest.approx(1.0 / 7)
    assert j[0] == -1.0


def test_one_d_builders_list_their_jumps_in_increasing_x():
    # facets are sorted by vertex id; these builders number the vertices in
    # x order, so their jumps keep the x order that eval_F and the golden
    # tables sum them in
    from bvlsc.bv import BVFunction, refine_bv_1d
    from bvlsc.meshing import interval_mesh_with

    funcs = [generate(SequenceSpec("jump_migration", dom, n_max=16), n)
             for dom in (OMEGA, Domain.interval(-1.0, 1.0)) for n in (1, 3, 16)]
    for req in ([0.2, 0.6], [0.05, 0.35, 0.6, 0.95]):
        mesh = interval_mesh_with(-1.0, 1.0, 0.1, req, domain=Domain.interval(-1.0, 1.0))
        funcs += [BVFunction.indicator_1d(mesh, req[0], req[1]),
                  BVFunction.indicator_1d(mesh, req[0], req[1])
                  - 0.5 * BVFunction.indicator_1d(mesh, req[-2], req[-1])]
    funcs += [refine_bv_1d(u, np.linspace(-0.9, 0.9, 7)) for u in funcs]
    assert sum(len(u.jumps) > 1 for u in funcs) >= 8
    for u in funcs:
        x = u.mesh.vertices[u.facets[:, 0], 0]
        assert np.all(np.diff(x) > 0)


def test_boundary_rescale_support():
    spec = SequenceSpec("boundary_rescale", OMEGA, n_max=8,
                        params={"profile": "hat", "x0": 0.0})
    u = generate(spec, 4)
    sup = u.mesh.centroids[u.support_cells()][:, 0]
    assert np.all(sup <= 0.25 + 1e-12)
    # hat profile: value 1 at the boundary point, linear decay to 0 at 1/4
    assert u.linf_norm() == pytest.approx(1.0)
    left_cell = _first_cell_at(u.mesh, 0.0)
    assert u.cell_values[left_cell].max() == pytest.approx(1.0)


def test_oscillation_zero_amplitude():
    spec = SequenceSpec("fixed_trace_oscillation", OMEGA, n_max=8,
                        params={"amplitude": 0.0})
    for n in (1, 3, 8):
        assert generate(spec, n).linf_norm() == 0.0


def test_oscillation_zero_trace_and_decay():
    spec = SequenceSpec("fixed_trace_oscillation", OMEGA, n_max=16,
                        params={"amplitude": 1.0})
    u = generate(spec, 8)
    for endpoint in (0.0, 1.0):
        ci = _first_cell_at(u.mesh, endpoint)
        loc = int(np.argmin(np.abs(
            u.mesh.vertices[u.mesh.cells[ci], 0] - endpoint)))
        assert u.cell_values[ci, loc, 0] == 0.0  # zero trace
    assert u.linf_norm() == pytest.approx(1.0 / 16)
    assert total_variation(derivative(u)) == pytest.approx(1.0, rel=1e-12)


def test_index_range_enforced():
    spec = SequenceSpec("jump_migration", OMEGA, n_max=4)
    with pytest.raises(ValueError):
        generate(spec, 5)


def test_empirical_liminf_migrating_jump():
    spec = SequenceSpec("jump_migration", OMEGA, n_max=64)
    rep = empirical_liminf(LIN, LIN.recession, spec)
    values = [v for n, v in rep["table"] if n >= 2]
    assert all(v == pytest.approx(-1.0, abs=1e-12) for v in values)
    assert rep["limit_value"] == 0.0
    assert rep["verdict"] == "lsc violated empirically"


def test_empirical_liminf_extended_domain():
    spec = SequenceSpec("jump_migration", Domain.interval(-1.0, 1.0), n_max=64)
    rep = empirical_liminf(LIN, LIN.recession, spec)
    # both jumps are interior from n=2 on and cancel exactly
    assert all(v == pytest.approx(0.0, abs=1e-12)
               for n, v in rep["table"] if n >= 2)
    assert rep["verdict"] == "no violation detected"


def test_empirical_liminf_nonnegative_integrand():
    f = catalog_get("norm")
    spec = SequenceSpec("jump_migration", OMEGA, n_max=32)
    rep = empirical_liminf(f, f.recession, spec)
    assert all(v >= 0.0 for _, v in rep["table"])
    assert rep["verdict"] == "no violation detected"


def test_limit_energy_norm_hat():
    f = catalog_get("norm")
    rep = limit_energy_check(f, "hat", BoundaryPoint([0.0], [-1.0]), OMEGA)
    assert rep["halfball_value"] == pytest.approx(1.0, rel=1e-10)
    assert rep["relative_gap"] <= 0.02


def test_limit_energy_linear_signed_profile():
    # profile with value c=1 at the boundary: the rescaled energies converge
    # to integral of phi' = -1
    rep = limit_energy_check(LIN, "hat", BoundaryPoint([0.0], [-1.0]), OMEGA)
    assert rep["halfball_value"] == pytest.approx(-1.0, rel=1e-10)
    assert rep["relative_gap"] <= 0.02


def test_limit_energy_zero_profile():
    rep = limit_energy_check(LIN, lambda s: 0.0 * s,
                             BoundaryPoint([0.0], [-1.0]), OMEGA)
    assert all(v == 0.0 for _, v in rep["table"])


def test_limit_energy_requires_homogeneous():
    f = catalog_get("area")
    with pytest.raises(ValueError):
        limit_energy_check(f, "hat", BoundaryPoint([0.0], [-1.0]), OMEGA)


def test_necessity_witness_from_halfball_violation():
    bp = BoundaryPoint([0.0], [-1.0])
    rep = halfball_deficit(LIN.recession, bp, h=1.0 / 16,
                           options=SolverOptions(restarts=4, max_iter=150))
    assert rep.verdict == "violated"
    out = necessity_witness(LIN, LIN.recession, bp, rep.witness,
                            eps=-rep.deficit)
    gaps = [r["gap"] for r in out["rows"]]
    assert out["certificate"]
    assert gaps[-1] <= -0.5  # energy eventually below -1/2
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))


def test_necessity_witness_requires_violation():
    bp = BoundaryPoint([0.0], [-1.0])
    f = catalog_get("norm")
    rep = halfball_deficit(f.recession, bp, h=1.0 / 16,
                           options=SolverOptions(restarts=4, max_iter=150))
    assert rep.verdict == "qslb-plausible"  # no violation: nothing to transfer
    with pytest.raises(ValueError):
        necessity_witness(f, f.recession, bp, None, eps=0.0)


def test_necessity_witness_not_transferable():
    # a zero-gradient "witness" cannot carry negative energy
    bp = BoundaryPoint([0.0], [-1.0])
    rep = halfball_deficit(LIN.recession, bp, h=1.0 / 16,
                           options=SolverOptions(restarts=4, max_iter=150))
    from bvlsc.minimize import TestField

    flat = TestField(rep.witness.mesh, np.zeros_like(rep.witness.values),
                     rep.witness.clamped)
    with pytest.raises(NecessityTransferError):
        necessity_witness(LIN, LIN.recession, bp, flat, eps=1.0)


def test_rescale_preserves_gradient_l1():
    spec = SequenceSpec("boundary_rescale", OMEGA, n_max=32,
                        params={"profile": "hat", "x0": 0.0})
    tvs = [total_variation(derivative(generate(spec, n))) for n in (1, 4, 16, 32)]
    assert all(tv == pytest.approx(tvs[0], rel=1e-10) for tv in tvs)


def test_jump_migration_norms():
    spec = SequenceSpec("jump_migration", OMEGA, n_max=32)
    for n in (2, 8, 32):
        u = generate(spec, n)
        assert total_variation(derivative(u)) == pytest.approx(1.0)
        assert u.l1_norm() == pytest.approx(1.0 / n, rel=1e-10)


def test_pure_boundary_concentration_support_and_cancellation():
    spec = SequenceSpec("pure_boundary_concentration", OMEGA, n_max=128)
    for n in (4, 16, 32):
        u = generate(spec, n)
        pts = u.mesh.centroids[u.support_cells()][:, 0]
        r = 1.0 / n
        assert np.all((pts <= r + 1e-12) | (pts >= 1.0 - r - 1e-12))
        assert total_variation(derivative(u)) == pytest.approx(1.0, rel=1e-10)
    # four-term cancellation against a fixed function: the residual decays
    # with the derivative mass near the boundary, ~ 1/n
    for tag, params in [("linear", {"matrix": [[1.0]]}), ("norm", {}),
                        ("area", {}), ("norm_sin", {})]:
        f = catalog_get(tag, params)
        res = []
        for n in (8, 128):
            un = generate(spec, n)
            from bvlsc.bv import BVFunction

            u = BVFunction.affine(un.mesh, [[0.8]], b=[0.1])
            res.append(abs(four_term_residual(f, f.recession, u, un)["residual"]))
        assert res[-1] <= 0.5 * res[0] + 1e-12, tag
        assert res[-1] <= 0.05, tag


def test_generated_sequences_weakstar_plausible():
    for kind in ("jump_migration", "boundary_rescale",
                 "fixed_trace_oscillation", "pure_boundary_concentration"):
        spec = SequenceSpec(kind, OMEGA, n_max=64,
                            params={"profile": "hat", "x0": 0.0})
        members = [generate(spec, n) for n in (8, 16, 32, 64)]
        rep = weakstar_diagnostics(members, l1_threshold=0.15)
        assert rep["verdict"] == "weak* plausible", kind


def test_liminf_tables_match_golden():
    # empirical_liminf of every sequence kind, byte for byte (floats by repr)
    path = Path(__file__).parent / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    golden = make_goldens.LIMINF_GOLDEN
    assert golden.exists(), "regenerate with python tests/make_goldens.py"
    assert make_goldens.liminf_tables_json().encode() == golden.read_bytes()


# -- stacked tables ---------------------------------------------------------------

SQUARE = Domain.polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
RECTANGLE = Domain.polygon([[-1.0, 0.0], [2.0, 0.0], [2.0, 0.5], [-1.0, 0.5]])
WIDE = Domain.interval(-1.0, 1.0)
TABLE_SPECS = [
    SequenceSpec("jump_migration", OMEGA, n_max=24),
    SequenceSpec("jump_migration", WIDE, n_max=12, params={"h": 0.1}),
    SequenceSpec("boundary_rescale", OMEGA, n_max=12, params={"profile": "bump"}),
    SequenceSpec("boundary_rescale", WIDE, n_max=9,
                 params={"x0": 1.0, "resolution": 5, "h": 0.3}),
    SequenceSpec("fixed_trace_oscillation", WIDE, n_max=12, params={"amplitude": -0.7}),
    SequenceSpec("pure_boundary_concentration", OMEGA, n_max=12),
    SequenceSpec("fixed_trace_oscillation", RECTANGLE, n_max=9, params={"amplitude": -0.7}),
    SequenceSpec("fixed_trace_oscillation", SQUARE, n_max=8),
]
TABLE_IDS = [f"{s.kind}-{i}" for i, s in enumerate(TABLE_SPECS)]


def catalog_integrands(N):
    yield catalog_get("linear", {"matrix": [[1.0, -0.5][:N]]})
    for tag in ("norm", "negnorm", "area", "norm_sin"):
        yield catalog_get(tag, {"M": 1, "N": N})


def n_value_lists(n_max):
    return [list(range(1, n_max + 1)), [1, 7, n_max], [n_max]]


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=TABLE_IDS)
def test_stacked_table_is_bit_equal_to_one_eval_F_per_member(spec):
    from bvlsc.functional import eval_F

    for f in catalog_integrands(spec.domain.dim):
        zero = 0.0 * generate(spec, min(8, spec.n_max))
        limit = eval_F(f, f.recession, zero).total
        for n_values in n_value_lists(spec.n_max):
            rep = empirical_liminf(f, f.recession, spec, n_values=n_values)
            want = [(n, eval_F(f, f.recession, generate(spec, n)).total) for n in n_values]
            assert repr(rep["table"]) == repr(want), (f.tag, n_values)
            assert repr(rep["limit_value"]) == repr(limit), f.tag


def _old_generate(spec, n):
    """A member as built one at a time on its own interval_mesh_with or
    rectangle_mesh mesh."""
    from bvlsc.bv import BVFunction
    from bvlsc.meshing import interval_mesh_with, rectangle_mesh

    p = spec.params
    if spec.domain.dim == 2:
        lo, hi = spec.domain.params["vertices"].min(axis=0), spec.domain.params["vertices"].max(axis=0)
        mesh = rectangle_mesh(lo[0], hi[0], lo[1], hi[1], 2 * n, max(4, n), domain=spec.domain)
        period = (hi[0] - lo[0]) / n
        t = (mesh.vertices[:, 0] - lo[0]) / period
        saw = 1.0 - np.abs(2.0 * (t - np.floor(t + 1e-12)) - 1.0)
        d2 = np.minimum(mesh.vertices[:, 1] - lo[1], hi[1] - mesh.vertices[:, 1])
        plateau = np.clip(d2 / (1.0 / n), 0.0, 1.0)
        amp = float(p.get("amplitude", 1.0))
        return BVFunction.from_vertex_values(mesh, amp * 0.5 * period * saw * plateau)
    a, b = spec.domain.params["a"], spec.domain.params["b"]
    if spec.kind == "jump_migration":
        mesh = interval_mesh_with(a, b, p.get("h", 1 / 16), [0.0, 1.0 / n], domain=spec.domain)
        return BVFunction.indicator_1d(mesh, 0.0, 1.0 / n)
    if spec.kind == "boundary_rescale":
        x0 = float(p.get("x0", a))
        inward = 1.0 if abs(x0 - a) < abs(x0 - b) else -1.0
        q = int(p.get("resolution", 16))
        req = x0 + inward * (np.arange(q + 1) / q) / n
        mesh = interval_mesh_with(a, b, p.get("h", 1 / 16), req, domain=spec.domain)
        s = inward * (mesh.vertices[:, 0] - x0) * n
        prof = {"hat": lambda t: np.clip(1 - np.abs(t), 0, 1),
                "bump": lambda t: np.clip(1 - np.abs(2 * np.abs(t) - 1), 0, 1)}[
                    p.get("profile", "hat")]
        vals = np.where((s >= 0.0) & (s <= 1.0), prof(np.clip(s, 0.0, 1.0)), 0.0)
    elif spec.kind == "fixed_trace_oscillation":
        period = (b - a) / n
        mesh = interval_mesh_with(a, b, b - a, a + 0.5 * period * np.arange(2 * n + 1),
                                  domain=spec.domain)
        t = (mesh.vertices[:, 0] - a) / period
        saw = 1.0 - np.abs(2.0 * (t - np.floor(t)) - 1.0)
        vals = float(p.get("amplitude", 1.0)) * 0.5 * period * saw
    else:
        q, rn = int(p.get("resolution", 4)), 1.0 / n
        req = np.concatenate([a + rn * np.arange(q + 1) / q, b - rn * np.arange(q + 1) / q])
        mesh = interval_mesh_with(a, b, (b - a) / 8.0, req, domain=spec.domain)
        x = mesh.vertices[:, 0]
        left = np.clip(1.0 - np.abs(2.0 * (x - a) / rn - 1.0), 0.0, 1.0)
        right = np.clip(1.0 - np.abs(2.0 * (b - x) / rn - 1.0), 0.0, 1.0)
        vals = float(p.get("amplitude", 0.25)) * (left + right)
    return BVFunction.from_vertex_values(mesh, vals)


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=TABLE_IDS)
def test_generate_wraps_member_n_of_the_stacked_table_byte_for_byte(spec):
    from bvlsc import sequences

    rule = sequences._rule(spec)
    ns = list(range(1, spec.n_max + 1))
    table = sequences._table(spec, rule, sequences._members(spec, rule, ns))
    vertex_starts = [int(table.cells[c, 0]) for c in table.cell_starts] + [len(table.vertices)]
    cell_ends = table.cell_starts[1:] + [len(table.cells)]
    atom_ends = table.atom_starts[1:] + [len(table.atom_v)]
    for i, n in enumerate(ns):
        u = generate(spec, n)
        old = _old_generate(spec, n)
        assert u.mesh.vertices.tobytes() == old.mesh.vertices.tobytes()
        assert u.mesh.cells.tobytes() == old.mesh.cells.tobytes()
        assert u.cell_values.tobytes() == old.cell_values.tobytes()
        assert u.facets.tobytes() == old.facets.tobytes()
        assert u.jumps.tobytes() == old.jumps.tobytes()
        vertices = table.vertices[vertex_starts[i]:vertex_starts[i + 1]]
        assert u.mesh.vertices.tobytes() == vertices.tobytes()
        cells = table.cells[table.cell_starts[i]:cell_ends[i]] - vertex_starts[i]
        assert u.mesh.cells.tobytes() == cells.tobytes()
        cv = table.cell_values[table.cell_starts[i]:cell_ends[i]]
        assert u.cell_values.tobytes() == cv.tobytes()
        atoms = slice(table.atom_starts[i], atom_ends[i])
        assert u.facets[:, 0].tolist() == (table.atom_v[atoms] - vertex_starts[i]).tolist()
        assert u.jumps.tobytes() == table.jumps[atoms].tobytes()


def _old_interval_points(a, b, h, required):
    """interval_points as one np.unique per member."""
    from bvlsc.meshing import _interval_cells

    required = np.asarray(required, dtype=float)
    pts = np.concatenate([np.linspace(a, b, _interval_cells(a, b, h, required.size) + 1),
                          required.ravel()])
    return np.unique(np.round(pts[(pts >= a - 1e-14) & (pts <= b + 1e-14)], 14))


@pytest.mark.parametrize("spec", [s for s in TABLE_SPECS if s.domain.dim == 1],
                         ids=[i for s, i in zip(TABLE_SPECS, TABLE_IDS) if s.domain.dim == 1])
def test_stacked_grids_equal_interval_points_of_each_member_byte_for_byte(spec):
    from bvlsc import sequences
    from bvlsc.meshing import interval_grids, interval_points

    rule = sequences._rule(spec)
    a, b = spec.domain.params["a"], spec.domain.params["b"]
    ns = list(range(1, spec.n_max + 1))
    x, sizes = interval_grids(a, b, rule.h, [rule.required(n) for n in ns])
    assert len(sizes) == len(ns) and sum(sizes) == len(x)
    for n, member in zip(ns, np.split(x, np.cumsum(sizes)[:-1])):
        assert member.tobytes() == interval_points(a, b, rule.h, rule.required(n)).tobytes()
        assert member.tobytes() == _old_interval_points(a, b, rule.h, rule.required(n)).tobytes()


def test_an_over_budget_member_fails_the_table_before_any_grid_is_built(monkeypatch):
    # on [-1, 1] at h = 2 member n has one base cell and 2n + 1 required
    # points: n = 5 is the first over a budget of 10 cells
    import bvlsc.meshing
    from bvlsc import sequences

    spec = TABLE_SPECS[4]
    f = catalog_get("norm", {"M": 1, "N": 1})
    monkeypatch.setattr(bvlsc.meshing, "MAX_CELLS", 10)
    with pytest.raises(bvlsc.meshing.MeshBudgetError) as want:
        bvlsc.meshing.interval_points(-1.0, 1.0, 2.0, sequences._rule(spec).required(5))
    assert str(want.value) == ("h=2.0 on [-1.0, 1.0] with 11 more points implies about "
                               "12 cells, over the budget 10")

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(sequences, "interval_grids", no_grid)
    with pytest.raises(bvlsc.meshing.MeshBudgetError) as got:
        empirical_liminf(f, f.recession, spec)
    assert str(got.value) == str(want.value)


class _Counted:
    """An integrand or recession function that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __getattr__(self, name):
        return getattr(self.fn, name)

    def __call__(self, x, xi):
        self.calls += 1
        return self.fn(x, xi)


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=TABLE_IDS)
def test_a_table_makes_one_integrand_call_and_at_most_one_recession_call(spec):
    f = catalog_get("norm", {"M": 1, "N": spec.domain.dim})
    counted_f, counted_finf = _Counted(f), _Counted(f.recession)
    rep = empirical_liminf(counted_f, counted_finf, spec)
    assert rep == empirical_liminf(f, f.recession, spec)
    assert counted_f.calls == 1
    assert counted_finf.calls == (1 if spec.kind == "jump_migration" else 0)


# jump members on [-1, 1] at h = 0.1 have 21 or 22 cells, and the square's
# oscillation members 16 to 256
@pytest.mark.parametrize("spec, budget", [(TABLE_SPECS[1], 50), (TABLE_SPECS[-1], 300)],
                         ids=["1d", "2d"])
def test_a_table_over_the_cell_budget_is_evaluated_in_runs_to_the_same_bits(
        spec, budget, monkeypatch):
    import bvlsc.meshing

    from bvlsc import sequences

    f = catalog_get("norm_sin", {"M": 1, "N": spec.domain.dim})
    want = empirical_liminf(f, f.recession, spec)
    counted, runs, grids = _Counted(f), [], sequences.interval_grids

    def counted_grids(*args):  # a 1D run's grids, built at once
        x, sizes = grids(*args)
        runs.append(len(x) - len(sizes))
        return x, sizes

    monkeypatch.setattr(sequences, "interval_grids", counted_grids)
    monkeypatch.setattr(bvlsc.meshing, "MAX_CELLS", budget)
    assert repr(empirical_liminf(counted, f.recession, spec)) == repr(want)
    assert counted.calls > 1
    assert len(runs) == (counted.calls if spec.domain.dim == 1 else 0)
    assert max(runs, default=0) <= budget


# -- the necessity certificate ----------------------------------------------------


def _old_certificate_rows(f, finf, x0, witness):
    """necessity_witness's rows with a Mesh, a BVFunction and an eval_F per copy."""
    from bvlsc.bv import BVFunction
    from bvlsc.functional import eval_F
    from bvlsc.meshing import Mesh

    values = witness.values / witness.gradient_tv()
    N = witness.mesh.dim
    rows = []
    for n in (2, 4, 8, 16, 32, 64):
        mesh = Mesh(x0.x0[None, :] + (1.0 / n) * np.asarray(witness.mesh.vertices),
                    np.asarray(witness.mesh.cells))
        vn = BVFunction.from_vertex_values(mesh, float(n ** (N - 1)) * values)
        w11 = vn.l1_norm() + float(np.sum(mesh.gradient_masses(vn.gradients())))
        un = (1.0 / w11) * vn
        gap = eval_F(f, finf, un).total - eval_F(f, finf, 0.0 * un).total
        rows.append({"n": n, "gap": gap, "w11_normalizer": w11})
    return rows


@pytest.fixture(scope="module")
def certificate_cases():
    """(f, finf, x0, witness, eps) of the 1D linear half-ball witness and of
    negnorm_square's worst qslb witness."""
    from bvlsc.cli import bundled_scenarios
    from bvlsc.verdict import Scenario, analyze

    bp = BoundaryPoint([0.0], [-1.0])
    rep = halfball_deficit(LIN.recession, bp, h=1.0 / 16,
                           options=SolverOptions(restarts=4, max_iter=150))
    scenario = Scenario.load(bundled_scenarios()["negnorm_square"])
    verdict = analyze(scenario)
    worst = min((r for r in verdict.qslb_reports if r.verdict == "violated"),
                key=lambda r: r.deficit)
    return {
        "linear": (LIN, LIN.recession, bp, rep.witness, -rep.deficit),
        "negnorm_square": (scenario.integrand, scenario.recession,
                           BoundaryPoint(worst.x0, worst.nu), worst.witness, -worst.deficit),
    }


@pytest.mark.parametrize("case", ["linear", "negnorm_square"])
def test_certificate_rows_are_bit_equal_to_one_eval_F_per_copy(
        case, certificate_cases, monkeypatch):
    import bvlsc.meshing

    f, finf, x0, witness, eps = certificate_cases[case]
    want = repr(_old_certificate_rows(f, finf, x0, witness))
    counted = _Counted(f)
    assert repr(necessity_witness(counted, finf, x0, witness, eps)["rows"]) == want
    assert counted.calls == 1
    # under a cell budget of one copy and its zero: six runs, the same bits
    monkeypatch.setattr(bvlsc.meshing, "MAX_CELLS", 2 * witness.mesh.n_cells)
    counted = _Counted(f)
    assert repr(necessity_witness(counted, finf, x0, witness, eps)["rows"]) == want
    assert counted.calls == 6
