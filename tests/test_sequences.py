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


def test_jump_migration_member():
    spec = SequenceSpec("jump_migration", OMEGA, n_max=16)
    u = generate(spec, 7)
    assert len(u.atoms) == 1
    loc, j = u.atoms[0]
    assert loc == pytest.approx(1.0 / 7)
    assert j[0] == -1.0


def test_boundary_rescale_support():
    spec = SequenceSpec("boundary_rescale", OMEGA, n_max=8,
                        params={"profile": "hat", "x0": 0.0})
    u = generate(spec, 4)
    sup = u.mesh.centroids[u.support_cells()][:, 0]
    assert np.all(sup <= 0.25 + 1e-12)
    # hat profile: value 1 at the boundary point, linear decay to 0 at 1/4
    assert u.linf_norm() == pytest.approx(1.0)
    left_cell = u.mesh.find_cell([0.0])
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
        ci = u.mesh.find_cell([endpoint])
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
