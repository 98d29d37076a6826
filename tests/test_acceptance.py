"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from bvlsc import regions
from bvlsc.boundary import _patch_sign_test, halfball_deficit
from bvlsc.bv import BVFunction, MatrixMeasure
from bvlsc.cli import resolve_config
from bvlsc.decompose import CoverSpec, local_decompose, verify_properties
from bvlsc.functional import additivity_residual, eval_F, uniform_continuity_probe
from bvlsc.integrands import catalog_get, mu_estimate, recession_estimate
from bvlsc.meshing import BoundaryPoint, Domain, build_mesh, interval_mesh_with
from bvlsc.minimize import SolverOptions
from bvlsc.quasiconvex import qc_deficit
from bvlsc.sequences import SequenceSpec, empirical_liminf, generate, limit_energy_check
from bvlsc.verdict import run_scenario

OMEGA = Domain.interval(0.0, 1.0)
LIN = catalog_get("linear", {"matrix": [[1.0]]})

CATALOG_1D = [
    ("linear", {"matrix": [[1.0]]}),
    ("norm", {"M": 1, "N": 1}),
    ("negnorm", {"M": 1, "N": 1}),
    ("area", {"M": 1, "N": 1}),
    ("boundary_null_lagrangian", {"a": [1.0], "t": [1.0]}),
    ("norm_sin", {"M": 1, "N": 1}),
]


def _report(num, text):
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_01_migrating_jump_reproduction(tmp_path):
    t0 = time.perf_counter()
    spec = SequenceSpec("jump_migration", OMEGA, n_max=64)
    for n in range(2, 65):
        un = generate(spec, n)
        assert eval_F(LIN, LIN.recession, un).total == pytest.approx(
            -1.0, abs=1e-12
        )
    assert eval_F(LIN, LIN.recession, 0.0 * generate(spec, 8)).total == 0.0
    lim = empirical_liminf(LIN, LIN.recession, spec)
    assert lim["verdict"] == "lsc violated empirically"

    bp = OMEGA.boundary_point([0.0])
    hb = halfball_deficit(LIN.recession, bp, h=1.0 / 32)
    assert hb.deficit <= -0.9

    code, verdict = run_scenario(resolve_config("example_1_2"),
                                 out_dir=tmp_path / "out")
    assert code == 0
    assert verdict.overall == "not-wlsc"
    assert any(r.witness is not None for r in verdict.qslb_reports)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"F(u_n) = -1 exactly, halfball deficit {hb.deficit:.4f} <= -0.9, "
               f"verdict not-wlsc with witness in {elapsed:.2f}s < 5s")


def test_criterion_02_extended_domain_variant():
    spec = SequenceSpec("jump_migration", Domain.interval(-1.0, 1.0), n_max=64)
    for n in range(2, 65):
        un = generate(spec, n)
        assert eval_F(LIN, LIN.recession, un).total == pytest.approx(
            0.0, abs=1e-12
        )
    lim = empirical_liminf(LIN, LIN.recession, spec)
    assert lim["verdict"] == "no violation detected"
    _report(2, "extended domain: F(u_n) = 0 for n in [2,64], no empirical "
               "violation")


def test_criterion_03_quasiconvexity_suite():
    t0 = time.perf_counter()
    opts = SolverOptions(restarts=6, max_iter=250)
    neg = catalog_get("negnorm", {"M": 1, "N": 2})
    rep = qc_deficit(neg, np.zeros((1, 2)), options=opts)
    assert rep.verdict == "violated"
    assert rep.witness is not None
    assert dict(rep.per_cap)[1.0] < -0.5  # |B| = 1

    rng = np.random.default_rng(42)
    worst = 0.0
    for tag in ("norm", "area"):
        f = catalog_get(tag, {"M": 1, "N": 2})
        for _ in range(10):
            xi = rng.normal(size=(1, 2))
            r = qc_deficit(f, xi, options=opts)
            worst = min(worst, r.deficit)
            assert r.deficit >= -1e-6

    flin = catalog_get("linear", {"matrix": [[0.8, -1.3]]})
    rlin = qc_deficit(flin, rng.normal(size=(1, 2)), options=opts)
    assert abs(rlin.deficit) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, f"negnorm deficit {dict(rep.per_cap)[1.0]:.3f} < -0.5 (witness), "
               f"convex deficits >= {worst:.2e} >= -1e-6, linear "
               f"|{rlin.deficit:.1e}| <= 1e-8, in {elapsed:.1f}s < 30s")


def test_criterion_04_halfball_catalog_2d():
    h = 0.05
    nu = np.array([1.0, 0.0])
    bp = BoundaryPoint([0.0, 0.0], nu)
    a = np.array([1.0])

    f_nu = catalog_get("boundary_null_lagrangian",
                       {"a": a.tolist(), "t": nu.tolist()})
    d_nu = halfball_deficit(f_nu.recession, bp, h=h).deficit
    assert d_nu <= -0.9 * np.linalg.norm(a)

    f_t = catalog_get("boundary_null_lagrangian",
                      {"a": a.tolist(), "t": [0.0, 1.0]})
    d_t = halfball_deficit(f_t.recession, bp, h=h).deficit
    assert abs(d_t) <= 1e-3

    f_n = catalog_get("norm", {"M": 1, "N": 2})
    d_n = halfball_deficit(f_n.recession, bp, h=h).deficit
    assert d_n == pytest.approx(1.0, abs=1e-6)
    _report(4, f"normal charge {d_nu:.4f} <= -0.9, tangential |{d_t:.1e}| <= "
               f"1e-3, norm quotient {d_n:.8f} = 1 +/- 1e-6 (h = 0.05)")


def test_criterion_05_recession_and_modulus():
    rng = np.random.default_rng(5)
    t_grid = tuple(np.geomspace(1e2, 1e6, 9))
    worst = 0.0
    for tag, params in [("area", {"M": 1, "N": 2}),
                        ("linear", {"matrix": [[1.2, -0.7]]}),
                        ("norm_sin", {"M": 1, "N": 2})]:
        f = catalog_get(tag, params)
        for _ in range(100):
            xi = rng.normal(size=(f.M, f.N))
            xi *= (0.1 + 3.0 * rng.random()) / np.linalg.norm(xi)
            x = np.zeros(f.N)
            est = recession_estimate(f, x, xi, t_grid)
            dev = abs(est.value - f.recession.at(x, xi))
            worst = max(worst, dev)
            assert dev <= 1e-4, (tag, xi)

    grid = [1.0, 10.0, 100.0, 1e4, 1e6]
    for tag, params in CATALOG_1D:
        f = catalog_get(tag, params)
        vals = [mu_estimate(f, f.recession, t, budget=400)["analytic"]
                for t in grid]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
        assert vals[-1] < 1e-3
    _report(5, f"recession estimates within {worst:.2e} <= 1e-4 of analytic at "
               f"t_max = 1e6 (300 samples); modulus non-increasing, < 1e-3 at 1e6")


def _decomposition_case(members, cover, n_values=(8, 16, 32, 64)):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # cover-gap note
        res = local_decompose(members, cover, n_max=max(n_values))
    rep = verify_properties(res, deltas=(0.1, 0.02, 0.005),
                            charge_threshold=1e-3)
    assert rep["reassembly_dev"] <= 1e-14
    assert rep["mass_bound_ok"]
    assert rep["cutoff_gradient_ok"]
    for table in rep["charge_tables"].values():
        assert table["verdict"] == "tight"
        assert table["table"][-1][1] < 1e-3
    finals = []
    for tag, params in CATALOG_1D:
        f = catalog_get(tag, params)
        add = additivity_residual(
            f, f.recession, None,
            [res.subsequence[n] for n in n_values],
            [res.components[n] for n in n_values],
        )
        mags = [abs(r) for r in add["residuals"]]
        # decreasing up to a roundoff floor far below the 1e-2 tolerance
        assert all(mags[i + 1] <= mags[i] + 1e-10 for i in range(len(mags) - 1))
        assert mags[-1] < 1e-2, tag
        finals.append(mags[-1])
    return max(finals)


def test_criterion_06_decomposition_suite():
    spec = SequenceSpec("jump_migration", OMEGA, n_max=200)
    members = [generate(spec, n) for n in range(1, 140)]
    cover = CoverSpec([regions.point([0.0]), regions.box([0.125], [1.0])])
    worst1 = _decomposition_case(members, cover)

    # synthetic 1: jump migrating to an interior point
    members2 = []
    for n in range(1, 140):
        mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16,
                                  [0.5 - 0.5 / n, 0.5], domain=OMEGA)
        members2.append(BVFunction.indicator_1d(mesh, 0.5 - 0.5 / n, 0.5))
    sides = regions.CompactSet(1).add_segment([0.0], [0.46]).add_segment(
        [0.54], [1.0]
    )
    cover2 = CoverSpec([regions.point([0.5]), sides])
    worst2 = _decomposition_case(members2, cover2)

    # synthetic 2: bump train concentrating on both boundary points
    spec3 = SequenceSpec("pure_boundary_concentration", OMEGA, n_max=300)
    members3 = [generate(spec3, n) for n in range(1, 140)]
    ends = regions.CompactSet(1).add_point([0.0]).add_point([1.0])
    cover3 = CoverSpec([ends, regions.box([0.08], [0.92])])
    worst3 = _decomposition_case(members3, cover3)
    _report(6, "three decompositions: exact reassembly (1e-14), mass bounds "
               "with recorded slack, charge tables < 1e-3, additivity "
               f"residuals at n=64 <= {max(worst1, worst2, worst3):.1e} < 1e-2 "
               "for all 6 catalog integrands")


def test_criterion_07_interior_equivalence_oracle():
    mesh = build_mesh(OMEGA, 1.0 / 16)
    opts = SolverOptions(restarts=6, max_iter=200)
    agreements = 0
    for tag, params in CATALOG_1D:
        f = catalog_get(tag, params)
        g_inf = f.recession
        for x0 in (np.array([0.4]), np.array([0.6])):
            from bvlsc.integrands import freeze_x

            frozen = freeze_x(g_inf, x0)
            _, qslb_verdict = _patch_sign_test(frozen, x0, mesh, 0.1, 1e-3,
                                               opts)
            qc = qc_deficit(frozen, np.zeros((1, 1)), options=opts)
            qc_verdict = ("violated" if qc.verdict == "violated"
                          else "qslb-plausible")
            assert qslb_verdict == qc_verdict, (tag, x0)
            agreements += 1
    assert agreements == 12
    _report(7, "interior sublinearity verdict = quasiconvexity-at-zero verdict "
               "on 12/12 (6 catalog integrands x 2 interior points)")


def test_criterion_08_uniform_continuity_pairs():
    f = catalog_get("area")
    mesh = interval_mesh_with(0.0, 1.0, 0.25, [0.5], domain=OMEGA)
    zeros = np.zeros((mesh.n_cells, 1, 1))

    def atom_pair(n):
        mu = MatrixMeasure.from_raw_charges(mesh, zeros, [(0.5, [[1.0]])])
        lam = MatrixMeasure.from_raw_charges(mesh, zeros,
                                             [(0.5, [[1.0 + 1.0 / n]])])
        return mu, lam

    def density_pair(n):
        mu = MatrixMeasure(mesh, np.full_like(zeros, 0.8))
        lam = MatrixMeasure(mesh, np.full_like(zeros, 0.8 + 1.0 / n))
        return mu, lam

    def mixed_pair(n):
        mu = MatrixMeasure.from_raw_charges(mesh, np.full_like(zeros, 0.5),
                                            [(0.5, [[1.0]])])
        lam = MatrixMeasure.from_raw_charges(
            mesh, np.full_like(zeros, 0.5 + 0.5 / n),
            [(0.5, [[1.0 + 0.5 / n]])])
        return mu, lam

    finals = []
    for gen in (atom_pair, density_pair, mixed_pair):
        rep = uniform_continuity_probe(f, f.recession, gen, 64)
        assert rep["verdict"] == "consistent"
        gaps = [r["g_gap"] for r in rep["rows"]]
        assert gaps[-1] < 0.05
        assert gaps[-1] <= gaps[0] + 1e-12
        tail = gaps[-8:]
        assert all(tail[i + 1] <= tail[i] + 1e-12 for i in range(len(tail) - 1))
        finals.append(gaps[-1])
    _report(8, f"three TV-gap-1/n pairs: value gaps at n=64 are "
               f"{max(finals):.2e} < 0.05 and decreasing")


def test_criterion_09_rescaled_energy_limit():
    gaps = []
    for profile in ("hat", "bump"):
        f = catalog_get("norm")
        rep = limit_energy_check(f, profile, BoundaryPoint([0.0], [-1.0]),
                                 OMEGA, k_values=(1, 2, 4, 8, 16, 32, 64))
        assert rep["relative_gap"] <= 0.02
        gaps.append(rep["relative_gap"])
    _report(9, f"rescaled energies track the half-ball integral: relative "
               f"gaps {max(gaps):.1e} <= 2% at k = 64 for both profiles")


def test_criterion_10_deterministic_reports(tmp_path):
    from bvlsc.cli import bundled_scenarios

    for name in sorted(bundled_scenarios()):
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}"
            code, _ = run_scenario(resolve_config(name), out_dir=out)
            assert code == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1], name
    _report(10, "two runs of every bundled scenario produce byte-identical "
                "report.json")
