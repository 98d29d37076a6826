import numpy as np
import pytest

from bvlsc.integrands import Integrand, catalog_get, composite
from bvlsc.meshing import unit_square_mesh
from bvlsc.minimize import SolverOptions
from bvlsc.quasiconvex import qc_deficit

FAST = SolverOptions(restarts=6, max_iter=200)


def test_convex_norm_is_qc_plausible():
    f = catalog_get("norm", {"M": 1, "N": 2})
    rep = qc_deficit(f, [[0.4, -0.2]], options=FAST)
    assert rep.deficit >= -rep.tol
    assert rep.verdict == "qc-plausible"
    assert rep.witness is None


def test_negnorm_violated_at_zero():
    f = catalog_get("negnorm", {"M": 1, "N": 2})
    rep = qc_deficit(f, [[0.0, 0.0]], options=FAST)
    assert rep.verdict == "violated"
    per_cap = dict(rep.per_cap)
    assert per_cap[1.0] < -0.5  # |B| = 1 for the unit square
    assert rep.witness is not None
    # stored witness re-evaluates to the reported deficit
    from bvlsc.minimize import BulkObjective

    obj = BulkObjective(rep.witness.mesh, f, xi0=np.zeros((1, 2)),
                        subtract_offset=True)
    assert obj.value(rep.witness.values) == pytest.approx(rep.deficit, abs=1e-10)


def test_linear_deficit_vanishes_exactly():
    f = catalog_get("linear", {"matrix": [[1.5, -0.5]]})
    rep = qc_deficit(f, [[0.3, 0.8]], options=FAST)
    assert abs(rep.deficit) <= 1e-8

    # brute-force oracle: random clamped fields give exactly zero energy
    mesh = unit_square_mesh(4)
    rng = np.random.default_rng(0)
    from bvlsc.minimize import BulkObjective

    obj = BulkObjective(mesh, f, xi0=np.array([[0.3, 0.8]]), subtract_offset=True)
    for _ in range(10):
        v = rng.normal(size=(mesh.n_vertices, 1))
        v[mesh.boundary_vertices] = 0.0
        assert abs(obj.value(v)) <= 1e-10


def test_deficit_monotone_in_cap():
    f = catalog_get("negnorm", {"M": 1, "N": 2})
    rep = qc_deficit(f, [[0.0, 0.0]], L_grid=(1.0, 4.0, 16.0), options=FAST)
    vals = [v for _, v in rep.per_cap]
    assert vals[0] >= vals[1] >= vals[2]


def test_translation_consistency():
    f = catalog_get("norm", {"M": 1, "N": 2})
    xi = np.array([[0.6, 0.1]])
    rep1 = qc_deficit(f, xi, options=FAST)

    def shifted(x, eta):
        return f(x, eta + xi[None, :, :])

    g = Integrand(shifted, 1, 2, growth=f.growth + np.linalg.norm(xi),
                  grad=lambda x, eta: f.grad_xi(x, eta + xi[None, :, :]))
    rep2 = qc_deficit(g, np.zeros((1, 2)), options=FAST)
    assert rep1.deficit == pytest.approx(rep2.deficit, abs=1e-6)


def test_adding_linear_does_not_change_deficit():
    base = catalog_get("area", {"M": 1, "N": 2})
    withlin = composite(
        [(1.0, base),
         (1.0, catalog_get("linear", {"matrix": [[0.7, -1.3]]}))]
    )
    xi = np.array([[0.2, 0.5]])
    r1 = qc_deficit(base, xi, options=FAST)
    r2 = qc_deficit(withlin, xi, options=FAST)
    assert r1.deficit == pytest.approx(r2.deficit, abs=1e-8)


def test_1d_qc_on_interval_domain():
    f = catalog_get("negnorm", {"M": 1, "N": 1})
    rep = qc_deficit(f, [[0.0]], options=FAST)
    assert rep.verdict == "violated"
    assert rep.deficit < -0.5
