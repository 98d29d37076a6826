"""Numerical quasiconvexity test at a matrix.

The inequality  integral_B g(xi + grad phi) - g(xi) >= 0  over compactly
supported Lipschitz test fields is probed on the unit square (an equivalent
choice of domain; structured simplicial meshes make piecewise-constant
gradients exact).  The Lipschitz class is realized as a grid of gradient caps
L; the deficit is reported per cap, and a negative minimum comes with a
re-evaluated witness field.  A nonnegative numerical minimum is evidence, not
proof, hence the asymmetric verdict wording "qc-plausible" vs "violated".
"""

from dataclasses import replace

import numpy as np

from .meshing import interval_mesh, unit_square_mesh
from .minimize import BulkObjective, SolverOptions, minimize_field

__all__ = ["QcReport", "qc_deficit", "default_qc_mesh"]


class QcReport:
    def __init__(self, xi, per_cap, deficit, verdict, witness, tol, diagnostics):
        self.xi = xi
        self.per_cap = per_cap  # list of (L, deficit at cap L)
        self.deficit = deficit
        self.verdict = verdict  # "qc-plausible" | "violated"
        self.witness = witness
        self.tol = tol
        self.diagnostics = diagnostics

    @property
    def low_confidence(self):
        return any(d.get("low_confidence") for d in self.diagnostics)

    def to_json(self, with_witness=False):
        out = {
            "xi": np.asarray(self.xi).tolist(),
            "per_cap": [[L, v] for L, v in self.per_cap],
            "deficit": self.deficit,
            "verdict": self.verdict,
            "tol": self.tol,
            "diagnostics": self.diagnostics,
        }
        if with_witness and self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out

    def __repr__(self):
        return f"QcReport(deficit={self.deficit:.6g}, verdict={self.verdict!r})"


def default_qc_mesh(N, h=0.125):
    if N == 1:
        return interval_mesh(0.0, 1.0, h)
    return unit_square_mesh(max(2, int(round(1.0 / h))))


def qc_deficit(g, xi, mesh=None, L_grid=(1.0, 4.0, 16.0), tol=None, options=None):
    """Deficit of the quasiconvexity inequality for g at the matrix xi.

    For each gradient cap L the clamped-field minimum of
    sum_cells |cell| (g(xi + grad phi) - g(xi)) is estimated by multistart
    subgradient descent; larger caps are seeded with the smaller-cap witness,
    which makes the reported deficits non-increasing in L.
    """
    xi = np.asarray(xi, dtype=float).reshape(g.M, g.N)
    mesh = mesh or default_qc_mesh(g.N)
    domain_measure = float(np.sum(mesh.cell_measures))
    if tol is None:
        tol = 1e-6 * domain_measure * (1.0 + float(np.linalg.norm(xi)))
    base = options or SolverOptions()
    clamped = mesh.boundary_vertices
    objective = BulkObjective(mesh, g, xi0=xi, subtract_offset=True)

    per_cap = []
    diagnostics = []
    best = (np.inf, None)
    carry = ()
    for L in sorted(L_grid):
        opts = replace(base, mode="plain", grad_cap=float(L), tv_cap=0.0,
                       extra_inits=carry)
        res = minimize_field(objective, mesh, clamped, opts)
        per_cap.append((float(L), res.value))
        diagnostics.append(
            {"L": float(L), "low_confidence": res.low_confidence,
             "iterations": res.iterations,
             "stationarity_residual": res.stationarity_residual}
        )
        carry = (res.witness.values,)
        if res.value < best[0]:
            best = (res.value, res.witness)

    deficit = best[0]
    violated = deficit < -tol
    return QcReport(
        xi=xi,
        per_cap=per_cap,
        deficit=deficit,
        verdict="violated" if violated else "qc-plausible",
        witness=best[1] if violated else None,
        tol=tol,
        diagnostics=diagnostics,
    )
