"""Numerical quasiconvexity test at a matrix.

The inequality  integral_B g(xi + grad phi) - g(xi) >= 0  over compactly
supported Lipschitz test fields is probed on the unit square (an equivalent
choice of domain; structured simplicial meshes make piecewise-constant
gradients exact).  The Lipschitz class is realized as a grid of gradient caps
L; the deficit is reported per cap, and a negative minimum comes with a
re-evaluated witness field.  For a general integrand a nonnegative numerical
minimum is evidence, not proof, hence the asymmetric verdict wording
"qc-plausible" vs "violated".  For an integrand flagged convex (independent
of x and convex in xi) it is proof: Jensen's inequality bounds every deficit
below by 0, the solve ends as soon as a start reaches 0 ("certified"), and
"qc-plausible" is then exact.
"""

from dataclasses import replace

import numpy as np

from .meshing import interval_mesh, unit_square_mesh
from .minimize import BulkObjective, SolverOptions, minimize_fields

__all__ = ["QcReport", "qc_deficit", "qc_deficits", "default_qc_mesh"]


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

    def to_json(self):
        return {
            "xi": np.asarray(self.xi).tolist(),
            "per_cap": [[L, v] for L, v in self.per_cap],
            "deficit": self.deficit,
            "verdict": self.verdict,
            "tol": self.tol,
            "diagnostics": self.diagnostics,
        }

    def __repr__(self):
        return f"QcReport(deficit={self.deficit:.6g}, verdict={self.verdict!r})"


def default_qc_mesh(N, h=0.125):
    if N == 1:
        return interval_mesh(0.0, 1.0, h)
    return unit_square_mesh(max(2, int(round(1.0 / h))))


def qc_deficit(g, xi, mesh=None, L_grid=(1.0, 4.0, 16.0), options=None):
    """Deficit of the quasiconvexity inequality for g at the matrix xi.

    For each gradient cap L the clamped-field minimum of
    sum_cells |cell| (g(xi + grad phi) - g(xi)) is estimated by multistart
    subgradient descent; larger caps are seeded with the smaller-cap witness,
    which makes the reported deficits non-increasing in L.  The one-job case
    of qc_deficits, raising the error that ended the job.
    """
    (rep,) = qc_deficits([(g, xi, options)], mesh=mesh, L_grid=L_grid)
    if isinstance(rep, Exception):
        raise rep
    return rep


def qc_deficits(jobs, mesh=None, L_grid=(1.0, 4.0, 16.0)):
    """qc_deficit for each job (g, xi, options) on one mesh, as one family.

    The integrands g are one integrand, or freeze_x of one integrand at
    different points.  At each cap the solves of all jobs advance as one
    lockstep batch (minimize_fields); the caps of one job stay chained.
    Returns one entry per job, in order: its QcReport, or the error that
    ended it (the other jobs finish as they would alone).  A job is violated
    when its deficit is below -1e-6 |domain| (1 + |xi|).
    """
    out = [None] * len(jobs)
    g0 = jobs[0][0]
    mesh = mesh or default_qc_mesh(g0.N)
    domain_measure = float(np.sum(mesh.cell_measures))
    xis = [np.asarray(xi, dtype=float).reshape(g0.M, g0.N) for _, xi, _ in jobs]
    tols = [1e-6 * domain_measure * (1.0 + float(np.linalg.norm(xi))) for xi in xis]
    bases = [options or SolverOptions() for _, _, options in jobs]
    clamped = mesh.boundary_vertices
    objective = BulkObjective(mesh, [g for g, _, _ in jobs], xi0=np.array(xis),
                              subtract_offset=True)

    per_cap = [[] for _ in jobs]
    diagnostics = [[] for _ in jobs]
    best = [(np.inf, None) for _ in jobs]
    carry = [() for _ in jobs]
    for L in sorted(L_grid):
        live = [j for j in range(len(jobs)) if out[j] is None]
        if not live:
            break
        problems = [(mesh, clamped, replace(bases[j], mode="plain", grad_cap=float(L),
                                            tv_cap=0.0, extra_inits=carry[j]))
                    for j in live]
        # Jensen: for g convex in xi and free of x, the clamped field's mean
        # gradient is 0, so the integral never drops below g(xi) |domain|
        floors = [0.0 if jobs[j][0].convex else None for j in live]
        for j, res in zip(live, minimize_fields(objective, problems, on=live,
                                                floors=floors)):
            if isinstance(res, Exception):
                out[j] = res
                continue
            per_cap[j].append((float(L), res.value))
            diagnostics[j].append(
                {"L": float(L), "low_confidence": res.low_confidence,
                 "iterations": res.iterations,
                 "stationarity_residual": res.stationarity_residual}
            )
            carry[j] = (res.witness.values,)
            if res.value < best[j][0]:
                best[j] = (res.value, res.witness)

    for j, (deficit, witness) in enumerate(best):
        if out[j] is not None:
            continue
        violated = deficit < -tols[j]
        out[j] = QcReport(
            xi=xis[j],
            per_cap=per_cap[j],
            deficit=deficit,
            verdict="violated" if violated else "qc-plausible",
            witness=witness if violated else None,
            tol=tols[j],
            diagnostics=diagnostics[j],
        )
    return out
