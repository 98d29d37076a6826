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

qc_deficits, the check analyze runs, takes the deficit in closed form for a
frozen integrand g(xi) = f(x0, xi) that splits as c |xi|_F + A : xi (see
Integrand.split_at), so there every verdict is exact.  A clamped field has
mean gradient 0, so the A term integrates to 0, and the deficit at cap L
on a domain of measure |B| is
  * 0 for c >= 0 (Jensen);
  * c (sqrt(|xi|^2 + L^2) - |xi|) |B| for c < 0 and M N >= 2: Jensen and
    Cauchy-Schwarz give mean |xi + grad phi| <= sqrt(|xi|^2 + L^2), and
    rank-one laminates +-L u with u : xi = 0 attain it (Dacorogna, Direct
    Methods in the Calculus of Variations, 2nd ed., 2008);
  * c (max(|xi|, L) - |xi|) |B| for c < 0 and M = N = 1, where the extreme
    mean-zero gradient distributions on [-L, L] take two values.
A violation still needs a field on the mesh: the capped pyramid of
_pyramid_witness, whose mesh value the diagnostics carry.
"""

from dataclasses import replace

import numpy as np

from .meshing import interval_mesh, row_norms, unit_square_mesh
from .minimize import BulkObjective, SolverOptions, TestField, minimize_fields

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
    sum_cells |cell| (g(xi + grad phi) - g(xi)) is taken in closed form for
    a frozen g with a split (module docstring), else estimated by multistart
    subgradient descent, where larger caps are seeded with the smaller-cap
    witness; either way the reported deficits are non-increasing in L.  The
    one-job case of qc_deficits, raising the error that ended the job.
    """
    (rep,) = qc_deficits([(g, xi, options)], mesh=mesh, L_grid=L_grid)
    if isinstance(rep, Exception):
        raise rep
    return rep


def qc_deficits(jobs, mesh=None, L_grid=(1.0, 4.0, 16.0)):
    """qc_deficit for each job (g, xi, options) on one mesh.

    The integrands g are one integrand, or freeze_x of one integrand at
    different points.  A job whose g is frozen and splits at its point gets
    the closed form (module docstring); every other job goes to
    _mesh_deficits, as one family.  Returns one entry per job, in order: its
    QcReport, or the error that ended it.  A job is violated when its
    deficit is below -1e-6 |domain| (1 + |xi|).

    A closed-form job runs no solve; a violation with no mesh witness below
    the tolerance is an error (ArithmeticError), never a verdict.
    """
    out = [None] * len(jobs)
    mesh = mesh or default_qc_mesh(jobs[0][0].N)
    rest = []  # the jobs of the mesh family
    for j, (g, xi, _) in enumerate(jobs):
        split = closed_form_split(g)
        if split is None:
            rest.append(j)
            continue
        try:
            out[j] = _closed_form_report(g, xi, float(split[0]), mesh, L_grid)
        except ArithmeticError as e:
            out[j] = e
    if rest:
        for j, rep in zip(rest, _mesh_deficits([jobs[j] for j in rest], mesh, L_grid)):
            out[j] = rep
    return out


def closed_form_split(g):
    """The split (c, A) of g at its point when g is frozen and splits there,
    so that qc_deficits answers its jobs in closed form; None for an
    integrand whose jobs solve on the mesh."""
    return None if g.frozen is None else g.split_at(g.frozen[1])


def _shape_and_tol(g, xi, mesh):
    """xi as an (M, N) matrix, and the violation tolerance of a job at it."""
    xi = np.asarray(xi, dtype=float).reshape(g.M, g.N)
    return xi, 1e-6 * float(np.sum(mesh.cell_measures)) * (1.0 + float(np.linalg.norm(xi)))


def _closed_form_report(g, xi, c, mesh, L_grid):
    caps = sorted(float(L) for L in L_grid)
    xi, tol = _shape_and_tol(g, xi, mesh)
    measure = float(np.sum(mesh.cell_measures))
    r = float(np.linalg.norm(xi))

    def largest_mean(L):
        # the largest mean |xi + grad phi| over capped mean-zero gradients
        return max(r, L) if xi.size == 1 else float(np.hypot(r, L))

    # + 0.0 turns the -0.0 of c < 0 with no gain into 0.0
    per_cap = [(L, min(c, 0.0) * (largest_mean(L) - r) * measure + 0.0) for L in caps]
    deficit = min(v for _, v in per_cap)
    diagnostics = [{"L": L, "source": "closed_form", "iterations": 0,
                    "low_confidence": False} for L in caps]
    violated = deficit < -tol
    witness = None
    if violated:
        witness = _pyramid_witness(mesh, xi, caps[-1])
        value = float(BulkObjective(mesh, g, xi0=xi).value(witness.values))
        if not value < -tol:
            raise ArithmeticError(f"closed-form qc deficit {deficit} has no mesh "
                                  f"witness: the pyramid reads {value} >= -{tol}")
        diagnostics[-1]["witness_value"] = value
    return QcReport(xi=xi, per_cap=per_cap, deficit=deficit,
                    verdict="violated" if violated else "qc-plausible",
                    witness=witness, tol=tol, diagnostics=diagnostics)


def _pyramid_witness(mesh, xi, L):
    """a p, p the distance to the boundary of the mesh's bounding box, zero
    on the mesh boundary and scaled so that its largest cell gradient is L;
    a is a unit vector of R^M, perpendicular to xi where N = 1 < M (along xi
    the field's gradients +-L a would leave |xi + grad phi| at mean |xi|)."""
    v = mesh.vertices
    p = np.min(np.minimum(v - v.min(axis=0), v.max(axis=0) - v), axis=1)
    M, N = xi.shape
    a = np.eye(M)[0]
    if N == 1 and M > 1:
        u = xi[:, 0]
        a = np.eye(M)[np.argmin(np.abs(u))]
        if u @ u > 0.0:
            a = a - (a @ u) / (u @ u) * u
            a /= np.linalg.norm(a)
    values = np.outer(p, a)
    clamped = mesh.boundary_vertices
    values[clamped] = 0.0
    top = float(np.max(row_norms(mesh.p1_gradient(values).reshape(mesh.n_cells, -1))))
    if not top > 0.0:
        raise ArithmeticError("the qc mesh has no interior vertex for a witness field")
    return TestField(mesh, values * (L / top), clamped)


def _mesh_deficits(jobs, mesh, L_grid):
    """The deficits of jobs (g, xi, options) minimized on the mesh, as one
    family: at each cap the solves of all jobs advance as one lockstep batch
    (minimize_fields); the caps of one job stay chained.  Returns one entry
    per job, in order: its QcReport, or the error that ended it (the other
    jobs finish as they would alone)."""
    out = [None] * len(jobs)
    xis, tols = zip(*(_shape_and_tol(g, xi, mesh) for g, xi, _ in jobs))
    bases = [options or SolverOptions() for _, _, options in jobs]
    clamped = mesh.boundary_vertices
    objective = BulkObjective(mesh, [g for g, _, _ in jobs], xi0=np.array(xis))

    per_cap = [[] for _ in jobs]
    diagnostics = [[] for _ in jobs]
    best = [(np.inf, None) for _ in jobs]
    carry = [() for _ in jobs]
    for L in sorted(L_grid):
        live = [j for j in range(len(jobs)) if out[j] is None]
        if not live:
            break
        problems = [(mesh, clamped, replace(bases[j], grad_cap=float(L),
                                            tv_cap=0.0, extra_inits=carry[j]))
                    for j in live]
        # Jensen: for g convex in xi and free of x, the clamped field's mean
        # gradient is 0, so the integral never drops below g(xi) |domain|.
        # A frozen split integrand never gets here, so this serves the convex
        # integrands with no split (area) and those not frozen
        floors = [0.0 if jobs[j][0].convex else None for j in live]
        for j, res in zip(live, minimize_fields(objective, problems, on=live,
                                                floors=floors)):
            if isinstance(res, Exception):
                out[j] = res
                continue
            per_cap[j].append((float(L), res.value))
            diagnostics[j].append(
                {"L": float(L), "source": "mesh", "low_confidence": res.low_confidence,
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
