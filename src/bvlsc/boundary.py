"""Boundary checks for quasi-sublinear growth from below (qslb).

Three numerical forms are provided:

  * halfball_deficit -- the canonical half-ball sign test: minimize the
    Rayleigh quotient  integral_D f_inf(x0, grad phi) / integral_D |grad phi|
    over fields clamped on the spherical part of the half-ball boundary and
    free on the interior of its flat facet.  By 1-homogeneity the additive
    constant in the growth inequality drops out, so nonnegativity of this
    quotient is the whole condition; "violated" means quotient < -tol.

  * epsdelta_probe -- the local form on an actual domain patch: for each
    (eps, delta), minimize  integral f(x, grad v) + eps * integral |grad v|
    over clamped patch fields at gradient-TV caps R in {1, 10, 100} and look
    for the unbounded-below signature (minima deepening proportionally to R),
    which certifies that no finite constant can close the inequality.  This
    form needs no boundary regularity, so it also serves polygon corners.

  * equivalence_harness -- runs the frozen recession form, the unfrozen form
    and (where applicable) the half-ball form / the quasiconvexity-at-zero
    test, and reports whether their verdicts agree.
"""

from dataclasses import replace

import numpy as np

from .integrands import freeze_x
from .meshing import BoundaryPoint, MeshStack, halfball_mesh, local_patch
from .minimize import (
    BulkObjective,
    LinearCombo,
    RayleighQuotient,
    SolverOptions,
    TVObjective,
    minimize_field,
    minimize_fields,
)
from .quasiconvex import qc_deficit

__all__ = [
    "QslbReport",
    "QuotientBoundError",
    "halfball_deficit",
    "halfball_deficits",
    "epsdelta_probe",
    "equivalence_harness",
]


class QuotientBoundError(ArithmeticError):
    """The minimized half-ball quotient left [-C_inf, C_inf], which a quotient
    of a 1-homogeneous integral by the total variation cannot do."""


class QslbReport:
    def __init__(self, x0, nu, deficit, verdict, witness, tol, diagnostics,
                 tables=None):
        self.x0 = x0
        self.nu = nu
        self.deficit = deficit
        self.verdict = verdict  # "qslb-plausible" | "violated"
        self.witness = witness
        self.tol = tol
        self.diagnostics = diagnostics
        self.tables = tables or {}

    @property
    def low_confidence(self):
        return bool(self.diagnostics.get("low_confidence"))

    def to_json(self, with_witness=False):
        out = {
            "x0": np.asarray(self.x0).tolist(),
            "nu": np.asarray(self.nu).tolist(),
            "deficit": self.deficit,
            "verdict": self.verdict,
            "tol": self.tol,
            "diagnostics": self.diagnostics,
            "tables": self.tables,
        }
        if with_witness and self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out

    def __repr__(self):
        return f"QslbReport(deficit={self.deficit:.6g}, verdict={self.verdict!r})"


def _halfball_clamped(mesh, nu, tol=1e-9):
    """Boundary vertices minus the open flat facet {y.nu = 0, |y| < 1}."""
    verts = mesh.vertices[mesh.boundary_vertices]
    s = verts @ nu
    r = np.linalg.norm(verts, axis=1)
    on_flat_interior = (np.abs(s) <= tol) & (r < 1.0 - tol)
    return mesh.boundary_vertices[~on_flat_interior]


def _ramp_profile(mesh, direction, width):
    """Boundary-layer ramp along `direction`: 1 at the min face, 0 past width."""
    s = mesh.vertices @ np.atleast_1d(np.asarray(direction, dtype=float))
    s = s - float(np.min(s))
    t = np.clip(1.0 - s / width, 0.0, 1.0)
    return t


def _layer_inits(mesh, nu, M, clamped, widths):
    inits = []
    for w in widths:
        prof = _ramp_profile(mesh, -nu, w)
        for i in range(M):
            for sign in (1.0, -1.0):
                a = np.zeros(M)
                a[i] = sign
                v = np.outer(prof, a)
                v[clamped] = 0.0
                inits.append(v)
    return inits


def halfball_deficit(finf, x0, h=0.05, tol=1e-3, options=None, mesh=None):
    """Minimized half-ball Rayleigh quotient for f_inf(x0, .) at a boundary
    point; the one-job case of halfball_deficits, raising the error that
    ended the job."""
    (rep,) = halfball_deficits(finf, [(x0, options, mesh)], h=h, tol=tol)
    if isinstance(rep, Exception):
        raise rep
    return rep


def halfball_deficits(finf, jobs, h=0.05, tol=1e-3):
    """halfball_deficit for each job (x0, options, mesh), mesh None meaning
    halfball_mesh(x0.normal, h), as one family.

    The half-balls of the jobs must share one cells array, as halfball_mesh
    builds them for one h (rotations of one mesh in 2D, the two unit intervals
    in 1D), so their solves advance as one lockstep batch (minimize_fields) on
    a MeshStack.  Returns one entry per job, in order: its QslbReport, or the
    error that ended it (the other jobs finish as they would alone).
    """
    out = [None] * len(jobs)
    base = finf.as_integrand()
    family = []  # (job, mesh, integrand, clamped, options) of each live job
    for j, (x0, options, mesh) in enumerate(jobs):
        try:
            if not isinstance(x0, BoundaryPoint):
                raise TypeError("x0 must be a BoundaryPoint (needs an outward normal)")
            mesh = mesh or halfball_mesh(x0.normal, h)
        except Exception as e:  # collect and continue
            out[j] = e
            continue
        clamped = _halfball_clamped(mesh, x0.normal)
        opts = options or SolverOptions()
        widths = (2 * mesh.h, 4 * mesh.h, 8 * mesh.h, 0.5)
        extra = tuple(_layer_inits(mesh, x0.normal, base.M, clamped, widths)) + tuple(
            opts.extra_inits
        )
        opts = replace(opts, restarts=max(opts.restarts, len(extra) + 2),
                       mode="normalize", grad_cap=0.0, tv_cap=0.0, extra_inits=extra)
        family.append((j, mesh, freeze_x(base, x0.x0), clamped, opts))
    if not family:
        return out

    meshes = [m for _, m, _, _, _ in family]
    stack = meshes[0] if len(meshes) == 1 else MeshStack(meshes)
    objective = RayleighQuotient(BulkObjective(stack, [g for _, _, g, _, _ in family]),
                                 TVObjective(stack, base.M))
    results = minimize_fields(objective, [(m, c, o) for _, m, _, c, o in family])
    c_inf = finf.sup_on_sphere()
    for (j, mesh, _, _, _), res in zip(family, results):
        out[j] = res if isinstance(res, Exception) else _qslb_report(
            jobs[j][0], mesh, res, c_inf, tol)
    return out


def _qslb_report(x0, mesh, res, c_inf, tol):
    deficit = res.value
    # the quotient of sums can never leave [-C_inf, C_inf]; the margin covers
    # the sampling error of the sphere maximum
    if abs(deficit) > c_inf * (1.0 + 1e-3) + 1e-6:
        return QuotientBoundError(
            f"quotient {deficit} outside the homogeneity bound [-{c_inf}, {c_inf}]"
        )
    violated = deficit < -tol
    return QslbReport(
        x0=x0.x0,
        nu=x0.normal,
        deficit=deficit,
        verdict="violated" if violated else "qslb-plausible",
        witness=res.witness if violated else None,
        tol=tol,
        diagnostics={
            "low_confidence": res.low_confidence,
            "iterations": res.iterations,
            "stationarity_residual": res.stationarity_residual,
            "h": mesh.h,
            "sphere_bound": c_inf,
        },
    )


def epsdelta_probe(f, x0, domain_mesh, eps_grid=(0.1, 0.5), delta_grid=(0.2,),
                   R_grid=(1.0, 10.0, 100.0), tol=1e-6, options=None,
                   growth_factor=5.0, refine_levels=1):
    """Unbounded-below signature of the local growth inequality at x0.

    Returns rows (eps, delta, R, minimum) and per-(eps, delta) verdicts:
    "unbounded-below" when the minimum at R=100 is at least `growth_factor`
    times deeper than at R=10 (and the latter is below -tol), else
    "bounded plausible".  x0 may be a BoundaryPoint, a polygon corner
    coordinate, or an interior point; no boundary regularity is used.
    """
    center = x0.x0 if isinstance(x0, BoundaryPoint) else np.atleast_1d(
        np.asarray(x0, dtype=float)
    )
    base = options or SolverOptions()
    rows = []
    verdicts = {}
    for delta in delta_grid:
        patch = local_patch(domain_mesh, center, float(delta),
                            refine_levels=refine_levels)
        for eps in eps_grid:
            objective = LinearCombo(
                [(1.0, BulkObjective(patch.mesh, f)),
                 (float(eps), TVObjective(patch.mesh, f.M))]
            )
            minima = {}
            carry = ()
            for R in sorted(R_grid):
                inits = carry
                if carry:
                    prev = carry[0]
                    tv_prev = TVObjective(patch.mesh, f.M).value(prev)
                    if tv_prev > 1e-12:
                        # rescale the carried witness up to the new cap
                        inits = (prev * (float(R) / tv_prev), prev)
                opts = replace(base, mode="plain", grad_cap=0.0, tv_cap=float(R),
                               extra_inits=inits)
                res = minimize_field(
                    objective, patch.mesh, patch.clamped_vertices, opts
                )
                minima[float(R)] = res.value
                carry = (res.witness.values,)
                rows.append(
                    {"eps": float(eps), "delta": float(delta), "R": float(R),
                     "minimum": res.value}
                )
            Rs = sorted(minima)
            lo, hi = minima[Rs[-2]], minima[Rs[-1]]
            unbounded = lo < -tol and hi <= growth_factor * lo
            verdicts[(float(eps), float(delta))] = (
                "unbounded-below" if unbounded else "bounded plausible"
            )
    return {"rows": rows, "verdicts": verdicts}


def _patch_sign_test(g, center, domain_mesh, eps, tol, base, refine_levels=1,
                     delta=None):
    """Sign test for a 1-homogeneous patch objective (cap R=1 suffices)."""
    if delta is None:
        delta = 2.5 * domain_mesh.h
    patch = local_patch(domain_mesh, center, float(delta),
                        refine_levels=refine_levels)
    objective = LinearCombo(
        [(1.0, BulkObjective(patch.mesh, g)),
         (float(eps), TVObjective(patch.mesh, g.M))]
    )
    opts = replace(base, mode="plain", grad_cap=0.0, tv_cap=1.0, extra_inits=())
    res = minimize_field(objective, patch.mesh, patch.clamped_vertices, opts)
    return res.value, ("violated" if res.value < -tol else "qslb-plausible")


def equivalence_harness(f, finf, x0, domain_mesh, eps_grid=(0.1,), tol=1e-3,
                        options=None):
    """Cross-check the equivalent formulations of boundary sublinearity at x0.

    Interior points run: frozen recession form, unfrozen form, and the
    quasiconvexity-at-zero test of f_inf(x0, .).  Boundary points (flat
    segments only) run frozen, unfrozen, and the half-ball form.  Curved
    boundary points are refused: the half-ball comparison would need the
    boundary-flattening map, which is out of scope here.
    """
    base = options or SolverOptions()
    is_boundary = isinstance(x0, BoundaryPoint)
    center = x0.x0 if is_boundary else np.atleast_1d(np.asarray(x0, dtype=float))
    domain = domain_mesh.domain
    if is_boundary and domain is not None and domain.kind == "halfball":
        if abs(np.linalg.norm(center) - 1.0) < 1e-9:
            raise ValueError(
                "x0 lies on a curved boundary arc; the half-ball comparison "
                "needs a flat segment (boundary flattening is not implemented)"
            )
    forms = {}
    eps_min = min(eps_grid)
    g_frozen = freeze_x(finf.as_integrand(), center)

    val, verdict = _patch_sign_test(g_frozen, center, domain_mesh, eps_min, tol, base)
    forms["frozen"] = {"value": val, "verdict": verdict}

    probe = epsdelta_probe(
        f, x0, domain_mesh, eps_grid=(eps_min,),
        delta_grid=(max(2.5 * domain_mesh.h, 0.2),), options=base
    )
    unb = any(v == "unbounded-below" for v in probe["verdicts"].values())
    forms["unfrozen"] = {
        "verdict": "violated" if unb else "qslb-plausible",
        "rows": probe["rows"],
    }

    if is_boundary:
        rep = halfball_deficit(finf, x0, h=max(domain_mesh.h / 2, 0.05),
                               tol=tol, options=base)
        forms["halfball"] = {"value": rep.deficit, "verdict": rep.verdict}
    else:
        qc = qc_deficit(g_frozen, np.zeros((f.M, f.N)), options=base)
        forms["qc_at_zero"] = {
            "value": qc.deficit,
            "verdict": "violated" if qc.verdict == "violated" else "qslb-plausible",
        }

    verdicts = {k: v["verdict"] for k, v in forms.items()}
    agreement = len(set(verdicts.values())) == 1
    return {"x0": center.tolist(), "forms": forms, "agreement": agreement}
