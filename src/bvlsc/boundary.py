"""Boundary checks for quasi-sublinear growth from below (qslb).

Three numerical forms are provided:

  * halfball_deficit -- the canonical half-ball sign test: minimize the
    Rayleigh quotient  integral_D f_inf(x0, grad phi) / integral_D |grad phi|
    over fields clamped on the spherical part of the half-ball boundary and
    free on the interior of its flat facet.  By 1-homogeneity the additive
    constant in the growth inequality drops out, so nonnegativity of this
    quotient is the whole condition; "violated" means quotient < -tol.

    qslb_deficits, the check analyze runs, takes the quotient in closed form
    where it is exact.  For f_inf(x0, xi) = c |xi|_F + A : xi (see
    Integrand.split_at) and outward normal nu, the constant divergence-free
    tau = (A nu) (x) nu - A has tau nu = 0 on the flat facet, so
    integral A : grad phi = integral (A nu) . (grad phi nu) for every field
    clamped on the arc, and every quotient is >= c - |A nu| (the normal-trace
    pairing of Anzellotti, Ann. Mat. Pura Appl. 135, 1983).  In 1D every
    field whose components share one monotone profile attains it, and in 2D
    with A nu = 0 every field does, so there the mesh minimum is c - |A nu|
    itself.  In 2D with A nu != 0 it lies strictly above, and the mesh solve
    decides.

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

from .integrands import catalog_get, composite, freeze_x
from .meshing import (
    BoundaryPoint,
    MeshBudgetError,
    MeshStack,
    halfball_mesh,
    local_patch,
)
from .minimize import (
    BulkObjective,
    RayleighQuotient,
    SolverOptions,
    TestField,
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
    "qslb_deficits",
    "epsdelta_probe",
    "equivalence_harness",
]


class QuotientBoundError(ArithmeticError):
    """The minimized half-ball quotient left [-C_inf, C_inf], C_inf a bound on
    |f_inf(x0, .)| on the unit sphere at the boundary point (see
    _sphere_bound), which a quotient of a 1-homogeneous integral by the total
    variation cannot do."""


class QslbReport:
    def __init__(self, x0, nu, deficit, verdict, witness, tol, diagnostics):
        self.x0 = x0
        self.nu = nu
        self.deficit = deficit
        self.verdict = verdict  # "qslb-plausible" | "violated"
        self.witness = witness
        self.tol = tol
        self.diagnostics = diagnostics

    @property
    def low_confidence(self):
        return bool(self.diagnostics.get("low_confidence"))

    def to_json(self):
        return {
            "x0": np.asarray(self.x0).tolist(),
            "nu": np.asarray(self.nu).tolist(),
            "deficit": self.deficit,
            "verdict": self.verdict,
            "tol": self.tol,
            "diagnostics": self.diagnostics,
            "tables": {},
        }

    def __repr__(self):
        return f"QslbReport(deficit={self.deficit:.6g}, verdict={self.verdict!r})"


def _halfball_clamped(mesh, nu):
    """Boundary vertices minus the open flat facet {y.nu = 0, |y| < 1}, to
    within 1e-9."""
    bverts = mesh.boundary_vertices
    verts = mesh.vertices[bverts]
    s = verts @ nu
    r = np.linalg.norm(verts, axis=1)
    on_flat_interior = (np.abs(s) <= 1e-9) & (r < 1.0 - 1e-9)
    return bverts[~on_flat_interior]


def _ramp_profile(mesh, direction, width):
    """Boundary-layer ramp along `direction`: 1 at the min face, 0 past width."""
    s = mesh.vertices @ np.atleast_1d(np.asarray(direction, dtype=float))
    s = s - float(np.min(s))
    t = np.clip(1.0 - s / width, 0.0, 1.0)
    return t


def _strip_direction(finf, x0):
    """s = -A nu / |A nu| where the recession splits at x0 with A nu != 0 and
    s is not a signed unit vector, else None: the direction of the strip ramp
    (_strip_witness) a half-ball solve starts from, which reaches the closed
    form c - |A nu| in 1D.  Along a signed unit vector that ramp is already
    the narrowest of _layer_inits' ramps."""
    split = finf.split_at(x0.x0)
    if split is None:
        return None
    a_nu = split[1] @ x0.normal
    if np.count_nonzero(a_nu) < 2:
        return None
    return -a_nu / np.linalg.norm(a_nu)


def _sphere_floor(finf, x):
    """min f_inf(x, xi) over unit xi, below which no half-ball quotient goes:
    c - |A|_F where the split c |xi|_F + A : xi is known, else None."""
    split = finf.split_at(x)
    if split is None:
        return None
    c, A = split
    return float(c) - float(np.linalg.norm(A))


def _sphere_bound(finf, x):
    """Bound on |f_inf(x, xi)| over unit xi: |c| + |A|_F where the split
    c |xi|_F + A : xi is known, else the sampled Integrand.sup_on_sphere
    (which falls short of the supremum once M N >= 3)."""
    split = finf.split_at(x)
    if split is None:
        return finf.sup_on_sphere(x)
    c, A = split
    return abs(float(c)) + float(np.linalg.norm(A))


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


def halfball_deficit(finf, x0, h=0.05, tol=1e-3, options=None):
    """Minimized half-ball Rayleigh quotient for f_inf(x0, .) at a boundary
    point; the one-job case of halfball_deficits, raising the error that
    ended the job."""
    (rep,) = halfball_deficits(finf, [(x0, options)], h=h, tol=tol)
    if isinstance(rep, Exception):
        raise rep
    return rep


def halfball_deficits(finf, jobs, h=0.05, tol=1e-3):
    """halfball_deficit for each job (x0, options) on halfball_mesh(x0.normal,
    h), as one family.

    The half-balls of the jobs must share one cells array, as halfball_mesh
    builds them for one h (rotations of one mesh in 2D, the two unit intervals
    in 1D), so their solves advance as one lockstep batch (minimize_fields) on
    a MeshStack.  Returns one entry per job, in order: its QslbReport, or the
    error that ended it (the other jobs finish as they would alone).
    """
    out = [None] * len(jobs)
    family = []  # (job, mesh, integrand, clamped, options) of each live job
    for j, (x0, options) in enumerate(jobs):
        try:
            if not isinstance(x0, BoundaryPoint):
                raise TypeError("x0 must be a BoundaryPoint (needs an outward normal)")
            mesh = halfball_mesh(x0.normal, h)
        except Exception as e:  # collect and continue
            out[j] = e
            continue
        clamped = _halfball_clamped(mesh, x0.normal)
        opts = options or SolverOptions()
        widths = (2 * mesh.h, 4 * mesh.h, 8 * mesh.h, 0.5)
        extra = tuple(_layer_inits(mesh, x0.normal, finf.M, clamped, widths))
        s = _strip_direction(finf, x0)
        if s is not None:
            extra += (_strip_witness(mesh, x0.normal, s).values,)
        extra += tuple(opts.extra_inits)
        # room for default_inits' 2 M dim tents besides the extra starts: the
        # 8 M boundary-layer ramps (four widths, two signs), the strip ramp
        # and the caller's extra_inits
        opts = replace(opts, restarts=max(opts.restarts, 2 * finf.M * mesh.dim + len(extra)),
                       grad_cap=0.0, tv_cap=0.0, extra_inits=extra)
        family.append((j, mesh, freeze_x(finf, x0.x0), clamped, opts))
    if not family:
        return out

    meshes = [m for _, m, _, _, _ in family]
    stack = meshes[0] if len(meshes) == 1 else MeshStack(meshes)
    objective = RayleighQuotient(BulkObjective(stack, [g for _, _, g, _, _ in family]),
                                 TVObjective(stack, finf.M))
    results = minimize_fields(objective, [(m, c, o) for _, m, _, c, o in family],
                              floors=[_sphere_floor(finf, jobs[j][0].x0)
                                      for j, _, _, _, _ in family])
    for (j, mesh, _, _, _), res in zip(family, results):
        x0 = jobs[j][0]
        out[j] = res if isinstance(res, Exception) else _qslb_report(
            x0, mesh, res, _sphere_bound(finf, x0.x0), tol)
    return out


def qslb_deficits(finf, jobs, h=0.05, tol=1e-3):
    """halfball_deficits, with the closed form c - |A nu| (module docstring)
    for each job whose recession splits at x0 and whose half-ball has N = 1
    or A nu = 0; every other job goes to halfball_deficits, as one family.

    A closed-form job builds no mesh and runs no solve.  Only a violation
    builds the half-ball mesh, for its witness: the strip ramp of
    _strip_witness, whose mesh quotient the diagnostics carry; a witness
    mesh over the cell budget errs (MeshBudgetError).
    """
    out = [None] * len(jobs)
    rest = []  # the jobs of the mesh family
    for j, (x0, options) in enumerate(jobs):
        split = finf.split_at(x0.x0) if isinstance(x0, BoundaryPoint) else None
        if split is not None:
            c, A = split
            a_nu = A @ x0.normal
            if len(x0.normal) == 1 or np.linalg.norm(a_nu) <= 1e-12 * np.linalg.norm(A):
                try:
                    out[j] = _closed_form_report(finf, x0, float(c), a_nu, h, tol)
                except MeshBudgetError as e:
                    out[j] = e
                continue
        rest.append(j)
    if rest:
        family = halfball_deficits(finf, [jobs[j] for j in rest], h=h, tol=tol)
        for j, rep in zip(rest, family):
            out[j] = rep
    return out


def _closed_form_report(finf, x0, c, a_nu, h, tol):
    nu = x0.normal
    r = float(np.linalg.norm(a_nu))
    deficit = c - r
    violated = deficit < -tol
    diagnostics = {"source": "closed_form", "low_confidence": False, "iterations": 0,
                   "sphere_bound": _sphere_bound(finf, x0.x0)}
    witness = None
    if violated:
        mesh = halfball_mesh(nu, h)
        s = -a_nu / r if r > 0 else np.eye(finf.M)[0]
        witness = _strip_witness(mesh, nu, s)
        quotient = RayleighQuotient(BulkObjective(mesh, freeze_x(finf, x0.x0)),
                                    TVObjective(mesh, finf.M))
        diagnostics.update(h=mesh.h, witness_quotient=float(quotient.value(witness.values)))
    return QslbReport(x0=x0.x0, nu=nu, deficit=deficit,
                      verdict="violated" if violated else "qslb-plausible",
                      witness=witness, tol=tol, diagnostics=diagnostics)


def _strip_witness(mesh, nu, s):
    """s max(0, 1 - dist / (2 h)), dist the distance to the flat facet, with
    the clamped vertices zero, scaled to unit total variation: the half-ball
    field whose quotient is c - |A nu| for s = -A nu / |A nu|."""
    clamped = _halfball_clamped(mesh, nu)
    values = np.outer(_ramp_profile(mesh, -nu, 2 * mesh.h), s)
    values[clamped] = 0.0
    return TestField(mesh, values / TVObjective(mesh, len(s)).value(values), clamped)


def _qslb_report(x0, mesh, res, c_inf, tol):
    deficit = res.value
    # the quotient of sums can never leave [-C_inf, C_inf]; the margin covers
    # rounding and the sampling error of a sampled sphere maximum
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
            "source": "mesh",
            "low_confidence": res.low_confidence,
            "iterations": res.iterations,
            "stationarity_residual": res.stationarity_residual,
            "h": mesh.h,
            "sphere_bound": c_inf,
        },
    )


def _epsdelta_integrand(f, eps):
    """f(x, xi) + eps |xi|: one integrand."""
    return composite([(1.0, f), (float(eps), catalog_get("norm", {"M": f.M, "N": f.N}))])


def epsdelta_probe(f, x0, domain_mesh, eps_grid=(0.1, 0.5), delta_grid=(0.2,),
                   options=None):
    """Unbounded-below signature of the local growth inequality at x0.

    Returns rows (eps, delta, R, minimum) for the TV caps R = 1, 10, 100 and
    per-(eps, delta) verdicts: "unbounded-below" when the minimum at R=100 is
    at least 5 times deeper than at R=10 (and the latter is below -1e-6), else
    "bounded plausible".  Each patch is local_patch's, refined once.  x0 may
    be a BoundaryPoint, a polygon corner coordinate, or an interior point; no
    boundary regularity is used.
    """
    center = x0.x0 if isinstance(x0, BoundaryPoint) else np.atleast_1d(
        np.asarray(x0, dtype=float)
    )
    base = options or SolverOptions()
    rows = []
    verdicts = {}
    for delta in delta_grid:
        patch = local_patch(domain_mesh, center, float(delta))
        for eps in eps_grid:
            objective = BulkObjective(patch.mesh, _epsdelta_integrand(f, eps))
            minima = {}
            carry = ()
            for R in (1.0, 10.0, 100.0):
                inits = carry
                if carry:
                    prev = carry[0]
                    tv_prev = TVObjective(patch.mesh, f.M).value(prev)
                    if tv_prev > 1e-12:
                        # rescale the carried witness up to the new cap
                        inits = (prev * (R / tv_prev), prev)
                opts = replace(base, grad_cap=0.0, tv_cap=R, extra_inits=inits)
                res = minimize_field(
                    objective, patch.mesh, patch.clamped_vertices, opts
                )
                minima[R] = res.value
                carry = (res.witness.values,)
                rows.append(
                    {"eps": float(eps), "delta": float(delta), "R": R,
                     "minimum": res.value}
                )
            lo, hi = minima[10.0], minima[100.0]
            unbounded = lo < -1e-6 and hi <= 5.0 * lo
            verdicts[(float(eps), float(delta))] = (
                "unbounded-below" if unbounded else "bounded plausible"
            )
    return {"rows": rows, "verdicts": verdicts}


def _patch_sign_test(g, center, domain_mesh, eps, tol, base):
    """Sign test for a 1-homogeneous patch objective (cap R=1 suffices) on
    the patch of radius 2.5 h around center.  g is frozen (freeze_x), so
    g + eps |.| is the eps-delta integrand of g's base frozen at g's point,
    which takes one value per cell."""
    patch = local_patch(domain_mesh, center, 2.5 * domain_mesh.h)
    opts = replace(base, grad_cap=0.0, tv_cap=1.0, extra_inits=())
    g_base, x0 = g.frozen
    objective = BulkObjective(patch.mesh, freeze_x(_epsdelta_integrand(g_base, eps), x0))
    res = minimize_field(objective, patch.mesh, patch.clamped_vertices, opts)
    return res.value, ("violated" if res.value < -tol else "qslb-plausible")


def equivalence_harness(f, finf, x0, domain_mesh, options=None):
    """Cross-check the equivalent formulations of boundary sublinearity at x0,
    at eps = 0.1 and tolerance 1e-3.

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
    g_frozen = freeze_x(finf, center)

    val, verdict = _patch_sign_test(g_frozen, center, domain_mesh, 0.1, 1e-3, base)
    forms["frozen"] = {"value": val, "verdict": verdict}

    probe = epsdelta_probe(
        f, x0, domain_mesh, eps_grid=(0.1,),
        delta_grid=(max(2.5 * domain_mesh.h, 0.2),), options=base
    )
    unb = any(v == "unbounded-below" for v in probe["verdicts"].values())
    forms["unfrozen"] = {
        "verdict": "violated" if unb else "qslb-plausible",
        "rows": probe["rows"],
    }

    if is_boundary:
        rep = halfball_deficit(finf, x0, h=max(domain_mesh.h / 2, 0.05),
                               tol=1e-3, options=base)
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
