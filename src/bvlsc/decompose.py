"""Local decomposition of vanishing BV sequences against a compact cover.

Given compact sets K_1, ..., K_J covering the closed domain and a sequence
(u_n) going to zero in L1, a subsequence u_{k(n)} is split as

    u_{k(n)} = u_{1,n} + ... + u_{J,n},

where u_{1,n} = phi_n u_{k(n)} with a piecewise-affine cutoff phi_n equal to 1
on the 1/(2n)-neighborhood of K_1, 0 outside the 1/n-neighborhood (gradient
at most 2n), and the remainder is recursively decomposed against the rest of
the cover.  The subsequence index k(n) is the smallest one past the previous
pick that keeps the mixed term integral |u_k| |grad phi_n| below a vanishing
bound (SELECTION_BOUND_FACTOR / n = 0.5/n).

Only 1D meshes are supported: cutoff level sets are then mesh-exact after a
refinement that inserts the neighborhood breakpoints.  verify_properties
re-checks, per cell and per atom, the discrete surrogates of the two
decomposition guarantees: the component derivative masses exceed the parent
ones by at most |cell|/n plus the (recorded and capped) cutoff slack, and the
later components do not charge the earlier compact sets.
"""

import warnings

import numpy as np

from .bv import (derivative, does_not_charge, refine_bv_1d, refined_1d, refined_bv,
                 tv_on_neighborhood)
from .meshing import segment_shape_gradients

__all__ = [
    "CoverSpec",
    "DecompositionResult",
    "PrefixTooShortError",
    "local_decompose",
    "verify_properties",
]

SELECTION_BOUND_FACTOR = 0.5
GRAD_SLACK = 0.05  # a cutoff gradient may exceed its bound 2n by 1 + GRAD_SLACK


class PrefixTooShortError(RuntimeError):
    def __init__(self, n, achieved, bound):
        super().__init__(
            f"prefix too short: no member past the previous pick achieves the "
            f"mixed-term bound {bound:.3g} at n={n} (best achieved {achieved:.3g})"
        )
        self.n = n
        self.achieved = achieved
        self.bound = bound


class CoverSpec:
    """Compact sets K_1..K_J whose union must cover the closed domain."""

    def __init__(self, sets):
        self.sets = list(sets)
        if len(self.sets) < 2:
            raise ValueError("a cover needs at least two compact sets")

    def validate_covers(self, mesh):
        """Largest gap between the mesh vertices and the set union (0 = covers)."""
        verts = np.asarray(mesh.vertices)
        dists = np.min(np.stack([k.dist(verts) for k in self.sets]), axis=0)
        return float(np.max(dists))


class DecompositionResult:
    def __init__(self, cover, members, n_values, k_map, subsequence, components,
                 cutoffs, selection_bound_factor, grad_slack, s_table):
        self.cover = cover
        self.members = members
        self.n_values = list(n_values)
        self.k_map = dict(k_map)  # n -> 0-based index into members
        self.subsequence = dict(subsequence)  # n -> refined member
        self.components = dict(components)  # n -> [u_{1,n}, ..., u_{J,n}]
        self.cutoffs = dict(cutoffs)  # n -> [(phi values, radius index, stage input)]
        self.selection_bound_factor = selection_bound_factor
        self.grad_slack = grad_slack
        self.s_table = s_table

    def to_json(self):
        return {
            "n_values": self.n_values,
            "k_map": {str(n): int(k) for n, k in self.k_map.items()},
            "selection_bound_factor": self.selection_bound_factor,
            "grad_slack": self.grad_slack,
            "s_table": self.s_table,
            "component_tv": {
                str(n): [
                    float(sum(np.linalg.norm(j) for _, j in c.atoms)
                          + np.sum(c.mesh.gradient_masses(c.gradients())))
                    for c in comps
                ]
                for n, comps in self.components.items()
            },
        }


def _abs_integral_times_grad(pts, cell_values, phi_values):
    """Exact integral of |u| |grad phi| for u affine with the cell values
    (n, 2, M) on the cells between the sorted vertices pts (n + 1,) and phi
    continuous P1 with the vertex values phi_values (cellwise-constant grad
    phi, taken as Mesh.p1_gradient takes it)."""
    x = np.column_stack([pts[:-1], pts[1:]])
    corners = np.column_stack([phi_values[:-1], phi_values[1:]])[:, :, None]
    gphi = np.einsum("cim,cid->cmd", corners,
                     segment_shape_gradients(x[:, 1] - x[:, 0]))[:, 0, 0]
    total = 0.0
    for ci in np.where(np.abs(gphi) > 1e-15)[0]:
        v0, v1 = cell_values[ci, 0], cell_values[ci, 1]
        length = x[ci, 1] - x[ci, 0]
        if cell_values.shape[2] == 1:
            a, b = float(v0[0]), float(v1[0])
            if a * b >= 0:
                area = 0.5 * abs(a + b) * length
            else:
                t = a / (a - b)
                area = 0.5 * length * (abs(a) * t + abs(b) * (1 - t))
        else:
            ts = np.linspace(0.0, 1.0, 9)
            vals = np.linalg.norm(v0[None, :] * (1 - ts)[:, None]
                                  + v1[None, :] * ts[:, None], axis=1)
            area = float(np.trapezoid(vals, dx=length / 8.0))
        total += area * abs(gphi[ci])
    return total


def _cutoff_values(vertices, kset, n):
    d = kset.dist(vertices)
    r_out, r_in = 1.0 / n, 0.5 / n
    return np.clip((r_out - d) / (r_out - r_in), 0.0, 1.0)


def _breakpoints_1d(kset, n, lo, hi):
    pts = []
    for kind, data in kset.pieces:
        anchors = [data[0]] if kind == "point" else [data[0][0], data[1][0]]
        for a in anchors:
            for r in (0.5 / n, 1.0 / n):
                pts.extend([a - r, a + r])
    return [p for p in pts if lo < p < hi]


def require_1d(dim):
    """Raise unless dim is 1: only 1D meshes make cutoff level sets mesh-exact."""
    if dim != 1:
        raise ValueError(
            "decomposition is implemented for 1D meshes (cutoff level sets "
            "must be mesh-exact); 2D sequences are not supported"
        )


def local_decompose(members, cover, n_max=None):
    """Decompose a 1D vanishing sequence against a compact cover."""
    members = list(members)
    if not members:
        raise ValueError("empty sequence")
    mesh0 = members[0].mesh
    require_1d(mesh0.dim)
    cover_gap = cover.validate_covers(mesh0)
    if cover_gap > 1e-9:
        warnings.warn(
            f"compact sets leave a cover gap of {cover_gap:.3g}; the "
            "construction proceeds but support inclusions may not hold there"
        )
    if n_max is None:
        n_max = len(members) // 2
    lo = float(mesh0.vertices.min())
    hi = float(mesh0.vertices.max())

    n_values, k_map, subsequence, components, cutoffs = _decompose_stage(
        members, cover.sets, n_max, lo, hi)

    # member k enters the rows m <= k + 1, at the radii 0.5 / m
    radii = [0.5 / m for m in range(1, n_max + 1)]
    tvs = [
        tv_on_neighborhood(derivative(u), cover.sets[0], radii[:k + 1])
        for k, u in enumerate(members)
    ]
    rows = []
    for m in range(1, n_max + 1):
        vals = [tvs[k][m - 1] for k in range(m - 1, len(members))]
        rows.append({
            "m": m,
            "last": vals[-1],
            "sup_dev": float(np.max(np.abs(np.asarray(vals) - vals[-1]))),
        })
    lasts = [row["last"] for row in rows]
    monotone = all(lasts[i + 1] <= lasts[i] + 1e-12 for i in range(len(lasts) - 1))
    s_table = {"rows": rows, "monotone": monotone}

    return DecompositionResult(
        cover, members, n_values, k_map, subsequence, components, cutoffs,
        SELECTION_BOUND_FACTOR, GRAD_SLACK, s_table,
    )


def _single_stage(members, kset, n_target, lo, hi, best_effort=False):
    """Cutoff stage against one compact set: per n, pick the subsequence index
    and split off the component supported near the set."""
    from .bv import cutoff_multiply

    n_values, k_map, subsequence, firsts, cutoffs = [], {}, {}, {}, {}
    remainders = []
    k_prev = -1
    for n in range(1, n_target + 1):
        bound = SELECTION_BOUND_FACTOR / n
        brk = _breakpoints_1d(kset, n, lo, hi)
        pick, best = None, np.inf
        for k in range(k_prev + 1, len(members)):
            pts, cell_values = refined_1d(members[k], brk)
            phi = _cutoff_values(pts[:, None], kset, n)
            mixed = _abs_integral_times_grad(pts, cell_values, phi)
            if mixed < best:
                best = mixed
            if mixed <= bound:
                pick = (k, pts, cell_values, phi)
                break
        if pick is None:
            if best_effort:
                break
            raise PrefixTooShortError(n, best, bound)
        k, pts, cell_values, phi = pick
        k_prev = k
        uk = refined_bv(members[k], pts, cell_values)
        first = cutoff_multiply(uk, phi)
        n_values.append(n)
        k_map[n] = k
        subsequence[n] = uk
        firsts[n] = first
        cutoffs[n] = [(phi, n, uk)]
        remainders.append(uk - first)
    return n_values, k_map, subsequence, firsts, cutoffs, remainders


def _decompose_stage(members, sets, n_max, lo, hi):
    """One cutoff stage against sets[0]; recurse on the remainder sequence."""
    if len(sets) == 2:
        n_values, k_map, subsequence, firsts, cutoffs, remainders = _single_stage(
            members, sets[0], n_max, lo, hi
        )
        components = {n: [firsts[n], remainders[i]]
                      for i, n in enumerate(n_values)}
        return n_values, k_map, subsequence, components, cutoffs

    # produce as many stage-1 outputs as the prefix allows; the recursion
    # below selects its own subsequence out of them
    cap = min(len(members), 4 * n_max + 8)
    n1, k_map, subsequence, firsts, cutoffs, remainders = _single_stage(
        members, sets[0], cap, lo, hi, best_effort=True
    )
    sub = _decompose_stage(remainders, sets[1:], n_max, lo, hi)
    sub_n, sub_k, sub_subseq, sub_comp, sub_cut = sub
    final_n, final_k, final_sub, final_compo, final_cutoffs = [], {}, {}, {}, {}
    for n in sub_n:
        idx = sub_k[n]  # index into remainders, i.e. stage-1 output idx+1
        stage1_n = n1[idx]
        target_mesh_coords = sub_subseq[n].mesh.vertices[:, 0]
        first = refine_bv_1d(firsts[stage1_n], target_mesh_coords)
        parent = refine_bv_1d(subsequence[stage1_n], target_mesh_coords)
        final_n.append(n)
        final_k[n] = k_map[stage1_n]
        final_sub[n] = parent
        final_compo[n] = [first] + sub_comp[n]
        phi1, rad1, _ = cutoffs[stage1_n][0]
        phi1_ref = _reinterp_scalar(subsequence[stage1_n].mesh, phi1,
                                    final_sub[n].mesh)
        final_cutoffs[n] = [(phi1_ref, rad1, parent)] + sub_cut[n]
    return final_n, final_k, final_sub, final_compo, final_cutoffs


def _reinterp_scalar(old_mesh, values, new_mesh):
    out = np.zeros(new_mesh.n_vertices)
    for i, x in enumerate(new_mesh.vertices):
        out[i] = old_mesh.eval_p1(values, x)
    return out


def verify_properties(result, deltas=(0.2, 0.1, 0.05, 0.02), charge_threshold=1e-2):
    """Re-check the decomposition guarantees on the discrete data.

    Returns a report with per-check verdicts and the list of flagged entities;
    violations are reported, never raised.  Masses may exceed their bounds
    by 1e-12.  The report is plain JSON data: charge_tables is keyed by the
    component number as a string ("2", ...).
    """
    tol = 1e-12
    sets = result.cover.sets
    J = len(sets)
    flags = []
    reassembly_dev = 0.0
    slack_recorded = []
    grad_bound_ok = True

    for n in result.n_values:
        uk = result.subsequence[n]
        comps = result.components[n]
        total = comps[0]
        for c in comps[1:]:
            total = total + c
        diff = uk - total
        dev = diff.linf_norm() + sum(np.linalg.norm(j) for _, j in diff.atoms)
        reassembly_dev = max(reassembly_dev, dev)

        allowed_grad = 2.0 * n * (1.0 + result.grad_slack)
        measured = np.zeros(uk.mesh.n_cells)
        umax = np.max(np.linalg.norm(uk.cell_values, axis=2), axis=1)
        for phi, rad, stage_input in result.cutoffs[n]:
            if len(phi) != uk.mesh.n_vertices:
                continue
            g = np.abs(uk.mesh.p1_gradient(phi)[:, 0, 0])
            if np.max(g, initial=0.0) > 2.0 * rad * (1.0 + result.grad_slack):
                grad_bound_ok = False
                flags.append({"n": n, "check": "cutoff_gradient",
                              "max_grad": float(np.max(g)),
                              "allowed": 2.0 * rad * (1.0 + result.grad_slack)})
            si_max = np.max(np.linalg.norm(stage_input.cell_values, axis=2), axis=1) \
                if stage_input.mesh.n_cells == uk.mesh.n_cells else umax
            measured += np.minimum(si_max * g, si_max * allowed_grad)
        slack_cells = measured * uk.mesh.cell_measures
        slack_recorded.append(float(np.sum(slack_cells)))

        parent_mass = uk.mesh.gradient_masses(uk.gradients())
        parent_atoms = {round(loc, 12): np.linalg.norm(j) for loc, j in uk.atoms}
        for j_idx, c in enumerate(comps):
            lhs = c.mesh.gradient_masses(c.gradients())
            rhs = parent_mass + uk.mesh.cell_measures / n + slack_cells + tol
            bad = np.where(lhs > rhs)[0]
            for ci in bad:
                flags.append({
                    "n": n, "component": j_idx + 1, "check": "mass_bound",
                    "cell": int(ci), "mass": float(lhs[ci]), "bound": float(rhs[ci]),
                })
            for loc, jv in c.atoms:
                pm = parent_atoms.get(round(loc, 12), 0.0)
                if np.linalg.norm(jv) > pm + tol:
                    flags.append({
                        "n": n, "component": j_idx + 1, "check": "atom_bound",
                        "x": loc, "mass": float(np.linalg.norm(jv)), "bound": pm,
                    })
            # support inclusions against the cover neighborhoods
            h = uk.mesh.h
            pts = _support_points(c)
            if len(pts):
                d_own = sets[min(j_idx, J - 1)].dist(pts)
                if np.max(d_own) > 1.0 / n + 2 * h:
                    flags.append({"n": n, "component": j_idx + 1,
                                  "check": "support_inclusion",
                                  "max_dist": float(np.max(d_own))})
                for i in range(j_idx):
                    d_prev = sets[i].dist(pts)
                    if np.min(d_prev) < 0.5 / n - 2 * h - 1e-12:
                        flags.append({"n": n, "component": j_idx + 1,
                                      "check": "support_exclusion",
                                      "earlier_set": i,
                                      "min_dist": float(np.min(d_prev))})

    charge_tables = {}
    for j_idx in range(1, J):
        union = sets[0]
        for s in sets[1:j_idx]:
            union = _union(union, s)
        seq = [derivative(result.components[n][j_idx]) for n in result.n_values]
        charge_tables[str(j_idx + 1)] = does_not_charge(
            seq, union, deltas, threshold=charge_threshold
        )

    return {
        "reassembly_dev": reassembly_dev,
        "reassembly_ok": reassembly_dev <= 1e-14 * 10,
        "cutoff_gradient_ok": grad_bound_ok,
        "mass_bound_ok": not any(f["check"] == "mass_bound" for f in flags),
        "slack_recorded": slack_recorded,
        "charge_tables": {
            j: {"verdict": t["verdict"], "table": t["table"]}
            for j, t in charge_tables.items()
        },
        "charge_ok": all(t["verdict"] == "tight" for t in charge_tables.values()),
        "s_table": result.s_table,
        "flags": flags,
    }


def _union(a, b):
    from .regions import CompactSet

    return CompactSet(a.dim, list(a.pieces) + list(b.pieces))


def _support_points(u):
    mesh = u.mesh
    pts = []
    cells = u.support_cells()
    if len(cells):
        pts.append(mesh.centroids[cells])
    for loc, _ in u.atoms:
        pts.append(np.array([[loc]]))
    if not pts:
        return np.zeros((0, mesh.dim))
    return np.vstack(pts)
