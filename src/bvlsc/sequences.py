"""Generators for weak*-vanishing sequences and the empirical liminf machinery.

Sequence kinds:

  * jump_migration             chi_(0, 1/n) on an interval containing (0, 1):
                               a unit jump migrating to the boundary point 0.
  * boundary_rescale           u_k(x) = k^(N-1) * profile(k * s(x)) where s is
                               the inward distance from a boundary point; the
                               scaling preserves the gradient L1 norm.
  * fixed_trace_oscillation    zero-trace sawtooth laminate of frequency n.
  * pure_boundary_concentration  normalized bump train supported within 1/n
                               of the domain boundary.

Members are scalar-valued (M = 1) BV functions, each on its own mesh adapted
to the index n, converging weakly* to zero.  The empirical liminf compares
the functional values along the sequence with the value at the limit; the
necessity-witness construction turns a half-ball violation into shrinking
rescaled copies with unit W^{1,1} norm and checks that they push the energy
below the value at zero.
"""

from dataclasses import dataclass, field

import numpy as np

from .bv import BVFunction
from .functional import eval_F
from .meshing import BoundaryPoint, Domain, Mesh, interval_mesh_with, rectangle_mesh

__all__ = [
    "SequenceSpec",
    "generate",
    "empirical_liminf",
    "limit_energy_check",
    "necessity_witness",
    "NecessityTransferError",
    "PROFILES",
    "SEQUENCE_KINDS",
]


def _hat(s):
    return np.clip(1.0 - np.abs(s), 0.0, 1.0)


def _bump(s):
    return np.clip(1.0 - np.abs(2.0 * np.abs(s) - 1.0), 0.0, 1.0)


PROFILES = {"hat": _hat, "bump": _bump}


@dataclass
class SequenceSpec:
    kind: str
    domain: Domain
    n_max: int = 64
    params: dict = field(default_factory=dict)

    def to_json(self):
        dom = {"kind": self.domain.kind}
        if self.domain.kind == "interval":
            dom.update(self.domain.params)
        params = {
            k: (v if not isinstance(v, np.ndarray) else v.tolist())
            for k, v in self.params.items()
            if not callable(v)
        }
        return {"kind": self.kind, "domain": dom, "n_max": self.n_max,
                "params": params}


def _interval_bounds(domain):
    if domain.kind != "interval":
        raise ValueError(f"sequence kind needs an interval domain, got {domain.kind}")
    return domain.params["a"], domain.params["b"]


def _profile_fn(params):
    prof = params.get("profile", "hat")
    if callable(prof):
        return prof
    return PROFILES[prof]


def generate(spec, n):
    """Member n of the sequence described by spec."""
    if not 1 <= n <= spec.n_max:
        raise ValueError(f"index {n} outside [1, {spec.n_max}]")
    if spec.kind not in _GENERATORS:
        raise ValueError(f"unknown sequence kind {spec.kind!r}")
    return _GENERATORS[spec.kind](spec, n)


def _jump_migration(spec, n):
    a, b = _interval_bounds(spec.domain)
    if a > 0.0 or b < 1.0:
        raise ValueError("jump_migration needs an interval containing (0, 1)")
    h0 = spec.params.get("h", 1.0 / 16.0)
    mesh = interval_mesh_with(a, b, h0, [0.0, 1.0 / n], domain=spec.domain)
    return BVFunction.indicator_1d(mesh, 0.0, 1.0 / n)


def _boundary_rescale(spec, n):
    if spec.domain.dim != 1:
        raise ValueError(
            "boundary_rescale members are generated on 1D intervals only; "
            "2D rescaled energies are evaluated patch-locally by "
            "necessity_witness/limit_energy_check"
        )
    a, b = _interval_bounds(spec.domain)
    x0 = float(spec.params.get("x0", a))
    inward = 1.0 if abs(x0 - a) < abs(x0 - b) else -1.0
    prof = _profile_fn(spec.params)
    q = int(spec.params.get("resolution", 16))
    if x0 + inward / n < a - 1e-12 or x0 + inward / n > b + 1e-12:
        raise ValueError("profile support (x0, x0 + 1/n) leaves the domain")
    h0 = spec.params.get("h", 1.0 / 16.0)
    ref = np.arange(q + 1) / q  # reference grid on [0, 1]
    required = x0 + inward * ref / n
    mesh = interval_mesh_with(a, b, h0, required, domain=spec.domain)
    s = inward * (mesh.vertices[:, 0] - x0) * n
    vals = np.where((s >= 0.0) & (s <= 1.0), prof(np.clip(s, 0.0, 1.0)), 0.0)
    # N = 1: the k^(N-1) amplitude factor is 1
    return BVFunction.from_vertex_values(mesh, vals)


def _fixed_trace_oscillation(spec, n):
    amp = float(spec.params.get("amplitude", 1.0))
    if spec.domain.dim == 1:
        a, b = _interval_bounds(spec.domain)
        period = (b - a) / n
        pts = a + 0.5 * period * np.arange(2 * n + 1)
        mesh = interval_mesh_with(a, b, (b - a), pts, domain=spec.domain)
        x = mesh.vertices[:, 0]
        t = (x - a) / period
        saw = 1.0 - np.abs(2.0 * (t - np.floor(t)) - 1.0)
        vals = amp * 0.5 * period * saw
        return BVFunction.from_vertex_values(mesh, vals)
    # 2D laminate in the e1 direction with a zero boundary layer of width 1/n
    if spec.domain.kind != "polygon":
        raise ValueError("2D oscillation needs a polygon domain")
    verts = spec.domain.params["vertices"]
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    if len(verts) != 4 or not np.allclose(
        sorted(map(tuple, verts)), sorted(map(tuple, [
            [lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]))
    ):
        raise ValueError("2D oscillation supports axis-aligned rectangles only")
    nx = 2 * n
    ny = max(4, n)
    mesh = rectangle_mesh(lo[0], hi[0], lo[1], hi[1], nx, ny, domain=spec.domain)
    period = (hi[0] - lo[0]) / n
    t = (mesh.vertices[:, 0] - lo[0]) / period
    saw = 1.0 - np.abs(2.0 * (t - np.floor(t + 1e-12)) - 1.0)
    layer = 1.0 / n
    d2 = np.minimum(mesh.vertices[:, 1] - lo[1], hi[1] - mesh.vertices[:, 1])
    plateau = np.clip(d2 / layer, 0.0, 1.0)
    vals = amp * 0.5 * period * saw * plateau
    return BVFunction.from_vertex_values(mesh, vals)


def _pure_boundary_concentration(spec, n):
    if spec.domain.dim != 1:
        raise ValueError("pure_boundary_concentration is implemented on intervals")
    a, b = _interval_bounds(spec.domain)
    amp = float(spec.params.get("amplitude", 0.25))
    q = int(spec.params.get("resolution", 4))
    rn = 1.0 / n
    req = np.concatenate([
        a + rn * np.arange(q + 1) / q,
        b - rn * np.arange(q + 1) / q,
    ])
    mesh = interval_mesh_with(a, b, (b - a) / 8.0, req, domain=spec.domain)
    x = mesh.vertices[:, 0]
    left = np.clip(1.0 - np.abs(2.0 * (x - a) / rn - 1.0), 0.0, 1.0)
    right = np.clip(1.0 - np.abs(2.0 * (b - x) / rn - 1.0), 0.0, 1.0)
    vals = amp * (left + right)
    return BVFunction.from_vertex_values(mesh, vals)


_GENERATORS = {
    "jump_migration": _jump_migration,
    "boundary_rescale": _boundary_rescale,
    "fixed_trace_oscillation": _fixed_trace_oscillation,
    "pure_boundary_concentration": _pure_boundary_concentration,
}
SEQUENCE_KINDS = tuple(_GENERATORS)


def empirical_liminf(f, finf, spec, n_values=None, tol=1e-6):
    """Functional values along the sequence vs the value at the weak* limit.

    Verdict "lsc violated empirically" requires the running-minimum tail to
    sit below F(limit) - tol and to be stable: the drift across the last
    quarter of the table must stay within 0.05 * (1 + |tail end|),
    so a still-diverging table never certifies a violation.
    """
    if n_values is None:
        if spec.n_max < 8:
            raise ValueError("need n_max >= 8 for a meaningful tail")
        n_values = list(range(1, spec.n_max + 1))
    table = []
    for n in n_values:
        un = generate(spec, n)
        table.append((n, eval_F(f, finf, un).total))
    member = generate(spec, min(8, spec.n_max))
    limit_value = eval_F(f, finf, 0.0 * member).total
    running = np.minimum.accumulate([v for _, v in table])
    tail = running[-max(1, len(running) // 4):]
    drift = float(np.max(tail) - np.min(tail))
    stable = drift <= 0.05 * (1.0 + abs(float(tail[-1])))
    violated = stable and tail[-1] < limit_value - tol
    return {
        "table": table,
        "limit_value": limit_value,
        "running_min": running.tolist(),
        "tail_stable": stable,
        "verdict": "lsc violated empirically" if violated else "no violation detected",
    }


def limit_energy_check(f, profile, x0, domain, k_values=(1, 2, 4, 8, 16, 32, 64),
                       resolution=64):
    """Compare rescaled boundary-profile energies with the half-ball integral.

    For positively 1-homogeneous, x-independent f and a flat boundary, the
    energies F(u_k) converge to the integral of f(grad profile) over the unit
    half-ball; the report carries the table and the relative gap at the last k.
    """
    if domain.dim != 1:
        raise ValueError(
            "limit_energy_check supports flat 1D boundary points; curved "
            "boundaries are refused"
        )
    if f.recession is None:
        raise ValueError("f must come with its recession function")
    rng = np.random.default_rng(0)
    xi = rng.normal(size=(16, f.M, f.N))
    x = np.zeros((16, f.N))
    hom_dev = max(
        float(np.max(np.abs(f(x, a * xi) - a * f(x, xi)))) for a in (0.5, 2.0, 7.0)
    )
    if hom_dev > 1e-8:
        raise ValueError(f"f is not positively 1-homogeneous (dev {hom_dev:.2g})")
    a, b = _interval_bounds(domain)
    x0v = x0.x0[0] if isinstance(x0, BoundaryPoint) else float(x0)
    spec = SequenceSpec(
        "boundary_rescale", domain, n_max=max(k_values),
        params={"x0": x0v, "profile": profile, "resolution": resolution},
    )
    prof = _profile_fn(spec.params)
    # reference energy on the unit half-ball (inward coordinate s in [0, 1])
    ref_mesh = interval_mesh_with(0.0, 1.0, 1.0 / resolution, [])
    ref = BVFunction.from_vertex_values(ref_mesh, prof(ref_mesh.vertices[:, 0]))
    finf = f.recession
    ref_value = eval_F(f, finf, ref).total
    table = []
    for k in k_values:
        uk = generate(spec, k)
        table.append((k, eval_F(f, finf, uk).total))
    gap = abs(table[-1][1] - ref_value) / max(abs(ref_value), 1e-12)
    return {"table": table, "halfball_value": ref_value, "relative_gap": gap}


class NecessityTransferError(RuntimeError):
    """Rescaled copies of a discrete witness failed to carry negative energy."""


def necessity_witness(f, finf, x0, witness, eps, n_values=(2, 4, 8, 16, 32, 64),
                      tol=1e-3):
    """Executable certificate for the necessity of the boundary condition.

    Given a half-ball witness field with quotient value -eps < 0, builds the
    shrinking normalized copies u_n (support in the 1/n-ball at x0, unit
    W^{1,1} norm) and verifies that the energy gap F(u_n) - F(0), evaluated
    patch-locally with the full integrand f, eventually drops below -eps/2.
    Raises NecessityTransferError if the rescaled copies lose the violation.
    """
    if eps <= 0:
        raise ValueError("precondition unmet: needs a reported violation (eps > 0)")
    if not isinstance(x0, BoundaryPoint):
        raise TypeError("x0 must be a BoundaryPoint")
    wmesh = witness.mesh
    values = witness.values
    tv = witness.gradient_tv()
    if tv <= 1e-12:
        raise NecessityTransferError("witness has no gradient mass")
    values = values / tv
    N = wmesh.dim
    rows = []
    for n in n_values:
        scale = 1.0 / n
        verts = x0.x0[None, :] + scale * np.asarray(wmesh.vertices)
        smesh = Mesh(verts, np.asarray(wmesh.cells))
        amp = float(n ** (N - 1))
        vn = BVFunction.from_vertex_values(smesh, amp * values)
        w11 = vn.l1_norm() + float(np.sum(smesh.gradient_masses(vn.gradients())))
        un = (1.0 / w11) * vn
        gap = (
            eval_F(f, finf, un).total
            - eval_F(f, finf, 0.0 * un).total
        )
        rows.append({"n": n, "gap": gap, "w11_normalizer": w11})
    best = min(r["gap"] for r in rows)
    certificate = best <= -eps / 2.0 + tol
    if not certificate:
        raise NecessityTransferError(
            f"witness not transferable: best rescaled gap {best:.4g} vs "
            f"target {-eps / 2.0 + tol:.4g}"
        )
    return {
        "rows": rows,
        "best_gap": best,
        "target": -eps / 2.0 + tol,
        "certificate": True,
        "x0": x0.x0.tolist(),
        "normal": x0.normal.tolist(),
    }
