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

A table is evaluated as a whole.  Each kind is a rule for the grid of
member n (interval_mesh_with's points in 1D, every member's from one
meshing.interval_grids call; rectangle_mesh's lines for the 2D
oscillation) and for its values as arrays in x and n; a table stacks the
members' vertices, cells, values and atoms, and one geometry pass over all
their cells (meshing.simplex_geometry and meshing.cell_quadrature) gives the
quadrature and the gradients for one functional.eval_stack, with no mesh or
function per member.  generate(spec, n) wraps the one-member table into its
Mesh and BVFunction.  The necessity witness stacks its rescaled copies of
the witness mesh the same way.  Each value is bit-equal to eval_F on the
member alone.
"""

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bv import BVFunction
from .functional import MeasureStack, _check_dims, batches, eval_F, eval_stack
from .meshing import (QUADRATURE, BoundaryPoint, Domain, Mesh, _interval_cells, cell_quadrature,
                      interval_grids, interval_mesh_with, rectangle_grids, rectangle_lines,
                      row_norms, simplex_geometry)

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
    """Member n of the sequence described by spec: the one-member table of
    _table wrapped into its mesh and function, so member n of a table and
    generate(spec, n) hold the same vertices, cell values and atoms."""
    _check_index(spec, n)
    rule = _rule(spec)
    table = _table(spec, rule, _members(spec, rule, [n]))
    mesh = Mesh(table.vertices, table.cells, domain=spec.domain)
    return BVFunction(mesh, table.cell_values, table.atom_v, table.jumps)


def _check_index(spec, n):
    if not 1 <= n <= spec.n_max:
        raise ValueError(f"index {n} outside [1, {spec.n_max}]")
    if spec.kind not in _RULES:
        raise ValueError(f"unknown sequence kind {spec.kind!r}")


def _rule(spec):
    """The _IntervalRule of a 1D kind, or the _RectangleRule of the 2D
    oscillation."""
    if spec.kind == "fixed_trace_oscillation" and spec.domain.dim != 1:
        return _oscillation_2d(spec)
    return _RULES[spec.kind](spec)


class _IntervalRule(NamedTuple):
    """A 1D kind: the grid step h and the points required(n) of member n,
    and its values, either continuous P1 with the vertex values
    vertex_values(x, n) or cellwise constant with the cell values
    cell_values(centroid, n) and a jump at each interface where they differ.
    The value rules take arrays x (or centroids) and n of one length."""

    h: float
    required: object
    vertex_values: object = None
    cell_values: object = None


def _jump_migration(spec):
    a, b = _interval_bounds(spec.domain)
    if a > 0.0 or b < 1.0:
        raise ValueError("jump_migration needs an interval containing (0, 1)")
    return _IntervalRule(spec.params.get("h", 1.0 / 16.0),
                         lambda n: [0.0, 1.0 / n],
                         cell_values=lambda c, n: (c > 0.0) & (c < 1.0 / n))


def _boundary_rescale(spec):
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
    h0 = spec.params.get("h", 1.0 / 16.0)
    _interval_cells(a, b, h0, q + 1)  # the budget, before the grid is built
    ref = np.arange(q + 1) / q  # reference grid on [0, 1]

    def required(n):
        if x0 + inward / n < a - 1e-12 or x0 + inward / n > b + 1e-12:
            raise ValueError("profile support (x0, x0 + 1/n) leaves the domain")
        return x0 + inward * ref / n

    def values(x, n):
        s = inward * (x - x0) * n
        # N = 1: the k^(N-1) amplitude factor is 1
        return np.where((s >= 0.0) & (s <= 1.0), prof(np.clip(s, 0.0, 1.0)), 0.0)

    return _IntervalRule(h0, required, values)


def _fixed_trace_oscillation(spec):
    amp = float(spec.params.get("amplitude", 1.0))
    a, b = _interval_bounds(spec.domain)

    def values(x, n):
        period = (b - a) / n
        t = (x - a) / period
        saw = 1.0 - np.abs(2.0 * (t - np.floor(t)) - 1.0)
        return amp * 0.5 * period * saw

    return _IntervalRule(b - a, lambda n: a + 0.5 * ((b - a) / n) * np.arange(2 * n + 1),
                         values)


class _RectangleRule(NamedTuple):
    """The 2D kind: member n lies on rectangle_mesh's grid of 2n x max(4, n)
    quads of the rectangle lo..hi, with the vertex values
    vertex_values(xy, n) at the vertices xy (V, 2), n an array of length V."""

    lo: np.ndarray
    hi: np.ndarray
    vertex_values: object


def _oscillation_2d(spec):
    """The 2D laminate in the e1 direction with a zero boundary layer of
    width 1/n."""
    amp = float(spec.params.get("amplitude", 1.0))
    if spec.domain.kind != "polygon":
        raise ValueError("2D oscillation needs a polygon domain")
    verts = spec.domain.params["vertices"]
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    if len(verts) != 4 or not np.allclose(
        sorted(map(tuple, verts)), sorted(map(tuple, [
            [lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]))
    ):
        raise ValueError("2D oscillation supports axis-aligned rectangles only")

    def values(xy, n):
        period = (hi[0] - lo[0]) / n
        t = (xy[:, 0] - lo[0]) / period
        saw = 1.0 - np.abs(2.0 * (t - np.floor(t + 1e-12)) - 1.0)
        layer = 1.0 / n
        d2 = np.minimum(xy[:, 1] - lo[1], hi[1] - xy[:, 1])
        plateau = np.clip(d2 / layer, 0.0, 1.0)
        return amp * 0.5 * period * saw * plateau

    return _RectangleRule(lo, hi, values)


def _pure_boundary_concentration(spec):
    if spec.domain.dim != 1:
        raise ValueError("pure_boundary_concentration is implemented on intervals")
    a, b = _interval_bounds(spec.domain)
    amp = float(spec.params.get("amplitude", 0.25))
    q = int(spec.params.get("resolution", 4))
    h0 = (b - a) / 8.0
    _interval_cells(a, b, h0, 2 * (q + 1))  # the budget, before the grid is built
    steps = np.arange(q + 1)

    def required(n):
        rn = 1.0 / n
        return np.concatenate([a + rn * steps / q, b - rn * steps / q])

    def values(x, n):
        rn = 1.0 / n
        left = np.clip(1.0 - np.abs(2.0 * (x - a) / rn - 1.0), 0.0, 1.0)
        right = np.clip(1.0 - np.abs(2.0 * (b - x) / rn - 1.0), 0.0, 1.0)
        return amp * (left + right)

    return _IntervalRule(h0, required, values)


_RULES = {
    "jump_migration": _jump_migration,
    "boundary_rescale": _boundary_rescale,
    "fixed_trace_oscillation": _fixed_trace_oscillation,
    "pure_boundary_concentration": _pure_boundary_concentration,
}
SEQUENCE_KINDS = tuple(_RULES)


def _members(spec, rule, ns):
    """(n, grid input, cells) for each member n of ns, checked against the
    cell budget before any grid is built: the required points of
    interval_grids and a bound on the cells for a 1D kind, the x and y
    lines of rectangle_mesh and its cell count for the 2D oscillation."""
    if isinstance(rule, _RectangleRule):
        lo, hi = rule.lo, rule.hi
        return [(n, rectangle_lines(lo[0], hi[0], lo[1], hi[1], 2 * n, max(4, n)),
                 4 * n * max(4, n)) for n in ns]
    a, b = _interval_bounds(spec.domain)
    required = [np.asarray(rule.required(n), dtype=float).ravel() for n in ns]
    return [(n, r, _interval_cells(a, b, rule.h, r.size) + r.size)
            for n, r in zip(ns, required)]


class _Table(NamedTuple):
    """Members one after another: the vertices (V, dim), the cells
    (C, dim+1) of each member among its own vertices, the cell values
    (C, dim+1, 1), the jumps (A, 1) at the vertices atom_v (A,) (1D only;
    a BVFunction's facets and jumps), and the index of each member's first
    cell and first atom."""

    vertices: np.ndarray
    cells: np.ndarray
    cell_values: np.ndarray
    atom_v: np.ndarray
    jumps: np.ndarray
    cell_starts: list
    atom_starts: list


def _table(spec, rule, members):
    """The _Table of the members (n, grid input, cells) of _members, their
    grids built at once."""
    ns = [n for n, _, _ in members]
    if isinstance(rule, _RectangleRule):
        return _rectangle_table(rule, ns, [lines for _, lines, _ in members])
    a, b = _interval_bounds(spec.domain)
    return _interval_table(rule, ns, *interval_grids(a, b, rule.h, [r for _, r, _ in members]))


def _interval_table(rule, ns, x, sizes):
    """The cells, values and atoms of each member, its sizes[i] vertices
    among the stacked coordinates x, are those of interval_mesh_with and the
    BVFunction constructors on its own mesh."""
    # no cell from a member's last vertex to the next one's first
    left = np.delete(np.arange(len(x) - 1), np.cumsum(sizes[:-1], dtype=np.int64) - 1)
    # the index n per vertex and per cell
    n_vertex, n_cell = np.repeat(ns, sizes), np.repeat(ns, np.subtract(sizes, 1))
    cells = left[:, None] + np.arange(2)
    cell_starts = list(itertools.accumulate([s - 1 for s in sizes[:-1]], initial=0))
    if rule.vertex_values is not None:
        values = rule.vertex_values(x, n_vertex)
        return _Table(x[:, None], cells, values[:, None].take(cells, axis=0),
                      np.zeros(0, dtype=np.int64), np.zeros((0, 1)), cell_starts, [0] * len(ns))
    centroids = 0.5 * (x[cells[:, 0]] + x[cells[:, 1]])
    vpc = rule.cell_values(centroids, n_cell).astype(float)
    vpc = vpc[:, None]
    jumps = vpc[1:] - vpc[:-1]
    at = np.flatnonzero((cells[:-1, 1] == cells[1:, 0]) & (jumps != 0).any(axis=1))
    return _Table(x[:, None], cells, np.repeat(vpc[:, None, :], 2, axis=1),
                  cells[at, 1], jumps[at], cell_starts,
                  np.searchsorted(at, cell_starts).tolist())


def _rectangle_table(rule, ns, lines):
    """The vertices and cells of each member are those of rectangle_mesh on
    its lines, and its values those of BVFunction.from_vertex_values."""
    vertices, cells = rectangle_grids(lines)
    sizes = [len(xs) * len(ys) for xs, ys in lines]
    values = rule.vertex_values(vertices, np.repeat(ns, sizes))
    quads = [2 * (len(xs) - 1) * (len(ys) - 1) for xs, ys in lines[:-1]]
    return _Table(vertices, cells, values[:, None].take(cells, axis=0),
                  np.zeros(0, dtype=np.int64), np.zeros((0, 1)),
                  list(itertools.accumulate(quads, initial=0)), [0] * len(ns))


def _stacked_geometry(vertices, cells):
    """The oriented cells, measures, shape gradients, quadrature points and
    weights of stacked members' cells, in one pass over all of them."""
    cells, measures, grads, _ = simplex_geometry(vertices, cells)
    return (cells, measures, grads) + cell_quadrature(vertices, cells, measures)


def _stack_totals(f, finf, stack):
    """The total of each member of the MeasureStack, as eval_F gives it."""
    _, _, bulk, singular = eval_stack(f, finf, stack)
    return [b + s for b, s in zip(bulk, singular)]


def _table_totals(f, finf, spec, n_values, limit=None):
    """eval_F(f, finf, generate(spec, n)).total for n in n_values and then,
    given limit, the value at 0.0 * generate(spec, limit), bit for bit.

    A table is evaluated without a mesh or function per member: one
    geometry pass over the cells of every member gives the quadrature and
    the gradients, and eval_stack sums each member's cells and charges.
    Every member is checked against the cell budget before any grid is
    built; a table over MAX_CELLS cells is evaluated in runs of members
    whose cell bounds sum under it, each run's grids built at once."""
    ns = list(n_values) + ([limit] if limit else [])
    for n in ns:
        _check_index(spec, n)
    rule = _rule(spec)
    _check_dims(f, 1, spec.domain.dim)
    totals = []
    for batch in batches(_members(spec, rule, ns), lambda member: member[2]):
        table = _table(spec, rule, batch)
        cv, c0, a0 = table.cell_values, table.cell_starts[-1], table.atom_starts[-1]
        atom_v, jumps = table.atom_v, table.jumps
        if limit and len(totals) + len(batch) == len(ns):  # 0.0 * the last member
            cv[c0:] = 0.0 * cv[c0:]
            atom_v, jumps = atom_v[:a0], jumps[:a0]
        _, _, grads, pts, wts = _stacked_geometry(table.vertices, table.cells)
        masses = np.sqrt(jumps[:, 0] * jumps[:, 0])
        totals += _stack_totals(f, finf, MeasureStack(
            pts, wts, np.einsum("cim,cid->cmd", cv, grads),
            table.vertices[atom_v], (jumps / masses[:, None])[:, :, None], masses,
            table.cell_starts, table.atom_starts))
    return totals


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
        n_values = range(1, spec.n_max + 1)
    n_values = list(n_values)
    *values, limit_value = _table_totals(f, finf, spec, n_values, limit=min(8, spec.n_max))
    table = list(zip(n_values, values))
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


def limit_energy_check(f, profile, x0, domain, k_values=(1, 2, 4, 8, 16, 32, 64)):
    """Compare rescaled boundary-profile energies with the half-ball integral.

    For positively 1-homogeneous, x-independent f and a flat boundary, the
    energies F(u_k) converge to the integral of f(grad profile) over the unit
    half-ball; the report carries the table and the relative gap at the last k.
    Profiles are sampled at resolution 64.
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
    resolution = 64
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
    table = list(zip(k_values, _table_totals(f, finf, spec, k_values)))
    gap = abs(table[-1][1] - ref_value) / max(abs(ref_value), 1e-12)
    return {"table": table, "halfball_value": ref_value, "relative_gap": gap}


class NecessityTransferError(RuntimeError):
    """Rescaled copies of a discrete witness failed to carry negative energy."""


def necessity_witness(f, finf, x0, witness, eps):
    """Executable certificate for the necessity of the boundary condition.

    Given a half-ball witness field with quotient value -eps < 0, builds the
    shrinking normalized copies u_n, n = 2, 4, ..., 64 (support in the
    1/n-ball at x0, unit W^{1,1} norm) and verifies that the energy gap
    F(u_n) - F(0), evaluated patch-locally with the full integrand f, drops
    to -eps/2 + 1e-3 at some n.
    Raises NecessityTransferError if the rescaled copies lose the violation.
    """
    if eps <= 0:
        raise ValueError("precondition unmet: needs a reported violation (eps > 0)")
    if not isinstance(x0, BoundaryPoint):
        raise TypeError("x0 must be a BoundaryPoint")
    tv = witness.gradient_tv()
    if tv <= 1e-12:
        raise NecessityTransferError("witness has no gradient mass")
    values = witness.values / tv
    wmesh = witness.mesh
    _check_dims(f, values.shape[1], wmesh.dim)
    rows = []
    # runs of copies under MAX_CELLS cells, each copy with its zero
    for batch in batches((2, 4, 8, 16, 32, 64), lambda n: 2 * wmesh.n_cells):
        rows += _certificate_rows(f, finf, x0, wmesh, values, batch)
    best = min(r["gap"] for r in rows)
    target = -eps / 2.0 + 1e-3
    if not best <= target:
        raise NecessityTransferError(
            f"witness not transferable: best rescaled gap {best:.4g} vs "
            f"target {target:.4g}"
        )
    return {
        "rows": rows,
        "best_gap": best,
        "target": target,
        "certificate": True,
        "x0": x0.x0.tolist(),
        "normal": x0.normal.tolist(),
    }


def _certificate_rows(f, finf, x0, wmesh, values, n_values):
    """The rows of necessity_witness for the copies n of n_values, stacked:
    copy n lies on the witness mesh scaled by 1/n about x0 and has the
    vertex values n^(N-1) values / w11, w11 its W^{1,1} norm before that
    division.  The copies and their zeros are one eval_stack, each value
    bit-equal to eval_F of the copy built as a Mesh and a BVFunction."""
    N, M = wmesh.dim, values.shape[1]
    k, C = len(n_values), wmesh.n_cells
    ns = np.array(n_values)
    verts = (x0.x0 + (1.0 / ns)[:, None, None] * wmesh.vertices).reshape(-1, N)
    cells = (wmesh.cells + wmesh.n_vertices * np.arange(k)[:, None, None]).reshape(-1, N + 1)
    cells, measures, grads, pts, wts = _stacked_geometry(verts, cells)
    amps = np.array([float(n ** (N - 1)) for n in n_values])
    cv = (amps[:, None, None] * values).reshape(-1, M).take(cells, axis=0)
    # W^{1,1} norms per copy: BVFunction.l1_norm and Mesh.gradient_masses
    l1 = wts * np.linalg.norm(np.einsum("qi,cim->cqm", QUADRATURE[N][0], cv), axis=2)
    g = np.einsum("cim,cid->cmd", cv, grads)
    mass = row_norms(g.reshape(len(g), -1)) * measures
    norms = [float(np.sum(l1[i * C:(i + 1) * C])) + float(np.sum(mass[i * C:(i + 1) * C]))
             for i in range(k)]
    un = (np.repeat([1.0 / w for w in norms], C)[:, None, None] * cv).reshape(k, C, N + 1, M)
    # member 2i is copy i and member 2i + 1 its zero, on the same cells
    pairs = np.stack([un, 0.0 * un], axis=1).reshape(-1, N + 1, M)

    def twice(a):
        return np.repeat(a.reshape((k, C) + a.shape[1:]), 2, axis=0).reshape((-1,) + a.shape[1:])

    totals = _stack_totals(f, finf, MeasureStack(
        twice(pts), twice(wts), np.einsum("cim,cid->cmd", pairs, twice(grads)),
        np.zeros((0, N)), np.zeros((0, M, N)), np.zeros(0), list(range(0, 2 * k * C, C)),
        [0] * (2 * k)))
    return [{"n": n, "gap": totals[2 * i] - totals[2 * i + 1], "w11_normalizer": w11}
            for i, (n, w11) in enumerate(zip(n_values, norms))]
