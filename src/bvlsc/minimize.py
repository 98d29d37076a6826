"""Nonsmooth first-order minimizer over P1 test fields with clamped vertices.

The solver runs a multistart normalized-subgradient descent with Polyak-style
diminishing steps and a smoothing continuation (the objective is evaluated
with smoothing parameters 1e-1, 1e-2, 1e-3 in turn; the reported value is
always the true nonsmooth objective at the best iterate).  Deterministic
starts (the zero field plus rank-one "tent" fields) make the standard
counterexamples reproducible; remaining restarts are seeded Gaussian fields
scaled to unit gradient total variation.

All restarts advance in lockstep as one (R, nv, M) batch, which the mesh
evaluates as one field on R disjoint copies of itself.  Each restart keeps
its own step size, patience count and best iterate; a restart whose
gradient vanishes waits for the next smoothing stage, and one that runs out
of patience skips all later stages.  Every entry is computed as it would be
for the restart alone, so the result equals that of running the restarts
one after another, and ties still go to the lowest restart.  Batches larger
than BATCH_CELLS cells x restarts advance in chunks.

Objectives evaluate from cell gradients (see the objectives section below),
and each restart keeps the cell gradients of its iterate.  An iteration takes
its smoothed gradient from them with one p1_assemble call, then takes the
P1 gradient of the stepped field, which serves the projection, the
denominator and, unless a rescaling moved the field, the acceptance value.
A rescaled field has its gradients taken once more, so an iteration in
normalize mode, or in plain mode under a cap, costs two P1 gradients and one
assembly.

Constraint handling is by feasible rescaling: an L-infinity cap on cell
gradients or a cap on the gradient total variation shrinks the whole field
back onto the feasible set.  In `normalize` mode the objective must be a
0-homogeneous RayleighQuotient; iterates are renormalized to unit
denominator, and the witness is returned with denominator exactly 1.  A
start whose denominator is below 1e-12 is skipped.

A solve whose cells x restarts x iterations exceed MAX_WORK raises
SolverBudgetError before its first iteration.
"""

from dataclasses import dataclass, field

import numpy as np

from .meshing import row_norms

__all__ = [
    "TestField",
    "SolveResult",
    "SolverOptions",
    "BulkObjective",
    "TVObjective",
    "LinearCombo",
    "RayleighQuotient",
    "FieldEvaluationError",
    "SolverBudgetError",
    "minimize_field",
    "tent_field",
]


class FieldEvaluationError(RuntimeError):
    """Objective returned a non-finite value; carries the offending field."""

    def __init__(self, message, values):
        super().__init__(message)
        self.values = values


# cells x restarts x iterations one solve may take.  The mesh cell budget
# alone lets a 200k-cell qc mesh through, whose solve would run for about an
# hour; the largest solve of the tests and bundled scenarios is the 1,275-cell
# half-ball mesh x 10 restarts x 500 iterations = 6.4e6.
MAX_WORK = 50_000_000


# cells x restarts of one batched evaluation; an iteration advances its
# restarts in chunks of at most this size.  The largest temporaries hold one
# (M, N) matrix per quadrature point, 48 bytes per cell for a scalar field in
# 2D, so a chunk stays under the 128 KiB above which glibc's malloc hands
# memory back to the system and a solve page-faults on every iteration (1,275
# cells: 16 faults per solve at 1 restart per chunk, 85 at 2, 63,872 at 3).
BATCH_CELLS = 2560


class SolverBudgetError(ValueError):
    """Raised before a solve whose cells x restarts x iterations exceed MAX_WORK."""


class TestField:
    """Continuous P1 field with a clamped (zero-valued) vertex set."""

    def __init__(self, mesh, values, clamped):
        self.mesh = mesh
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        self.values = values
        self.clamped = np.asarray(clamped, dtype=np.int64)
        if len(self.clamped) and np.max(np.abs(values[self.clamped])) > 0.0:
            raise ValueError("clamped vertices must be exactly zero")
        self.M = values.shape[1]

    def gradients(self):
        return self.mesh.p1_gradient(self.values)

    def gradient_tv(self):
        return float(np.sum(self.mesh.gradient_masses(self.gradients())))

    def to_json(self):
        return {
            "values": self.values.tolist(),
            "clamped": self.clamped.tolist(),
            "mesh": {
                "vertices": np.asarray(self.mesh.vertices).tolist(),
                "cells": np.asarray(self.mesh.cells).tolist(),
            },
        }


@dataclass
class SolveResult:
    value: float
    witness: TestField
    iterations: int
    restarts_used: int
    stationarity_residual: float
    best_restart: int
    low_confidence: bool
    seed: int
    # per restart: its best value (inf for an unusable start) and why it
    # stopped: "patience", "iteration_cap", "zero_gradient" or "unusable_start"
    restart_values: tuple = ()
    stop_reasons: tuple = ()


@dataclass
class SolverOptions:
    restarts: int = 8
    max_iter: int = 500
    seed: int = 0
    step0: float = 0.0  # 0 means auto
    smoothing: tuple = (1e-1, 1e-2, 1e-3)
    mode: str = "plain"  # or "normalize"
    grad_cap: float = 0.0  # 0 means none
    tv_cap: float = 0.0  # 0 means none
    patience: int = 60
    stationarity_tol: float = 1e-2
    extra_inits: tuple = field(default_factory=tuple)


# -- objectives ---------------------------------------------------------------
#
# An objective evaluates a batch from its cell gradients G (R, nc, M, dim), as
# Mesh.p1_gradient returns them.  from_cells(G, delta) gives the values (R,);
# from_cells(G, delta, with_grad=True) gives the values, a list of per-cell
# arrays (R, nc, M, dim) and a function that turns their p1_assemble images
# into the gradient (R, nv, M).  _assemble stacks the list into one
# p1_assemble call on disjoint mesh copies, so a quotient or a combination of
# terms assembles once and every entry keeps the bits of its own call.
# value and value_and_grad wrap from_cells for one field (nv, M), giving a
# float and an (nv, M) gradient, or a batch (R, nv, M), each entry computed
# as for the field alone.  The solver keeps each restart's cell gradients and
# calls from_cells directly.


def _as_batch(values):
    """(R, nv, M) batch of `values`, and whether they were a single field."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 3:
        return values, False
    if values.ndim == 1:
        values = values[:, None]
    return values[None], True


def _unbatch(single, value, grad=None):
    if single:
        value, grad = float(value[0]), None if grad is None else grad[0]
    return value if grad is None else (value, grad)


def _assemble(mesh, parts, finish):
    """Gradient from the per-cell arrays and finish of from_cells."""
    R = len(parts[0])
    whole = mesh.p1_assemble(parts[0] if len(parts) == 1 else np.concatenate(parts))
    return finish([whole[i * R:(i + 1) * R] for i in range(len(parts))])


def _only(assembled):
    return assembled[0]


class _Objective:
    def value(self, values, delta=0.0):
        batch, single = _as_batch(values)
        return _unbatch(single, self.from_cells(self.mesh.p1_gradient(batch), delta))

    def value_and_grad(self, values, delta=0.0):
        batch, single = _as_batch(values)
        val, parts, finish = self.from_cells(self.mesh.p1_gradient(batch), delta, True)
        return _unbatch(single, val, _assemble(self.mesh, parts, finish))


class BulkObjective(_Objective):
    """E(phi) = sum_cells integral g(x, xi0 + grad phi) dx [- same at xi0]."""

    def __init__(self, mesh, g, xi0=None, subtract_offset=False, quad_order=2):
        self.mesh = mesh
        self.g = g
        self.M = g.M
        self.xi0 = None if xi0 is None else np.asarray(xi0, float).reshape(g.M, g.N)
        self.quad_order = quad_order
        self._pts, self._wts = mesh.quadrature(quad_order)
        self._flat_x = self._pts.reshape(-1, mesh.dim)
        self._nq = self._pts.shape[1]
        self._offset = 0.0
        if subtract_offset:
            xi = np.zeros((g.M, g.N)) if self.xi0 is None else self.xi0
            flat_xi = np.repeat(xi[None], len(self._flat_x), axis=0)
            self._offset = float(np.sum(g(self._flat_x, flat_xi) * self._wts.ravel()))
        self._smooth_cache = {}
        self._tiles = (0, None, None)

    def _g_at(self, delta):
        if delta not in self._smooth_cache:
            self._smooth_cache[delta] = self.g.smoothed(delta)
        return self._smooth_cache[delta]

    def _tiled(self, R):
        """Quadrature points and weights of R mesh copies, built for the
        largest R asked so far; a smaller R takes the leading slice."""
        if R > self._tiles[0]:
            self._tiles = (R, np.tile(self._flat_x, (R, 1)), np.tile(self._wts, (R, 1)))
        return self._tiles[1][: R * len(self._flat_x)], self._tiles[2][: R * len(self._wts)]

    def from_cells(self, grads, delta=0.0, with_grad=False):
        R = len(grads)
        g = self._g_at(delta)
        x, wts = self._tiled(R)
        cell_xi = grads.reshape(-1, g.M, self.mesh.dim)
        if self.xi0 is not None:
            cell_xi = cell_xi + self.xi0
        xi = np.repeat(cell_xi, self._nq, axis=0)
        vals = g(x, xi).reshape(R, -1)
        val = (vals * self._wts.ravel()).sum(axis=-1) - self._offset
        if not with_grad:
            return val
        dg = g.grad_xi(x, xi).reshape(len(wts), self._nq, g.M, self.mesh.dim)
        per_cell = np.einsum("cq,cqmn->cmn", wts, dg)
        return val, [per_cell.reshape(grads.shape)], _only


class TVObjective(_Objective):
    """E(phi) = sum_cells |cell| * s_delta(|grad phi|_F)."""

    def __init__(self, mesh, M):
        self.mesh = mesh
        self.M = M

    def from_cells(self, grads, delta=0.0, with_grad=False):
        mags = row_norms(grads.reshape(len(grads), self.mesh.n_cells, -1))
        if delta > 0:
            mags = np.sqrt(mags**2 + delta**2)
        val = (mags * self.mesh.cell_measures).sum(axis=-1)
        if not with_grad:
            return val
        denom = np.maximum(mags, 1e-300)
        return val, [grads * (self.mesh.cell_measures / denom)[..., None, None]], _only


class LinearCombo(_Objective):
    def __init__(self, terms):
        self.terms = list(terms)
        self.M = self.terms[0][1].M
        self.mesh = self.terms[0][1].mesh

    def from_cells(self, grads, delta=0.0, with_grad=False):
        if not with_grad:
            return sum(c * o.from_cells(grads, delta) for c, o in self.terms)
        total, parts, pieces = 0.0, [], []
        for c, o in self.terms:
            v, p, finish = o.from_cells(grads, delta, True)
            total += c * v
            pieces.append((c, finish, len(parts), len(parts) + len(p)))
            parts += p

        def combine(assembled):
            grad = None
            for c, finish, i, j in pieces:
                g = finish(assembled[i:j])
                grad = c * g if grad is None else grad + c * g
            return grad

        return total, parts, combine


class RayleighQuotient(_Objective):
    """num(phi) / den(phi) for 1-homogeneous numerator and denominator;
    +inf where the denominator is below `den_floor`."""

    def __init__(self, num, den, den_floor=1e-12):
        self.num = num
        self.den = den
        self.den_floor = den_floor
        self.M = num.M
        self.mesh = num.mesh

    def denominator(self, values):
        return self.den.value(values, 0.0)

    def from_cells(self, grads, delta=0.0, with_grad=False):
        if not with_grad:
            d = self.den.from_cells(grads, delta)
            n = self.num.from_cells(grads, delta)
            return np.where(d < self.den_floor, np.inf, n / np.maximum(d, self.den_floor))
        nv, n_parts, n_finish = self.num.from_cells(grads, delta, True)
        dv, d_parts, d_finish = self.den.from_cells(grads, delta, True)
        dv = np.maximum(dv, self.den_floor)
        val = nv / dv
        k = len(n_parts)

        def combine(assembled):
            ng, dg = n_finish(assembled[:k]), d_finish(assembled[k:])
            return (ng - val[:, None, None] * dg) / dv[:, None, None]

        return val, n_parts + d_parts, combine


# -- initial fields -----------------------------------------------------------


def tent_field(mesh, field_dir, space_dir, clamped):
    """Rank-one tent: field_dir * hat(space_dir . x), clamped vertices zeroed."""
    a = np.atleast_1d(np.asarray(field_dir, dtype=float))
    b = np.atleast_1d(np.asarray(space_dir, dtype=float))
    s = mesh.vertices @ b
    lo, hi = float(np.min(s)), float(np.max(s))
    if hi - lo < 1e-14:
        t = np.zeros(len(s))
    else:
        t = 1.0 - np.abs(2.0 * (s - lo) / (hi - lo) - 1.0)
    values = np.outer(t, a)
    values[clamped] = 0.0
    return values


def default_inits(mesh, M, clamped, options, rng):
    inits = []
    if options.mode != "normalize":
        inits.append(np.zeros((mesh.n_vertices, M)))
    for i in range(M):
        for j in range(mesh.dim):
            for sign in (1.0, -1.0):
                a = np.zeros(M)
                a[i] = sign
                b = np.zeros(mesh.dim)
                b[j] = 1.0
                inits.append(tent_field(mesh, a, b, clamped))
    for extra in options.extra_inits:
        v = np.asarray(extra, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        v = v.copy()
        v[clamped] = 0.0
        inits.append(v)
    while len(inits) < options.restarts:
        v = rng.normal(size=(mesh.n_vertices, M))
        v[clamped] = 0.0
        tv = TVObjective(mesh, M).value(v)
        if tv > 1e-12:
            v /= tv
        inits.append(v)
    return inits[: max(options.restarts, len(options.extra_inits) + 1)]


# -- solver -------------------------------------------------------------------


def _shrink(batch, grads, mesh, size, cap):
    """Scale each field of the batch whose size exceeds cap down onto it;
    the cell gradients are taken again if any field moved."""
    over = size > cap
    if not over.any():
        return batch, grads
    factor = np.divide(cap, size, out=np.ones_like(size), where=over)
    batch = batch * factor[:, None, None]
    return batch, mesh.p1_gradient(batch)


def _project(batch, grads, mesh, options):
    """Rescale each field of a batch (R, nv, M) with cell gradients `grads`
    onto the feasible set; returns the fields and their cell gradients."""
    if options.grad_cap > 0:
        mags = row_norms(grads.reshape(len(batch), mesh.n_cells, -1))
        batch, grads = _shrink(batch, grads, mesh, mags.max(axis=-1, initial=0.0),
                               options.grad_cap)
    if options.tv_cap > 0:
        tv = TVObjective(mesh, batch.shape[2]).from_cells(grads)
        batch, grads = _shrink(batch, grads, mesh, tv, options.tv_cap)
    return batch, grads


def _first_nonfinite(x):
    bad = ~np.isfinite(x)
    return int(np.argmax(bad)) if bad.any() else None


def minimize_field(objective, mesh, clamped, options=None):
    """Minimize a field objective over clamped P1 fields; see module docstring."""
    options = options or SolverOptions()
    clamped = np.asarray(clamped, dtype=np.int64)
    n = max(options.restarts, len(options.extra_inits) + 1)  # starts made below
    work = mesh.n_cells * n * options.max_iter
    if work > MAX_WORK:
        raise SolverBudgetError(
            f"solve needs {mesh.n_cells} cells x {n} restarts x "
            f"{options.max_iter} iterations = {work:.3g}, "
            f"over the budget {MAX_WORK:.3g}"
        )
    rng = np.random.default_rng(options.seed)
    inits = default_inits(mesh, objective.M, clamped, options, rng)
    normalize = options.mode == "normalize"
    size = max(1, BATCH_CELLS // mesh.n_cells)

    def chunks(rows):
        return (rows[i:i + size] for i in range(0, len(rows), size))

    # per restart: the current iterate and its cell gradients, the best value
    # and where it was reached
    fields = np.array(inits)
    fields[:, clamped] = 0.0
    grads = np.zeros((n, mesh.n_cells, objective.M, mesh.dim))
    d = np.ones(n)
    for rows in chunks(np.arange(n)):
        fields[rows], G = _project(fields[rows], mesh.p1_gradient(fields[rows]),
                                   mesh, options)
        if normalize:
            d[rows] = objective.den.from_cells(G)
    usable = ~(d < 1e-12)
    fields /= np.where(usable, d, 1.0)[:, None, None]
    if not usable.any():
        raise FieldEvaluationError("no usable start (degenerate inits)", None)
    best = np.full(n, np.inf)
    for rows in chunks(np.flatnonzero(usable)):
        grads[rows] = mesh.p1_gradient(fields[rows])
        best[rows] = objective.from_cells(grads[rows], 0.0)
        bad = _first_nonfinite(best[rows])
        if bad is not None:
            r = rows[bad]
            raise FieldEvaluationError(
                f"objective non-finite at restart {r} init", fields[r])
    best_fields = fields.copy()
    since_improve = np.zeros(n, dtype=np.int64)
    k_global = np.zeros(n, dtype=np.int64)
    hit_cap = np.zeros(n, dtype=bool)
    if options.step0 > 0:
        step0 = np.full(n, options.step0)
    else:
        step0 = 0.3 * np.maximum(np.abs(fields).max(axis=(1, 2), initial=0.0), 0.1)
    alive = usable.copy()  # cleared by patience: no later stage runs
    reasons = np.where(usable, "iteration_cap", "unusable_start").astype(object)

    def advance(rows, delta, active, flat):
        """One iteration of the restarts `rows`, all in the same stage: one
        assembly, and the cell gradients of the step and of its rescaling."""
        _, parts, finish = objective.from_cells(grads[rows], delta, with_grad=True)
        g = _assemble(mesh, parts, finish)
        g[:, clamped] = 0.0
        # one dot per restart, as np.linalg.norm of a single field takes it
        gn = np.sqrt([gr.dot(gr) for gr in g.reshape(len(rows), -1)])
        bad = _first_nonfinite(gn)
        if bad is not None:
            raise FieldEvaluationError("non-finite gradient", fields[rows[bad]])
        zero = gn < 1e-15
        if zero.any():
            active[rows[zero]] = False
            flat[rows[zero]] = True
            rows, g, gn = rows[~zero], g[~zero], gn[~zero]
            if not len(rows):
                return
        alpha = step0[rows] / np.sqrt(1.0 + k_global[rows])
        new = fields[rows] - alpha[:, None, None] * (g / gn[:, None, None])
        new[:, clamped] = 0.0
        new, G = _project(new, mesh.p1_gradient(new), mesh, options)
        if normalize:
            d = objective.den.from_cells(G)
            new /= np.where(d > 1e-12, d, 1.0)[:, None, None]
            G = mesh.p1_gradient(new)
        k_global[rows] += 1
        v = objective.from_cells(G, 0.0)
        bad = _first_nonfinite(v)
        if bad is not None:
            raise FieldEvaluationError("objective non-finite", new[bad])
        fields[rows] = new
        grads[rows] = G
        lb = best[rows]
        better = v < lb - 1e-14 * (1.0 + np.abs(lb))
        up, rest = rows[better], rows[~better]
        best[up] = v[better]
        best_fields[up] = new[better]
        since_improve[up] = 0
        hit_cap[up] = k_global[up] >= options.max_iter - 1
        since_improve[rest] += 1
        out = rest[since_improve[rest] >= options.patience]
        alive[out] = active[out] = False
        reasons[out] = "patience"

    stages = list(options.smoothing) or [0.0]
    iters_per_stage = max(1, options.max_iter // len(stages))
    for delta in stages:
        active = alive.copy()  # cleared by a zero gradient: on to the next stage
        flat = np.zeros(n, dtype=bool)
        for _ in range(iters_per_stage):
            rows = np.flatnonzero(active)
            if not len(rows):
                break
            for part in chunks(rows):
                advance(part, delta, active, flat)
    reasons[alive & flat] = "zero_gradient"

    best_restart = int(np.argmin(best))  # ties go to the lowest restart
    best_val, best_values = best[best_restart], best_fields[best_restart].copy()
    if normalize:
        d = objective.denominator(best_values)
        if d > 1e-12:
            best_values = best_values / d
        best_val = objective.value(best_values, 0.0)

    delta_min = min(options.smoothing) if options.smoothing else 0.0
    _, gfin = objective.value_and_grad(best_values, delta_min)
    gfin[clamped] = 0.0
    residual = float(np.max(np.abs(gfin), initial=0.0))
    low_conf = bool(hit_cap[best_restart] and residual > options.stationarity_tol)
    witness = TestField(mesh, best_values, clamped)
    return SolveResult(
        value=float(best_val),
        witness=witness,
        iterations=int(k_global.sum()),
        restarts_used=n,
        stationarity_residual=residual,
        best_restart=best_restart,
        low_confidence=low_conf,
        seed=options.seed,
        restart_values=tuple(best.tolist()),
        stop_reasons=tuple(reasons.tolist()),
    )
