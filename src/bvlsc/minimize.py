"""Nonsmooth first-order minimizer over P1 test fields with clamped vertices.

The solver runs a multistart normalized-subgradient descent with Polyak-style
diminishing steps and a smoothing continuation (the objective is evaluated
with smoothing parameters 1e-1, 1e-2, 1e-3 in turn; the reported value is
always the true nonsmooth objective at the best iterate).  Deterministic
starts (the zero field plus rank-one "tent" fields) make the standard
counterexamples reproducible; remaining restarts are seeded Gaussian fields
scaled to unit gradient total variation.

Constraint handling is by feasible rescaling: an L-infinity cap on cell
gradients or a cap on the gradient total variation shrinks the whole field
back onto the feasible set.  In `normalize` mode the objective must be a
0-homogeneous quotient; iterates are renormalized to unit denominator, and
the witness is returned with denominator exactly 1.

A solve whose cells x restarts x iterations exceed MAX_WORK raises
SolverBudgetError before its first iteration.
"""

from dataclasses import dataclass, field

import numpy as np

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


class BulkObjective:
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

    def _g_at(self, delta):
        if delta not in self._smooth_cache:
            self._smooth_cache[delta] = self.g.smoothed(delta)
        return self._smooth_cache[delta]

    def _cell_xi(self, values):
        grads = self.mesh.p1_gradient(values)
        if self.xi0 is not None:
            grads = grads + self.xi0
        return grads

    def value(self, values, delta=0.0):
        g = self._g_at(delta)
        xi = np.repeat(self._cell_xi(values), self._nq, axis=0)
        return float(np.sum(g(self._flat_x, xi) * self._wts.ravel())) - self._offset

    def value_and_grad(self, values, delta=0.0):
        g = self._g_at(delta)
        cell_xi = self._cell_xi(values)
        xi = np.repeat(cell_xi, self._nq, axis=0)
        vals = g(self._flat_x, xi)
        val = float(np.sum(vals * self._wts.ravel())) - self._offset
        dg = g.grad_xi(self._flat_x, xi).reshape(
            self.mesh.n_cells, self._nq, g.M, self.mesh.dim
        )
        per_cell = np.einsum("cq,cqmn->cmn", self._wts, dg)
        return val, self.mesh.p1_assemble(per_cell)


class TVObjective:
    """E(phi) = sum_cells |cell| * s_delta(|grad phi|_F)."""

    def __init__(self, mesh, M):
        self.mesh = mesh
        self.M = M

    @staticmethod
    def _smoothed_norms(g, delta):
        mags = np.linalg.norm(g.reshape(len(g), -1), axis=1)
        return np.sqrt(mags**2 + delta**2) if delta > 0 else mags

    def value(self, values, delta=0.0):
        mags = self._smoothed_norms(self.mesh.p1_gradient(values), delta)
        return float(np.sum(mags * self.mesh.cell_measures))

    def value_and_grad(self, values, delta=0.0):
        g = self.mesh.p1_gradient(values)
        mags = self._smoothed_norms(g, delta)
        val = float(np.sum(mags * self.mesh.cell_measures))
        denom = np.maximum(mags, 1e-300)
        per_cell = g * (self.mesh.cell_measures / denom)[:, None, None]
        return val, self.mesh.p1_assemble(per_cell)


class LinearCombo:
    def __init__(self, terms):
        self.terms = list(terms)
        self.M = self.terms[0][1].M

    def value(self, values, delta=0.0):
        return sum(c * o.value(values, delta) for c, o in self.terms)

    def value_and_grad(self, values, delta=0.0):
        total, grad = 0.0, None
        for c, o in self.terms:
            v, g = o.value_and_grad(values, delta)
            total += c * v
            grad = c * g if grad is None else grad + c * g
        return total, grad


class RayleighQuotient:
    """num(phi) / den(phi) for 1-homogeneous numerator and denominator."""

    def __init__(self, num, den, den_floor=1e-12):
        self.num = num
        self.den = den
        self.den_floor = den_floor
        self.M = num.M

    def denominator(self, values):
        return self.den.value(values, 0.0)

    def value(self, values, delta=0.0):
        d = self.den.value(values, delta)
        if d < self.den_floor:
            return np.inf
        return self.num.value(values, delta) / d

    def value_and_grad(self, values, delta=0.0):
        nv, ng = self.num.value_and_grad(values, delta)
        dv, dg = self.den.value_and_grad(values, delta)
        dv = max(dv, self.den_floor)
        val = nv / dv
        grad = (ng - val * dg) / dv
        return val, grad


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


def _project(values, mesh, options):
    if options.grad_cap > 0:
        g = mesh.p1_gradient(values)
        mx = float(np.max(np.linalg.norm(g.reshape(len(g), -1), axis=1), initial=0.0))
        if mx > options.grad_cap:
            values = values * (options.grad_cap / mx)
    if options.tv_cap > 0:
        tv = TVObjective(mesh, values.shape[1]).value(values)
        if tv > options.tv_cap:
            values = values * (options.tv_cap / tv)
    return values


def minimize_field(objective, mesh, clamped, options=None):
    """Minimize a field objective over clamped P1 fields; see module docstring."""
    options = options or SolverOptions()
    clamped = np.asarray(clamped, dtype=np.int64)
    M = objective.M
    rng = np.random.default_rng(options.seed)
    inits = default_inits(mesh, M, clamped, options, rng)
    work = mesh.n_cells * len(inits) * options.max_iter
    if work > MAX_WORK:
        raise SolverBudgetError(
            f"solve needs {mesh.n_cells} cells x {len(inits)} restarts x "
            f"{options.max_iter} iterations = {work:.3g}, "
            f"over the budget {MAX_WORK:.3g}"
        )

    best_val = np.inf
    best_values = None
    best_restart = -1
    best_hit_cap = False
    total_iters = 0
    normalize = options.mode == "normalize"

    for ridx, values in enumerate(inits):
        values = values.copy()
        values[clamped] = 0.0
        values = _project(values, mesh, options)
        if normalize:
            d = objective.denominator(values)
            if d < 1e-12:
                continue
            values = values / d
        v0 = objective.value(values, 0.0)
        if not np.isfinite(v0):
            raise FieldEvaluationError(
                f"objective non-finite at restart {ridx} init", values
            )
        local_best, local_best_values = v0, values.copy()
        since_improve = 0
        hit_cap = False
        scale = max(float(np.max(np.abs(values), initial=0.0)), 0.1)
        step0 = options.step0 if options.step0 > 0 else 0.3 * scale
        stages = list(options.smoothing) or [0.0]
        iters_per_stage = max(1, options.max_iter // len(stages))
        k_global = 0
        stop = False
        for delta in stages:
            if stop:
                break
            for k in range(iters_per_stage):
                _, g = objective.value_and_grad(values, delta)
                g[clamped] = 0.0
                gn = float(np.linalg.norm(g))
                if not np.isfinite(gn):
                    raise FieldEvaluationError("non-finite gradient", values)
                if gn < 1e-15:
                    break
                alpha = step0 / np.sqrt(1.0 + k_global)
                values = values - alpha * (g / gn)
                values[clamped] = 0.0
                values = _project(values, mesh, options)
                if normalize:
                    d = objective.denominator(values)
                    if d > 1e-12:
                        values = values / d
                k_global += 1
                total_iters += 1
                v = objective.value(values, 0.0)
                if not np.isfinite(v):
                    raise FieldEvaluationError("objective non-finite", values)
                if v < local_best - 1e-14 * (1.0 + abs(local_best)):
                    local_best, local_best_values = v, values.copy()
                    since_improve = 0
                    hit_cap = k_global >= options.max_iter - 1
                else:
                    since_improve += 1
                    if since_improve >= options.patience:
                        stop = True
                        break
        if local_best < best_val:
            best_val = local_best
            best_values = local_best_values
            best_restart = ridx
            best_hit_cap = hit_cap

    if best_values is None:
        raise FieldEvaluationError("no usable start (degenerate inits)", None)

    if normalize:
        d = objective.denominator(best_values)
        if d > 1e-12:
            best_values = best_values / d
        best_val = objective.value(best_values, 0.0)

    delta_min = min(options.smoothing) if options.smoothing else 0.0
    _, gfin = objective.value_and_grad(best_values, delta_min)
    gfin[clamped] = 0.0
    residual = float(np.max(np.abs(gfin), initial=0.0))
    low_conf = bool(best_hit_cap and residual > options.stationarity_tol)
    witness = TestField(mesh, best_values, clamped)
    return SolveResult(
        value=float(best_val),
        witness=witness,
        iterations=total_iters,
        restarts_used=len(inits),
        stationarity_residual=residual,
        best_restart=best_restart,
        low_confidence=low_conf,
        seed=options.seed,
    )
