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

The per-restart state (iterate, gradient, best value and iterate, step
count, patience count, copy and clamped set) is one slab whose leading rows
are the restarts still iterating, in restart order: a chunk is a slice of
them and its state a view, with no gathers or scatters.  A restart that
stops (patience, a zero gradient, its problem's error or certification)
leaves the prefix by a stable permutation of the rows at the end of the
iteration (of the chunk's rows, while the chunk runs), and a new stage
brings the live restarts back to the front.  The rows return to restart
order before the results are assembled.  A solve is low_confidence when its
best restart last improved at or next to the iteration cap the stages allow
(len(smoothing) x (max_iter // len(smoothing)) iterations) and its
stationarity residual exceeds STATIONARITY_TOL.

A family of independent problems advances the same way (minimize_fields):
the restarts of all problems form one batch, problem p on copy p of an
objective whose parameters vary per copy (BulkObjective's integrand point,
xi0 and offset; the meshes of a MeshStack, which share one cells array).
Each problem keeps its own starts, clamped set, best restart,
normalization and residual, so its SolveResult equals minimize_field's for
the problem alone; a problem whose objective turns non-finite, or whose
solve is over the work budget, ends with its error and leaves the others
unchanged.  minimize_field is the one-problem case.

Objectives evaluate from cell gradients (see the objectives section below),
and each restart keeps the smoothed gradient of its iterate.  An iteration
steps along it and takes the P1 gradient of the stepped field, which serves
the projection and the denominator; a rescaling (a cap, or a quotient's
unit denominator) scales the cell gradients with the field.  One from_cells
call on those cell gradients then gives both the exact value, for
acceptance, and the derivative of the smoothed value with respect to the
cell gradients, one array of the batch's shape, which one p1_assemble call
on the batch's rows turns into the gradient the next iteration steps along;
a quotient combines the per-cell arrays of its two terms first.  So
an iteration costs one P1 gradient, one objective evaluation (one integrand
pass, Integrand.evaluate, for a BulkObjective) and one assembly.  A new
smoothing stage evaluates its live restarts once more at its own smoothing.

Constraint handling is by feasible rescaling: an L-infinity cap on cell
gradients or a cap on the gradient total variation shrinks the whole field
back onto the feasible set.  An objective with a denominator (a
0-homogeneous RayleighQuotient) is solved normalized: its starts have no
zero field, iterates are renormalized to unit denominator, and the witness
is returned with denominator exactly 1.  A start whose denominator is below
DEN_FLOOR is skipped.

A solve whose cells x restarts x iterations exceed MAX_WORK raises (or, in
a family, ends with) SolverBudgetError before its first iteration.

Certified stops: a problem may come with a floor, a proven lower bound on
its objective that the caller derives (the solver never infers one).  Once
the starts are evaluated, and after every full iteration (all chunks
advanced, so a problem stops at the same point alone and in a family), a
problem whose best exact value is <= its floor ends: no descent can beat
the value it has, so its live restarts stop with reason "certified".  The
best restart, final renormalization and residual are then taken as for any
other stop.  A problem certified by a start reports iterations 0, and its
stationarity residual is that of the start field: the residual measures the
smoothed gradient at the witness, which need not be small at a nonsmooth
minimum, and low_confidence stays False because the cap was never hit.  A
problem without a floor runs exactly as it would without this rule.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .meshing import row_norms

__all__ = [
    "TestField",
    "SolveResult",
    "SolverOptions",
    "BulkObjective",
    "TVObjective",
    "RayleighQuotient",
    "FieldEvaluationError",
    "SolverBudgetError",
    "minimize_field",
    "minimize_fields",
    "tent_field",
]


class FieldEvaluationError(RuntimeError):
    """Objective returned a non-finite value; carries the offending field."""

    def __init__(self, message, values):
        super().__init__(message)
        self.values = values


# a quotient's denominator below this is no field: the quotient reads +inf,
# a start is skipped and a field is not rescaled by it
DEN_FLOOR = 1e-12


# cells x restarts x iterations one solve may take.  The mesh cell budget
# alone lets a 200k-cell qc mesh through, whose solve would run for about an
# hour.  The bundled scenarios run no solve (their checks take closed forms);
# the largest solves of the tests are on the 1,275-cell half-ball mesh.
MAX_WORK = 50_000_000


# cells x restarts of one batched evaluation; an iteration advances its
# restarts in chunks of at most this size.  The largest temporaries hold one
# (M, N) matrix per quadrature point, 48 bytes per cell for a scalar field in
# 2D, so a chunk stays under the 128 KiB above which glibc's malloc hands
# memory back to the system and a solve page-faults on every iteration (1,275
# cells: 16 faults per solve at 1 restart per chunk, 85 at 2, 63,872 at 3).
BATCH_CELLS = 2560


# a solve whose best restart last improved at the iteration cap is low
# confidence when its stationarity residual (the largest entry of its final
# gradient off the clamped set, at the finest smoothing) exceeds this
STATIONARITY_TOL = 1e-2


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
    # per restart: its best value (inf for an unusable start) and why it
    # stopped: "patience", "iteration_cap", "zero_gradient", "unusable_start"
    # or "certified" (its problem reached its floor)
    restart_values: tuple = ()
    stop_reasons: tuple = ()


@dataclass
class SolverOptions:
    restarts: int = 8
    max_iter: int = 500
    seed: int = 0
    step0: float = 0.0  # 0 means auto
    smoothing: tuple = (1e-1, 1e-2, 1e-3)
    grad_cap: float = 0.0  # 0 means none
    tv_cap: float = 0.0  # 0 means none
    patience: int = 60
    extra_inits: tuple = field(default_factory=tuple)


# -- objectives ---------------------------------------------------------------
#
# An objective evaluates a batch from its cell gradients G (R, nc, M, dim), as
# Mesh.p1_gradient returns them.  from_cells(G, delta) gives the values (R,);
# from_cells(G, delta, with_grad=True) gives (values, exact, dG): the values,
# the exact (delta 0) values and dG (R, nc, M, dim), the derivative of the
# smoothed values with respect to G.  The exact values carry the bits of
# from_cells(G, 0.0), so the solver accepts an iterate and takes its next
# gradient from one call.  p1_assemble is the adjoint of p1_gradient, so
# p1_assemble(dG) is the gradient (R, nv, M) with respect to the vertex
# values; being linear, it serves a quotient once its per-cell arrays are
# combined: (dN - q dD) / D for a RayleighQuotient of value q (a weighted sum
# of terms is one composite integrand).  value and value_and_grad wrap
# from_cells for one field (nv, M), giving a float and an (nv, M) gradient,
# or a batch (R, nv, M), each entry computed as for the field alone.  The
# solver calls from_cells directly.
#
# An objective of P copies (a family, see BulkObjective) evaluates a batch of
# fields with field r on copy on[r]; `on` None puts field p on copy p of a
# batch of P.  An objective of one copy ignores `on` and serves any batch.


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


def _on(a, on):
    """The entries of a per-copy array a (P, ...) for a batch on copies `on`;
    a single entry serves every field."""
    return a if on is None or len(a) == 1 else a[on]


def _placed(objective, on):
    """`on` as keyword arguments for a call of `objective`.  An objective of
    one copy is called without it, so that wrappers taking no `on` (such as
    benchmarks/tracing.py's _CountingObjective) still serve."""
    return {"on": on} if objective.copies > 1 else {}


class _Objective:
    # the copies of a family (see BulkObjective); one copy serves every field
    copies = 1

    def value(self, values, delta=0.0, on=None):
        batch, single = _as_batch(values)
        G = self.mesh.p1_gradient(batch, on)
        return _unbatch(single, self.from_cells(G, delta, **_placed(self, on)))

    def value_and_grad(self, values, delta=0.0, on=None):
        batch, single = _as_batch(values)
        G = self.mesh.p1_gradient(batch, on)
        val, _, dG = self.from_cells(G, delta, True, **_placed(self, on))
        return _unbatch(single, val, self.mesh.p1_assemble(dG, on))


class BulkObjective(_Objective):
    """E(phi) = sum_cells integral g(x, grad phi) dx, or, given xi0,
    sum_cells integral g(x, xi0 + grad phi) dx minus the same at phi = 0.

    A frozen integrand (freeze_x) is evaluated as its base at the frozen
    point, once per cell, and its values are repeated over the quadrature
    points of the cell.

    Copies: `mesh` may be a MeshStack, `g` a list of integrands frozen from one
    base at different points, and `xi0` a stack (P, M, N) of matrices.  Copy p
    takes the p-th entry of each (a single entry serves every copy), and each
    field of a batch evaluates on its copy as the objective of that copy's
    entries computes it.
    """

    def __init__(self, mesh, g, xi0=None):
        gs = list(g) if isinstance(g, (list, tuple)) else [g]
        bases = [gi.frozen or (gi, None) for gi in gs]
        self.g = bases[0][0]
        if any(b is not self.g for b, _ in bases) or len({x is None for _, x in bases}) > 1:
            raise ValueError("the copies of a BulkObjective need one integrand, "
                             "frozen at every copy's point or at none")
        self.mesh, self.M = mesh, self.g.M
        nc, dim = mesh.n_cells, mesh.dim
        self._xi0 = None if xi0 is None else np.asarray(xi0, float).reshape(
            -1, self.g.M, self.g.N)
        pts, wts = mesh.quadrature()
        self._wts = wts.reshape(-1, nc, wts.shape[-1])  # (1 or P, nc, nq)
        # the x rows passed to g: every quadrature point, or the frozen point
        # once per cell
        self._frozen = bases[0][1] is not None
        if self._frozen:
            x0 = np.stack([x for _, x in bases])
            self._x = np.repeat(x0[:, None], nc, axis=1)
        else:
            self._x = pts.reshape(-1, nc * pts.shape[-2], dim)
        sizes = {len(gs), len(self._wts)} | ({len(self._xi0)} if xi0 is not None else set())
        if len(sizes - {1}) > 1:
            raise ValueError(f"BulkObjective copies disagree: {sorted(sizes)}")
        self.copies = max(sizes)
        self._x_tiled = self._x[0][:0]
        self._w_tiled = np.empty((wts.shape[-1], 0, self.M * dim))
        self._offset = np.zeros(1)
        if xi0 is not None:  # E of the zero field, field p on copy p
            self._offset = self.from_cells(np.zeros((self.copies, nc, self.M, dim)))

    def _points(self, R, on):
        """The x rows passed to g for a batch of R fields on copies `on`; one
        copy's rows are tiled for the largest R asked so far and sliced."""
        x = self._x
        if len(x) > 1:
            x = _on(x, on)
            if len(x) != R:
                raise ValueError(f"{R} fields for {len(x)} copies")
            return x.reshape(-1, x.shape[-1])
        if len(self._x_tiled) < R * x.shape[1]:
            self._x_tiled = np.tile(x[0], (R, 1))
        return self._x_tiled[: R * x.shape[1]]

    def _weights(self, R, on):
        """Quadrature weight q of each cell, once per entry of the cell
        gradients of a batch of R fields on copies `on`: (nq, R * nc, M *
        dim), so that each term of a cell's sum over its points is one
        contiguous product.  One copy's are tiled for the largest R asked so
        far and sliced."""
        wts, nc = self._wts, self.mesh.n_cells
        if len(wts) == 1 and self._w_tiled.shape[1] >= R * nc:
            return self._w_tiled[:, : R * nc]
        wts = _on(wts, on) if len(wts) > 1 else np.tile(wts, (R, 1, 1))
        w = np.repeat(wts.reshape(-1, wts.shape[-1]).T[..., None],
                      self.M * self.mesh.dim, axis=2)
        if len(self._wts) == 1:
            self._w_tiled = w
        return w

    def from_cells(self, grads, delta=0.0, with_grad=False, on=None):
        R, g = len(grads), self.g
        nc, nq = self.mesh.n_cells, self._wts.shape[-1]
        cell_xi = grads if self._xi0 is None else grads + _on(self._xi0, on)[:, None]
        cell_xi = cell_xi.reshape(-1, g.M, self.mesh.dim)
        x = self._points(R, on)
        xi = cell_xi if self._frozen else np.repeat(cell_xi, nq, axis=0)
        if with_grad:
            val, exact, dg = g.evaluate(x, xi, delta)
            vals = val if exact is val else np.concatenate((val, exact))
        else:
            vals = g(x, xi) if delta == 0.0 else g.evaluate(x, xi, delta)[0]
        # per cell and quadrature point, its weight times its value (a frozen
        # cell's one value serves all its points); the smoothed and exact sums
        # in one reduction, row by row as each alone
        wts = _on(self._wts, on)  # (1 or R, nc, nq)
        terms = vals.reshape(-1, R, nc, 1 if self._frozen else nq) * wts
        sums = terms.reshape(-1, R, nc * nq).sum(axis=-1)
        sums -= _on(self._offset, on)
        if not with_grad:
            return sums[0]
        # the weighted derivatives at a cell's points summed in order from
        # 0.0, as np.einsum("cq,cqmn->cmn") sums them (a frozen cell has one)
        w = self._weights(R, on)
        dg = dg.reshape(R * nc, -1, w.shape[-1])
        per_cell = w[0] * dg[:, 0]
        per_cell += 0.0
        for q in range(1, nq):
            per_cell += w[q] * dg[:, min(q, dg.shape[1] - 1)]
        return sums[0], sums[-1], per_cell.reshape(grads.shape)


class TVObjective(_Objective):
    """E(phi) = sum_cells |cell| * s_delta(|grad phi|_F); on a MeshStack, copy
    p is the objective on mesh p."""

    def __init__(self, mesh, M):
        self.mesh = mesh
        self.M = M
        self.copies = mesh.copies

    def from_cells(self, grads, delta=0.0, with_grad=False, on=None):
        measures = self.mesh.cell_measures
        if self.copies > 1:
            measures = _on(measures, on)
        mags = row_norms(grads.reshape(len(grads), self.mesh.n_cells, -1))
        val = exact = (mags * measures).sum(axis=-1)
        if delta > 0:
            mags = np.sqrt(mags**2 + delta**2)
            val = (mags * measures).sum(axis=-1)
        if not with_grad:
            return val
        denom = np.maximum(mags, 1e-300)
        return val, exact, grads * (measures / denom)[..., None, None]


class RayleighQuotient(_Objective):
    """num(phi) / den(phi) for 1-homogeneous numerator and denominator;
    +inf where the denominator is below DEN_FLOOR."""

    def __init__(self, num, den):
        self.num = num
        self.den = den
        self.M = num.M
        self.mesh = num.mesh
        self.copies = max(num.copies, den.copies)

    def _quotient(self, n, d):
        return np.where(d < DEN_FLOOR, np.inf, n / np.maximum(d, DEN_FLOOR))

    def from_cells(self, grads, delta=0.0, with_grad=False, on=None):
        if not with_grad:
            return self._quotient(self.num.from_cells(grads, delta, on=on),
                                  self.den.from_cells(grads, delta, on=on))
        nv, n_exact, dN = self.num.from_cells(grads, delta, True, on)
        dv, d_exact, dD = self.den.from_cells(grads, delta, True, on)
        dv = np.maximum(dv, DEN_FLOOR)
        val = nv / dv
        q, d = val[:, None, None, None], dv[:, None, None, None]
        return val, self._quotient(n_exact, d_exact), (dN - q * dD) / d


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


def default_inits(mesh, M, clamped, options, rng, normalize):
    """The zero field (unless normalized), the 2 M dim tents, every extra_init
    and random fields: `restarts` starts, or the extra_inits and one more.
    Tents beyond the count give way to the extra_inits."""
    inits = []
    if not normalize:
        inits.append(np.zeros((mesh.n_vertices, M)))
    for i in range(M):
        for j in range(mesh.dim):
            for sign in (1.0, -1.0):
                a = np.zeros(M)
                a[i] = sign
                b = np.zeros(mesh.dim)
                b[j] = 1.0
                inits.append(tent_field(mesh, a, b, clamped))
    del inits[max(options.restarts - len(options.extra_inits), 1):]
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
    return inits


# -- solver -------------------------------------------------------------------


def _shrink(batch, grads, size, cap):
    """Scale each field of the batch whose size exceeds cap down onto it,
    and its cell gradients with it, in place."""
    over = size > cap
    if over.any():
        factor = cap / np.where(over, size, cap)  # 1.0 where not over
        batch *= factor[:, None, None]
        grads *= factor[:, None, None, None]


def _project(batch, grads, mesh, options, on):
    """Rescale each field of a batch (R, nv, M) on copies `on` of `mesh`, with
    cell gradients `grads`, onto the feasible set, in place; returns the cell
    gradients."""
    if options.grad_cap > 0:
        mags = row_norms(grads.reshape(len(batch), mesh.n_cells, -1))
        _shrink(batch, grads, mags.max(axis=-1), options.grad_cap)
    if options.tv_cap > 0:
        tv = TVObjective(mesh, batch.shape[2]).from_cells(grads, on=on)
        _shrink(batch, grads, tv, options.tv_cap)
    return grads


def _front(first):
    """The stable permutation that moves the rows where `first` is True ahead
    of the others: two index scans, where a sort would page in numpy's sort
    kernels (0.1-0.4 MB of resident memory)."""
    return np.concatenate((np.flatnonzero(first), np.flatnonzero(~first)))


def _shared(options):
    """The options every problem of one family must agree on."""
    return replace(options, seed=0, restarts=0, extra_inits=())


class _Floored:
    """An objective with a proven lower bound `solve_floor`, which evaluates as
    the objective; how minimize_fields hands a floor to minimize_field."""

    def __init__(self, objective, floor):
        self.objective, self.solve_floor = objective, floor

    def __getattr__(self, name):
        return getattr(self.objective, name)


def minimize_field(objective, mesh, clamped, options=None):
    """Minimize a field objective over clamped P1 fields; see module docstring.

    The one-problem case of minimize_fields: raises the error that ended the
    solve instead of returning it.  From minimize_fields the objective may
    come as a _Floored view carrying the problem's floor."""
    floor = getattr(objective, "solve_floor", None)
    (result,) = _solve(objective, [(mesh, clamped, options or SolverOptions())],
                       None, [floor])
    if isinstance(result, Exception):
        raise result
    return result


def minimize_fields(objective, problems, on=None, floors=None):
    """Solve a family of problems (mesh, clamped, options) in one lockstep batch.

    Problem p lies on copy on[p] of `objective` (on None: copy p, or every
    problem on the only copy), and its mesh is that copy of the objective's
    mesh.  The problems may differ in their clamped sets and in seed,
    restarts and extra_inits; all other options must agree.  floors[p], when
    given and not None, is a proven lower bound on problem p's objective: the
    problem ends, certified, once its best value reaches it.  Returns one
    entry per problem, in order: the SolveResult minimize_field gives for the
    problem alone, or the FieldEvaluationError or SolverBudgetError that ended
    it, which leaves the other problems' results unchanged.
    """
    problems = [(mesh, clamped, options or SolverOptions())
                for mesh, clamped, options in problems]
    floors = [None] * len(problems) if floors is None else list(floors)
    if len(floors) != len(problems):
        raise ValueError(f"{len(floors)} floors for {len(problems)} problems")
    if len(problems) == 1 and objective.copies == 1:
        # A family of one runs through minimize_field because the benchmark's
        # traced runs count solves at minimize_field only
        # (benchmarks/test_bench.py::test_spans_of_smoke_trace_are_linked);
        # once they wrap minimize_fields, this branch can go.  Their wrapper
        # takes no floor, so the floor rides on the objective.
        if floors[0] is not None:
            objective = _Floored(objective, floors[0])
        try:
            return [minimize_field(objective, *problems[0])]
        except (FieldEvaluationError, SolverBudgetError) as e:
            return [e]
    return _solve(objective, problems, on, floors)


def start_count(restarts, n_extra):
    """The starts default_inits makes for `restarts` and n_extra extra_inits."""
    return max(restarts, n_extra + 1)


def work_error(n_cells, options):
    """The SolverBudgetError of a solve with `options` on a mesh of n_cells
    cells, whose cells x restarts x iterations exceed MAX_WORK; None for a
    solve that fits."""
    n = start_count(options.restarts, len(options.extra_inits))
    work = n_cells * n * options.max_iter
    if work <= MAX_WORK:
        return None
    # Decimal formats an int of any size, where float() would overflow;
    # imported here, off the import path of every solve that fits
    from decimal import Decimal

    return SolverBudgetError(
        f"solve needs {n_cells} cells x {n} restarts x {options.max_iter} "
        f"iterations = {Decimal(work):.3g}, over the budget {MAX_WORK:.3g}"
    )


def _solve(objective, problems, on, floors):
    out = [None] * len(problems)  # per problem: its result or error
    options = problems[0][2]
    if any(_shared(o) != _shared(options) for _, _, o in problems):
        raise ValueError("the problems of a family may differ only in seed, "
                         "restarts and extra_inits")
    if on is None:
        if objective.copies not in (1, len(problems)):
            raise ValueError(f"{len(problems)} problems on {objective.copies} copies")
        on = np.arange(len(problems)) % objective.copies
    on = np.asarray(on, dtype=np.int64)
    if len(on) != len(problems) or not np.all((on >= 0) & (on < objective.copies)):
        raise ValueError(f"copies {on.tolist()} for {len(problems)} problems on "
                         f"{objective.copies} copies")
    normalize = getattr(objective, "den", None) is not None
    starts, owner = [], []
    for p, (mesh, clamped, opts) in enumerate(problems):
        out[p] = work_error(mesh.n_cells, opts)
        if out[p] is not None:
            continue
        inits = default_inits(mesh, objective.M, np.asarray(clamped, dtype=np.int64),
                              opts, np.random.default_rng(opts.seed), normalize)
        starts += inits
        owner += [p] * len(inits)
    if not starts:
        return out
    family = objective.mesh  # every problem's mesh, as a copy of it
    owner = np.array(owner)
    first = np.searchsorted(owner, np.arange(len(problems)))  # each problem's row 0
    clamp = np.zeros((len(problems), family.n_vertices), dtype=bool)
    for p, (_, clamped, _) in enumerate(problems):
        clamp[p, np.asarray(clamped, dtype=np.int64)] = True
    n = len(owner)
    size = max(1, BATCH_CELLS // family.n_cells)
    stages = list(options.smoothing) or [0.0]
    iters_per_stage = max(1, options.max_iter // len(stages))
    cap = len(stages) * iters_per_stage  # the most iterations a restart takes
    decay = np.sqrt(1.0 + np.arange(cap))  # the step at k_global k is step0 / decay[k]
    patience = max(options.patience, 1)  # since is 0 after an improvement
    failed = np.zeros(len(problems), dtype=bool)
    floor = None
    if any(f is not None for f in floors):
        floor = np.array([-np.inf if f is None else f for f in floors])
    # per restart: why it stopped
    reasons = np.full(n, "iteration_cap", dtype=object)

    # The per-restart state, one row per restart: its problem and copy, the
    # current iterate and its clamped smoothed gradient, the best value and
    # where it was reached.  Row i holds restart order[i].  permute reorders
    # the rows in place so that the restarts still iterating form a prefix:
    # a chunk of it is a slice, and its state a view.  The rows return to
    # restart order at the end.
    order = np.arange(n)
    at = on[owner]
    clamp = clamp[owner]
    fields = np.array(starts)
    fields[clamp] = 0.0
    steps = np.zeros_like(fields)
    best = np.full(n, np.inf)
    since = np.zeros(n, dtype=np.int64)  # iterations since the last improvement
    k_global = np.zeros(n, dtype=np.int64)
    d = np.ones(n)
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        G = _project(fields[lo:hi], family.p1_gradient(fields[lo:hi], at[lo:hi]),
                     family, options, at[lo:hi])
        if normalize:
            d[lo:hi] = objective.den.from_cells(G, on=at[lo:hi])
    alive = ~(d < DEN_FLOOR)  # cleared by a stop: no later stage runs
    reasons[~alive] = "unusable_start"
    fields /= np.where(alive, d, 1.0)[:, None, None]
    best_fields = fields.copy()
    if options.step0 > 0:
        step0 = np.full(n, options.step0)
    else:
        step0 = 0.3 * np.maximum(np.abs(fields).max(axis=(1, 2), initial=0.0), 0.1)
    flat = np.zeros(n, dtype=bool)  # set by a zero gradient: next stage
    state = (order, owner, at, clamp, fields, steps, best, best_fields, since,
             k_global, step0, alive, flat)
    stopped = False  # a row stopped (or its problem ended) in this iteration

    def permute(lo, perm):
        """Rows lo, lo + 1, ... take the rows lo + perm."""
        if (perm[1:] > perm[:-1]).all():
            return  # the identity
        hi = lo + len(perm)
        for a in state:
            a[lo:hi] = a[lo:hi][perm]

    def fail(lo, bad, message, values):
        """End the problems of the rows lo + flatnonzero(bad), each with its
        first."""
        nonlocal stopped
        for i in np.flatnonzero(bad):
            p = owner[lo + i]
            if not failed[p]:
                failed[p] = True
                out[p] = FieldEvaluationError(
                    message.format(r=order[lo + i] - first[p]),
                    None if values is None else values[i].copy())
        alive[failed[owner]] = False
        stopped = True

    for p in np.unique(owner):
        if not alive[owner == p].any():
            fail(first[p], [True], "no usable start (degenerate inits)", None)

    def evaluate(lo, hi, G, delta):
        """The exact values of rows lo..hi-1 from their cell gradients G;
        their gradients at smoothing delta go to steps[lo:hi]."""
        _, exact, dG = objective.from_cells(G, delta, True,
                                            **_placed(objective, at[lo:hi]))
        g = family.p1_assemble(dG, at[lo:hi])
        np.copyto(g, 0.0, where=clamp[lo:hi, :, None])
        steps[lo:hi] = g
        return exact

    permute(0, _front(alive))  # the usable starts first
    usable = int(alive.sum())
    for lo in range(0, usable, size):
        hi = min(lo + size, usable)
        best[lo:hi] = evaluate(lo, hi, family.p1_gradient(fields[lo:hi], at[lo:hi]),
                               stages[0])
        bad = ~np.isfinite(best[lo:hi])
        if bad.any():
            fail(lo, bad, "objective non-finite at restart {r} init", fields[lo:hi])

    def certify():
        """End every problem whose best value has reached its floor."""
        nonlocal stopped
        if floor is None:
            return
        proven = np.isin(owner, owner[best <= floor[owner]]) & alive
        if proven.any():
            alive[proven] = False
            reasons[order[proven]] = "certified"
            stopped = True

    certify()

    def sift(lo, hi, gn):
        """Move the rows lo..hi-1 that step to the front of the chunk; returns
        the end of those rows and their gradient norms.  A row of a problem
        that ended in an earlier chunk does not step, nor does one whose
        gradient vanished (it waits for the next stage); a non-finite
        gradient ends its problem."""
        nonlocal stopped
        stopped = True
        live = alive[lo:hi].copy()
        zero = live & (gn < 1e-15)
        flat[lo:hi] |= zero
        bad = live & ~zero & ~np.isfinite(gn)
        if bad.any():
            fail(lo, bad, "non-finite gradient", fields[lo:hi])
        go = alive[lo:hi] & ~zero
        perm = _front(go)
        permute(lo, perm)
        k = int(go.sum())
        return lo + k, gn[perm[:k]]

    def advance(lo, hi, delta):
        """One iteration of the rows lo..hi-1, all in the same stage: a step
        along their gradients, the cell gradients of the step (a rescaling
        scales them with the field), and one evaluation with one assembly."""
        nonlocal stopped
        g = steps[lo:hi]
        # one dot per restart, as np.linalg.norm of a single field takes it
        dots = [gr.dot(gr) for gr in g.reshape(hi - lo, -1)]
        gn = np.sqrt(dots)
        # every norm finite and >= 1e-15 (sqrt(2e-30) > 1e-15) lets the
        # whole chunk step; otherwise sift looks row by row
        if stopped or not (math.isfinite(sum(dots)) and min(dots) >= 2e-30):
            hi, gn = sift(lo, hi, gn)
            if hi == lo:
                return
            g = steps[lo:hi]
        new, copies = fields[lo:hi], at[lo:hi]
        alpha = step0[lo:hi] / decay[k_global[lo:hi]]
        new -= alpha[:, None, None] * (g / gn[:, None, None])
        np.copyto(new, 0.0, where=clamp[lo:hi, :, None])
        G = _project(new, family.p1_gradient(new, copies), family, options, copies)
        if normalize:
            d = objective.den.from_cells(G, on=copies)
            d = np.where(d > DEN_FLOOR, d, 1.0)
            new /= d[:, None, None]
            G /= d[:, None, None, None]
        k_global[lo:hi] += 1
        v = evaluate(lo, hi, G, delta)
        finite = np.isfinite(v)
        if not finite.all():
            fail(lo, ~finite, "objective non-finite", new)
        lb = best[lo:hi]
        better = v < lb - 1e-14 * (1.0 + np.abs(lb))
        np.copyto(lb, v, where=better)
        np.copyto(best_fields[lo:hi], new, where=better[:, None, None])
        idle = since[lo:hi]
        idle += 1
        idle[better] = 0
        tired = idle >= patience
        if tired.any():
            alive[lo:hi][tired] = False
            reasons[order[lo:hi][tired]] = "patience"
            stopped = True

    for s, delta in enumerate(stages):
        if not alive.any():
            break
        # the live restarts first, in restart order (the keys are distinct;
        # "stable" is the sort Mesh.facets already uses)
        permute(0, np.argsort(np.where(alive, order, order + n), kind="stable"))
        live = int(alive.sum())
        flat[:] = False
        if s:  # the first stage's gradients came with the start values
            for lo in range(0, live, size):
                hi = min(lo + size, live)
                evaluate(lo, hi, family.p1_gradient(fields[lo:hi], at[lo:hi]), delta)
        for _ in range(iters_per_stage):
            if not live:
                break
            stopped = False
            for lo in range(0, live, size):
                advance(lo, min(lo + size, live), delta)
            certify()  # after whole iterations only, so alone = in a family
            if stopped:  # the rows still iterating first
                moving = alive[:live] & ~flat[:live]
                permute(0, _front(moving))
                live = int(moving.sum())
    reasons[order[alive & flat]] = "zero_gradient"
    permute(0, np.argsort(order, kind="stable"))  # back in restart order
    # k_global - since is the iteration of a restart's last improvement (0
    # for none); one at or next to the cap hit it
    hit_cap = k_global - since >= max(cap - 1, 1)

    delta_min = min(options.smoothing) if options.smoothing else 0.0
    for p, (mesh, clamped, _) in enumerate(problems):
        if out[p] is not None:
            continue
        mine = np.flatnonzero(owner == p)
        kw = _placed(objective, on[p:p + 1])
        best_restart = int(np.argmin(best[mine]))  # ties go to the lowest restart
        best_val = best[mine[best_restart]]
        best_values = best_fields[mine[best_restart]].copy()
        if normalize:
            d = objective.den.value(best_values, 0.0, **kw)
            if d > DEN_FLOOR:
                best_values = best_values / d
            best_val = objective.value(best_values, 0.0, **kw)
        clamped = np.asarray(clamped, dtype=np.int64)
        _, gfin = objective.value_and_grad(best_values, delta_min, **kw)
        gfin[clamped] = 0.0
        residual = float(np.max(np.abs(gfin), initial=0.0))
        out[p] = SolveResult(
            value=float(best_val),
            witness=TestField(mesh, best_values, clamped),
            iterations=int(k_global[mine].sum()),
            restarts_used=len(mine),
            stationarity_residual=residual,
            best_restart=best_restart,
            low_confidence=bool(hit_cap[mine[best_restart]]
                                and residual > STATIONARITY_TOL),
            restart_values=tuple(best[mine].tolist()),
            stop_reasons=tuple(reasons[mine].tolist()),
        )
    return out
