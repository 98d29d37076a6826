"""The linear-growth functional on BV: bulk term through f, singular term
through the recession function at the polar.

    F(u) = sum_cells  integral f(x, grad u)  +  sum_charges f_inf(pos, polar) * mass

Bulk integrals use the mesh's quadrature rule in x (meshing.QUADRATURE); the
gradient is exact per cell, so x-independent integrands are integrated
exactly.  eval_G applies the same rule to an arbitrary matrix measure.

One evaluation path, eval_stack, takes a MeasureStack of one or more
measures: every quadrature point of every member goes through f in one
call, and every charge of every member through the recession function in
one call, one row (position, polar) per charge; each member's bulk and
singular sums are then formed as for that member alone.  eval_G is its
one-member case, and a table of sequence members is one stack.  An
integrand or a recession function, a user RecessionFn included, must
therefore treat its rows independently, giving each row the value it would
give it alone, as the batched half-ball solves already require.
"""

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import meshing
from .bv import derivative, total_variation

__all__ = [
    "FunctionalValue",
    "MeasureStack",
    "eval_F",
    "eval_G",
    "eval_stack",
    "four_term_residual",
    "uniform_continuity_probe",
    "additivity_residual",
]


class FunctionalValue:
    """Value of the functional, its bulk/singular split and per-cell and per-charge values."""

    def __init__(self, bulk, singular, per_cell, per_charge):
        self.bulk = float(bulk)
        self.singular = float(singular)
        self.total = self.bulk + self.singular
        self.per_cell = per_cell
        self.per_charge = per_charge

    def __repr__(self):
        return (
            f"FunctionalValue(total={self.total:.8g}, bulk={self.bulk:.8g}, "
            f"singular={self.singular:.8g})"
        )


class MeasureStack(NamedTuple):
    """The data of several measures, member after member: quadrature points
    (C, nq, dim) and weights (C, nq) of the cells, the density (C, M, N),
    the charge positions (K, dim), polars (K, M, N) and masses (K,), and the
    index of each member's first cell and first charge."""

    points: np.ndarray
    weights: np.ndarray
    density: np.ndarray
    positions: np.ndarray
    polars: np.ndarray
    masses: np.ndarray
    cell_starts: list
    charge_starts: list

    @classmethod
    def of(cls, measures):
        """The stack of the MatrixMeasures, each on its own mesh."""
        def stacked(arrays):
            return np.concatenate(arrays) if len(arrays) > 1 else arrays[0]

        quads = [mu.mesh.quadrature() for mu in measures]
        return cls(stacked([q[0] for q in quads]), stacked([q[1] for q in quads]),
                   stacked([mu.density for mu in measures]),
                   stacked([mu.positions for mu in measures]),
                   stacked([mu.polars for mu in measures]),
                   stacked([mu.masses for mu in measures]),
                   list(accumulate([mu.mesh.n_cells for mu in measures[:-1]], initial=0)),
                   list(accumulate([len(mu.masses) for mu in measures[:-1]], initial=0)))


def eval_stack(f, finf, stack):
    """The functional on each member of a MeasureStack: one call of f on
    every quadrature point of every member and at most one call of finf on
    every charge.  Returns the per-cell values (C,), the per-charge values
    (list, K), and per member the bulk and the singular part (lists), each
    summed as for that member alone."""
    pts, wts, dens = stack.points, stack.weights, stack.density
    nq = pts.shape[1]
    vals = f(pts.reshape(-1, pts.shape[2]), np.repeat(dens, nq, axis=0))
    per_cell = (vals.reshape(len(dens), nq) * wts).sum(axis=1)
    # per-member slices: np.add.reduceat does not round as sum does
    ends = stack.cell_starts[1:] + [len(per_cell)]
    bulk = [float(per_cell[i:j].sum()) for i, j in zip(stack.cell_starts, ends)]
    per_charge = []
    if len(stack.masses):
        per_charge = (finf(stack.positions, stack.polars) * stack.masses).tolist()
    ends = stack.charge_starts[1:] + [len(per_charge)]
    singular = [float(sum(per_charge[i:j])) for i, j in zip(stack.charge_starts, ends)]
    return per_cell, per_charge, bulk, singular


def batches(items, size):
    """The items in consecutive lists of total size at most MAX_CELLS, an
    item of a larger size alone; the items are taken one at a time."""
    batch, total = [], 0
    for item in items:
        if batch and total + size(item) > meshing.MAX_CELLS:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += size(item)
    if batch:
        yield batch


def _check_dims(f, M, N):
    if f.M != M or f.N != N:
        raise ValueError(f"integrand is {f.M}x{f.N} but the function has M={M}, N={N}")


def eval_F(f, finf, u):
    """Evaluate the functional at a BVFunction."""
    _check_dims(f, u.M, u.mesh.dim)
    mu = derivative(u)
    return eval_G(f, finf, mu)


def eval_G(f, finf, mu):
    """Evaluate the measure functional at a MatrixMeasure: the one-member
    eval_stack."""
    per_cell, per_charge, (bulk,), (singular,) = eval_stack(f, finf, MeasureStack.of([mu]))
    return FunctionalValue(bulk, singular, per_cell, per_charge)


def _signed_total(f, finf, terms):
    """sum of sgn * F(w) over the terms (w, sgn), accumulated per cell and per
    charge before the final reduction; terms of sign 0 are skipped."""
    cellwise, charge_sum = 0.0, 0.0
    for w, sgn in terms:
        if sgn == 0.0:
            continue
        val = eval_F(f, finf, w)
        cellwise = cellwise + sgn * val.per_cell
        charge_sum += sgn * sum(val.per_charge)
    return float(np.sum(cellwise) + charge_sum)


def four_term_residual(f, finf, u, un):
    """F(u + un) - F(u) - F(un) + F(0), accumulated per entity in one pass.

    Along sequences concentrating on the boundary this residual vanishes;
    summing per cell before the final reduction avoids cancellation between
    four large nearly equal totals.
    """
    zero = 0.0 * u
    terms = [(u + un, 1.0), (u, -1.0), (un, -1.0), (zero, 1.0)]
    abs_res = _signed_total(f, finf, terms)
    tvn = total_variation(derivative(un))
    return {"residual": abs_res, "tv_relative": abs_res / max(tvn, 1e-300)}


def uniform_continuity_probe(f, finf, pair_generator, n_max):
    """Probe: TV-close measure pairs should have close functional values.

    pair_generator(n) yields (mu_n, lambda_n).  The table records the TV gap
    |mu_n - lambda_n|(Omega) and the value gap |G(mu_n) - G(lambda_n)|.  If the
    TV gaps do not vanish (a tail above half the first gap and above 0.05) the
    hypothesis fails and no verdict is issued; otherwise the probe is
    consistent when the value gaps of the tail stay below 0.05.  A pair of
    total variation above 1e4 raises ValueError.
    """
    rows = []
    for n in range(1, n_max + 1):
        mu, lam = pair_generator(n)
        m1, m2 = total_variation(mu), total_variation(lam)
        if max(m1, m2) > 1e4:
            raise ValueError(f"mass budget exceeded at n={n}: {max(m1, m2):.3g} > 10000.0")
        tv_gap = total_variation(mu - lam)
        g_gap = abs(eval_G(f, finf, mu).total - eval_G(f, finf, lam).total)
        rows.append({"n": n, "tv_gap": tv_gap, "g_gap": g_gap})
    tv_tail = [r["tv_gap"] for r in rows[-max(1, len(rows) // 4):]]
    g_tail = [r["g_gap"] for r in rows[-max(1, len(rows) // 4):]]
    if max(tv_tail) > 0.5 * rows[0]["tv_gap"] and max(tv_tail) > 0.05:
        return {
            "rows": rows,
            "verdict": "hypothesis violated: TV gap does not vanish",
        }
    consistent = max(g_tail) < 0.05
    return {
        "rows": rows,
        "verdict": "consistent" if consistent else "inconsistent",
        "final_g_gap": rows[-1]["g_gap"],
    }


def additivity_residual(f, finf, v, members, components_per_n):
    """Residuals F(u_n + v) - F(v) - sum_j [F(u_{j,n} + v) - F(v)] over n.

    members[i] must equal the sum of components_per_n[i] (ValueError beyond a
    deviation of 1e-12); the residual
    is accumulated per cell/charge in a single pass.  Verdict "additive" when
    the residual magnitude tail falls below 1e-2.
    """
    rows = []
    for un, comps in zip(members, components_per_n):
        total = comps[0]
        for c in comps[1:]:
            total = total + c
        diff = un - total
        dev = diff.linf_norm() + sum(np.linalg.norm(j) for _, j in diff.atoms) + sum(
            np.linalg.norm(j) for _, j, _ in diff.jump_facets
        )
        if dev > 1e-12:
            raise ValueError(
                f"components do not sum to the member (deviation {dev:.3g})"
            )
        vv = v if v is not None else 0.0 * un
        terms = [(un + vv, 1.0), (vv, float(len(comps) - 1))]
        terms += [(c + vv, -1.0) for c in comps]
        rows.append(_signed_total(f, finf, terms))
    tail = [abs(r) for r in rows[-max(1, len(rows) // 4):]]
    return {
        "residuals": rows,
        "verdict": "additive" if max(tail) < 1e-2 else "not additive",
        "final": rows[-1] if rows else 0.0,
    }
