"""The linear-growth functional on BV: bulk term through f, singular term
through the recession function at the polar.

    F(u) = sum_cells  integral f(x, grad u)  +  sum_charges f_inf(pos, polar) * mass

Bulk integrals use the mesh's quadrature rule in x (meshing.QUADRATURE); the
gradient is exact per cell, so x-independent integrands are integrated
exactly.  eval_G applies the same rule to an arbitrary matrix measure.
"""

import numpy as np

from .bv import derivative, total_variation

__all__ = [
    "FunctionalValue",
    "eval_F",
    "eval_G",
    "four_term_residual",
    "uniform_continuity_probe",
    "additivity_residual",
]


class FunctionalValue:
    """Value of the functional with its bulk/singular split and per-entity tables."""

    def __init__(self, bulk, singular, per_cell, per_charge):
        self.bulk = float(bulk)
        self.singular = float(singular)
        self.total = self.bulk + self.singular
        self.per_cell = per_cell
        self.per_charge = per_charge

    def to_json(self):
        return {
            "total": self.total,
            "bulk": self.bulk,
            "singular": self.singular,
            "per_charge": [
                {"where": w, "value": v} for w, v in self.per_charge
            ],
        }

    def __repr__(self):
        return (
            f"FunctionalValue(total={self.total:.8g}, bulk={self.bulk:.8g}, "
            f"singular={self.singular:.8g})"
        )


def _bulk_cell_values(f, mesh, grads):
    pts, wts = mesh.quadrature()
    nq = pts.shape[1]
    flat_x = pts.reshape(-1, mesh.dim)
    flat_xi = np.repeat(grads, nq, axis=0)
    vals = f(flat_x, flat_xi).reshape(mesh.n_cells, nq)
    return np.sum(vals * wts, axis=1)


def _singular_values(finf, mu):
    out = []
    for desc, polar, mass in mu.charges:
        where = float(desc) if mu.mesh.dim == 1 else [int(i) for i in desc]
        out.append((where, finf.at(mu.charge_position(desc), polar) * mass))
    return out


def eval_F(f, finf, u):
    """Evaluate the functional at a BVFunction."""
    if f.M != u.M or f.N != u.mesh.dim:
        raise ValueError(
            f"integrand is {f.M}x{f.N} but the function has M={u.M}, N={u.mesh.dim}"
        )
    mu = derivative(u)
    return eval_G(f, finf, mu)


def eval_G(f, finf, mu):
    """Evaluate the measure functional at a MatrixMeasure."""
    per_cell = _bulk_cell_values(f, mu.mesh, mu.density)
    per_charge = _singular_values(finf, mu)
    bulk = float(np.sum(per_cell))
    singular = float(sum(v for _, v in per_charge))
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
        charge_sum += sgn * sum(v for _, v in val.per_charge)
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


def additivity_residual(f, finf, v, members, components_per_n, threshold=1e-2):
    """Residuals F(u_n + v) - F(v) - sum_j [F(u_{j,n} + v) - F(v)] over n.

    members[i] must equal the sum of components_per_n[i] (ValueError beyond a
    deviation of 1e-12); the residual
    is accumulated per cell/charge in a single pass.  Verdict "additive" when
    the residual magnitude tail falls below the threshold.
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
        "verdict": "additive" if max(tail) < threshold else "not additive",
        "final": rows[-1] if rows else 0.0,
    }
