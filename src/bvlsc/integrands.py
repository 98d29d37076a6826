"""Integrand catalog f(x, xi) with growth metadata and recession machinery.

Evaluators are batched: f(x, xi) takes x of shape (k, N) and xi of shape
(k, M, N) and returns (k,).  The catalog covers

    linear                 f = A : xi                (params: matrix)
    norm                   f = |xi|
    negnorm                f = -|xi|
    area                   f = sqrt(1 + |xi|^2)
    boundary_null_lagrangian  f = xi : (a (x) t)     (params: a, t)
    norm_sin               f = |xi| + sin(|xi|)

plus weighted composites and affine spatial modulation c(x) * f(xi).  Every
catalog entry knows its recession function analytically.  Nonsmooth entries
expose a smoothed surrogate (|xi| -> sqrt(|xi|^2 + delta^2)) for the solver;
final evaluations always use the true integrand.
"""

import numpy as np

from .meshing import row_norms

__all__ = [
    "Integrand",
    "RecessionFn",
    "RecessionEstimate",
    "RecessionLimitError",
    "recession_estimate",
    "estimated_recession",
    "mu_estimate",
    "catalog_get",
    "catalog_tags",
    "composite",
    "modulate",
    "freeze_x",
]

CATALOG_TAGS = (
    "linear",
    "norm",
    "negnorm",
    "area",
    "boundary_null_lagrangian",
    "norm_sin",
)


def _frob(xi):
    return row_norms(xi.reshape(xi.shape[0], -1))


class Integrand:
    """Density f(x, xi) with linear-growth constant and optional extras.

    grad_xi, when absent, falls back to central finite differences.  smoothed
    returns an integrand usable by the nonsmooth solver; the default returns
    self (already smooth, or a user integrand without a surrogate).  `frozen`
    is (f, x0) for freeze_x(f, x0), which evaluates as f at rows of x0.
    """

    frozen = None

    def __init__(self, fn, M, N, growth, tag="user", params=None, grad=None,
                 recession=None, mu_analytic=None, smoother=None):
        self._fn = fn
        self.M = int(M)
        self.N = int(N)
        self.growth = float(growth)
        self.tag = tag
        self.params = params or {}
        self._grad = grad
        self.recession = recession
        self.mu_analytic = mu_analytic
        self._smoother = smoother

    def __call__(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return self._fn(x, xi)

    def at(self, x, xi):
        """Scalar evaluation at a single (x, xi)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = np.asarray(xi, dtype=float).reshape(self.M, self.N)
        return float(self._fn(x[None, :], xi[None, :, :])[0])

    def grad_xi(self, x, xi, fd_step=1e-6):
        if self._grad is not None:
            return self._grad(np.asarray(x, float), np.asarray(xi, float))
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        g = np.zeros_like(xi)
        for i in range(self.M):
            for j in range(self.N):
                e = np.zeros_like(xi)
                e[:, i, j] = fd_step
                g[:, i, j] = (self._fn(x, xi + e) - self._fn(x, xi - e)) / (
                    2 * fd_step
                )
        return g

    def smoothed(self, delta):
        if self._smoother is None or delta == 0.0:
            return self
        return self._smoother(delta)

    def spot_check(self, rng=None, n=64, radius=10.0, x_box=None):
        """Random check of the growth bound |f| <= C(|xi|+1) and x-continuity."""
        rng = rng or np.random.default_rng(0)
        xi = rng.normal(size=(n, self.M, self.N))
        xi *= (radius * rng.random(n) / np.maximum(_frob(xi), 1e-12))[:, None, None]
        if x_box is None:
            x = np.zeros((n, self.N))
        else:
            lo, hi = x_box
            x = lo + (hi - lo) * rng.random((n, self.N))
        vals = self._fn(x, xi)
        bound = self.growth * (_frob(xi) + 1.0)
        growth_ok = bool(np.all(np.abs(vals) <= bound + 1e-9))
        dx = 1e-7 * rng.normal(size=x.shape)
        cont = float(np.max(np.abs(self._fn(x + dx, xi) - vals)))
        return {"growth_ok": growth_ok, "x_continuity_dev": cont}

    def __repr__(self):
        return f"Integrand(tag={self.tag!r}, M={self.M}, N={self.N}, C={self.growth})"


class RecessionFn:
    """Positively 1-homogeneous large-argument limit of an integrand."""

    def __init__(self, fn, M, N, provenance="analytic", t_grid=None, grad=None,
                 smoother=None):
        self._fn = fn
        self.M = int(M)
        self.N = int(N)
        self.provenance = provenance
        self.t_grid = t_grid
        self._grad = grad
        self._smoother = smoother

    def __call__(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        out = self._fn(x, xi)
        # f_inf(x, 0) = 0 is forced by 1-homogeneity
        zero = _frob(xi) == 0.0
        if np.any(zero):
            out = np.where(zero, 0.0, out)
        return out

    def at(self, x, xi):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = np.asarray(xi, dtype=float).reshape(self.M, self.N)
        return float(self(x[None, :], xi[None, :, :])[0])

    def as_integrand(self, growth=None):
        """View the recession function itself as an integrand (f = f_inf)."""
        g = growth if growth is not None else self.sup_on_sphere() + 1.0
        return Integrand(
            self.__call__, self.M, self.N, g, tag="recession",
            grad=self._grad, recession=self,
            mu_analytic=lambda t: 0.0, smoother=self._smoother,
        )

    def sup_on_sphere(self, samples=256, seed=0):
        rng = np.random.default_rng(seed)
        xi = rng.normal(size=(samples, self.M, self.N))
        xi /= np.maximum(_frob(xi), 1e-12)[:, None, None]
        return float(np.max(np.abs(self(np.zeros((samples, self.N)), xi))))

    def homogeneity_check(self, alphas=(0.0, 0.5, 2.0, 10.0), samples=32, seed=0):
        rng = np.random.default_rng(seed)
        xi = rng.normal(size=(samples, self.M, self.N))
        x = np.zeros((samples, self.N))
        base = self(x, xi)
        worst = 0.0
        for a in alphas:
            dev = np.max(np.abs(self(x, a * xi) - a * base))
            worst = max(worst, float(dev))
        return worst

    def __repr__(self):
        return f"RecessionFn(M={self.M}, N={self.N}, provenance={self.provenance!r})"


class RecessionLimitError(RuntimeError):
    """The large-argument tail of f(x, t xi)/t did not settle."""


class RecessionEstimate:
    def __init__(self, value, rate, table, joint_stability):
        self.value = value
        self.rate = rate
        self.table = table
        self.joint_stability = joint_stability

    def __repr__(self):
        return (
            f"RecessionEstimate(value={self.value:.8g}, rate={self.rate}, "
            f"joint_stability={self.joint_stability:.2g})"
        )


DEFAULT_T_GRID = tuple(np.geomspace(1e2, 1e6, 9))


def recession_estimate(f, x, xi, t_grid=DEFAULT_T_GRID, check_joint=True):
    """Estimate lim_t f(x, t xi_hat) |xi| / t with tail extrapolation.

    Evaluates along the unit direction and scales by homogeneity.  If the tail
    differences have a decaying envelope, a power-law Richardson step on the
    last three grid points sharpens the estimate; oscillating-but-decaying
    tails fall back to the last raw value.  A non-decaying tail raises
    RecessionLimitError.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = np.asarray(xi, dtype=float).reshape(f.M, f.N)
    norm = float(np.linalg.norm(xi))
    if norm == 0.0:
        return RecessionEstimate(0.0, None, [], 0.0)
    t = np.asarray(sorted(t_grid), dtype=float)
    if t[0] < 1.0 or t[-1] > 1e7:
        raise ValueError("t_grid must lie in [1, 1e7]")
    if len(t) < 4:
        raise ValueError("t_grid needs at least 4 points")
    xihat = xi / norm
    stack = t[:, None, None] * xihat[None, :, :]
    xs = np.repeat(x[None, :], len(t), axis=0)
    vals = f(xs, stack) * norm / t
    d = np.diff(vals)
    scale = 1.0 + abs(vals[-1])
    if np.max(np.abs(d)) < 1e-13 * scale:
        est, rate = float(vals[-1]), None
    else:
        half = len(d) // 2
        head = np.max(np.abs(d[:half]))
        tail = np.max(np.abs(d[half:]))
        if tail > 0.75 * head + 1e-13 * scale:
            raise RecessionLimitError(
                "recession limit not detected: tail differences "
                f"{tail:.3g} vs head {head:.3g}"
            )
        est, rate = float(vals[-1]), None
        r = t[-1] / t[-2]
        geometric = abs(t[-2] / t[-3] - r) < 0.01 * r
        monotone = abs(d[-2]) > abs(d[-1]) > 1e-15 * scale and d[-1] * d[-2] > 0
        if geometric and monotone:
            q = d[-2] / d[-1]
            if 1.05 < q < 1e6:
                p = np.log(q) / np.log(r)
                est = float(vals[-1] + d[-1] / (r**p - 1.0))
                rate = float(p)
    stability = 0.0
    if check_joint:
        rng = np.random.default_rng(7)
        for _ in range(3):
            xp = x + 1e-3 * rng.normal(size=x.shape)
            e = xihat + 1e-3 * rng.normal(size=xihat.shape)
            e /= np.linalg.norm(e)
            v = float(f(xp[None, :], (t[-1] * e)[None, :, :])[0]) * norm / t[-1]
            stability = max(stability, abs(v - vals[-1]))
    return RecessionEstimate(est, rate, list(zip(t.tolist(), vals.tolist())), stability)


def estimated_recession(f, t_grid=DEFAULT_T_GRID):
    """Build a RecessionFn by running the tail estimate at each evaluation."""

    def fn(x, xi):
        x = np.atleast_2d(x)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(len(xi))
        for i in range(len(xi)):
            out[i] = recession_estimate(
                f, x[i], xi[i], t_grid, check_joint=False
            ).value
        return out

    return RecessionFn(fn, f.M, f.N, provenance="estimated", t_grid=tuple(t_grid))


def mu_estimate(f, finf, t, budget=2000, x_samples=None, seed=0, span=100.0):
    """Sampled lower bound for the deviation modulus

        mu(t) = sup over x and |xi| >= t of |f(x, xi) - finf(x, xi)| / (1 + |xi|),

    scanning |xi| in [t, span * max(t, 1)] (plus xi = 0 when t = 0).  The
    analytic value is attached for integrands that provide one; the sampled
    figure is a lower estimate, never a certified supremum.
    """
    t = float(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(budget, f.M, f.N))
    dirs /= np.maximum(_frob(dirs), 1e-12)[:, None, None]
    lo = max(t, 1e-9)
    hi = span * max(t, 1.0)
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), size=budget))
    mags[0] = max(t, 0.0)  # hit the lower boundary exactly
    xi = dirs * mags[:, None, None]
    if t == 0.0:
        xi[1] = 0.0
    if x_samples is None:
        x = np.zeros((budget, f.N))
    else:
        x_samples = np.atleast_2d(np.asarray(x_samples, dtype=float))
        x = x_samples[rng.integers(0, len(x_samples), budget)]
    dev = np.abs(f(x, xi) - finf(x, xi)) / (1.0 + _frob(xi))
    out = {"sampled": float(np.max(dev)), "t": t}
    if f.mu_analytic is not None:
        out["analytic"] = float(f.mu_analytic(t))
    return out


# -- catalog -------------------------------------------------------------------


def _mk_linear(A, tag="linear"):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M, N = A.shape

    def fn(x, xi):
        return np.einsum("mn,kmn->k", A, xi)

    def grad(x, xi):
        return np.broadcast_to(A, xi.shape).copy()

    rec = RecessionFn(fn, M, N, grad=grad)
    return Integrand(
        fn, M, N, growth=max(np.linalg.norm(A), 1e-12), tag=tag,
        params={"matrix": A.tolist()}, grad=grad, recession=rec,
        mu_analytic=lambda t: 0.0,
    )


def _mk_norm(sign=1.0, tag="norm", M=1, N=1):
    def fn(x, xi):
        return sign * _frob(xi)

    def grad(x, xi):
        n = np.maximum(_frob(xi), 1e-300)
        return sign * xi / n[:, None, None]

    def smoother(delta):
        def fns(x, xi):
            return sign * np.sqrt(_frob(xi) ** 2 + delta**2)

        def grads(x, xi):
            n = np.sqrt(_frob(xi) ** 2 + delta**2)
            return sign * xi / n[:, None, None]

        rec = RecessionFn(fn, M, N, grad=grad)
        return Integrand(fns, M, N, 1.0 + delta, tag=tag + "_smoothed",
                         grad=grads, recession=rec)

    rec = RecessionFn(fn, M, N, grad=grad,
                      smoother=lambda d: smoother(d))
    return Integrand(
        fn, M, N, growth=1.0, tag=tag, params={"M": M, "N": N}, grad=grad,
        recession=rec, mu_analytic=lambda t: 0.0, smoother=smoother,
    )


def _mk_area(M=1, N=1):
    def fn(x, xi):
        return np.sqrt(1.0 + _frob(xi) ** 2)

    def grad(x, xi):
        return xi / np.sqrt(1.0 + _frob(xi) ** 2)[:, None, None]

    def recfn(x, xi):
        return _frob(xi)

    def recgrad(x, xi):
        n = np.maximum(_frob(xi), 1e-300)
        return xi / n[:, None, None]

    rec = RecessionFn(recfn, M, N, grad=recgrad,
                      smoother=lambda d: _mk_norm(1.0, M=M, N=N).smoothed(d))

    def mu(t):
        # sup_{s>=t} (sqrt(1+s^2)-s)/(1+s), attained at s=t
        return (np.sqrt(1.0 + t * t) - t) / (1.0 + t)

    return Integrand(fn, M, N, growth=1.0, tag="area", params={"M": M, "N": N},
                     grad=grad, recession=rec, mu_analytic=mu)


def _mk_norm_sin(M=1, N=1):
    def fn(x, xi):
        n = _frob(xi)
        return n + np.sin(n)

    def grad(x, xi):
        n = np.maximum(_frob(xi), 1e-300)
        return (1.0 + np.cos(n))[:, None, None] * xi / n[:, None, None]

    def recfn(x, xi):
        return _frob(xi)

    def recgrad(x, xi):
        n = np.maximum(_frob(xi), 1e-300)
        return xi / n[:, None, None]

    rec = RecessionFn(recfn, M, N, grad=recgrad)

    def smoother(delta):
        def fns(x, xi):
            n = np.sqrt(_frob(xi) ** 2 + delta**2)
            return n + np.sin(n)

        def grads(x, xi):
            n = np.sqrt(_frob(xi) ** 2 + delta**2)
            return (1.0 + np.cos(n))[:, None, None] * xi / n[:, None, None]

        return Integrand(fns, M, N, 2.0 + delta, tag="norm_sin_smoothed",
                         grad=grads, recession=rec)

    def mu(t):
        # sup_{s>=t} |sin s|/(1+s) via a dense scan of the first periods past t
        s = t + np.linspace(0.0, 4.0 * np.pi, 4097)
        return float(np.max(np.abs(np.sin(s)) / (1.0 + s)))

    return Integrand(fn, M, N, growth=2.0, tag="norm_sin", params={"M": M, "N": N},
                     grad=grad, recession=rec, mu_analytic=mu, smoother=smoother)


def _mk_null_lagrangian(a, t):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    A = np.outer(a, tv)
    g = _mk_linear(A, tag="boundary_null_lagrangian")
    g.params = {"a": a.tolist(), "t": tv.tolist()}
    return g


def catalog_get(tag, params=None):
    """Named integrand with correct growth constant and analytic recession."""
    params = params or {}
    M = int(params.get("M", 1))
    N = int(params.get("N", 1))
    if tag == "linear":
        return _mk_linear(params.get("matrix", [[1.0]]))
    if tag == "norm":
        return _mk_norm(1.0, "norm", M, N)
    if tag == "negnorm":
        return _mk_norm(-1.0, "negnorm", M, N)
    if tag == "area":
        return _mk_area(M, N)
    if tag == "norm_sin":
        return _mk_norm_sin(M, N)
    if tag == "boundary_null_lagrangian":
        return _mk_null_lagrangian(params["a"], params["t"])
    if tag == "composite":
        terms = [
            (float(w), catalog_get(spec["tag"], spec.get("params")))
            for w, spec in params["terms"]
        ]
        return composite(terms)
    raise ValueError(f"unknown integrand tag {tag!r}")


def catalog_tags():
    return CATALOG_TAGS


def composite(terms):
    """Weighted sum of integrands: sum_i w_i f_i, with summed recession."""
    ws = [w for w, _ in terms]
    fs = [f for _, f in terms]
    M, N = fs[0].M, fs[0].N
    if any(f.M != M or f.N != N for f in fs):
        raise ValueError("composite terms must share dimensions")

    def fn(x, xi):
        return sum(w * f(x, xi) for w, f in zip(ws, fs))

    def grad(x, xi):
        return sum(w * f.grad_xi(x, xi) for w, f in zip(ws, fs))

    recs = [f.recession for f in fs]
    rec = None
    if all(r is not None for r in recs):
        def recfn(x, xi):
            return sum(w * r(x, xi) for w, r in zip(ws, recs))

        rec = RecessionFn(recfn, M, N)

    mu = None
    if all(f.mu_analytic is not None for f in fs):
        def mu(t):
            return sum(abs(w) * f.mu_analytic(t) for w, f in zip(ws, fs))

    def smoother(delta):
        return composite([(w, f.smoothed(delta)) for w, f in zip(ws, fs)])

    return Integrand(
        fn, M, N, growth=sum(abs(w) * f.growth for w, f in zip(ws, fs)),
        tag="composite",
        params={"terms": [(w, {"tag": f.tag, "params": f.params}) for w, f in terms]},
        grad=grad, recession=rec, mu_analytic=mu, smoother=smoother,
    )


def modulate(f, c0, cvec):
    """Affine spatial modulation c(x) f(xi) with c(x) = c0 + cvec . x > 0."""
    cvec = np.atleast_1d(np.asarray(cvec, dtype=float))

    def c(x):
        return c0 + x @ cvec

    def fn(x, xi):
        return c(x) * f(x, xi)

    def grad(x, xi):
        return c(x)[:, None, None] * f.grad_xi(x, xi)

    rec = None
    if f.recession is not None:
        base_rec = f.recession

        def recfn(x, xi):
            return c(x) * base_rec(x, xi)

        rec = RecessionFn(recfn, f.M, f.N)

    def smoother(delta):
        return modulate(f.smoothed(delta), c0, cvec)

    return Integrand(
        fn, f.M, f.N, growth=f.growth * (abs(c0) + np.linalg.norm(cvec) * 10.0),
        tag=f"modulated({f.tag})", params={"c0": c0, "cvec": cvec.tolist(),
                                           "inner": f.tag},
        grad=grad, recession=rec, smoother=smoother,
    )


def freeze_x(f, x0):
    """Freeze the spatial argument: g(xi) = f(x0, xi), recession frozen too."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    block = np.empty((0, len(x0)))

    def xs(k):
        """k read-only rows of x0, sliced from the largest block built so far."""
        nonlocal block
        if k > len(block):
            block = np.repeat(x0[None, :], k, axis=0)
            block.flags.writeable = False
        return block[:k]

    def fn(x, xi):
        return f(xs(len(xi)), xi)

    def grad(x, xi):
        return f.grad_xi(xs(len(xi)), xi)

    rec = None
    if f.recession is not None:
        base_rec = f.recession

        def recfn(x, xi):
            return base_rec(xs(len(xi)), xi)

        rec = RecessionFn(recfn, f.M, f.N, provenance=base_rec.provenance)

    def smoother(delta):
        return freeze_x(f.smoothed(delta), x0)

    g = Integrand(
        fn, f.M, f.N, growth=f.growth, tag=f"frozen({f.tag})",
        params={"x0": x0.tolist(), "inner": f.tag}, grad=grad, recession=rec,
        mu_analytic=f.mu_analytic, smoother=smoother,
    )
    g.frozen = (f, x0)
    return g
