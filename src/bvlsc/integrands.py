"""Integrand catalog f(x, xi) and its recession machinery.

Evaluators are batched: f(x, xi) takes x of shape (k, N) and xi of shape
(k, M, N) and returns (k,).  The catalog covers

    linear                 f = A : xi                (params: matrix)
    norm                   f = |xi|
    negnorm                f = -|xi|
    area                   f = sqrt(1 + |xi|^2)
    boundary_null_lagrangian  f = xi : (a (x) t)     (params: a, t)
    norm_sin               f = |xi| + sin(|xi|)

plus weighted composites and affine spatial modulation c(x) * f(xi).  Every
catalog entry knows its recession function analytically, and the
1-homogeneous ones (linear, norm, negnorm, the null Lagrangian) know their
split c |xi|_F + A : xi as well.  A recession
function is itself an integrand, its own recession, with f_inf(x, 0) = +0.0
(RecessionFn builds one).  Smoothing and gradients live in one pass per
integrand: Integrand.evaluate(x, xi, delta) gives the solver the smoothed
values (|xi| -> sqrt(|xi|^2 + delta^2) in the nonsmooth entries), the exact
values and the smoothed gradient of a batch.  Composites, modulations and
frozen integrands combine the passes of their terms, and their recession is
the same combinator over the terms' recessions (or the combination itself,
where every term is its own recession).  Final evaluations always use the
true integrand.
"""

import math
import numbers

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

def _frob(xi):
    return row_norms(xi.reshape(xi.shape[0], -1))


def _plus_zero_at_origin(out, xi):
    """out with +0.0 at the rows where xi = 0, the value there of a
    recession function (forced by 1-homogeneity)."""
    zero = _frob(xi) == 0.0
    return np.where(zero, 0.0, out) if zero.any() else out


class Integrand:
    """Density f(x, xi) and what the checks read of it.  The constant C of
    the bound |f(x, xi)| <= C (|xi|_F + 1) enters no check and is not kept.

    `one_pass`, when given, is where the integrand defines its smoothing and
    its gradient: (x, xi, delta) -> (values smoothed at delta, exact values,
    gradient in xi of the smoothed values), with the exact values as the
    smoothed ones at delta = 0.  Without a pass, evaluate is unsmoothed.
    grad_xi is the pass at delta = 0, else central finite differences.
    `frozen` is (f, x0) for freeze_x(f, x0), which evaluates as
    f at rows of x0.  `convex` is True only where f is proven independent of
    x and convex in xi (then Jensen's inequality makes every quasiconvexity
    deficit >= 0).  `split`, where known, maps a point x to the (c, A) of
    split_at.
    """

    frozen = None

    def __init__(self, fn, M, N, tag="user", recession=None, mu_analytic=None,
                 convex=False, one_pass=None, split=None):
        self._fn = fn
        self.convex = convex
        self.M = int(M)
        self.N = int(N)
        self.tag = tag
        self.recession = recession
        self.mu_analytic = mu_analytic
        self._one_pass = one_pass
        self._split = split

    def __call__(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return self._fn(x, xi)

    def at(self, x, xi):
        """Scalar evaluation at a single (x, xi)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xi = np.asarray(xi, dtype=float).reshape(self.M, self.N)
        return float(self._fn(x[None, :], xi[None, :, :])[0])

    def as_integrand(self):
        """The integrand itself (a recession function is one already); kept
        only for benchmarks/tracing.py, which calls it."""
        return self

    def split_at(self, x):
        """(c, A), A of shape (M, N), with f(x, xi) = c |xi|_F + A : xi for
        every xi, at the point x; None where no split is known."""
        if self._split is None:
            return None
        return self._split(np.atleast_1d(np.asarray(x, dtype=float)))

    def grad_xi(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if self._one_pass is not None:
            return self._one_pass(x, xi, 0.0)[2]
        g = np.zeros_like(xi)
        for i in range(self.M):
            for j in range(self.N):
                e = np.zeros_like(xi)
                e[:, i, j] = 1e-6
                g[:, i, j] = (self._fn(x, xi + e) - self._fn(x, xi - e)) / 2e-6
        return g

    def evaluate(self, x, xi, delta):
        """One pass over a batch at smoothing delta: (smoothed values, exact
        values, smoothed gradient in xi).  Without a pass the values are
        unsmoothed, one array for both, and the gradient is grad_xi's."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if self._one_pass is not None:
            return self._one_pass(x, xi, delta)
        val = self(x, xi)
        return val, val, self.grad_xi(x, xi)

    def sup_on_sphere(self, x=None):
        """Largest |f(x, xi)| over 256 seeded unit xi, at the point x (None:
        the origin)."""
        samples = 256
        xi = np.random.default_rng(0).normal(size=(samples, self.M, self.N))
        xi /= np.maximum(_frob(xi), 1e-12)[:, None, None]
        x = np.zeros(self.N) if x is None else np.asarray(x, dtype=float)
        return float(np.max(np.abs(self(np.tile(x, (samples, 1)), xi))))

    def __repr__(self):
        return f"Integrand(tag={self.tag!r}, M={self.M}, N={self.N})"


def RecessionFn(fn, M, N, one_pass=None, split=None):
    """The positively 1-homogeneous large-argument limit f_inf of an
    integrand, as the integrand that is its own recession: +0.0 where xi = 0
    and a zero deviation modulus.  `one_pass` (see Integrand) must keep the
    +0.0."""
    g = Integrand(lambda x, xi: _plus_zero_at_origin(fn(x, xi), xi), M, N,
                  tag="recession", mu_analytic=lambda t: 0.0, one_pass=one_pass,
                  split=split)
    g.recession = g
    return g


def _with_recession(g, terms, combine):
    """g, with its recession set: g itself where every term is its own
    recession, else combine(the terms' recessions), or None where a term has
    none."""
    recs = [f.recession for f in terms]
    if all(r is f for r, f in zip(recs, terms)):
        g.recession = g
    elif None not in recs:
        g.recession = combine(recs)
    return g


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
            stability = max(stability, float(abs(v - vals[-1])))
    return RecessionEstimate(est, rate, list(zip(t.tolist(), vals.tolist())), stability)


def estimated_recession(f):
    """A RecessionFn that runs the tail estimate on DEFAULT_T_GRID at each
    evaluation."""

    def fn(x, xi):
        x = np.atleast_2d(x)
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(len(xi))
        for i in range(len(xi)):
            out[i] = recession_estimate(
                f, x[i], xi[i], check_joint=False
            ).value
        return out

    return RecessionFn(fn, f.M, f.N)


MU_SAMPLES = 2000  # mu_estimate's default sample count, M x N entries each


def mu_estimate(f, finf, t, budget=MU_SAMPLES, seed=0):
    """Sampled lower bound for the deviation modulus

        mu(t) = sup over x and |xi| >= t of |f(x, xi) - finf(x, xi)| / (1 + |xi|),

    scanning |xi| in [t, 100 max(t, 1)] (plus xi = 0 when t = 0) at x = 0.
    The analytic value is attached for integrands that provide one; the
    sampled figure is a lower estimate, never a certified supremum.
    """
    t = float(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(budget, f.M, f.N))
    dirs /= np.maximum(_frob(dirs), 1e-12)[:, None, None]
    lo = max(t, 1e-9)
    hi = 100.0 * max(t, 1.0)
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), size=budget))
    mags[0] = max(t, 0.0)  # hit the lower boundary exactly
    xi = dirs * mags[:, None, None]
    if t == 0.0:
        xi[1] = 0.0
    x = np.zeros((budget, f.N))
    dev = np.abs(f(x, xi) - finf(x, xi)) / (1.0 + _frob(xi))
    out = {"sampled": float(np.max(dev)), "t": t}
    if f.mu_analytic is not None:
        out["analytic"] = float(f.mu_analytic(t))
    return out


# -- catalog -------------------------------------------------------------------


def _norm_pass(sign, smooth, recession=False):
    """The one pass of sign |xi|, smoothed to sign sqrt(|xi|^2 + delta^2)
    where `smooth`; as a recession function, +0.0 where |xi| = 0."""

    def one_pass(x, xi, delta):
        r = _frob(xi)
        exact = sign * r
        if recession and np.any(r == 0.0):
            exact = np.where(r == 0.0, 0.0, exact)
        if delta == 0.0 or not smooth:
            return exact, exact, sign * xi / np.maximum(r, 1e-300)[:, None, None]
        n = np.sqrt(r**2 + delta**2)
        return sign * n, exact, sign * xi / n[:, None, None]

    return one_pass


def _constant_split(c, A):
    """The split of a recession function c |xi|_F + A : xi the same at every x."""
    A = np.asarray(A, dtype=float)
    return lambda x: (float(c), A.copy())


def _norm_recession(sign, smooth, M, N):
    """sign |xi|, the recession function of the entries built on |xi|."""

    def fn(x, xi):
        return sign * _frob(xi)

    return RecessionFn(fn, M, N, one_pass=_norm_pass(sign, smooth, recession=True),
                       split=_constant_split(sign, np.zeros((M, N))))


def _mk_linear(matrix, tag="linear"):
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    M, N = A.shape

    def fn(x, xi):
        return np.einsum("mn,kmn->k", A, xi)

    def linear_pass(value):
        def one_pass(x, xi, delta):
            v = value(x, xi)
            return v, v, np.broadcast_to(A, xi.shape).copy()

        return one_pass

    rec_pass = linear_pass(lambda x, xi: _plus_zero_at_origin(fn(x, xi), xi))
    rec = RecessionFn(fn, M, N, one_pass=rec_pass, split=_constant_split(0.0, A))
    return Integrand(fn, M, N, tag=tag, recession=rec, mu_analytic=lambda t: 0.0,
                     convex=True, one_pass=linear_pass(fn),
                     split=_constant_split(0.0, A))


def _mk_norm(sign=1.0, tag="norm", M=1, N=1):
    def fn(x, xi):
        return sign * _frob(xi)

    return Integrand(fn, M, N, tag=tag, recession=_norm_recession(sign, True, M, N),
                     mu_analytic=lambda t: 0.0, convex=sign > 0,
                     one_pass=_norm_pass(sign, True),
                     split=_constant_split(sign, np.zeros((M, N))))


def _mk_area(M=1, N=1):
    def fn(x, xi):
        return np.sqrt(1.0 + _frob(xi) ** 2)

    def one_pass(x, xi, delta):
        s = fn(x, xi)
        return s, s, xi / s[:, None, None]

    def mu(t):
        # sup_{s>=t} (sqrt(1+s^2)-s)/(1+s), attained at s=t
        return (np.sqrt(1.0 + t * t) - t) / (1.0 + t)

    return Integrand(fn, M, N, tag="area", recession=_norm_recession(1.0, True, M, N),
                     mu_analytic=mu, convex=True, one_pass=one_pass)


def _mk_norm_sin(M=1, N=1):
    def fn(x, xi):
        n = _frob(xi)
        return n + np.sin(n)

    def one_pass(x, xi, delta):
        r = _frob(xi)
        exact = r + np.sin(r)
        if delta == 0.0:
            n, val = np.maximum(r, 1e-300), exact
        else:
            n = np.sqrt(r**2 + delta**2)
            val = n + np.sin(n)
        return val, exact, (1.0 + np.cos(n))[:, None, None] * xi / n[:, None, None]

    def mu(t):
        # sup_{s>=t} |sin s|/(1+s) via a dense scan of the first periods past t
        s = t + np.linspace(0.0, 4.0 * np.pi, 4097)
        return float(np.max(np.abs(np.sin(s)) / (1.0 + s)))

    # the recession |xi| is left unsmoothed
    return Integrand(fn, M, N, tag="norm_sin",
                     recession=_norm_recession(1.0, False, M, N), mu_analytic=mu,
                     one_pass=one_pass)


def _mk_null_lagrangian(a, t):
    return _mk_linear(np.outer(np.asarray(a, dtype=float), np.asarray(t, dtype=float)),
                      tag="boundary_null_lagrangian")


# tag -> (maker, declared parameters with their defaults; None marks a required one)
CATALOG = {
    "linear": (_mk_linear, {"matrix": [[1.0]]}),
    "norm": (lambda M, N: _mk_norm(1.0, "norm", M, N), {"M": 1, "N": 1}),
    "negnorm": (lambda M, N: _mk_norm(-1.0, "negnorm", M, N), {"M": 1, "N": 1}),
    "area": (_mk_area, {"M": 1, "N": 1}),
    "boundary_null_lagrangian": (_mk_null_lagrangian, {"a": None, "t": None}),
    "norm_sin": (_mk_norm_sin, {"M": 1, "N": 1}),
    "composite": (lambda terms: composite(
        [(float(w), catalog_get(t["tag"], t.get("params"))) for w, t in terms]),
        {"terms": None}),
}
CATALOG_TAGS = tuple(tag for tag in CATALOG if tag != "composite")


def _finite_real(x):
    """A real number with a finite value: an int, a float or a numpy scalar
    of one, not a bool."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def catalog_get(tag, params=None):
    """Named integrand with its analytic recession.

    Raises ValueError for an unknown tag, a parameter the tag does not declare,
    a required one left out, a dimension that is not a positive integer or a
    matrix or vector with an entry that is not a finite real number (a bool
    or a numeric string is not one; a numpy scalar is)."""
    if tag not in CATALOG:
        raise ValueError(f"unknown integrand tag {tag!r} ({'|'.join(CATALOG)})")
    maker, declared = CATALOG[tag]
    params = params or {}
    required = [k for k, v in declared.items() if v is None]
    if set(params) - set(declared) or set(required) - set(params):
        raise ValueError(f"{tag!r} takes parameters {list(declared)} (required: "
                         f"{required}), got {sorted(params)}")
    for k in ("M", "N"):
        if k in params and not (isinstance(params[k], (int, np.integer))
                                and not isinstance(params[k], bool) and params[k] > 0):
            raise ValueError(f"parameter {k!r} must be a positive integer, "
                             f"got {params[k]!r}")
    for k in ("matrix", "a", "t"):
        if k in params and not all(map(_finite_real,
                                       np.asarray(params[k], dtype=object).ravel())):
            raise ValueError(f"parameter {k!r} must hold finite numbers, got {params[k]!r}")
    return maker(**{**declared, **params})


def catalog_tags():
    return CATALOG_TAGS


def composite(terms):
    """Weighted sum of integrands: sum_i w_i f_i, with summed recession."""
    if not terms:
        raise ValueError("composite needs at least one term")
    ws = [w for w, _ in terms]
    fs = [f for _, f in terms]
    M, N = fs[0].M, fs[0].N
    if any(f.M != M or f.N != N for f in fs):
        raise ValueError("composite terms must share dimensions")

    def fn(x, xi):
        return sum(w * f(x, xi) for w, f in zip(ws, fs))

    def one_pass(x, xi, delta):
        outs = [f.evaluate(x, xi, delta) for f in fs]
        return tuple(sum(w * out[k] for w, out in zip(ws, outs)) for k in range(3))

    def split(x):
        parts = [f.split_at(x) for f in fs]
        if None in parts:
            return None
        return (sum(w * c for w, (c, _) in zip(ws, parts)),
                sum(w * A for w, (_, A) in zip(ws, parts)))

    mu = None
    if all(f.mu_analytic is not None for f in fs):
        def mu(t):
            return sum(abs(w) * f.mu_analytic(t) for w, f in zip(ws, fs))

    nonnegative = all(w >= 0 for w in ws)
    g = Integrand(fn, M, N, tag="composite", mu_analytic=mu,
                  convex=nonnegative and all(f.convex for f in fs), one_pass=one_pass,
                  split=split)
    return _with_recession(g, fs, lambda recs: composite(list(zip(ws, recs))))


def modulate(f, c0, cvec):
    """Affine spatial modulation c(x) f(xi) with c(x) = c0 + cvec . x > 0."""
    cvec = np.atleast_1d(np.asarray(cvec, dtype=float))

    def c(x):
        # summed per row: x @ cvec rounds a lone row (BLAS dot) unlike a row
        # of a block (gemv), and a row's value must not depend on the rows
        # evaluated with it
        return c0 + (x * cvec).sum(axis=-1)

    def fn(x, xi):
        return c(x) * f(x, xi)

    def one_pass(x, xi, delta):
        cx = c(x)
        val, exact, grad = f.evaluate(x, xi, delta)
        return cx * val, cx * exact, cx[:, None, None] * grad

    def split(x):
        part = f.split_at(x)
        return None if part is None else (c(x) * part[0], c(x) * part[1])

    g = Integrand(fn, f.M, f.N, tag=f"modulated({f.tag})", one_pass=one_pass,
                  split=split)
    return _with_recession(g, [f], lambda recs: modulate(recs[0], c0, cvec))


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

    def one_pass(x, xi, delta):
        return f.evaluate(xs(len(xi)), xi, delta)

    g = Integrand(fn, f.M, f.N, tag=f"frozen({f.tag})", mu_analytic=f.mu_analytic,
                  convex=f.convex, one_pass=one_pass, split=lambda x: f.split_at(x0))
    g.frozen = (f, x0)
    return _with_recession(g, [f], lambda recs: freeze_x(recs[0], x0))
