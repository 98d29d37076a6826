import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvlsc.boundary import _sphere_floor
from bvlsc.integrands import (
    Integrand,
    RecessionLimitError,
    catalog_get,
    catalog_tags,
    composite,
    estimated_recession,
    freeze_x,
    modulate,
    mu_estimate,
    recession_estimate,
)

CATALOG_1D = [
    ("linear", {"matrix": [[1.0]]}),
    ("norm", {"M": 1, "N": 1}),
    ("negnorm", {"M": 1, "N": 1}),
    ("area", {"M": 1, "N": 1}),
    ("boundary_null_lagrangian", {"a": [1.0], "t": [1.0]}),
    ("norm_sin", {"M": 1, "N": 1}),
]


def random_xis(M, N, k, seed=0, radius=3.0):
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(k, M, N))
    scale = radius * rng.random(k) + 0.1
    xi *= (scale / np.linalg.norm(xi.reshape(k, -1), axis=1))[:, None, None]
    return xi


def test_recession_area_is_norm():
    f = catalog_get("area", {"M": 1, "N": 2})
    xi = np.array([[0.6, -0.8]])
    est = recession_estimate(f, np.zeros(2), xi)
    assert est.value == pytest.approx(1.0, abs=1e-8)


def test_recession_linear_is_itself():
    A = np.array([[2.0, -1.0]])
    f = catalog_get("linear", {"matrix": A.tolist()})
    xi = np.array([[1.0, 3.0]])
    est = recession_estimate(f, np.zeros(2), xi)
    assert est.value == pytest.approx(float(np.sum(A * xi)), abs=1e-10)


def test_recession_zero_matrix():
    f = catalog_get("area")
    est = recession_estimate(f, np.zeros(1), np.zeros((1, 1)))
    assert est.value == 0.0


def test_recession_norm_sin_tail():
    f = catalog_get("norm_sin")
    for xi in random_xis(1, 1, 20, seed=3):
        est = recession_estimate(f, np.zeros(1), xi)
        assert abs(est.value - np.linalg.norm(xi)) <= 1e-4


def test_recession_not_detected_raises():
    def fn(x, xi):
        n = np.linalg.norm(xi.reshape(len(xi), -1), axis=1)
        return n * np.sin(np.log1p(n))

    f = Integrand(fn, 1, 1, growth=2.0, tag="oscillating")
    with pytest.raises(RecessionLimitError):
        recession_estimate(f, np.zeros(1), np.array([[1.0]]))


def test_estimated_recession_matches_analytic():
    f = catalog_get("area", {"M": 1, "N": 2})
    est = estimated_recession(f)
    xi = random_xis(1, 2, 10, seed=1)
    x = np.zeros((10, 2))
    assert np.allclose(est(x, xi), f.recession(x, xi), atol=1e-6)


def test_mu_area_analytic_bound():
    f = catalog_get("area")
    rep = mu_estimate(f, f.recession, 10.0, budget=500)
    assert rep["sampled"] <= np.sqrt(1 + 100.0) - 10.0 + 1e-12
    assert rep["analytic"] <= 0.05
    assert rep["sampled"] <= rep["analytic"] + 1e-12


def test_mu_linear_is_zero():
    f = catalog_get("linear", {"matrix": [[3.0]]})
    for t in (0.0, 1.0, 100.0):
        rep = mu_estimate(f, f.recession, t, budget=200)
        assert rep["sampled"] == 0.0
        assert rep["analytic"] == 0.0


def test_mu_at_zero_attained_at_origin():
    f = catalog_get("area")
    rep = mu_estimate(f, f.recession, 0.0, budget=500)
    assert rep["sampled"] == pytest.approx(1.0, abs=1e-12)
    assert rep["analytic"] == pytest.approx(1.0)


def test_catalog_linear_unit_is_plain_integral_density():
    f = catalog_get("linear", {"matrix": [[1.0]]})
    xi = np.array([[[0.37]]])
    assert f(np.zeros((1, 1)), xi)[0] == pytest.approx(0.37)
    assert f.recession(np.zeros((1, 1)), xi)[0] == pytest.approx(0.37)


def test_catalog_null_lagrangian():
    f = catalog_get("boundary_null_lagrangian", {"a": [2.0], "t": [0.0, 1.0]})
    xi = np.array([[[0.5, 0.25]]])
    assert f(np.zeros((1, 2)), xi)[0] == pytest.approx(0.5)  # 2 * 0.25


def test_catalog_negnorm_growth():
    f = catalog_get("negnorm")
    assert f.growth == 1.0
    assert f.at([0.0], [[3.0]]) == -3.0
    assert f.spot_check()["growth_ok"]


def test_catalog_growth_bounds():
    for tag, params in CATALOG_1D:
        f = catalog_get(tag, params)
        assert f.spot_check()["growth_ok"], tag


def test_every_catalog_integrand_and_composite_has_a_recession():
    fs = [catalog_get(tag, params) for tag, params in CATALOG_1D]
    fs.append(catalog_get("composite", {"terms": [[1.0, {"tag": tag, "params": params}]
                                                  for tag, params in CATALOG_1D]}))
    assert {f.tag for f in fs} == set(catalog_tags()) | {"composite"}
    assert all(f.recession is not None for f in fs)


def test_recession_estimate_of_a_2d_integrand_gives_builtin_floats():
    f = catalog_get("area", {"M": 1, "N": 2})
    est = recession_estimate(f, [0.2, 0.3], [[1.0, -2.0]])
    assert type(est.value) is float and type(est.joint_stability) is float


def test_homogeneity_of_catalog_recessions():
    for tag, params in CATALOG_1D:
        f = catalog_get(tag, params)
        assert f.recession.homogeneity_check() <= 1e-10, tag


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(-3.0, 3.0))
def test_recession_positive_homogeneity_property(alpha, v):
    f = catalog_get("area")
    xi = np.array([[[v]]])
    x = np.zeros((1, 1))
    lhs = f.recession(x, alpha * xi)[0]
    rhs = alpha * f.recession(x, xi)[0]
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_deviation_bound_against_analytic_modulus():
    # |f - finf| <= mu(|xi|) (1 + |xi|) on samples
    for tag, params in CATALOG_1D:
        f = catalog_get(tag, params)
        xi = random_xis(f.M, f.N, 64, seed=5, radius=20.0)
        x = np.zeros((64, f.N))
        dev = np.abs(f(x, xi) - f.recession(x, xi))
        mags = np.linalg.norm(xi.reshape(64, -1), axis=1)
        bound = np.array([f.mu_analytic(m) for m in mags]) * (1 + mags)
        assert np.all(dev <= bound + 1e-9), tag


def test_mu_monotone_and_vanishing():
    grid = [1.0, 10.0, 100.0, 1e4, 1e6]
    for tag, params in CATALOG_1D:
        f = catalog_get(tag, params)
        vals = [mu_estimate(f, f.recession, t, budget=400)["analytic"] for t in grid]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1)), tag
        assert vals[-1] < 1e-3, tag


def test_composite_modulus_bounds_its_deviation():
    # mu = sum |w_i| mu_i, |f - finf| <= mu(|xi|) (1 + |xi|), and mu_estimate
    # reports it; a term without a modulus leaves the composite without one
    area, wavy = catalog_get("area"), catalog_get("norm_sin")
    f = composite([(2.0, area), (-0.5, wavy)])
    for t in (0.0, 1.0, 10.0):
        assert f.mu_analytic(t) == 2.0 * area.mu_analytic(t) + 0.5 * wavy.mu_analytic(t)
        assert mu_estimate(f, f.recession, t, budget=200)["analytic"] == f.mu_analytic(t)
    xi = random_xis(1, 1, 64, seed=6, radius=20.0)
    x = np.zeros((64, 1))
    mags = np.abs(xi[:, 0, 0])
    bound = np.array([f.mu_analytic(m) for m in mags]) * (1 + mags)
    assert np.all(np.abs(f(x, xi) - f.recession(x, xi)) <= bound + 1e-9)
    user = Integrand(lambda x, xi: xi[:, 0, 0], 1, 1, growth=1.0)
    assert composite([(1.0, area), (1.0, user)]).mu_analytic is None


def test_composite_recession_and_growth():
    f = composite([(2.0, catalog_get("norm")), (1.0, catalog_get("area"))])
    xi = np.array([[[4.0]]])
    x = np.zeros((1, 1))
    assert f(x, xi)[0] == pytest.approx(2 * 4 + np.sqrt(17.0))
    assert f.recession(x, xi)[0] == pytest.approx(3 * 4.0)
    assert f.growth == pytest.approx(3.0)


def test_modulate_scales_by_position():
    f = modulate(catalog_get("norm"), 2.0, [1.0])
    x = np.array([[0.5]])
    xi = np.array([[[2.0]]])
    assert f(x, xi)[0] == pytest.approx(2.5 * 2.0)
    assert f.recession(x, xi)[0] == pytest.approx(2.5 * 2.0)


def test_freeze_x_pins_position():
    f = modulate(catalog_get("norm"), 2.0, [1.0])
    g = freeze_x(f, [0.5])
    x = np.array([[0.9]])  # ignored
    xi = np.array([[[1.0]]])
    assert g(x, xi)[0] == pytest.approx(2.5)


SPLIT_2D = [
    ("linear", {"matrix": [[0.6, -0.8], [2.0, 1.0]]}),
    ("norm", {"M": 2, "N": 2}),
    ("negnorm", {"M": 1, "N": 2}),
    ("area", {"M": 1, "N": 2}),
    ("boundary_null_lagrangian", {"a": [1.0, -2.0], "t": [0.6, 0.8]}),
    ("norm_sin", {"M": 2, "N": 2}),
]


def _splits():
    """Recessions with a split, each with a point to split it at: the catalog,
    a composite with a negative weight, a modulation and a frozen one."""
    for tag, params in CATALOG_1D + SPLIT_2D:
        f = catalog_get(tag, params)
        yield tag, f, [0.3] * f.N
    lin = catalog_get("linear", {"matrix": [[0.6, -0.8]]})
    norm = catalog_get("norm", {"M": 1, "N": 2})
    both = composite([(2.0, norm), (-1.5, lin)])
    yield "composite", both, [0.3, 0.7]
    yield "modulate", modulate(both, 1.0, [0.5, -0.25]), [0.8, 0.4]
    yield "freeze_x", freeze_x(modulate(both, 1.0, [0.5, -0.25]), [0.8, 0.4]), [0.0, 0.0]


@pytest.mark.parametrize("name,f,x", list(_splits()), ids=[n for n, _, _ in _splits()])
def test_recession_split_reproduces_the_recession(name, f, x):
    c, A = f.recession.split_at(x)
    assert A.shape == (f.M, f.N)
    xi = random_xis(f.M, f.N, 16, seed=3)
    want = f.recession(np.tile(x, (16, 1)), xi)
    got = c * np.linalg.norm(xi.reshape(16, -1), axis=1) + np.einsum("mn,kmn->k", A, xi)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("tag,params", CATALOG_1D + SPLIT_2D,
                         ids=[f"{t}-{i}" for i, (t, _) in enumerate(CATALOG_1D + SPLIT_2D)])
def test_catalog_entry_splits_exactly_where_it_is_one_homogeneous(tag, params):
    f = catalog_get(tag, params)
    x = [0.3] * f.N
    if tag in ("area", "norm_sin"):
        assert f.split_at(x) is None
        return
    c, A = f.split_at(x)
    xi = random_xis(f.M, f.N, 16, seed=5)
    got = c * np.linalg.norm(xi.reshape(16, -1), axis=1) + np.einsum("mn,kmn->k", A, xi)
    np.testing.assert_allclose(got, f(np.tile(x, (16, 1)), xi), rtol=1e-14, atol=1e-14)


def test_split_is_known_only_where_every_part_has_one():
    est = estimated_recession(catalog_get("area"))
    assert est.split_at([0.0]) is None
    user = Integrand(lambda x, xi: np.abs(xi[:, 0, 0]), 1, 1, 1.0,
                     recession=est)
    mixed = composite([(1.0, catalog_get("norm")), (1.0, user)])
    assert mixed.recession.split_at([0.0]) is None
    assert modulate(user, 1.0, [0.5]).recession.split_at([0.0]) is None
    assert freeze_x(user, [0.5]).recession.split_at([0.0]) is None
    assert catalog_get("norm").recession.split_at([0.0])[0] == 1.0


def test_smoothed_surrogate_close_and_true_at_zero():
    f = catalog_get("norm")
    xi = np.array([[[1.0]]])
    x = np.zeros((1, 1))
    val, exact, _ = f.evaluate(x, xi, 1e-2)
    assert val[0] == pytest.approx(np.sqrt(1 + 1e-4))
    assert exact[0] == 1.0
    val, exact, _ = f.evaluate(x, xi, 0.0)
    assert val.tobytes() == exact.tobytes() == f(x, xi).tobytes()


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        catalog_get("mystery")
    assert len(catalog_tags()) == 6


@pytest.mark.parametrize("tag, params, key", [
    ("linear", {"matrix": [[float("inf"), 1.0]]}, "matrix"),
    ("linear", {"matrix": [[float("nan")]]}, "matrix"),
    ("boundary_null_lagrangian", {"a": [float("inf")], "t": [1.0]}, "a"),
    ("boundary_null_lagrangian", {"a": [1.0], "t": [float("nan"), 1.0]}, "t"),
    ("norm", {"M": True}, "M"),
])
def test_non_finite_or_bool_parameter_rejected(tag, params, key):
    with pytest.raises(ValueError, match=f"parameter '{key}'"):
        catalog_get(tag, params)


def test_grad_finite_difference_fallback():
    def fn(x, xi):
        return np.linalg.norm(xi.reshape(len(xi), -1), axis=1) ** 2

    f = Integrand(fn, 1, 2, growth=10.0)
    xi = np.array([[[1.0, -2.0]]])
    g = f.grad_xi(np.zeros((1, 2)), xi)
    assert np.allclose(g, 2 * xi, atol=1e-5)


# -- the pass: smoothed values, exact values and smoothed gradient -------------


def _entry(tag, N):
    params = {"linear": {"matrix": [[0.7, -0.4][:N]]},
              "boundary_null_lagrangian": {"a": [1.0], "t": [0.6, 0.8][:N]}}
    return catalog_get(tag, params.get(tag, {"M": 1, "N": N}))


def _one_pass_cases(N):
    """Every catalog entry, its recession as an integrand, and the
    combinators over them."""
    cases = {}
    for tag in catalog_tags():
        f = _entry(tag, N)
        cases[tag] = f
        cases[f"recession({tag})"] = f.recession
    cvec = [0.5, -0.4][:N]
    cases["composite"] = composite([(1.0, _entry("norm_sin", N)), (-0.5, _entry("negnorm", N)),
                                    (2.0, _entry("linear", N)), (0.3, _entry("area", N))])
    cases["modulate"] = modulate(_entry("norm", N), 1.2, cvec)
    cases["freeze_x"] = freeze_x(modulate(_entry("negnorm", N), 0.8, cvec), [0.3, 0.6][:N])
    cases["freeze_x(composite)"] = freeze_x(cases["composite"], [0.1, 0.2][:N])
    cases["recession(composite)"] = cases["composite"].recession
    cases["recession(modulate)"] = cases["modulate"].recession
    return cases


@pytest.mark.parametrize("N", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("delta", [0.0, 1e-2])
@pytest.mark.parametrize("name", sorted(_one_pass_cases(2)))
def test_one_pass_equals_the_three_calls(name, delta, N):
    """The pass against three other computations: its exact values carry the
    bits of f(x, xi) (a separate code path, fn), its smoothed values are the
    exact ones at delta = 0, and its gradient is the central difference of
    its smoothed values wherever xi != 0."""
    f = _one_pass_cases(N)[name]
    rng = np.random.default_rng(3)
    x = rng.random((7, N))
    xi = rng.normal(size=(7, 1, N))
    xi[[0, 4]] = 0.0  # f_inf(x, 0) reads +0.0, also for negnorm's -|xi|
    val, exact, grad = f.evaluate(x, xi, delta)
    assert exact.tobytes() == f(x, xi).tobytes()
    if delta == 0.0:
        assert val.tobytes() == exact.tobytes()
    diff = np.zeros_like(xi)
    for j in range(N):
        e = np.zeros_like(xi)
        e[:, 0, j] = 1e-6
        diff[:, 0, j] = (f.evaluate(x, xi + e, delta)[0] - f.evaluate(x, xi - e, delta)[0]) / 2e-6
    live = np.any(xi != 0.0, axis=(1, 2))
    assert np.allclose(grad[live], diff[live], rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("N", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("delta", [0.0, 1e-2])
def test_combined_recessions_combine_their_terms_passes(delta, N):
    """The recession of a composite, modulation or frozen integrand evaluates
    as that combinator over its terms' recessions: smoothed, with analytic
    gradients."""
    terms = [(1.0, _entry("norm_sin", N)), (-0.5, _entry("negnorm", N)),
             (2.0, _entry("linear", N)), (0.3, _entry("area", N))]
    cvec, x0 = [0.5, -0.4][:N], [0.3, 0.6][:N]
    f = _entry("norm", N)
    pairs = [
        (composite(terms), composite([(w, g.recession) for w, g in terms])),
        (modulate(f, 1.2, cvec), modulate(f.recession, 1.2, cvec)),
        (freeze_x(f, x0), freeze_x(f.recession, x0)),
    ]
    rng = np.random.default_rng(5)
    x = rng.random((7, N))
    xi = rng.normal(size=(7, 1, N))
    xi[[1, 5]] = 0.0
    for g, combined in pairs:
        got = g.recession.evaluate(x, xi, delta)
        want = combined.evaluate(x, xi, delta)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("name", sorted(_one_pass_cases(2)))
def test_a_recession_is_an_integrand_and_its_own_recession(name):
    rec = _one_pass_cases(2)[name].recession
    assert rec.recession is rec
    assert rec.as_integrand() is rec
    zero = rec(np.zeros((3, 2)), np.zeros((3, 1, 2)))
    assert zero.tobytes() == np.zeros(3).tobytes()  # +0.0


def test_combined_recessions_split_and_floor_by_the_rule_over_their_terms():
    """split_at: summed, scaled by c(x), taken at x0; the half-ball floor:
    c - |A|_F of that split, for any weights, under modulate and kept by
    freeze_x."""
    terms = [(1.0, _entry("norm_sin", 2)), (0.5, _entry("negnorm", 2)),
             (2.0, _entry("linear", 2)), (0.3, _entry("area", 2))]
    recs = [(w, f.recession) for w, f in terms]
    x, x0, cvec = np.array([0.3, 0.7]), np.array([0.1, 0.2]), np.array([0.5, -0.4])
    parts = [r.split_at(x) for _, r in recs]
    for g in (composite(terms), composite(recs)):
        c, A = g.recession.split_at(x)
        assert c == sum(w * p[0] for (w, _), p in zip(recs, parts))
        assert A.tobytes() == sum(w * p[1] for (w, _), p in zip(recs, parts)).tobytes()
        assert _sphere_floor(g.recession, x) == float(c) - float(np.linalg.norm(A))
    signed = [(1.0, terms[0][1]), (-0.5, terms[1][1])]
    assert _sphere_floor(composite(signed).recession, x) == 1.5
    f = _entry("norm", 2)
    cx = 1.2 + (x * cvec).sum()
    c, A = modulate(f, 1.2, cvec).recession.split_at(x)
    assert (c, A.tobytes()) == (cx * 1.0, (cx * np.zeros((1, 2))).tobytes())
    assert _sphere_floor(modulate(f, 1.2, cvec).recession, x) == cx
    frozen = freeze_x(composite(terms), x0).recession
    c, A = frozen.split_at(x)
    want = composite(terms).recession.split_at(x0)
    assert (c, A.tobytes()) == (want[0], want[1].tobytes())
    assert _sphere_floor(frozen, x) == _sphere_floor(composite(terms).recession, x0)
