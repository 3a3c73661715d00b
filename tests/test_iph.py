"""Inhomogeneous layer: rate functions, scaled families, product integrals,
thinning simulation."""

import functools
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad

from iphfit.errors import (
    DegenerateConditioningError,
    DomainError,
    IntegrationError,
    ValidationError,
)
from iphfit.iph import (
    IPHDist,
    constant_rate,
    inverse_linear_rate,
    iph_alpha_moment,
    iph_general_sf,
    iph_new,
    iph_overshoot,
    iph_pdf,
    iph_sample,
    iph_sf,
    path_new,
    piecewise_path,
    power_rate,
    product_integral,
    rate_function,
    scaled_path,
    thinning_sample,
)
from iphfit import iph
from iphfit.matfun import AnalyticFunction
from iphfit.phcore import erlang_rep, ph_mean, ph_new, ph_pdf, ph_sample, ph_sf

from oracles import (
    ks_critical,
    ks_distance,
    left_product,
    ode_product_integral,
    random_probability,
    random_sub_intensity,
)


def rate_suite():
    return [
        constant_rate(1.0),
        constant_rate(2.5),
        power_rate(2.0),
        power_rate(0.5),
        inverse_linear_rate(1.0),
        inverse_linear_rate(3.0),
    ]


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

def test_rate_function_validation():
    with pytest.raises(ValidationError):
        rate_function(lambda t: t - 1.0, name="signed")  # negative on the grid
    # primitive must start at zero
    with pytest.raises(ValidationError):
        rate_function(lambda t: 1.0, primitive=lambda t: t + 1.0, name="offset")
    # inverse must actually invert
    with pytest.raises(ValidationError):
        rate_function(
            lambda t: 1.0,
            primitive=lambda t: t,
            inverse_primitive=lambda u: 2.0 * u,
            name="mismatched",
        )


def test_rate_function_numeric_fallbacks():
    # only the rate given: primitive by quadrature, inverse by root finding
    r = rate_function(lambda t: 2.0 * t + 1.0, name="affine")
    assert r.primitive_at(2.0) == pytest.approx(6.0, rel=1e-9)
    assert r.inverse_at(6.0) == pytest.approx(2.0, rel=1e-8)


def test_quadrature_primitive_inverts_to_its_argument():
    # no closed form for either map: R by quadrature, R^{-1} by the solver
    r = rate_function(lambda t: 2.0 * t + 1.0 + np.sin(t) ** 2, name="wiggly")
    assert r.primitive is None and r.inverse_primitive is None
    xs = np.array([0.0, 1e-6, 0.3, 1.0, 4.2, 37.0])
    back = r.inverse_at(r.primitive_at(xs))
    assert back[0] == 0.0
    np.testing.assert_allclose(back[1:], xs[1:], rtol=1e-9)
    assert r.inverse_at(0.0) == 0.0
    assert r.inverse_at(float(r.primitive_at(4.2))) == pytest.approx(4.2, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solver_inverts_far_primitive_values():
    # R(x) = sqrt(x) is given without its inverse, so the solver has to
    # bracket roots up to 1e300, 997 octaves above its start at 1
    r = rate_function(lambda t: 0.5 / np.sqrt(t), primitive=np.sqrt)
    assert r.inverse_at(1e30) == pytest.approx(1e60, rel=1e-9, abs=0.0)
    np.testing.assert_allclose(r.inverse_at(np.array([1e30, 1e150])), [1e60, 1e300], rtol=1e-9)


def test_solver_inversion_rejects_nan():
    r = rate_function(lambda t: 2.0 * t + 1.0, primitive=lambda x: x * x + x)
    assert r.inverse_at(1.0) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-9)
    for y in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(DomainError):
            r.inverse_at(y)


def test_builtin_rates_round_trip():
    for r in rate_suite():
        for x in (0.3, 1.0, 4.2):
            u = r.primitive_at(x)
            assert r.inverse_at(u) == pytest.approx(x, rel=1e-9)


# ---------------------------------------------------------------------------
# scaled IPH evaluators
# ---------------------------------------------------------------------------

def test_iph_cdf_keeps_its_digits_near_zero():
    from iphfit import iph_cdf

    d = iph_new(erlang_rep(2, 1.0), power_rate(2.0))
    with mpmath.workdps(40):
        want = float(mpmath.gammainc(2, 0, mpmath.mpf(1e-5) ** 2, regularized=True))
    assert iph_cdf(d, 1e-5) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_identity_rate_reduces_to_base():
    rng = np.random.default_rng(11)
    base = ph_new(random_probability(rng, 3), random_sub_intensity(rng, 3))
    d = iph_new(base, constant_rate(1.0))
    xs = np.linspace(0.0, 12.0, 100)
    assert np.max(np.abs(iph_sf(d, xs) - ph_sf(base, xs))) < 1e-12
    assert np.max(np.abs(iph_pdf(d, xs) - ph_pdf(base, xs))) < 1e-12
    a = iph_sample(d, np.random.default_rng(7), 2000)
    b = ph_sample(base, np.random.default_rng(7), 2000)
    assert np.array_equal(a, b)


def test_power_rate_gives_weibull():
    lam, beta = 1.5, 2.0
    d = iph_new(erlang_rep(1, lam), power_rate(beta))
    xs = np.linspace(0.01, 3.0, 80)
    want_sf = np.exp(-lam * xs**beta)
    want_pdf = lam * beta * xs ** (beta - 1.0) * want_sf
    assert np.max(np.abs(iph_sf(d, xs) - want_sf)) < 1e-12
    assert np.max(np.abs(iph_pdf(d, xs) - want_pdf) / want_pdf) < 1e-11


def test_inverse_linear_rate_gives_pareto():
    lam, scale = 2.0, 1.5
    d = iph_new(erlang_rep(1, lam), inverse_linear_rate(scale))
    xs = np.linspace(0.0, 40.0, 80)
    want_sf = (1.0 + xs / scale) ** (-lam)
    assert np.max(np.abs(iph_sf(d, xs) - want_sf)) < 1e-12


def test_iph_pdf_integrates_to_one():
    from iphfit.phcore import ph_quantile

    rng = np.random.default_rng(21)
    base = ph_new(random_probability(rng, 3), random_sub_intensity(rng, 3))
    for r in (power_rate(2.0), inverse_linear_rate(1.0)):
        d = iph_new(base, r)
        hi = r.inverse_at(ph_quantile(base, 0.9999))
        # geometric segments: heavy-tailed transforms spread mass over
        # many decades and a single quad call misses it
        edges = np.concatenate([[0.0], np.geomspace(1e-3, hi, 40)])
        total = sum(
            quad(lambda x: float(iph_pdf(d, x)), a, b, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        assert abs(total + float(iph_sf(d, hi)) - 1.0) < 1e-6


def test_overshoot_sf_identity():
    rng = np.random.default_rng(31)
    base = ph_new(random_probability(rng, 3), random_sub_intensity(rng, 3))
    d = iph_new(base, inverse_linear_rate(2.0))
    s = 1.7
    exc = iph_overshoot(d, s)
    ts = np.linspace(0.0, 10.0, 40)
    want = iph_sf(d, s + ts) / iph_sf(d, s)
    got = iph_sf(exc, ts)
    assert np.max(np.abs(got - want)) < 1e-10


def test_overshoot_sf_identity_me_base():
    me = ph_new([101.0, 0.0, 0.0], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-101.0, -103.0, -3.0]],
                markov=False, exit=[0.0, 0.0, 1.0])
    d = iph_new(me, power_rate(1.5))
    s = 0.9
    exc = iph_overshoot(d, s)
    assert not exc.base.markov
    ts = np.linspace(0.0, 3.0, 30)
    want = iph_sf(d, s + ts) / iph_sf(d, s)
    assert np.max(np.abs(iph_sf(exc, ts) - want)) < 1e-9


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_overshoot_rejects_a_non_finite_level(s):
    d = iph_new(erlang_rep(2, 1.0), inverse_linear_rate(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"level {s}"):
            iph_overshoot(d, s)


def test_overshoot_composition():
    d = iph_new(erlang_rep(2, 1.0), inverse_linear_rate(1.0))
    one = iph_overshoot(iph_overshoot(d, 0.8), 1.4)
    two = iph_overshoot(d, 2.2)
    ts = np.linspace(0.0, 15.0, 50)
    assert np.max(np.abs(iph_sf(one, ts) - iph_sf(two, ts))) < 1e-9


def test_overshoot_degenerate_conditioning():
    d = iph_new(erlang_rep(1, 1.0), power_rate(2.0))
    with pytest.raises(DegenerateConditioningError, match="level 1000000.0"):
        iph_overshoot(d, 1e6)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
def test_pdf_sf_reject_bad_points(bad):
    d = iph_new(erlang_rep(2, 1.0), power_rate(2.0))
    for fn in (iph_pdf, iph_sf):
        with pytest.raises(DomainError):
            fn(d, bad)
        with pytest.raises(DomainError):
            fn(d, np.array([0.5, bad]))


def test_alpha_moment_examples():
    # identity transform, alpha=1: the plain mean
    rng = np.random.default_rng(41)
    base = ph_new(random_probability(rng, 3), random_sub_intensity(rng, 3))
    d = iph_new(base, constant_rate(1.0))
    L = AnalyticFunction(lambda z: 1.0 / z**2, lambda z, k: (-1.0) ** k * math.factorial(k + 1) / z ** (k + 2), name="L_id")
    assert iph_alpha_moment(d, 1.0, L) == pytest.approx(ph_mean(base), rel=1e-10)

    # g(x) = e^x - 1, Er2(3) base: E(Y) = pi (-I-T)^{-1} t - 1
    base2 = erlang_rep(2, 3.0)
    d2 = iph_new(base2, inverse_linear_rate(1.0))
    Lexp = AnalyticFunction(lambda z: 1.0 / (z - 1.0) - 1.0 / z, name="L_expm1")
    got = iph_alpha_moment(d2, 1.0, Lexp)
    eye = np.eye(2)
    want = float(base2.pi @ np.linalg.solve(-eye - base2.T, base2.exit)) - 1.0
    assert got == pytest.approx(want, rel=1e-9)

    # g(x) = x^{1/2}, alpha=2: g^2 = identity, so equals the mean again
    d3 = iph_new(base, power_rate(0.5))
    assert iph_alpha_moment(d3, 2.0, L) == pytest.approx(ph_mean(base), rel=1e-10)

    with pytest.raises(DomainError):
        iph_alpha_moment(d, -1.0, L)


def test_iph_sample_ks_for_each_rate():
    n = 10**5
    crit = ks_critical(n, 0.01)
    base = erlang_rep(2, 1.3)
    for i, r in enumerate(rate_suite()):
        d = iph_new(base, r)
        draws = iph_sample(d, np.random.default_rng(700 + i), n)
        dist = ks_distance(draws, lambda x: 1.0 - iph_sf(d, x))
        assert dist < crit, f"{r.name}: KS {dist} >= {crit}"


# ---------------------------------------------------------------------------
# matrix paths and product integration
# ---------------------------------------------------------------------------

def test_path_new_validates_on_check_times():
    A = np.array([[-1.0, 0.5], [0.2, -1.0]])
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    path = path_new(lambda t: A, "const")
    assert np.array_equal(path.at(0.3), A)
    with pytest.raises(ValidationError):
        path_new(lambda t: bad if t > 0.5 else A, "broken", check_times=[0.1, 0.9])


def test_product_integral_constant_path():
    rng = np.random.default_rng(61)
    T = random_sub_intensity(rng, 3)
    path = path_new(lambda t: T, "const")
    got = product_integral(path, 0.2, 1.7)
    want = sla.expm(1.5 * T)
    assert np.max(np.abs(got - want)) < 1e-8


def test_product_integral_commuting_family():
    rng = np.random.default_rng(62)
    T = random_sub_intensity(rng, 3)
    r = power_rate(2.0)
    path = scaled_path(r, T)
    s, t = 0.4, 2.1
    got = product_integral(path, s, t)
    want = sla.expm((r.primitive_at(t) - r.primitive_at(s)) * T)
    assert np.max(np.abs(got - want)) < 1e-8


def test_product_integral_identities_and_errors():
    T = np.array([[-1.0, 0.3], [0.1, -0.8]])
    path = path_new(lambda t: T, "const")
    assert np.array_equal(product_integral(path, 1.0, 1.0), np.eye(2))
    with pytest.raises(DomainError):
        product_integral(path, 2.0, 1.0)


@pytest.mark.parametrize(
    "s, t", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0)]
)
def test_product_integral_rejects_nonfinite_ends(s, t):
    path = path_new(lambda u: np.array([[-1.0, 0.3], [0.1, -0.8]]), "const")
    with pytest.raises(DomainError):
        product_integral(path, s, t)


def test_product_integral_noncommuting_piecewise():
    A = np.array([[-1.0, 1.0], [0.0, -2.0]])
    B = np.array([[-2.0, 0.0], [1.5, -1.5]])
    assert np.max(np.abs(A @ B - B @ A)) > 0.1  # genuinely non-commuting
    path = piecewise_path([0.5], [A, B])
    got = product_integral(path, 0.0, 1.0)
    want = left_product(path.at, 0.0, 1.0, steps=100000)  # delta = 1e-5
    assert np.max(np.abs(got - want)) < 1e-5
    # exact piecewise answer: expm(0.5 A) expm(0.5 B)
    exact = sla.expm(0.5 * A) @ sla.expm(0.5 * B)
    assert np.max(np.abs(got - exact)) < 1e-8


def test_product_integral_chapman_kolmogorov():
    rng = np.random.default_rng(63)
    T1 = random_sub_intensity(rng, 3)
    T2 = random_sub_intensity(rng, 3)
    path = piecewise_path([1.0], [T1, T2])
    s, u, t = 0.2, 0.9, 1.8
    lhs = product_integral(path, s, u) @ product_integral(path, u, t)
    rhs = product_integral(path, s, t)
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_product_integral_smooth_noncommuting_path():
    T0 = np.array([[-2.0, 1.0, 0.5], [0.3, -1.5, 0.7], [0.2, 0.1, -1.0]])
    B = np.array([[-1.0, 0.0, 0.9], [0.5, -0.8, 0.0], [0.0, 0.6, -0.7]])
    assert np.max(np.abs(T0 @ B - B @ T0)) > 0.1
    path = path_new(lambda u: T0 + 0.5 * (1.0 + np.sin(u)) * B, "smooth")
    got = product_integral(path, 0.0, 4.0)
    want = ode_product_integral(path.at, 0.0, 4.0)
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("c", [0.05, 0.5, 1.0, 1.3, 1.95])
def test_product_integral_finds_an_undeclared_jump(c):
    # no node of a step lies within 0.1 h of its ends; a jump there must
    # still shrink the step, though no breakpoint declares it
    A = np.array([[-1.0, 1.0], [0.0, -2.0]])
    B = np.array([[-2.0, 0.0], [1.5, -1.5]])
    path = path_new(lambda u: A if u < c else B, "jump", check_times=[0.01, 1.99])
    got = product_integral(path, 0.0, 2.0)
    assert np.max(np.abs(got - sla.expm(c * A) @ sla.expm((2.0 - c) * B))) < 1e-8


@pytest.mark.parametrize("c", [0.3, 0.7, 1.5])
def test_product_integral_finds_an_undeclared_kink(c):
    T0 = np.array([[-2.0, 1.0, 0.5], [0.3, -1.5, 0.7], [0.2, 0.1, -1.0]])
    B = np.array([[-1.0, 0.0, 0.9], [0.5, -0.8, 0.0], [0.0, 0.6, -0.7]])

    def f(u):
        return T0 + abs(u - c) * B

    got = product_integral(path_new(f, "kink"), 0.0, 2.0)
    want = ode_product_integral(f, 0.0, c) @ ode_product_integral(f, c, 2.0)
    assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("beta", [0.5, 0.2])
def test_product_integral_rate_singular_at_zero(beta):
    # rate(0) = inf: the Gauss nodes are interior, so T(0) is never formed
    T = np.array([[-2.0, 1.5], [0.3, -1.1]])
    path = scaled_path(power_rate(beta), T)
    t0 = time.perf_counter()
    got = product_integral(path, 0.0, 2.0)
    elapsed = time.perf_counter() - t0
    assert np.max(np.abs(got - sla.expm(2.0**beta * T))) < 1e-8
    assert elapsed < 5.0


def _count_mat_exp(monkeypatch):
    calls = []

    def counting(A):
        calls.append(None)
        return sla.expm(A)

    monkeypatch.setattr(iph, "mat_exp", counting)
    return calls


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_product_integral_costs_three_exponentials_per_piece(monkeypatch, k):
    rng = np.random.default_rng(65)
    mats = [random_sub_intensity(rng, 4) for _ in range(k)]
    path = piecewise_path(np.arange(1, k, dtype=float), mats)
    calls = _count_mat_exp(monkeypatch)
    got = product_integral(path, 0.0, float(k))
    assert len(calls) <= 3 * k
    want = functools.reduce(np.matmul, [sla.expm(m) for m in mats])
    assert np.max(np.abs(got - want)) < 1e-12


def test_product_integral_constant_path_costs_three_exponentials(monkeypatch):
    T = np.array([[-1.0, 0.3], [0.1, -0.8]])
    path = path_new(lambda u: T, "const")
    calls = _count_mat_exp(monkeypatch)
    got = product_integral(path, 0.0, 7.5)
    assert len(calls) == 3
    assert np.max(np.abs(got - sla.expm(7.5 * T))) < 1e-12


def test_product_integral_names_a_nonfinite_node():
    T = np.array([[-1.0, 0.3], [0.1, -0.8]])
    path = path_new(lambda u: T if u < 1.0 else np.full((2, 2), np.nan), "nan", check_times=[0.5])
    with pytest.raises(ValidationError, match=r"T\(1\.\d*\).*finite"):
        product_integral(path, 0.0, 2.0)


def test_product_integral_names_a_node_of_the_wrong_order():
    T = np.array([[-1.0, 0.3], [0.1, -0.8]])
    path = path_new(lambda u: T if u < 1.0 else -np.eye(3), "grows", check_times=[0.5])
    with pytest.raises(ValidationError, match=r"T\(1\.\d*\) has shape \(3, 3\), expected \(2, 2\)"):
        product_integral(path, 0.0, 2.0)


@pytest.mark.parametrize(
    "fill", [np.random.default_rng(66).random, lambda shape: np.full(shape, np.nan)]
)
def test_product_integral_step_underflow_ends_the_loop(monkeypatch, fill):
    # an exponential that never settles rejects every step until u + h == u
    monkeypatch.setattr(iph, "mat_exp", lambda A: fill(A.shape))
    path = path_new(lambda u: np.array([[-1.0]]), "const")
    with pytest.raises(IntegrationError, match="underflowed at u = 1"):
        product_integral(path, 1.0, 2.0)


def test_general_sf_matches_scaled_analytic():
    base = erlang_rep(2, 1.5)
    r = inverse_linear_rate(1.0)
    d = iph_new(base, r)
    path = scaled_path(r, base.T)
    for x in (0.0, 0.5, 2.0, 8.0):
        got = iph_general_sf(base.pi, path, x)
        assert got == pytest.approx(float(iph_sf(d, x)), abs=1e-8)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_general_sf_rejects_nonfinite_points(x):
    base = erlang_rep(2, 1.5)
    path = scaled_path(inverse_linear_rate(1.0), base.T)
    with pytest.raises(DomainError):
        iph_general_sf(base.pi, path, x)


def test_piecewise_path_lookup_side():
    A = np.array([[-1.0]])
    B = np.array([[-2.0]])
    path = piecewise_path([1.0], [A, B])
    assert path.at(0.999)[0, 0] == -1.0
    assert path.at(1.0)[0, 0] == -2.0  # right-continuous at the cut
    with pytest.raises(ValidationError):
        piecewise_path([2.0, 1.0], [A, B, A])


@pytest.mark.parametrize("cut", [math.nan, math.inf, -math.inf])
def test_piecewise_path_rejects_nonfinite_cuts(cut):
    A = np.array([[-1.0]])
    with pytest.raises(ValidationError, match="finite"):
        piecewise_path([cut], [A, A])


def test_piecewise_path_rejects_mixed_orders():
    with pytest.raises(ValidationError, match="one order"):
        piecewise_path([1.0], [np.array([[-1.0]]), -np.eye(2)])


@pytest.mark.parametrize(
    "pi, message",
    [([1.0], "pi has length 1 but T is 2x2"), ([1.2, -0.2], r"pi\[1\] = -0.2 is negative")],
)
def test_general_sf_and_thinning_check_the_start_vector(pi, message):
    base = erlang_rep(2, 1.5)
    path = scaled_path(constant_rate(1.0), base.T)
    with pytest.raises(ValidationError, match=message):
        iph_general_sf(pi, path, 1.0)
    with pytest.raises(ValidationError, match=message):
        thinning_sample(pi, path, 2.0, np.random.default_rng(5), 10)
    with pytest.raises(ValidationError, match=message):
        ph_new(pi, base.T)


@pytest.mark.parametrize("bound", [math.inf, math.nan, 0.0, -1.0])
def test_thinning_rejects_a_bad_rate_bound(bound):
    base = erlang_rep(1, 1.0)
    path = scaled_path(constant_rate(1.0), base.T)
    with pytest.raises(ValidationError, match="rate bound"):
        thinning_sample(base.pi, path, bound, np.random.default_rng(6), 10)


def test_thinning_rejects_a_negative_count():
    base = erlang_rep(1, 1.0)
    path = scaled_path(constant_rate(1.0), base.T)
    with pytest.raises(DomainError, match="count must be nonnegative"):
        thinning_sample(base.pi, path, 2.0, np.random.default_rng(7), -1)


def test_thinning_matches_analytic_sf():
    base = erlang_rep(2, 1.0)
    r = power_rate(2.0)
    path = scaled_path(r, base.T)
    n = 200000
    draws = thinning_sample(base.pi, path, rate_bound=20.0, rng=np.random.default_rng(99), count=n)
    d = iph_new(base, r)
    for x in (0.5, 1.0, 1.5):
        p_hat = float(np.mean(draws > x))
        p = float(iph_sf(d, x))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(p_hat - p) < 3.0 * se + 1e-12


def test_thinning_detects_rate_bound_violation():
    base = erlang_rep(1, 1.0)
    path = scaled_path(power_rate(2.0), base.T)
    with pytest.raises(ValidationError):
        thinning_sample(base.pi, path, rate_bound=0.05, rng=np.random.default_rng(1), count=100)


def test_thinning_rejects_a_rate_unbounded_at_the_start():
    # exit rate 2 t^(-1/2) passes 50 only for t < 1.6e-3, where few
    # candidate times fall: the check at t = 0 catches it for every seed
    path = scaled_path(power_rate(0.5), erlang_rep(1, 2.0).T)
    for seed in range(20):
        with pytest.raises(ValidationError, match=r"violated at t = 0\.0 \(exit rates \[inf\]\)"):
            thinning_sample([1.0], path, 50.0, np.random.default_rng(seed), 20)


def test_thinning_checks_every_state_and_each_breakpoint():
    # a piece of width 1e-9 whose rates pass the bound: candidates at rate
    # 2 all but never land in it, but the breakpoint check does
    low = np.array([[-1.0, 0.5], [0.0, -1.0]])
    path = piecewise_path([1.0, 1.0 + 1e-9], [low, 100.0 * low, low])
    with pytest.raises(ValidationError, match=r"violated at t = 1\.0 "):
        thinning_sample([1.0, 0.0], path, 2.0, np.random.default_rng(8), 50)
    # state 1 is never entered from state 0, yet its exit rate is checked
    path = scaled_path(constant_rate(1.0), np.diag([-1.0, -5.0]))
    with pytest.raises(ValidationError, match=r"violated at t = 0\.0 "):
        thinning_sample([1.0, 0.0], path, 2.0, np.random.default_rng(9), 50)


def test_thinning_deterministic_under_seed():
    base = erlang_rep(1, 1.0)
    path = scaled_path(constant_rate(1.0), base.T)
    a = thinning_sample(base.pi, path, 2.0, np.random.default_rng(4), 500)
    b = thinning_sample(base.pi, path, 2.0, np.random.default_rng(4), 500)
    assert np.array_equal(a, b)


class _TopUniformRng:
    """Generator stub: every uniform is 1 - 2^-53, the largest double below 1."""

    def choice(self, n, size, p):
        return np.zeros(size, dtype=np.int64)

    def exponential(self, scale, size):
        return np.full(size, scale)

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


def test_thinning_top_uniform_absorbs():
    # state 0's jump probabilities sum to 1 - 2^-53 after normalization, so
    # the top uniform passes every cumulative entry unless the last is pinned
    T = np.diag([-1.3] * 5)
    T[0, 1:] = [0.1, 0.1, 0.3, 0.3]
    path = path_new(lambda t: T, check_times=[0.0])
    draws = thinning_sample(np.eye(5)[0], path, 1.3, _TopUniformRng(), 4)
    assert np.array_equal(draws, np.full(4, 1.0 / 1.3))
