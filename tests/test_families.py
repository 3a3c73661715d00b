"""Transformed families: densities, tails, moments, special quantities."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from iphfit.errors import (
    DegenerateConditioningError,
    DivergentMomentError,
    DomainError,
    NonConvergenceError,
    ValidationError,
)
from iphfit.families import (
    NegLogAffine,
    ParetoExp,
    Power,
    ShiftedPower,
    ShiftedTransform,
    ep_laplace,
    ep_mean,
    erlang_oracle,
    mixture_density,
    mixture_tph,
    mp_conditional_excess,
    mp_laplace,
    mp_shifted_frac_moment,
    mw_mgf,
    mw_moment,
    sp_mean,
    tph_cdf,
    tph_new,
    tph_pdf,
    tph_quantile,
    tph_sample,
    tph_sf,
)
from iphfit.phcore import erlang_rep, ph_mean, ph_new, ph_pdf

from oracles import (
    confluent_matfun,
    eig_matfun,
    erlang_gev_pdf,
    erlang_gumbel_pdf,
    erlang_weibull_pdf,
    gen_erlang_pareto_pdf,
    gev_cdf,
    gev_pdf,
    gumbel_cdf,
    gumbel_pdf,
    ks_critical,
    ks_distance,
    log_erlang_pdf,
    log_erlang_sf,
    mp_scaled_upper_gamma,
    pareto_pdf,
    pareto_sf,
    random_probability,
    random_sub_intensity,
    weibull_cdf,
    weibull_pdf,
)


def base_suite():
    rng = np.random.default_rng(314)
    out = [erlang_rep(1, 2.0), erlang_rep(3, 2.0)]
    for p in (2, 4):
        out.append(ph_new(random_probability(rng, p), random_sub_intensity(rng, p)))
    return out


def family_grid(d):
    """A well-inside-the-support grid for difference quotients."""
    lo, hi = d.transform.support(d.mu)
    qs = np.linspace(0.05, 0.95, 25)
    return tph_quantile(d, qs)


def all_transforms():
    return [
        ParetoExp(),
        ParetoExp(beta=2.0),
        Power(2.0),
        Power(0.7),
        NegLogAffine(0.5, 1.5),
        ShiftedPower(0.0, 1.0, 0.5),
        ShiftedPower(0.0, 1.0, -0.4),
    ]


# ---------------------------------------------------------------------------
# transform parameter validation
# ---------------------------------------------------------------------------

def test_transform_validation():
    with pytest.raises(ValidationError):
        Power(0.0)
    with pytest.raises(ValidationError):
        Power(-1.0)
    with pytest.raises(ValidationError):
        NegLogAffine(0.0, 0.0)
    with pytest.raises(ValidationError):
        ShiftedPower(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        ParetoExp(beta=-2.0)
    with pytest.raises(ValidationError):
        ShiftedTransform(ParetoExp(), float("nan"))
    # every map but ParetoExp starts at x = 0, so a negative shift would
    # put mass where g is undefined
    for g in (NegLogAffine(0.0, 1.0), Power(0.5), ShiftedPower(0.0, 1.0, 0.5)):
        with pytest.raises(ValidationError, match="negative"):
            ShiftedTransform(g, -0.1)
    assert ShiftedTransform(ParetoExp(), -9.3).support(1.0)[0] == pytest.approx(math.expm1(-9.3))


def test_tph_new_scale_resolution():
    base = erlang_rep(2, 3.0)
    d = tph_new(base, ParetoExp(beta=4.0))
    # scale = beta / mean, mean = 2/3
    assert d.mu == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert d.transform.scale(d.mu) == pytest.approx(6.0, rel=1e-13)


# ---------------------------------------------------------------------------
# closed-form Erlang oracles (density level)
# ---------------------------------------------------------------------------

def test_log_erlang_density_and_survival():
    ys = np.linspace(0.0, 50.0, 120)
    for n in (1, 3):
        for lam in (0.5, 3.0):
            d = tph_new(erlang_rep(n, lam), ParetoExp(beta=None))
            want = log_erlang_pdf(n, lam, ys)
            got = tph_pdf(d, ys)
            m = want > 1e-300
            assert np.max(np.abs(got[m] - want[m]) / want[m]) < 1e-10
            want_sf = log_erlang_sf(n, lam, ys)
            got_sf = tph_sf(d, ys)
            assert np.max(np.abs(got_sf - want_sf) / want_sf) < 1e-10


def test_erlang_oracle_matches_independent_forms():
    ys = np.linspace(0.1, 10.0, 40)
    assert np.allclose(erlang_oracle("pareto", 2, 1.5, ys), log_erlang_pdf(2, 1.5, ys), rtol=1e-13)
    assert np.allclose(
        erlang_oracle("weibull", 2, 1.5, ys, beta=2.0), erlang_weibull_pdf(2, 1.5, 2.0, ys), rtol=1e-13
    )
    yg = np.linspace(-3.0, 5.0, 40)
    assert np.allclose(
        erlang_oracle("gumbel", 2, 1.5, yg, mu=0.5, sigma=2.0),
        erlang_gumbel_pdf(2, 1.5, 0.5, 2.0, yg),
        rtol=1e-13,
    )
    yv = np.linspace(-1.5, 8.0, 40)
    assert np.allclose(
        erlang_oracle("gev", 2, 1.5, yv, mu=0.0, sigma=1.0, xi=0.5),
        erlang_gev_pdf(2, 1.5, 0.0, 1.0, 0.5, yv),
        rtol=1e-13,
    )


def test_weibull_gumbel_gev_erlang_forms():
    ys = np.geomspace(0.05, 4.0, 60)
    d = tph_new(erlang_rep(3, 1.2), Power(2.5))
    want = erlang_weibull_pdf(3, 1.2, 2.5, ys)
    assert np.max(np.abs(tph_pdf(d, ys) - want) / want) < 1e-10

    yg = np.linspace(-4.0, 6.0, 60)
    dg = tph_new(erlang_rep(2, 2.0), NegLogAffine(1.0, 1.5))
    wantg = erlang_gumbel_pdf(2, 2.0, 1.0, 1.5, yg)
    assert np.max(np.abs(tph_pdf(dg, yg) - wantg) / wantg) < 1e-10

    yv = np.linspace(-1.8, 10.0, 60)
    dv = tph_new(erlang_rep(2, 1.0), ShiftedPower(0.0, 1.0, 0.5))
    wantv = erlang_gev_pdf(2, 1.0, 0.0, 1.0, 0.5, yv)
    assert np.max(np.abs(tph_pdf(dv, yv) - wantv) / wantv) < 1e-10


def test_gen_erlang_partial_fractions():
    from iphfit.phcore import gen_erlang_rep

    rates = (1.0, 2.0, 4.0)
    d = tph_new(gen_erlang_rep(rates), ParetoExp(beta=None))
    ys = np.linspace(0.0, 30.0, 200)
    want = gen_erlang_pareto_pdf(rates, ys)
    got = tph_pdf(d, ys)
    # the partial-fraction sum cancels to rounding noise at y=0
    big = np.abs(want) > 1e-12
    assert np.max(np.abs(got - want)[big] / np.abs(want)[big]) < 1e-9
    assert np.max(np.abs(got - want)[~big]) < 1e-12


# ---------------------------------------------------------------------------
# scalar p=1 reductions
# ---------------------------------------------------------------------------

def test_scalar_reductions_all_families():
    lam = 1.7
    base = erlang_rep(1, lam)
    ys = np.linspace(0.01, 20.0, 100)
    # Pareto with unit scale
    d = tph_new(base, ParetoExp(beta=None))
    assert np.max(np.abs(tph_pdf(d, ys) - pareto_pdf(lam, 1.0, ys))) < 1e-12
    assert np.max(np.abs(tph_sf(d, ys) - pareto_sf(lam, 1.0, ys))) < 1e-12
    # Weibull
    beta = 2.0
    dw = tph_new(base, Power(beta))
    yw = np.linspace(0.01, 3.0, 100)
    assert np.max(np.abs(tph_pdf(dw, yw) - weibull_pdf(lam, beta, yw))) < 1e-12
    assert np.max(np.abs(tph_cdf(dw, yw) - weibull_cdf(lam, beta, yw))) < 1e-12
    # Gumbel
    mu, sigma = 0.5, 2.0
    dg = tph_new(base, NegLogAffine(mu, sigma))
    yg = np.linspace(-6.0, 14.0, 100)
    assert np.max(np.abs(tph_pdf(dg, yg) - gumbel_pdf(lam, mu, sigma, yg))) < 1e-12
    assert np.max(np.abs(tph_cdf(dg, yg) - gumbel_cdf(lam, mu, sigma, yg))) < 1e-12
    # GEV, both signs of xi
    for xi in (0.5, -0.4):
        dv = tph_new(base, ShiftedPower(0.0, 1.0, xi))
        lo, hi = dv.transform.support(dv.mu)
        start = lo + 0.02 if np.isfinite(lo) else float(tph_quantile(dv, 0.001))
        stop = hi - 0.02 if np.isfinite(hi) else 12.0
        yv = np.linspace(start, stop, 100)
        assert np.max(np.abs(tph_pdf(dv, yv) - gev_pdf(lam, 0.0, 1.0, xi, yv))) < 1e-12
        assert np.max(np.abs(tph_cdf(dv, yv) - gev_cdf(lam, 0.0, 1.0, xi, yv))) < 1e-12


def test_small_tails_keep_their_digits():
    # P(Y > y) of a decreasing map and P(Y <= y) of an increasing one are
    # small where the base's cdf is; a complement 1 - (...) cancels there
    base = erlang_rep(2, 1.0)
    gev = tph_new(base, ShiftedPower(0.0, 1.0, 0.5))
    pareto = tph_new(base, ParetoExp())
    with mpmath.workdps(40):
        for y in (1e3, 1e5):
            u = (1 + mpmath.mpf(y) / 2) ** -2
            want = float(mpmath.gammainc(2, 0, u, regularized=True))
            assert tph_sf(gev, y) == pytest.approx(want, rel=1e-12, abs=0.0)
        for y in (1e-6, 1e-9):
            want = float(mpmath.gammainc(2, 0, mpmath.log1p(y), regularized=True))
            assert tph_cdf(pareto, y) == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# generic structural invariants
# ---------------------------------------------------------------------------

def test_pdf_is_derivative_of_cdf():
    for base in base_suite()[:3]:
        for tr in all_transforms():
            d = tph_new(base, tr)
            ys = family_grid(d)
            h = 1e-5 * np.maximum(np.abs(ys), 1.0)
            num = (tph_sf(d, ys - h) - tph_sf(d, ys + h)) / (2.0 * h)
            got = tph_pdf(d, ys)
            denom = np.maximum(np.abs(got), 1e-12)
            assert np.max(np.abs(num - got) / denom) < 1e-4, (tr.tag, base.dim)


def test_pdf_integrates_to_one():
    base = erlang_rep(2, 1.5)
    for tr in all_transforms():
        d = tph_new(base, tr)
        lo, hi = d.transform.support(d.mu)
        top = float(tph_quantile(d, 1.0 - 1e-10)) if not np.isfinite(hi) else hi
        bottom = lo if np.isfinite(lo) else float(tph_quantile(d, 1e-11))
        if bottom == 0.0:
            # heavy tails reach top ~ 4e7: equal pieces would leave the
            # first one spanning all the mass, so go geometric past 0
            median = float(tph_quantile(d, 0.5))
            edges = np.concatenate([[0.0], np.geomspace(1e-3 * median, top, 39)])
        else:
            edges = np.linspace(bottom, top, 40)
        total = sum(
            quad(lambda y: float(tph_pdf(d, y)), a, b, limit=200)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        assert abs(total - 1.0) < 1e-6, tr.tag


def test_support_edges():
    base = erlang_rep(2, 1.0)
    # bounded above: xi < 0
    d = tph_new(base, ShiftedPower(0.0, 1.0, -0.5))
    lo, hi = d.transform.support(d.mu)
    assert math.isinf(lo) and hi == 2.0
    assert tph_sf(d, hi + 1.0) == 0.0
    assert tph_cdf(d, hi + 1.0) == 1.0
    assert tph_pdf(d, hi + 1.0) == 0.0
    # bounded below: xi > 0
    d2 = tph_new(base, ShiftedPower(1.0, 2.0, 0.5))
    lo2, hi2 = d2.transform.support(d2.mu)
    assert lo2 == 1.0 - 4.0 and math.isinf(hi2)
    assert tph_sf(d2, lo2 - 0.5) == 1.0
    assert tph_pdf(d2, lo2 - 0.5) == 0.0
    # increasing families start at 0
    d3 = tph_new(base, ParetoExp())
    assert tph_sf(d3, 0.0) == 1.0


@pytest.mark.parametrize("fn", [tph_sf, tph_pdf, tph_quantile], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "tr",
    [ParetoExp(), Power(0.7), NegLogAffine(1.0, 0.5), ShiftedPower(0.0, 2.0, -0.3)],
    ids=lambda tr: tr.tag,
)
def test_nan_arguments_are_rejected(fn, tr):
    d = tph_new(erlang_rep(2, 1.5), tr)
    for arg in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            fn(d, arg)
    if fn is not tph_quantile:
        # infinities are the ends of every support, not invalid points
        assert fn(d, -math.inf) == (1.0 if fn is tph_sf else 0.0)
        assert fn(d, math.inf) == 0.0


def test_far_tail_is_clean():
    # lam=1.5: u=log1p(1e300)=690 stays under the evaluation cap and rides
    # the underflowing matrix-exponential route; lam=3.0: the cap engages
    for lam in (1.5, 3.0):
        d = tph_new(erlang_rep(2, lam), ParetoExp())
        with np.errstate(invalid="raise", divide="raise"):
            v = tph_sf(d, 1e300)
            p = tph_pdf(d, 1e300)
        assert 0.0 <= v < 1e-10 and p == 0.0


def test_regular_variation_of_pareto_tail():
    # y^{lam} sf(y) / (log y)^{n-1} bounded above and below for Erlang bases
    for n, lam in ((1, 2.0), (3, 1.5)):
        d = tph_new(erlang_rep(n, lam), ParetoExp(beta=None))
        ys = np.geomspace(1e3, 1e6, 50)
        ratio = ys**lam * tph_sf(d, ys) / np.log(ys) ** (n - 1)
        assert ratio.max() / ratio.min() < 10.0
        assert np.all(ratio > 0)


def test_quantile_round_trip_all_families():
    base = erlang_rep(2, 1.5)
    qs = np.array([0.05, 0.3, 0.5, 0.9, 0.99])
    for tr in all_transforms():
        d = tph_new(base, tr)
        ys = tph_quantile(d, qs)
        assert np.all(np.diff(ys) > 0)
        back = tph_cdf(d, ys)
        assert np.max(np.abs(back - qs)) < 1e-8, tr.tag


@pytest.mark.parametrize("q", [1e-17, 1e-12, 0.3, 0.9])
@pytest.mark.parametrize("tr", [ShiftedPower(0.0, 1.0, 0.5), NegLogAffine(0.0, 1.0)],
                         ids=lambda tr: tr.tag)
def test_decreasing_map_quantile_keeps_low_levels(tr, q):
    # a decreasing map takes the base point of survival q; through the
    # complement 1 - q a level of 1e-12 would keep five digits, and 1e-17
    # would round to the base level 1
    d = tph_new(erlang_rep(2, 1.0), tr)
    assert tph_cdf(d, tph_quantile(d, q)) == pytest.approx(q, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("tr, shift, want", [
    (NegLogAffine(0.0, 1.0), 0.0, math.inf),
    (ShiftedPower(0.0, 1.0, 0.5), 0.0, math.inf),
    (ShiftedPower(0.0, 1.0, -0.4), 0.0, 2.5),
    (NegLogAffine(0.0, 1.0), 0.4, -math.log(0.4)),
    (ShiftedPower(0.0, 1.0, 0.5), 0.4, (0.4**-0.5 - 1.0) / 0.5),
    (ShiftedPower(0.0, 1.0, -0.4), 0.4, (0.4**0.4 - 1.0) / -0.4),
])
def test_decreasing_map_level_one_is_the_upper_end(tr, shift, want):
    # level 1 is the base's point 0, which an unshifted map sends to
    # mu - sigma log 0 or mu + sigma (0^{-xi} - 1)/xi: the support's end,
    # reached without evaluating the map there
    d = tph_new(erlang_rep(2, 1.0), tr if shift == 0.0 else ShiftedTransform(tr, shift))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tph_quantile(d, 1.0)
        inner, top = tph_quantile(d, np.array([0.5, 1.0]))
    assert got == top == pytest.approx(want, rel=1e-14)
    assert got == d.transform.support(d.mu)[1]
    assert inner < top


def test_decreasing_map_quantile_levels_are_checked():
    d = tph_new(erlang_rep(2, 1.0), ShiftedPower(0.0, 1.0, 0.5))
    for q, match in ((0.0, "positive"), (1.5, "lie in")):
        with pytest.raises(DomainError, match=match):
            tph_quantile(d, q)


def test_sampling_ks_smoke():
    n = 20000
    crit = ks_critical(n, 0.01)
    base = erlang_rep(2, 1.5)
    for i, tr in enumerate(all_transforms()):
        d = tph_new(base, tr)
        draws = tph_sample(d, np.random.default_rng(1900 + i), n)
        dist = ks_distance(draws, lambda y: tph_cdf(d, y))
        assert dist < crit, (tr.tag, dist)


# ---------------------------------------------------------------------------
# matrix-Pareto special quantities
# ---------------------------------------------------------------------------

def test_conditional_excess_matches_sf_ratio():
    rng = np.random.default_rng(41)
    base = ph_new(random_probability(rng, 3), random_sub_intensity(rng, 3))
    d = tph_new(base, ParetoExp(beta=None))
    x = 2.5
    exc = mp_conditional_excess(d, x)
    ts = np.geomspace(0.01, 50.0, 40)
    want = tph_sf(d, x + ts) / tph_sf(d, x)
    got = tph_sf(exc, ts)
    assert np.max(np.abs(got - want) / want) < 1e-9


def test_conditional_excess_threshold_stability():
    d = tph_new(erlang_rep(2, 2.0), ParetoExp(beta=None))
    twice = mp_conditional_excess(mp_conditional_excess(d, 1.0), 2.0)
    once = mp_conditional_excess(d, 3.0)
    ts = np.geomspace(0.01, 30.0, 40)
    assert np.max(np.abs(tph_sf(twice, ts) - tph_sf(once, ts))) < 1e-9


def test_conditional_excess_degenerate_conditioning():
    # the ME representation of Exp(5): its e^{Tu} leaves the float range;
    # the Markov one conditions there (test_markov_excess_has_no_underflow_floor)
    d = tph_new(ph_new([1.0], [[-5.0]], markov=False), ParetoExp(beta=None))
    with pytest.raises(DegenerateConditioningError, match="threshold 1e\\+200"):
        mp_conditional_excess(d, 1e200)


def test_markov_excess_has_no_underflow_floor():
    # Exp(5) under the Pareto map has survival (1 + y / c)^-5, so its
    # excess over x is the same law at scale c + x, though its survival at
    # x = 1e200 is below the float range
    d = tph_new(erlang_rep(1, 5.0), ParetoExp(beta=None))
    x = 1e200
    exc = mp_conditional_excess(d, x)
    c = d.transform.scale(d.mu) + x
    assert exc.base.pi.tolist() == [1.0]
    ts = np.array([1e199, 1e200, 1e201])
    np.testing.assert_allclose(tph_sf(exc, ts), (1.0 + ts / c) ** -5.0, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_conditional_excess_rejects_a_non_finite_threshold(x):
    d = tph_new(erlang_rep(2, 1.5), ParetoExp())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"threshold {x}"):
            mp_conditional_excess(d, x)


def test_conditional_excess_at_zero_is_identity():
    d = tph_new(erlang_rep(2, 2.0), ParetoExp(beta=None))
    exc = mp_conditional_excess(d, 0.0)
    ts = np.geomspace(0.01, 10.0, 20)
    assert np.max(np.abs(tph_sf(exc, ts) - tph_sf(d, ts))) < 1e-12


def test_laplace_transform_against_quadrature():
    d = tph_new(erlang_rep(2, 3.0), ParetoExp(beta=None))
    for s in (0.5, 1.0, 2.0):
        want, _ = quad(lambda y: math.exp(-s * y) * float(tph_pdf(d, y)), 0.0, 300.0, limit=400)
        assert mp_laplace(d, s) == pytest.approx(want, rel=1e-8)
    # near the s -> 0+ limit (total mass 1); s = 0 itself is out of domain
    want = float(d.base.pi @ confluent_matfun(d.base.T, lambda z: mp_scaled_upper_gamma(z, 1e-4))
                 @ d.base.exit)
    assert mp_laplace(d, 1e-4) == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        mp_laplace(d, 0.0)


def test_laplace_large_argument_route():
    d = tph_new(erlang_rep(2, 3.0), ParetoExp(beta=None))
    for s in (80.0, 500.0):
        # substitution v = s(e^x - 1) on the transformed scale
        want, _ = quad(
            lambda v: math.exp(-v) * float(ph_pdf(d.base, math.log1p(v / s))) / (s + v),
            0.0,
            200.0,
            limit=400,
        )
        assert mp_laplace(d, s) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("a", [1e-12, 1e-8, 1e-4, 1.0, 80.0])
def test_laplace_of_a_slowly_decaying_phase_matches_mpmath(a):
    # tail index 1e-3: in w = e^x - 1 the integrand decays like w^-1.001,
    # too slowly for a quadrature over [0, inf) to resolve at small a
    lam = 1e-3
    d = tph_new(ph_new([1.0], [[-lam]]), ParetoExp(beta=None))
    with mpmath.workdps(30):
        want = float(lam * mp_scaled_upper_gamma(-lam, a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mp_laplace(d, a)
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


# the 5-phase law of the query-mix benchmark workload: distinct real eigenvalues
QUERY_MIX_PI = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
QUERY_MIX_T = np.array([
    [-4.0, 2.0, 0.5, 0.0, 0.0],
    [0.5, -3.0, 1.5, 0.5, 0.0],
    [0.0, 0.5, -2.5, 1.0, 0.5],
    [0.0, 0.0, 0.4, -2.0, 0.8],
    [0.0, 0.0, 0.0, 0.3, -1.6],
])


@pytest.mark.parametrize("a", [1e-4, 1e-2, 0.5, 5.0, 10.0, 20.0, 30.0, 50.0, 80.0, 500.0])
@pytest.mark.parametrize("law", ["query-mix", "erlang-2-3"])
def test_laplace_matches_mpmath_over_six_decades(law, a):
    # scale 1, so a = s; Erlang(2, 3) is one Jordan block and takes the
    # confluent Taylor path of the Schur-Parlett evaluation
    if law == "query-mix":
        base, reference = ph_new(QUERY_MIX_PI, QUERY_MIX_T), eig_matfun
    else:
        base, reference = erlang_rep(2, 3.0), confluent_matfun
    d = tph_new(base, ParetoExp(beta=None))
    L = reference(base.T, lambda z: mp_scaled_upper_gamma(z, a))
    assert mp_laplace(d, a) == pytest.approx(float(base.pi @ L @ base.exit), rel=1e-12)


@pytest.mark.parametrize("n, calls", [(2, 2), (3, 3)])
def test_laplace_of_an_erlang_block_pays_no_quadrature_past_nilpotency(monkeypatch, n, calls):
    # one n x n Jordan block: h and its derivatives up to order n - 1 each
    # take one quadrature; the order-n term multiplies M^n = 0
    import iphfit.matfun as matfun

    seen = []
    quad_c = matfun.complex_quad

    def counted(*args, **kwargs):
        seen.append(1)
        return quad_c(*args, **kwargs)

    monkeypatch.setattr(matfun, "complex_quad", counted)
    d = tph_new(erlang_rep(n, 3.0), ParetoExp(beta=None))
    got = mp_laplace(d, 5.0)
    assert len(seen) == calls
    L = confluent_matfun(d.base.T, lambda z: mp_scaled_upper_gamma(z, 5.0))
    assert got == pytest.approx(float(d.base.pi @ L @ d.base.exit), rel=1e-12)


def test_shifted_frac_moment_and_divergence():
    lam = 3.0
    d = tph_new(erlang_rep(1, lam), ParetoExp(beta=None))
    # E (1+Y)^alpha = lam/(lam - alpha) for alpha < lam
    for alpha in (0.5, 1.0, 2.9):
        assert mp_shifted_frac_moment(d, alpha) == pytest.approx(lam / (lam - alpha), rel=1e-10)
    with pytest.raises(DivergentMomentError):
        mp_shifted_frac_moment(d, 3.0)
    with pytest.raises(DivergentMomentError):
        mp_shifted_frac_moment(d, 4.0)


# ---------------------------------------------------------------------------
# Weibull / Gumbel / GEV moment layer
# ---------------------------------------------------------------------------

def test_mw_moment_against_quadrature():
    d = tph_new(erlang_rep(2, 1.5), Power(2.0))
    for theta in (0.5, 1.0, 3.0):
        want, _ = quad(lambda y: y**theta * float(tph_pdf(d, y)), 0.0, 30.0, limit=300)
        assert mw_moment(d, theta) == pytest.approx(want, rel=1e-8)


def test_mw_mgf_series():
    d = tph_new(erlang_rep(2, 1.5), Power(2.0))
    for theta in (-0.7, 0.5):
        got, converged = mw_mgf(d, theta)
        assert converged
        want, _ = quad(lambda y: math.exp(theta * y) * float(tph_pdf(d, y)), 0.0, 50.0, limit=300)
        assert got == pytest.approx(want, rel=1e-9)
    with pytest.raises(DomainError):
        mw_mgf(tph_new(erlang_rep(1, 1.0), Power(0.8)), 0.5)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_mw_mgf_rejects_a_non_finite_argument_before_the_series(theta, monkeypatch):
    import iphfit.families as families
    import iphfit.phcore as phcore

    # the series' terms are base moments, evaluated in phcore
    calls = []
    for module in (families, phcore):
        monkeypatch.setattr(module, "mat_fun", lambda *a: calls.append(a))
    d = tph_new(erlang_rep(2, 1.5), Power(2.0))
    with pytest.raises(DomainError):
        mw_mgf(d, theta)
    assert not calls


def test_mw_mgf_nonconvergence_carries_last_term():
    d = tph_new(erlang_rep(1, 1.0), Power(1.5))
    with pytest.raises(NonConvergenceError) as err:
        mw_mgf(d, 40.0, max_terms=30)
    assert err.value.last_term is not None and err.value.last_term > 0


def test_ep_mean_and_laplace():
    d = tph_new(erlang_rep(3, 2.0), NegLogAffine(1.0, 0.5))
    want, _ = quad(lambda y: y * float(tph_pdf(d, y)), -10.0, 12.0, limit=300)
    assert ep_mean(d) == pytest.approx(want, rel=1e-9)
    for s in (0.4, 1.0):
        wantL, _ = quad(
            lambda y: math.exp(-s * y) * float(tph_pdf(d, y)), -10.0, 40.0, limit=300
        )
        assert ep_laplace(d, s) == pytest.approx(wantL, rel=1e-7)
    assert ep_laplace(d, 0.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        ep_laplace(d, -2.5)  # s*sigma <= -1


def test_ep_mean_me_base():
    me = ph_new([101.0, 0.0, 0.0], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-101.0, -103.0, -3.0]],
                markov=False, exit=[0.0, 0.0, 1.0])
    d = tph_new(me, NegLogAffine(1.0, 0.5))
    # E(Y) = mu - sigma E(log X), with E(log X) by quadrature of the base density
    elog = sum(
        quad(lambda x: math.log(x) * float(ph_pdf(me, x)), a, b, limit=400)[0]
        for a, b in [(0.0, 1.0), (1.0, 40.0)]
    )
    assert ep_mean(d) == pytest.approx(1.0 - 0.5 * elog, rel=1e-8)


def test_sp_mean_and_divergence():
    d = tph_new(erlang_rep(2, 1.0), ShiftedPower(0.0, 1.0, 0.4))
    want, _ = quad(lambda y: y * float(tph_pdf(d, y)), -2.6, 400.0, limit=500)
    assert sp_mean(d) == pytest.approx(want, rel=1e-6)
    with pytest.raises(DivergentMomentError):
        sp_mean(tph_new(erlang_rep(2, 1.0), ShiftedPower(0.0, 1.0, 1.0)))


# ---------------------------------------------------------------------------
# mixtures and shifted transforms
# ---------------------------------------------------------------------------

def test_mixture_density_is_weighted_sum():
    base1 = tph_new(erlang_rep(1, 2.0), ParetoExp(beta=None))
    base2 = tph_new(erlang_rep(3, 2.0), ParetoExp(beta=None))
    ys = np.geomspace(0.05, 40.0, 50)
    w = [0.3, 0.7]
    got = mixture_density(w, [base1, base2], ys)
    want = w[0] * tph_pdf(base1, ys) + w[1] * tph_pdf(base2, ys)
    assert np.max(np.abs(got - want)) < 1e-13


def test_mixture_density_rejects_mismatched_transforms():
    a = tph_new(erlang_rep(1, 1.0), ParetoExp(beta=None))
    b = tph_new(erlang_rep(1, 1.0), Power(2.0))
    with pytest.raises(ValidationError):
        mixture_density([0.5, 0.5], [a, b], 1.0)


def test_mixture_tph_equals_mixture_density():
    comps = [
        tph_new(erlang_rep(1, 2.0), ParetoExp(beta=None)),
        tph_new(erlang_rep(3, 2.0), ParetoExp(beta=None)),
    ]
    w = [0.4, 0.6]
    mixed = mixture_tph(w, comps)
    ys = np.geomspace(0.05, 40.0, 50)
    assert np.max(np.abs(tph_pdf(mixed, ys) - mixture_density(w, comps, ys))) < 1e-12


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_mixture_of_pareto_laws_keeps_the_shared_scale(shift):
    # beta = 2 on a mean-1 base and beta = 4 on a mean-2 base: both scales
    # are 2, while the mixed base has mean 1.6
    def tr(beta):
        g = ParetoExp(beta=beta)
        return g if shift == 0.0 else ShiftedTransform(g, shift)

    comps = [tph_new(erlang_rep(2, 2.0), tr(2.0)), tph_new(erlang_rep(2, 1.0), tr(4.0))]
    w = [0.4, 0.6]
    ys = np.geomspace(0.05, 40.0, 50)
    want = w[0] * tph_pdf(comps[0], ys) + w[1] * tph_pdf(comps[1], ys)
    assert np.max(np.abs(tph_pdf(mixture_tph(w, comps), ys) - want)) < 1e-12
    assert np.max(np.abs(mixture_density(w, comps, ys) - want)) < 1e-12


def test_shifted_transform_layers_cleanly():
    base = erlang_rep(2, 1.5)
    shift = 0.6
    d = tph_new(base, ShiftedTransform(ParetoExp(beta=None), shift))
    lo, hi = d.transform.support(d.mu)
    assert lo == pytest.approx(math.expm1(shift), rel=1e-14)
    # manual law: Y = e^{U + shift} - 1 with U ~ base
    ys = np.geomspace(lo + 0.05, 200.0, 40)
    from iphfit.phcore import ph_sf

    want_sf = ph_sf(base, np.log1p(ys) - shift)
    assert np.max(np.abs(tph_sf(d, ys) - want_sf)) < 1e-13
    assert tph_sf(d, lo - 0.1) == 1.0
    qs = np.array([0.1, 0.5, 0.95])
    assert np.max(np.abs(tph_cdf(d, tph_quantile(d, qs)) - qs)) < 1e-8
