"""Phase-type core: representations, evaluators, moments, sampling."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, gammainc

from iphfit.errors import (
    DomainError,
    UnsupportedRepresentationError,
    ValidationError,
)
import iphfit.matfun as matfun
import iphfit.phcore as phcore
from iphfit.emfit import ph_loglik
from iphfit.families import ParetoExp, mp_conditional_excess, tph_new
from iphfit.phcore import (
    erlang_rep,
    gen_erlang_rep,
    mixture_rep,
    ph_cdf,
    ph_frac_moment,
    ph_log_moment,
    ph_mean,
    ph_new,
    ph_pdf,
    ph_quantile,
    ph_sample,
    ph_sf,
)

from oracles import (
    erlang_pdf,
    erlang_sf,
    ks_critical,
    ks_distance,
    random_probability,
    random_sub_intensity,
)

EULER_GAMMA = 0.5772156649015329

ME_PI = np.array([101.0, 0.0, 0.0])
ME_T = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-101.0, -103.0, -3.0]])
ME_EXIT = np.array([0.0, 0.0, 1.0])


def me_example():
    return ph_new(ME_PI, ME_T, markov=False, exit=ME_EXIT)


def random_suite(count=10, max_p=6, seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p = int(rng.integers(1, max_p + 1))
        out.append(ph_new(random_probability(rng, p), random_sub_intensity(rng, p)))
    return out


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_ph_new_rejects_bad_representations():
    with pytest.raises(ValidationError):
        ph_new([0.5, 0.5], [[-1.0, -0.1], [0.0, -1.0]])  # negative off-diagonal
    with pytest.raises(ValidationError):
        ph_new([0.5, 0.5], [[-1.0, 2.0], [0.0, -1.0]])  # positive row sum
    with pytest.raises(ValidationError):
        ph_new([0.7, 0.7], [[-1.0, 0.0], [0.0, -1.0]])  # pi not a probability
    with pytest.raises(ValidationError):
        ph_new([1.2, -0.2], [[-1.0, 0.0], [0.0, -1.0]])  # negative pi entry


def test_ph_new_accepts_me_example():
    d = me_example()
    assert not d.markov
    assert d.dim == 3


def test_me_validation_rejects_negative_density():
    # a triple whose "density" dips negative on the grid
    T = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [-0.4, 0.4, -1.0]])
    with pytest.raises(ValidationError):
        ph_new([1 / 3, 1 / 3, 1 / 3], T, markov=False)


def test_me_explicit_exit_rejected_for_markov():
    with pytest.raises(ValidationError):
        ph_new([1.0], [[-1.0]], markov=True, exit=[2.0])


def test_erlang_rep_structure():
    d = erlang_rep(3, 2.0)
    assert d.markov and d.dim == 3
    assert np.allclose(np.diag(d.T), [-2.0, -2.0, -2.0])
    assert np.allclose(d.exit, [0.0, 0.0, 2.0])
    with pytest.raises(ValidationError):
        erlang_rep(0, 1.0)
    with pytest.raises(ValidationError):
        erlang_rep(2, -1.0)


def test_gen_erlang_rep_distinct_rates():
    d = gen_erlang_rep([1.0, 2.0, 4.0])
    assert ph_mean(d) == pytest.approx(1.0 + 0.5 + 0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# densities and distribution functions
# ---------------------------------------------------------------------------

def test_erlang_pdf_sf_closed_form():
    xs = np.linspace(0.0, 20.0, 200)
    for n in (1, 2, 5):
        for lam in (0.5, 1.0, 3.0):
            d = erlang_rep(n, lam)
            want_pdf = erlang_pdf(n, lam, xs)
            want_sf = erlang_sf(n, lam, xs)
            got_pdf = ph_pdf(d, xs)
            got_sf = ph_sf(d, xs)
            m = want_pdf > 1e-300
            assert np.max(np.abs(got_pdf[m] - want_pdf[m]) / want_pdf[m]) < 1e-12
            assert np.max(np.abs(got_sf - want_sf) / np.maximum(want_sf, 1e-300)) < 1e-11


def test_frozen_erlang_density_value():
    # Erlang(3, 2) at x=1: 2^3 * 1^2 * e^{-2} / 2! = 4 e^{-2}
    assert ph_pdf(erlang_rep(3, 2.0), 1.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-14)


def test_me_example_density_value():
    # density (101/100) e^{-x} (1 - cos 10x); at x=pi/10 this is (101/50) e^{-pi/10}
    d = me_example()
    x = math.pi / 10.0
    assert ph_pdf(d, x) == pytest.approx((101.0 / 50.0) * math.exp(-x), rel=1e-10)
    xs = np.linspace(0.0, 10.0, 400)
    want = (101.0 / 100.0) * np.exp(-xs) * (1.0 - np.cos(10.0 * xs))
    got = ph_pdf(d, xs)
    assert np.max(np.abs(got - want)) < 1e-10


def test_pdf_nonnegative_on_grid():
    for d in random_suite():
        xs = np.linspace(0.0, 30.0, 1000)
        assert np.all(ph_pdf(d, xs) >= 0.0)
        sf = ph_sf(d, xs)
        assert np.all(sf >= 0.0) and np.all(sf <= 1.0)
        assert np.all(np.diff(sf) <= 1e-15)


def test_cdf_plus_sf_is_one():
    for d in random_suite(count=4):
        xs = np.linspace(0.0, 10.0, 50)
        assert np.max(np.abs(ph_cdf(d, xs) + ph_sf(d, xs) - 1.0)) < 1e-12


def test_pdf_integrates_to_cdf():
    for d in random_suite(count=6, seed=77):
        x_hi = ph_quantile(d, 0.999)
        total, _ = quad(lambda x: float(ph_pdf(d, x)), 0.0, x_hi, limit=300)
        assert abs(total + float(ph_sf(d, x_hi)) - 1.0) < 1e-8


def test_large_qx_route():
    # rate * x up to 5000: far anchor cells, reached by squarings of the step
    d = erlang_rep(2, 50.0)
    xs = np.array([0.5, 20.0, 100.0])
    got = ph_pdf(d, xs)
    want = erlang_pdf(2, 50.0, xs)
    m = want > 0
    assert np.max(np.abs(got[m] - want[m]) / want[m]) < 1e-10
    assert got[~m] == pytest.approx(0.0, abs=1e-300)


def test_unsorted_points_across_the_log_space_cutoff():
    # q x spans both sides of 600, where a log-space Poisson route used to
    # take over, in one unsorted array
    rng = np.random.default_rng(12)
    d = ph_new(random_probability(rng, 4), random_sub_intensity(rng, 4))
    q = float(np.max(-np.diag(d.T)))
    xs = rng.permutation(np.concatenate([
        rng.uniform(0.0, 590.0 / q, 40), rng.uniform(610.0 / q, 900.0 / q, 40)
    ]))
    E = [sla.expm(d.T * x) for x in xs]
    want_pdf = np.array([d.pi @ M @ d.exit for M in E])
    want_sf = np.array([d.pi @ M @ d.close for M in E])
    got_pdf, got_sf = ph_pdf(d, xs), ph_sf(d, xs)
    assert np.max(np.abs(got_pdf - want_pdf) / want_pdf) < 1e-10
    assert np.max(np.abs(got_sf - want_sf) / want_sf) < 1e-10
    perm = rng.permutation(xs.size)
    assert np.array_equal(ph_pdf(d, xs[perm]), got_pdf[perm])
    assert np.array_equal(ph_sf(d, xs[perm]), got_sf[perm])
    for fn in (ph_pdf, ph_sf, ph_cdf):
        empty = fn(d, np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_stiff_law_far_tail_matches_expm():
    # q = 100 against a slowest decay of 0.01: q x reaches 5e5 while the
    # survival is still 2e-22, so the whole series is needed
    d = ph_new([0.5, 0.5], [[-100.0, 99.0], [0.0, -0.01]])
    xs = np.array([10.0, 1000.0, 5000.0])
    want = np.array([d.pi @ sla.expm(d.T * x) @ np.ones(2) for x in xs])
    assert np.max(np.abs(ph_sf(d, xs) - want) / want) < 1e-9


def test_far_points_stop_where_the_law_has_decayed():
    # q x > 1e9: a full Poisson row would take gigabytes; the anchor cell
    # is reached by about 30 squarings of the step
    rng = np.random.default_rng(13)
    d = ph_new(random_probability(rng, 4), random_sub_intensity(rng, 4))
    xs = np.array([1e9, 2.0])
    tracemalloc.start()
    try:
        pdf, sf, cdf = ph_pdf(d, xs), ph_sf(d, xs), ph_cdf(d, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert pdf[0] == 0.0 and sf[0] == 0.0 and cdf[0] == pytest.approx(1.0, abs=1e-14)
    assert cdf[1] + sf[1] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [50, 128])
def test_long_erlang_matches_the_gamma_law_in_log_scale(n):
    # Erlang(n, n): pi P^k t is nonzero only at k = n - 1, far past a fixed
    # series depth, and at x = 0.02 the density is e^-142 (n = 50) and
    # e^-369 (n = 128)
    from scipy.stats import gamma

    d = erlang_rep(n, float(n))
    xs = np.array([0.02, 0.1, 0.3])
    law = gamma(n, scale=1.0 / n)
    np.testing.assert_allclose(np.log(ph_pdf(d, xs)), law.logpdf(xs), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(np.log(ph_cdf(d, xs)), law.logcdf(xs), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("x", [5000.0, 50000.0])
def test_stiff_law_far_tail_matches_mpmath(x):
    # q = 100 against a slowest decay of 0.01: the anchor cell is 5e6 steps
    # out at x = 50000, and the decay must survive two dozen squarings
    import mpmath

    from iphfit.emfit import ph_loglik

    d = ph_new([0.5, 0.5], [[-100.0, 99.0], [0.0, -0.01]])
    with mpmath.workdps(40):
        E = mpmath.expm(mpmath.matrix(d.T.tolist()) * x)
        row = mpmath.matrix([[0.5, 0.5]]) * E
        pdf = (row * mpmath.matrix(d.exit.tolist()))[0]
        sf = (row * mpmath.matrix([1.0, 1.0]))[0]
        log_pdf = float(mpmath.log(pdf))
    assert float(ph_pdf(d, x)) == pytest.approx(float(pdf), rel=1e-12, abs=0.0)
    assert float(ph_sf(d, x)) == pytest.approx(float(sf), rel=1e-12, abs=0.0)
    assert ph_loglik(d, [x]) == pytest.approx(log_pdf, rel=1e-12, abs=0.0)


def _mp_poisson_row(m, K):
    """Poisson(m) pmf at k = 0..K from mpmath at 40 digits."""
    import mpmath

    if m == 0.0:
        return np.eye(1, K + 1)[0]
    with mpmath.workdps(40):
        lm, mm = mpmath.log(mpmath.mpf(m)), mpmath.mpf(m)
        return np.array([float(mpmath.exp(k * lm - mm - mpmath.loggamma(k + 1)))
                         for k in range(K + 1)])


@pytest.mark.parametrize("qx", [0.0, 1e-3, 1.0, 37.5, 280.0, 599.0, 600.0, 601.0])
def test_poisson_rows_match_mpmath_in_short_and_tall_blocks(qx):
    # a point at q x takes its Poisson row at the offset delta = q x - b in
    # its anchor cell b; alone it is a one-row block, K + 1 copies make a
    # tall one, and both fill the same rows
    K = phcore._WINDOW_DEPTH
    cells, cell, delta = phcore._cells(np.array([qx]))
    assert cells.tolist() == [math.floor(qx)] and cell.tolist() == [0]
    want = _mp_poisson_row(float(delta[0]), K)
    shapes = []
    for n in (1, K + 1):
        W = phcore._window_rows(np.full(n, delta[0]), K)
        shapes.append(W.shape)
        np.testing.assert_allclose(W[0], want, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(W[-1], W[0])
    assert shapes == [(1, K + 1), (K + 1, K + 1)]


@pytest.mark.parametrize("delta", [0.0, 1e-9, 0.37, 0.999999])
def test_deep_window_rows_match_mpmath(delta):
    # a window that needs a deeper series goes on to k = 320, where
    # delta^k / k! leaves the float range without a term cancelling
    K = 320
    W = phcore._window_rows(np.array([delta]), K)
    np.testing.assert_allclose(W[0], _mp_poisson_row(delta, K), rtol=1e-13, atol=0.0)


def test_substep_weights_match_mpmath():
    # the Poisson(2^-s) weights of every anchor substep come from the
    # recurrence of _window_rows, within a few ulp of the 40-digit pmf
    for s, (w, _) in enumerate(phcore._SUBSTEP_WEIGHTS):
        want = _mp_poisson_row(2.0**-s, phcore._STEP_DEPTH)
        np.testing.assert_allclose(w, want, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_one_point_matches_its_entry_in_a_batch():
    # alone a point is the only row of its window table and walks to its
    # cell alone; among 2000 it shares both with its neighbours
    rng = np.random.default_rng(14)
    d = ph_new(random_probability(rng, 4), random_sub_intensity(rng, 4))
    q = phcore._unif_rate(d.T)
    xs = np.linspace(0.0, 550.0 / q, 2000)
    pdf, sf = ph_pdf(d, xs), ph_sf(d, xs)
    for i in range(0, xs.size, 111):
        assert float(ph_pdf(d, xs[i])) == pytest.approx(pdf[i], rel=1e-13, abs=0.0)
        assert float(ph_sf(d, xs[i])) == pytest.approx(sf[i], rel=1e-13, abs=0.0)


def test_evaluation_does_not_depend_on_earlier_calls(monkeypatch):
    # the kept setup of the last law holds squarings for its farthest cell;
    # a later call with nearer cells uses a prefix of them, which must be
    # exactly what a fresh setup computes
    d = ph_new([0.5, 0.5], [[-100.0, 99.0], [0.0, -0.01]])
    xs = np.array([0.01, 1.0, 3.0, 10.0])
    monkeypatch.setattr(phcore, "_setups", [])
    fresh = ph_sf(d, xs), ph_pdf(d, xs)
    ph_sf(d, np.array([50000.0]))
    assert np.array_equal(ph_sf(d, xs), fresh[0])
    assert np.array_equal(ph_pdf(d, xs), fresh[1])


def test_survival_and_cdf_chains_keep_their_setups(monkeypatch):
    # a qq solve alternates the survival chain with the cdf's augmented
    # chain; both setups are kept, so going back builds none (the law is
    # this test's own, so no earlier call has kept it)
    builds = [0]
    squarings = phcore._unif_squarings

    def counting(*args):
        builds[0] += 1
        return squarings(*args)

    monkeypatch.setattr(phcore, "_unif_squarings", counting)
    d = ph_new([0.3, 0.7], [[-2.5, 1.25], [0.5, -1.5]])
    xs = np.array([0.5, 2.0, 7.0])
    for f in (ph_sf, ph_cdf, ph_sf):
        f(d, xs)
    assert builds[0] == 2


def test_eval_rejects_bad_arguments():
    d = erlang_rep(1, 1.0)
    with pytest.raises(DomainError):
        ph_pdf(d, -0.5)
    with pytest.raises(DomainError):
        ph_pdf(d, float("nan"))
    with pytest.raises(DomainError):
        ph_sf(d, float("inf"))


def test_mixture_density_is_weighted_sum():
    rng = np.random.default_rng(9)
    comps = [erlang_rep(2, 1.0), erlang_rep(3, 2.5), ph_new(random_probability(rng, 2), random_sub_intensity(rng, 2))]
    w = [0.2, 0.5, 0.3]
    mix = mixture_rep(w, comps)
    xs = np.linspace(0.0, 8.0, 64)
    want = sum(wi * ph_pdf(c, xs) for wi, c in zip(w, comps))
    assert np.max(np.abs(ph_pdf(mix, xs) - want)) < 1e-12
    with pytest.raises(ValidationError):
        mixture_rep([0.6, 0.6], comps[:2])


def test_me_mixture_density_is_weighted_sum():
    # an ME component makes the mixture ME, closed by its components' exits
    comps = [me_example(), gen_erlang_rep([1.0, 2.5])]
    w = [0.4, 0.6]
    mix = mixture_rep(w, comps)
    assert not mix.markov
    xs = np.linspace(0.0, 10.0, 200)
    for f in (ph_pdf, ph_sf):
        want = sum(wi * f(c, xs) for wi, c in zip(w, comps))
        assert np.max(np.abs(f(mix, xs) - want)) < 1e-12


def _mp_cdf(d, x, dps=50):
    """pi~ e^{T~x} e_a for T~ = [[T, t], [0, 0]], from mpmath's expm, as a float."""
    import mpmath

    p = d.dim
    T = np.zeros((p + 1, p + 1))
    T[:p, :p], T[:p, p] = d.T, d.exit
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.matrix(T.tolist()) * x)
        return float(sum(d.pi[i] * E[i, p] for i in range(p)))


@pytest.mark.parametrize("law", ["companion", "erlang2", "jordan3"])
def test_me_cdf_matches_mpmath(law):
    # the corner entry of the augmented chain, not 1 - sf, so the low tail
    # keeps its digits: 5e-19 for Erlang(2, 1) at 1e-9.  Worst seen 9.5e-14
    # (the companion fixture), so 1e-12 wherever the value is above 1e-300
    if law == "companion":
        d = me_example()
    else:
        n = int(law[-1])
        d = ph_new(np.eye(n)[0], np.eye(n, k=1) - np.eye(n), markov=False)
    xs = np.concatenate([[1e-9, 1e-6, 1e-3], np.linspace(0.0, 30.0, 301)[1:]])
    want = np.array([_mp_cdf(d, x) for x in xs])
    m = want > 1e-300
    np.testing.assert_allclose(ph_cdf(d, xs[m]), want[m], rtol=1e-12, atol=0.0)
    assert ph_cdf(d, 0.0) == 0.0
    grid = np.linspace(0.0, 10.0, 101)
    np.testing.assert_allclose(ph_cdf(d, grid) + ph_sf(d, grid), 1.0, rtol=0.0, atol=1e-12)
    assert isinstance(ph_cdf(d, 1.3), float)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_mean_closed_forms():
    assert ph_mean(erlang_rep(4, 2.0)) == pytest.approx(2.0, rel=1e-13)
    d = me_example()
    want, _ = quad(lambda x: x * float(ph_pdf(d, x)), 0.0, 60.0, limit=300)
    assert ph_mean(d) == pytest.approx(want, rel=1e-9)


def test_frac_moment_matches_mean_and_quadrature():
    for d in random_suite(count=5, seed=31):
        assert ph_frac_moment(d, 1.0) == pytest.approx(ph_mean(d), rel=1e-10)
    d = erlang_rep(1, 2.0)
    # E[X^theta] for Exp(lam) is Gamma(1+theta) / lam^theta
    for theta in (-0.5, 0.5, 2.5):
        want = math.gamma(1.0 + theta) / 2.0**theta
        assert ph_frac_moment(d, theta) == pytest.approx(want, rel=1e-10)
    with pytest.raises(DomainError):
        ph_frac_moment(d, -1.0)


def test_log_moment_closed_forms():
    # E[log X] = psi(n) - log(lam) for Erlang(n, lam)
    for n, lam in ((1, 1.0), (1, 3.0), (3, 2.0)):
        want = float(digamma(n)) - math.log(lam)
        assert ph_log_moment(erlang_rep(n, lam)) == pytest.approx(want, rel=1e-10)
    d = me_example()
    want, _ = quad(lambda x: math.log(x) * float(ph_pdf(d, x)), 1e-12, 60.0, limit=400)
    assert ph_log_moment(d) == pytest.approx(want, abs=1e-6)


def test_log_moment_me_twin_matches_mpmath():
    # nearly repeated eigenvalues; the Markov law and its ME twin share one logm
    import mpmath

    pi = np.array([0.5, 0.3, 0.2])
    T = np.array([[-1.0, 0.5, 0.0], [0.0, -1.000001, 0.5], [0.0, 0.0, -1.000002]])
    with mpmath.workdps(50):
        L = mpmath.logm(-mpmath.matrix(T.tolist()))
        want = float(-mpmath.euler - (mpmath.matrix([pi.tolist()]) * L * mpmath.ones(3, 1))[0])
    for d in (ph_new(pi, T), ph_new(pi, T, markov=False, exit=-T.sum(axis=1))):
        assert ph_log_moment(d) == pytest.approx(want, rel=1e-13)


def test_log_moment_frozen_exponential():
    # Exp(1): E[log X] = -gamma
    assert ph_log_moment(erlang_rep(1, 1.0)) == pytest.approx(-EULER_GAMMA, rel=1e-12)


# ---------------------------------------------------------------------------
# quantiles and sampling
# ---------------------------------------------------------------------------

def test_quantile_round_trip():
    for d in random_suite(count=5, seed=55):
        qs = np.array([0.0, 0.1, 0.5, 0.9, 0.999])
        xs = ph_quantile(d, qs)
        assert xs[0] == 0.0
        assert np.all(np.diff(xs) >= 0.0)
        back = 1.0 - ph_sf(d, xs[1:])
        assert np.max(np.abs(back - qs[1:])) < 1e-8


def test_quantile_exponential_closed_form():
    d = erlang_rep(1, 2.0)
    assert ph_quantile(d, 0.5) == pytest.approx(math.log(2.0) / 2.0, rel=1e-9)


@pytest.mark.parametrize("q", [1e-12, 1e-15, 1e-17])
def test_quantile_keeps_digits_at_low_levels(q):
    # abs=0: pytest.approx would otherwise accept anything within 1e-12
    want = -math.log1p(-q)
    assert ph_quantile(erlang_rep(1, 1.0), q) == pytest.approx(want, rel=1e-9, abs=0.0)
    x = ph_quantile(erlang_rep(3, 2.0), q)
    assert gammainc(3, 2.0 * x) == pytest.approx(q, rel=1e-9, abs=0.0)
    assert ph_cdf(erlang_rep(3, 2.0), x) == pytest.approx(q, rel=1e-9, abs=0.0)


def _birth_death(n=20):
    """n-phase birth-death chain started in phase 0, absorbed from the last."""
    T = np.zeros((n, n))
    for i in range(n):
        if i + 1 < n:
            T[i, i + 1] = 1.0 + 0.1 * i
        if i > 0:
            T[i, i - 1] = 0.5
        T[i, i] = -(T[i].sum() + (0.3 if i == n - 1 else 0.0))
    return ph_new(np.eye(n)[0], T)


# Erlang(3, 2), the benchmark's 5-phase law, a 20-phase birth-death chain,
# and a stiff law (largest rate 1e4 times the slowest decay)
QUANTILE_LAWS = {
    "erlang": lambda: erlang_rep(3, 2.0),
    "bench5": lambda: ph_new(
        [0.5, 0.2, 0.15, 0.1, 0.05],
        [[-4.0, 2.0, 0.5, 0.0, 0.0],
         [0.5, -3.0, 1.5, 0.5, 0.0],
         [0.0, 0.5, -2.5, 1.0, 0.5],
         [0.0, 0.0, 0.4, -2.0, 0.8],
         [0.0, 0.0, 0.0, 0.3, -1.6]]),
    "birth_death": _birth_death,
    "stiff": lambda: ph_new([0.5, 0.5], [[-100.0, 99.0], [0.0, -0.01]]),
}


def _tail_levels(n):
    """n levels from 1e-17 to 1 - 1e-12, geometric in both tails."""
    return np.concatenate([np.geomspace(1e-17, 0.49, n // 2),
                           1.0 - np.geomspace(0.5, 1e-12, n - n // 2)])


# ME laws: the companion fixture and Erlang(2, 1) written with markov=False.
# The fixture's oscillating density costs the solver 2.5 points a level,
# over the bound of test_quantile_evaluates_few_points_per_level, so they
# have a list of their own
ME_QUANTILE_LAWS = {
    "me_companion": me_example,
    "me_erlang": lambda: ph_new([1.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]], markov=False),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("law", sorted(QUANTILE_LAWS) + sorted(ME_QUANTILE_LAWS))
def test_quantile_brackets_its_level(law):
    # an ME law on its low tail, the levels solved on log ph_cdf
    d = {**QUANTILE_LAWS, **ME_QUANTILE_LAWS}[law]()
    rel_tol = 1e-10
    qs = _tail_levels(60)
    if law in ME_QUANTILE_LAWS:
        qs = qs[qs < 0.5]
    xs = ph_quantile(d, qs, rel_tol=rel_tol)
    below, above = xs * (1.0 - 2.0 * rel_tol), xs * (1.0 + 2.0 * rel_tol)
    low = qs < 0.5
    assert np.all(ph_cdf(d, below[low]) < qs[low])
    assert np.all(qs[low] <= ph_cdf(d, above[low]))
    assert np.all(ph_sf(d, below[~low]) > 1.0 - qs[~low])
    assert np.all(1.0 - qs[~low] >= ph_sf(d, above[~low]))


def _count_kernel(monkeypatch):
    """[passes, points] of the uniformization kernel, counted from here on."""
    seen = [0, 0]
    action = phcore._unif_action

    def counting(pi, T, v, xs, log=False):
        seen[0] += 1
        seen[1] += np.size(xs)
        return action(pi, T, v, xs, log)

    monkeypatch.setattr(phcore, "_unif_action", counting)
    return seen


@pytest.mark.parametrize("law", sorted(QUANTILE_LAWS))
def test_quantile_evaluates_few_points_per_level(law, monkeypatch):
    # bisection from [0, hi] evaluated 42-102 points per level on these laws,
    # regula falsi 4.6-4.9; the stiff law's far levels cost O(q x) each and
    # share no ladder bracket, so it gets fewer levels and no refinement
    n = 200 if law == "stiff" else 20000
    d = QUANTILE_LAWS[law]()
    seen = _count_kernel(monkeypatch)
    ph_quantile(d, _tail_levels(n))
    assert seen[1] <= (12 if law == "stiff" else 2) * n


def test_quantile_of_qq_levels_costs_about_one_point_each(monkeypatch):
    # the levels i/(N+1) of a qq plot: a refinement pass and a step at the
    # fine secant's slope from the inverse cubic settle nearly every level
    # at its first point
    n = 20000
    seen = _count_kernel(monkeypatch)
    ph_quantile(QUANTILE_LAWS["bench5"](), np.arange(1, n + 1) / (n + 1.0))
    assert seen[0] <= 12 and seen[1] <= 1.5 * n


@pytest.mark.parametrize("q, passes", [
    (0.99, 6), (0.5, 5), (0.3, 8), (1e-6, 12), (1.0 - 1e-9, 6)])
def test_quantile_of_one_level_takes_no_more_passes(q, passes, monkeypatch):
    # the bounds are the pass counts of the regula falsi this solver replaced:
    # a lone level skips the refinement pass, and secant slopes take it from
    # its ladder bracket in as few passes
    seen = _count_kernel(monkeypatch)
    x = ph_quantile(QUANTILE_LAWS["bench5"](), q)
    assert seen[0] <= passes
    assert ph_sf(QUANTILE_LAWS["bench5"](), x) == pytest.approx(1.0 - q, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 4])
def test_quantile_reaches_extreme_levels_in_few_passes(n, monkeypatch):
    # Exp(1)'s 1e-300 quantile lies 997 octaves below its mean; the
    # bracketing ladder doubles the octaves it spans on each pass, so it
    # gets there in about log2(997) passes, not one per octave
    q = 1e-300
    passes = [0]
    action = phcore._unif_action

    def counting(pi, T, v, xs, log=False):
        passes[0] += 1
        return action(pi, T, v, xs, log)

    monkeypatch.setattr(phcore, "_unif_action", counting)
    x = ph_quantile(erlang_rep(n, 1.0), q)
    assert passes[0] <= 20
    assert gammainc(n, x) == pytest.approx(q, rel=1e-9, abs=0.0)
    if n == 1:
        assert x == pytest.approx(-math.log1p(-q), rel=1e-9, abs=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [40, 100])
def test_quantile_of_a_long_erlang_chain_stays_where_the_kernel_is_finite(n):
    # the kernel's squarings lose long chains far out (ph_sf of Erlang(40, 3)
    # is a DomainError at 60 times its mean), so the ladder must not reach
    # that far above the mean for levels that lie near it
    qs = np.array([0.01, 0.5, 0.99])
    x = ph_quantile(erlang_rep(n, 1.0), qs)
    assert gammainc(n, x) == pytest.approx(qs, rel=1e-9)


@pytest.mark.parametrize("q, rel_tol", [(1e-320, 1e-10), (0.5, 1e-17), (0.5, 0.0)])
def test_quantile_stops_at_a_bracket_no_float_can_split(q, rel_tol, monkeypatch):
    # a root among the subnormals, or a tolerance below the float spacing,
    # leaves a bracket of two adjacent floats, which no step can narrow;
    # the solve ends there (10 and 5 passes), not after 200 idle ones
    passes = [0]
    action = phcore._unif_action

    def counting(*args, **kwargs):
        passes[0] += 1
        if passes[0] > 60:
            raise AssertionError("the quantile solve did not stop")
        return action(*args, **kwargs)

    monkeypatch.setattr(phcore, "_unif_action", counting)
    x = ph_quantile(erlang_rep(1, 1.0), q, rel_tol=rel_tol)
    assert x == pytest.approx(-math.log1p(-q), rel=2.0**-52, abs=2.0**-1074)


@pytest.mark.parametrize("lam, q", [(1e-308, 1 - 2**-53), (1e300, 1e-300)])
def test_quantile_past_the_float_range_is_a_domain_error(lam, q):
    # the root lies beyond the largest float, or below the smallest: the
    # ladder reaches the end of the float range and still falls short
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="quantile bracket did not close"):
            ph_quantile(erlang_rep(1, lam), q)


def test_quantile_rejects_bad_levels():
    d = erlang_rep(1, 1.0)
    with pytest.raises(DomainError):
        ph_quantile(d, 1.0)
    with pytest.raises(DomainError):
        ph_quantile(d, -0.1)


@pytest.mark.parametrize("law", ["erlang", "me"])
def test_quantile_rejects_nan_levels(law):
    d = erlang_rep(2, 1.0) if law == "erlang" else me_example()
    for q in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            ph_quantile(d, q)


def test_sample_requires_markov():
    with pytest.raises(UnsupportedRepresentationError):
        ph_sample(me_example(), np.random.default_rng(0), 10)


def test_sample_ks_across_suite():
    n = 10**5
    crit = ks_critical(n, 0.01)
    for i, d in enumerate(random_suite(count=10, seed=808)):
        draws = ph_sample(d, np.random.default_rng(1000 + i), n)
        assert draws.shape == (n,) and np.all(draws > 0)
        dist = ks_distance(draws, lambda x: ph_cdf(d, x))
        assert dist < crit, f"suite member {i}: KS {dist} >= {crit}"


def test_sample_holds_one_table_at_a_time():
    # the stiff law runs at the cap, a 4 MiB table of 2^18 rows; neither its
    # survival column nor the next table may sit beside it (8 MiB before)
    d = QUANTILE_LAWS["stiff"]()
    tracemalloc.start()
    try:
        ph_sample(d, np.random.default_rng(0), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20


def test_sample_deterministic_under_seed():
    d = erlang_rep(2, 1.0)
    a = ph_sample(d, np.random.default_rng(42), 1000)
    b = ph_sample(d, np.random.default_rng(42), 1000)
    assert np.array_equal(a, b)


class _RecordingRng:
    """A generator that records the size of every ``random`` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)

    def gamma(self, shape, scale):
        return self.rng.gamma(shape, scale)


def test_sample_past_the_table_matches_cdf():
    # 127 phases at rate 100 in series, each exiting at rate 1 and feeding the
    # next at 99; the last phase exits at 0.05.  The survival rows are still
    # about 0.28 * 0.14 when the table reaches its 4096-row cap, so those
    # draws go on from the next table, whose start is almost surely the slow
    # phase (a restart from pi would mostly exit within a few steps)
    p = 128
    T = np.diag(np.full(p, -100.0))
    T[np.arange(p - 1), np.arange(1, p)] = 99.0
    T[-1, -1] = -0.05
    d = ph_new(np.eye(p)[0], T)
    n = 20000
    rng = _RecordingRng(5)
    draws = ph_sample(d, rng, n)
    # one uniform per draw, then one per draw still going at each table
    assert rng.sizes[0] == n and 0.02 * n < rng.sizes[1] < 0.06 * n
    assert draws.shape == (n,) and np.all(draws > 0)
    dist = ks_distance(draws, lambda x: ph_cdf(d, x))
    assert dist < ks_critical(n, 0.01)


class _TopUniformRng:
    """Generator stub: every uniform is 1 - 2^-53, every variate its mean."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)

    def gamma(self, shape, scale):
        return np.multiply(shape, scale)


@pytest.mark.parametrize("pi", [[1.0, 0.0, 0.0], [0.5, 0.5 - 1e-13, 0.0]])
def test_sample_top_uniform_takes_at_least_one_step(pi):
    # with pi e = 1 - 1e-13 the top uniform lies above every survival row;
    # N = 0 would give a zero draw
    d = ph_new(pi, [[-2.0, 2.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, -2.0]])
    draws = ph_sample(d, _TopUniformRng(), 5)
    assert np.all(draws > 0)


def test_sample_heap_peak_is_bounded_on_a_stiff_law():
    # the survival rows of this law reach the row cap (2^18 rows of 2)
    d = ph_new([0.5, 0.5], [[-100.0, 99.0], [0.0, -0.01]])
    tracemalloc.start()
    try:
        draws = ph_sample(d, np.random.default_rng(3), 10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert draws.shape == (10**5,) and np.all(draws > 0)


def test_sample_heap_peak_is_small_on_a_law_that_ends_early():
    # q E X = 4.6 on the benchmark's 5-phase law: its first table holds 512
    # rows, and the survival rows fall below 2^-53 by row 128
    d = QUANTILE_LAWS["bench5"]()
    tracemalloc.start()
    try:
        draws = ph_sample(d, np.random.default_rng(3), 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 2**20
    assert draws.shape == (100,) and np.all(draws > 0)


@pytest.mark.parametrize("law", ["bench5", "erlang"])
def test_sample_through_short_tables(monkeypatch, law):
    # one row per expected uniformized step: the 5-phase law's draws go on
    # through three tables of 8, 16 and 32 rows, and Erlang(3, 2)'s 4-row
    # table ends at its row count, not below 2^-53
    monkeypatch.setattr(phcore, "_SAMPLE_ROWS", 1)
    d = QUANTILE_LAWS[law]()
    n = 50000
    rng = _RecordingRng(17)
    draws = ph_sample(d, rng, n)
    if law == "bench5":
        assert len(rng.sizes) >= 3
    assert draws.shape == (n,) and np.all(draws > 0)
    assert ks_distance(draws, lambda x: ph_cdf(d, x)) < ks_critical(n, 0.01)
    mean = ph_mean(d)
    sd = math.sqrt(ph_frac_moment(d, 2.0) - mean**2)
    assert abs(draws.mean() - mean) < 5.0 * sd / math.sqrt(n)


@st.composite
def markov_laws(draw):
    """Markov laws of order 1..8 whose rates span 1e-3..1e2; the ends of the
    span are drawn often, so some laws are stiff enough that draws continue
    past the survival table."""
    p = draw(st.integers(1, 8))
    rate = st.sampled_from([1e-3, 1e2]) | st.floats(1e-3, 1e2)
    off = np.array(draw(st.lists(st.just(0.0) | rate, min_size=p * p, max_size=p * p)))
    off = off.reshape(p, p)
    np.fill_diagonal(off, 0.0)
    exits = np.array(draw(st.lists(rate, min_size=p, max_size=p)))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=p, max_size=p)))
    return ph_new(w / w.sum(), off - np.diag(off.sum(axis=1) + exits))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(d=markov_laws(), count=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
def test_sample_properties(d, count, seed):
    draws = ph_sample(d, np.random.default_rng(seed), count)
    assert draws.shape == (count,)
    assert np.all(np.isfinite(draws) & (draws > 0))
    assert np.array_equal(draws, ph_sample(d, np.random.default_rng(seed), count))
    assert ph_sample(d, np.random.default_rng(seed), 0).shape == (0,)


# ---------------------------------------------------------------------------
# the anchored kernel's domain
# ---------------------------------------------------------------------------

def test_a_state_pi_never_reaches_changes_nothing():
    # the slow third state is never entered; left in the chain, it set the
    # scale of every squaring, and the values went to 0/0 from x = 300
    mix = mixture_rep([1.0, 0.0], [erlang_rep(2, 5.0), erlang_rep(1, 0.01)])
    alone = erlang_rep(2, 5.0)
    xs = np.array([1.0, 100.0, 300.0, 600.0])
    for f in (ph_pdf, ph_sf, ph_cdf):
        np.testing.assert_allclose(f(mix, xs), f(alone, xs), rtol=1e-14, atol=0.0,
                                   err_msg=f.__name__)


@pytest.mark.parametrize("x", [1e19, 1e300])
def test_a_point_past_the_cell_range_is_a_domain_error(x):
    # q x >= 2^62: its anchor cell would not fit the int64 it is kept in
    d = ph_new([0.5, 0.5], [[-2.0, 1.0], [0.5, -1.0]])
    for f in (ph_pdf, ph_sf, ph_cdf, ph_loglik):
        with pytest.raises(DomainError, match="too far out"):
            f(d, [x])


@pytest.mark.parametrize("n, lam, x", [
    (40, 3.0, 800.0), (20, 1.0, 256 * 20.0), (40, 1.0, 64 * 40.0), (60, 1.0, 64 * 60.0),
    (100, 1.0, 16 * 100.0)])
def test_a_point_past_where_the_squarings_underflow_is_a_domain_error(n, lam, x):
    # far out on a long Erlang chain the squarings of the step underflow
    # and the walk's product sums to 0, which gave 0/0; at half the
    # distance the log survival still matches the gamma law
    import mpmath

    d = erlang_rep(n, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (ph_pdf, ph_sf):
            with pytest.raises(DomainError, match="too far out"):
                f(d, x)
        got = phcore._unif_action(d.pi, d.T, d.close, np.array([x / 2]), log=True)[0]
    with mpmath.workdps(40):
        want = float(mpmath.log(mpmath.gammainc(n, lam * x / 2, mpmath.inf, regularized=True)))
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x", [1.0, 800.0, 1e4])
def test_me_log_density_of_one_phase_is_exact_past_underflow(x):
    d = ph_new([1.0], [[-1.0]], markov=False)
    assert ph_loglik(d, [x]) == pytest.approx(-x, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x", [3.0, 800.0, 5000.0])
@pytest.mark.parametrize("law", ["hypoexponential", "erlang"])
def test_me_far_log_density_matches_mpmath_expm(law, x):
    # a signed start (distinct rates 1 and 2, pi = (2, -1)) and a
    # defective Jordan block; both densities underflow past x = 745,
    # where the log of the plain sum is -inf
    if law == "hypoexponential":
        d = ph_new([2.0, -1.0], np.diag([-1.0, -2.0]), markov=False)
    else:
        d = ph_new([1.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]], markov=False)
    import mpmath

    with mpmath.workdps(50):
        E = mpmath.expm(mpmath.matrix(d.T.tolist()) * x)
        val = sum(d.pi[i] * E[i, j] * d.exit[j] for i in range(2) for j in range(2))
        want = float(mpmath.log(val))
    assert ph_loglik(d, [x]) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_me_density_values_do_not_take_the_log_shift():
    # the density 2e^{-x} - 2e^{-2x} of pi = (2, -1), T = diag(-1, -2): 0 at
    # x = 0, below the float range at x = 800, and a few ulp of it between
    d = ph_new([2.0, -1.0], np.diag([-1.0, -2.0]), markov=False)
    xs = np.array([0.0, 0.5, 3.0, 40.0, 800.0])
    got = ph_pdf(d, xs)
    assert got[0] == 0.0 and got[-1] == 0.0
    want = 2.0 * np.exp(-xs[1:-1]) - 2.0 * np.exp(-2.0 * xs[1:-1])
    np.testing.assert_allclose(got[1:-1], want, rtol=5e-14, atol=0.0)


def _mp_pdf_sf(d, x, dps=50):
    """pi e^{Tx} t and pi e^{Tx} (-T)^{-1} t from mpmath's expm, as mpf."""
    import mpmath

    with mpmath.workdps(dps):
        row = mpmath.matrix([d.pi.tolist()]) * mpmath.expm(mpmath.matrix(d.T.tolist()) * x)
        return ((row * mpmath.matrix(d.exit.tolist()))[0],
                (row * mpmath.matrix(d.close.tolist()))[0])


def test_me_evaluation_takes_no_matrix_exponential(monkeypatch):
    # a defective Jordan block and the companion fixture take the anchored
    # kernel, with no matrix exponential and no eigenvectors, for the
    # cdf and conditioning too
    laws = [ph_new([1.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]], markov=False), me_example()]

    def forbidden(*args, **kwargs):
        raise AssertionError("ME evaluation called a matrix exponential or an eigensolver")

    monkeypatch.setattr(matfun, "mat_exp", forbidden)
    monkeypatch.setattr(sla, "expm", forbidden)
    monkeypatch.setattr(np.linalg, "eig", forbidden)
    monkeypatch.setattr(np.linalg, "cond", forbidden)
    xs = np.linspace(0.0, 40.0, 2001)[1:]
    for d in laws:
        for f in (ph_pdf, ph_sf, ph_cdf):
            assert np.isfinite(f(d, xs)).all()
        assert math.isfinite(ph_loglik(d, xs))
        excess = mp_conditional_excess(tph_new(d, ParetoExp()), 3.0)
        assert np.isfinite(excess.base.pi).all()
    np.testing.assert_allclose(ph_pdf(laws[0], xs), xs * np.exp(-xs), rtol=1e-12, atol=0.0)


def test_me_companion_fixture_matches_mpmath():
    # density (101/100) e^{-x} (1 - cos 10x) on (0, 30]: its zeros make a
    # relative error meaningless, so the pdf's is taken against the
    # envelope 1.01 e^{-x}; the survival function has no zero.  Worst seen
    # 3.6e-13 and 1.5e-13, so 1e-12
    d = me_example()
    xs = np.linspace(0.0, 30.0, 301)[1:]
    want = np.array([[float(v) for v in _mp_pdf_sf(d, x, 40)] for x in xs])
    env = 1.01 * np.exp(-xs)
    assert np.max(np.abs(ph_pdf(d, xs) - want[:, 0]) / env) <= 1e-12
    np.testing.assert_allclose(ph_sf(d, xs), want[:, 1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("law", ["hypoexponential", "jordan2", "jordan3"])
def test_me_laws_match_mpmath_out_to_5000(law):
    # wherever the value is above 1e-300; worst seen 2.2e-13 (pdf, sf) and
    # 2.6e-15 (log density), so 1e-12 and 1e-14
    if law == "hypoexponential":
        d = ph_new([2.0, -1.0], np.diag([-1.0, -2.0]), markov=False)
    else:
        n = int(law[-1])
        d = ph_new(np.eye(n)[0], np.eye(n, k=1) - np.eye(n), markov=False)
    import mpmath

    xs = np.concatenate([np.linspace(0.01, 50.0, 40), np.geomspace(50.0, 5000.0, 40)[1:]])
    want = [_mp_pdf_sf(d, x) for x in xs]
    pdf, sf = (np.array([float(w[k]) for w in want]) for k in (0, 1))
    for f, v in ((ph_pdf, pdf), (ph_sf, sf)):
        m = v > 1e-300
        np.testing.assert_allclose(f(d, xs[m]), v[m], rtol=1e-12, atol=0.0, err_msg=f.__name__)
    log_pdf = np.array([float(mpmath.log(w[0])) for w in want])
    got = np.array([ph_loglik(d, [x]) for x in xs])
    np.testing.assert_allclose(got, log_pdf, rtol=1e-14, atol=0.0)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(d=markov_laws(), seed=st.integers(0, 2**32 - 1))
def test_me_twin_of_a_markov_law_evaluates_as_the_law(d, seed):
    # (pi S, S^-1 T S, S^-1 t) is the same law, but its T breaks the sign
    # rules, so it takes the Taylor step; with S = I + 0.3 N(0, 1).  Its
    # error grows as (cond(T) + q x) eps cond(S) (the squarings, and the
    # solve for its closing vector): at most 11 times that in 300
    # examples, 2.3e-8 relative at q x = 6.4e6 for stiff ones; so 32 times
    p = d.dim
    S = np.eye(p) + 0.3 * np.random.default_rng(seed).standard_normal((p, p))
    cond_s = np.linalg.cond(S)
    assume(cond_s <= 400.0)
    twin = ph_new(d.pi @ S, np.linalg.solve(S, d.T @ S), markov=False,
                  exit=np.linalg.solve(S, d.exit))
    xs = np.linspace(0.0, 40.0 * ph_mean(d), 201)
    bound = 32.0 * (np.linalg.cond(d.T) - d.T.diagonal().min() * xs) * 2.0**-53 * cond_s
    for f in (ph_sf, ph_pdf):
        want = f(d, xs)
        m = want > 1e-200
        err = np.abs(f(twin, xs[m]) / want[m] - 1.0)
        assert (err <= bound[m]).all(), (f.__name__, np.max(err / bound[m]))
    m = (ph_pdf(d, xs) > 1e-200) & (xs > 0.0)
    if m.any():
        assert abs(ph_loglik(twin, xs[m]) - ph_loglik(d, xs[m])) <= bound[m].sum()


@pytest.mark.parametrize("lam", [1e-3, 0.37, 1.0, 5.0, 1e3])
def test_one_phase_law_through_the_kernel_is_the_exponential(lam):
    # wherever lam e^{-lam x} is above 1e-300
    xs = np.linspace(0.0, 690.0 / lam, 2001)
    d = erlang_rep(1, lam)
    sf = np.exp(-lam * xs)
    np.testing.assert_allclose(ph_sf(d, xs), sf, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(ph_pdf(d, xs), lam * sf, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u, rel", [(800.0, 1e-12), (1e5, 1e-10)])
def test_conditioning_an_erlang_law_past_underflow(u, rel):
    # Erlang(3, 1) given X > u starts in phase i with weight u^i / i!,
    # though its survival at u is below the float range
    alpha = phcore._condition(erlang_rep(3, 1.0), u, f"u = {u}").pi
    want = np.array([1.0, u, u * u / 2])
    np.testing.assert_allclose(alpha, want / want.sum(), rtol=rel, atol=0.0)


def _mp_conditioned(d, u, dps=50):
    """pi e^{Tu} / (pi e^{Tu} (-T)^{-1} t) from mpmath's expm, as floats."""
    import mpmath

    with mpmath.workdps(dps):
        row = mpmath.matrix([d.pi.tolist()]) * mpmath.expm(mpmath.matrix(d.T.tolist()) * u)
        sf = (row * mpmath.matrix(d.close.tolist()))[0]
        return np.array([float(row[0, j] / sf) for j in range(d.dim)])


@pytest.mark.parametrize("u", [0.3, 3.0, 30.0])
@pytest.mark.parametrize("law", ["companion", "erlang3", "hypoexponential"])
def test_me_conditioning_matches_mpmath(law, u):
    # the start vector of an ME law comes from the anchored walk; its
    # entries are signed, so the error is taken against the largest.
    # Worst seen 1.3e-14 (the companion fixture at u = 30), so 1e-12
    if law == "companion":
        d = me_example()
    elif law == "erlang3":
        d = ph_new(np.eye(3)[0], np.eye(3, k=1) - np.eye(3), markov=False)
    else:
        d = ph_new([2.0, -1.0], np.diag([-1.0, -2.0]), markov=False)
    cond = phcore._condition(d, u, f"u = {u}")
    want = _mp_conditioned(d, u)
    assert not cond.markov
    assert np.max(np.abs(cond.pi - want)) <= 1e-12 * np.max(np.abs(want))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(d=markov_laws(), far=st.floats(1.0, 4.0),
       zs=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=5))
def test_conditioned_survival_is_the_ratio_of_log_tails(d, far, zs):
    # u lies one to four times as far out as the point where S(u) = 1e-300,
    # and z up to 20 conditioned means beyond it.  Both logs reach a few
    # thousand, where a few ulp of each is about 1e-12 of the ratio; the
    # worst of 300 examples was 7e-13, so 1e-10 relative
    u = far * float(phcore._tail_points(d, np.array([1e-300]), True)[0])
    cond = phcore._condition(d, u, f"u = {u}")
    z = ph_mean(cond) * np.array(zs)
    log_sf = lambda x: phcore._unif_action(d.pi, d.T, d.close, x, log=True)
    want = np.exp(log_sf(u + z) - log_sf(np.array([u])))
    np.testing.assert_allclose(ph_sf(cond, z), want, rtol=1e-10, atol=0.0)
