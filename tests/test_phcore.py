"""Phase-type core: representations, evaluators, moments, sampling."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, gammainc

from iphfit.errors import (
    DomainError,
    UnsupportedRepresentationError,
    ValidationError,
)
import iphfit.phcore as phcore
from iphfit.emfit import ph_loglik
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
    monkeypatch.setattr(phcore, "_last_setup", [None])
    fresh = ph_sf(d, xs), ph_pdf(d, xs)
    ph_sf(d, np.array([50000.0]))
    assert np.array_equal(ph_sf(d, xs), fresh[0])
    assert np.array_equal(ph_pdf(d, xs), fresh[1])


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


def test_me_cdf_is_the_complement_of_its_survival():
    d = me_example()
    xs = np.linspace(0.0, 10.0, 101)
    np.testing.assert_allclose(ph_cdf(d, xs) + ph_sf(d, xs), 1.0, rtol=0.0, atol=2.0**-52)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("law", sorted(QUANTILE_LAWS))
def test_quantile_brackets_its_level(law):
    d = QUANTILE_LAWS[law]()
    rel_tol = 1e-10
    qs = _tail_levels(60)
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
    # is NaN at 60 times its mean), so the ladder must not reach that far
    # above the mean for levels that lie near it
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


@pytest.mark.parametrize("x", [1.0, 800.0, 1e4])
def test_me_log_density_of_one_phase_is_exact_past_underflow(x):
    d = ph_new([1.0], [[-1.0]], markov=False)
    assert ph_loglik(d, [x]) == pytest.approx(-x, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("x", [3.0, 800.0, 5000.0])
@pytest.mark.parametrize("law", ["hypoexponential", "erlang"])
def test_me_far_log_density_matches_mpmath_expm(law, x):
    # the eigen route (distinct rates 1 and 2, pi = (2, -1)) and the
    # per-point e^{Tx} route (a defective Jordan block); both densities
    # underflow past x = 745, where the log of the plain sum is -inf
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
    # the shift e^{rho x} is only factored out of the log
    d = ph_new([2.0, -1.0], np.diag([-1.0, -2.0]), markov=False)
    xs = np.array([0.0, 0.5, 3.0, 40.0, 800.0])
    vals, V = np.linalg.eig(d.T)
    w = (d.pi @ V) * np.linalg.solve(V, d.exit.astype(complex))
    want = np.maximum((np.exp(np.multiply.outer(xs, vals)) @ w).real, 0.0)
    assert np.array_equal(ph_pdf(d, xs), want)


@pytest.mark.parametrize("lam", [1e-3, 0.37, 1.0, 5.0, 1e3])
def test_one_phase_law_through_the_kernel_is_the_exponential(lam):
    # wherever lam e^{-lam x} is above 1e-300
    xs = np.linspace(0.0, 690.0 / lam, 2001)
    d = erlang_rep(1, lam)
    sf = np.exp(-lam * xs)
    np.testing.assert_allclose(ph_sf(d, xs), sf, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(ph_pdf(d, xs), lam * sf, rtol=1e-12, atol=0.0)
