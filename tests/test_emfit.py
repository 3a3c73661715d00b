"""EM fitting: E-step statistics, monotonicity, closed-form agreement."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gamma

import iphfit.emfit as emfit
from iphfit.emfit import (
    FitConfig,
    _estep,
    _mstep,
    _poisson_table,
    _random_init,
    em_step,
    fit_erlang_rate,
    fit_ph_em,
    fit_transformed,
    ph_loglik,
)
from iphfit.errors import (
    ConfigError,
    DegenerateStateError,
    DegenerateStateWarning,
    DomainError,
    ShiftError,
    ValidationError,
)
from iphfit.families import ParetoExp, Power, ShiftedTransform, tph_pdf
from iphfit.phcore import (
    _unif_rate,
    _window_rows,
    erlang_rep,
    mixture_rep,
    ph_new,
    ph_pdf,
    ph_sample,
)

from oracles import random_probability, random_sub_intensity, recurrence_estep

# the benchmark's fixed 5-phase law
BASE_PI = np.array([0.5, 0.2, 0.15, 0.1, 0.05])
BASE_T = np.array([
    [-4.0, 2.0, 0.5, 0.0, 0.0],
    [0.5, -3.0, 1.5, 0.5, 0.0],
    [0.0, 0.5, -2.5, 1.0, 0.5],
    [0.0, 0.0, 0.4, -2.0, 0.8],
    [0.0, 0.0, 0.0, 0.3, -1.6],
])


def block_estep(d, ys):
    """Independent E-step: one 2p x 2p matrix exponential per data point.

    The top-right block of expm([[T, t pi], [0, T]] y) is
    M(y) = int_0^y e^{Tu} t pi e^{T(y-u)} du, from which
    sojourn_i = M_ii / f, jumps_ij = T_ij M_ji / f.
    """
    p = d.dim
    C = np.zeros((2 * p, 2 * p))
    C[:p, :p] = d.T
    C[:p, p:] = np.outer(d.exit, d.pi)
    C[p:, p:] = d.T
    starts = np.zeros(p)
    sojourn = np.zeros(p)
    jumps = np.zeros((p, p))
    exits = np.zeros(p)
    ll = 0.0
    for y in ys:
        E = sla.expm(C * y)
        eTy = E[:p, :p]
        M = E[:p, p:]
        f = float(d.pi @ eTy @ d.exit)
        ll += math.log(f)
        starts += d.pi * (eTy @ d.exit) / f
        sojourn += np.diag(M) / f
        jumps += d.T * M.T / f
        exits += (d.pi @ eTy) * d.exit / f
    np.fill_diagonal(jumps, 0.0)
    return starts, sojourn, jumps, exits, ll


def block_mstep(d, starts, sojourn, jumps, exits, n):
    pi = starts / n
    T = jumps / sojourn[:, None]
    t = exits / sojourn
    np.fill_diagonal(T, 0.0)
    np.fill_diagonal(T, -(T.sum(axis=1) + t))
    return ph_new(pi, T)


def test_em_step_matches_block_oracle():
    rng = np.random.default_rng(71)
    d0 = ph_new(random_probability(rng, 3), random_sub_intensity(rng, 3))
    ys = np.random.default_rng(72).exponential(1.0, 60) + 0.05
    got = em_step(d0, ys)
    want = block_mstep(d0, *block_estep(d0, ys)[:4], n=ys.size)
    assert np.max(np.abs(got.T - want.T)) < 1e-10
    assert np.max(np.abs(got.pi - want.pi)) < 1e-12
    assert np.max(np.abs(got.exit - want.exit)) < 1e-10


def test_em_step_matches_block_oracle_across_depth_bands():
    # one fast state makes q = 105: q y runs from 1 to 680, so the data
    # span hundreds of anchor cells
    T = np.array([[-100.0, 60.0, 30.0], [0.5, -2.0, 1.0], [0.2, 0.3, -1.0]])
    d0 = ph_new([0.3, 0.3, 0.4], T)
    ys = np.concatenate([np.random.default_rng(72).exponential(1.0, 60) + 0.01,
                         [3.0, 5.0, 6.5]])
    got = em_step(d0, ys)
    want = block_mstep(d0, *block_estep(d0, ys)[:4], n=ys.size)
    # rates up to 100: the same 1e-10 bound, relative to the largest
    assert np.max(np.abs(got.T - want.T)) < 1e-8
    assert np.max(np.abs(got.pi - want.pi)) < 1e-12
    assert np.max(np.abs(got.exit - want.exit)) < 1e-8


@pytest.mark.parametrize("y_max", [0.002, 0.05, 0.5, 5.0, 40.0])
def test_estep_matches_step_by_step_recurrences(y_max):
    # q is about 100, so the depth K of the largest datum runs from about
    # 35 (q y = 0.2) to about 4800 (q y = 4000)
    T = np.array([[-100.0, 60.0, 30.0], [0.5, -2.0, 1.0], [0.2, 0.3, -1.0]])
    d = ph_new([0.3, 0.3, 0.4], T)
    rng = np.random.default_rng(74)
    ys = np.unique(np.append(rng.uniform(0.0005, y_max, 40), y_max))
    wt = rng.integers(1, 4, ys.size).astype(float)
    got = _estep(d, ys, wt)
    want = recurrence_estep(d, ys, wt)
    for name, a, b in zip(("starts", "sojourn", "jumps", "exits"), got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)
    assert got[4] == pytest.approx(want[4], rel=1e-12)


@pytest.mark.parametrize("y_max", [0.002, 0.05, 0.5, 5.0, 40.0])
def test_estep_with_a_kept_table_matches_step_by_step_recurrences(y_max):
    # a table kept from an earlier iterate: built at twice this law's rate,
    # the far end of the range a fit reuses it over
    T = np.array([[-100.0, 60.0, 30.0], [0.5, -2.0, 1.0], [0.2, 0.3, -1.0]])
    d = ph_new([0.3, 0.3, 0.4], T)
    rng = np.random.default_rng(74)
    ys = np.unique(np.append(rng.uniform(0.0005, y_max, 40), y_max))
    wt = rng.integers(1, 4, ys.size).astype(float)
    table = _poisson_table(ys, 2.0 * _unif_rate(T))
    assert table is not None
    got = _estep(d, ys, wt, table)
    want = recurrence_estep(d, ys, wt)
    for name, a, b in zip(("starts", "sojourn", "jumps", "exits"), got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)
    assert got[4] == pytest.approx(want[4], rel=1e-12)


def test_estep_of_a_long_erlang_matches_step_by_step_recurrences(monkeypatch):
    # Erlang(30, 30): its 60-state E-step chain takes the anchor step in
    # substeps, and its windows near y = 2 need a deeper series than 20
    d = erlang_rep(30, 30.0)
    rng = np.random.default_rng(5)
    ys = np.unique(rng.uniform(0.2, 2.0, 40))
    wt = rng.integers(1, 4, ys.size).astype(float)
    depths = []
    groups = emfit._window_groups

    def recorded(*args, **kwargs):
        for group in groups(*args, **kwargs):
            depths.append(group[1].shape[1] - 1)
            yield group

    monkeypatch.setattr(emfit, "_window_groups", recorded)
    got = _estep(d, ys, wt)
    monkeypatch.undo()
    assert depths[0] == 20 and max(depths) > 20
    want = recurrence_estep(d, ys, wt)
    for name, a, b in zip(("starts", "sojourn", "jumps", "exits"), got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)
    assert got[4] == pytest.approx(want[4], rel=1e-12)


@pytest.mark.parametrize("seed, builds", [(1, 1), (2, 1)])
def test_fit_builds_the_poisson_table_once_while_rates_fall(monkeypatch, seed, builds):
    # from seed 1 every iterate's rate falls, so one table serves all 31
    # E-steps; from seed 2 every rate rises (1.53 to 1.66), but stays below
    # the 1.1x margin the first table is built at
    ys = np.random.default_rng(78).gamma(2.0, 1.0, 400)
    calls = []

    def counted(ys, q):
        calls.append(q)
        return _poisson_table(ys, q)

    monkeypatch.setattr("iphfit.emfit._poisson_table", counted)
    cfg = FitConfig(phases=3, max_iters=30, loglik_rel_tol=1e-300, seed=seed)
    res = fit_ph_em(ys, cfg)
    monkeypatch.undo()
    assert res.iterations_run == 30
    assert len(calls) == builds
    # the same run through em_step and ph_loglik, each at its own rate
    d = _random_init(3, float(ys.mean()), np.random.default_rng(seed))
    trace = []
    for _ in range(30):
        trace.append(ph_loglik(d, ys))
        d = em_step(d, ys)
    trace.append(ph_loglik(d, ys))
    np.testing.assert_allclose(res.loglik_trace, trace, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(res.fitted.T, d.T, rtol=1e-10, atol=0.0)


def _erlang_3_2_loglik(ys):
    """Closed-form log-likelihood of Erlang(3, 2): f(y) = 4 y^2 e^{-2y}."""
    return float(np.sum(math.log(4.0) + 2.0 * np.log(ys) - 2.0 * ys))


@pytest.mark.parametrize("y_far", [400.0, 800.0])
def test_far_datum_keeps_a_finite_log_likelihood(y_far):
    # its density (e^-786 at y = 400) is far below the float range; the
    # anchored windows carry its log scale instead
    d = erlang_rep(3, 2.0)
    ys = np.concatenate([np.linspace(0.1, 3.0, 50), [y_far]])
    want = _erlang_3_2_loglik(ys)
    assert ph_loglik(d, ys) == pytest.approx(want, rel=1e-13, abs=0.0)
    ll = _estep(d, ys, np.ones(ys.size))[4]
    assert ll == pytest.approx(want, rel=1e-13, abs=0.0)
    stepped = em_step(d, ys)
    assert ph_loglik(stepped, ys) >= want


def test_fit_from_a_kept_table_keeps_the_far_datum():
    ys = np.concatenate([np.linspace(0.1, 3.0, 50), [800.0]])
    res = fit_ph_em(ys, FitConfig(phases=3, max_iters=40, init=erlang_rep(3, 2.0)))
    assert res.loglik_trace[0] == pytest.approx(_erlang_3_2_loglik(ys), rel=1e-13, abs=0.0)
    trace = np.array(res.loglik_trace)
    assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) >= -1e-10 * np.abs(trace[1:]))


def test_raw_heavy_tailed_sample_fits():
    # a lognormal(0, 3) sample spans 1e-6 to 1e5: its far points used to
    # stop the fit with a zero likelihood before the first iteration
    rng = np.random.default_rng(3)
    rng.lognormal(0.0, 2.0, 5000)
    ys = rng.lognormal(0.0, 3.0, 5000)
    res = fit_ph_em(ys, FitConfig(phases=5, seed=1))
    trace = np.array(res.loglik_trace)
    assert np.all(np.isfinite(trace))
    assert np.all(np.diff(trace) >= -1e-10 * np.abs(trace[1:]))
    assert res.loglik == pytest.approx(ph_loglik(res.fitted, ys), rel=1e-12)


@pytest.mark.parametrize("u", [200.0, 400.0])
def test_estep_heap_peak_is_bounded(u):
    # 20000 points and one far datum: the full Poisson table would be
    # 20001 x (K + 1) doubles, 63.6 MiB at u = 200
    d = ph_new(BASE_PI, 0.25 * BASE_T)
    ys = np.append(np.random.default_rng(82).gamma(2.0, 4.0, 20000), u)
    uy, inv = np.unique(ys, return_inverse=True)
    wt = np.bincount(inv).astype(float)
    tracemalloc.start()
    try:
        _estep(d, uy, wt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_streamed_estep_matches_a_kept_table():
    # 30000 distinct points: their window rows pass the one-buffer budget,
    # so the table keeps none and the E-step fills them block by block
    d = ph_new(BASE_PI, 0.25 * BASE_T)
    ys = np.unique(np.random.default_rng(83).gamma(2.0, 4.0, 30000))
    assert ys.size == 30000
    wt = np.random.default_rng(84).integers(1, 4, ys.size).astype(float)
    table = _poisson_table(ys, _unif_rate(d.T))
    q, cells, cell, delta, rows, per_cell = table
    assert rows is None and per_cell is None
    W = np.ascontiguousarray(_window_rows(delta, 20))
    kept = (q, cells, cell, delta, emfit._kept_rows(W, delta, cell, cells.size),
            emfit._per_cell(cell, cells.size))
    got, want = _estep(d, ys, wt, table), _estep(d, ys, wt, kept)
    for name, a, b in zip(("starts", "sojourn", "jumps", "exits"), got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)
    assert got[4] == pytest.approx(want[4], rel=1e-12)
    tracemalloc.start()
    try:
        _estep(d, ys, wt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@st.composite
def kept_table_cases(draw):
    """A Markov law of order 1..6 from ``random_sub_intensity``, one of its
    rows scaled up by 1, 1e3 or 1e5, and data over 1..60 anchor cells of a
    table kept at 1..2 times the law's rate, the cells spread up to 200
    apart, half the offsets drawn just below 1.  With the fast row, about
    one case in six has points whose windows go deeper than 20."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 6))
    T = random_sub_intensity(rng, p)
    T[draw(st.integers(0, p - 1))] *= draw(st.sampled_from([1.0, 1e3, 1e5]))
    d = ph_new(random_probability(rng, p), T)
    q = _unif_rate(T) * draw(st.floats(1.0, 2.0))
    n = draw(st.integers(1, 60))
    cells = np.sort(rng.choice(draw(st.sampled_from([n, 10 * n, 200 + n])), n, replace=False))
    near_one = 1.0 - 2.0 ** -rng.integers(1, 20, n).astype(float)
    ys = np.unique(np.concatenate([cells + rng.uniform(0.0, 1.0, n), cells + near_one]) / q)
    return d, ys, rng.integers(1, 4, ys.size).astype(float), q


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=kept_table_cases())
def test_kept_table_estep_matches_step_by_step_recurrences(case):
    d, ys, wt, q = case
    table = _poisson_table(ys, q)
    assert table[4] is not None
    got = _estep(d, ys, wt, table)
    want = recurrence_estep(d, ys, wt)
    for name, a, b in zip(("starts", "sojourn", "jumps", "exits"), got, want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)
    assert got[4] == pytest.approx(want[4], rel=1e-12)
    # the kept rows take the block-sparse route and the per-cell depth
    # test; fresh rows of the same points give the same verdicts
    q, cells, cell, delta, kept, _ = table
    assert np.shares_memory(kept[2].data, kept[0])  # the view holds no copy of the rows
    alpha = np.random.default_rng(ys.size).uniform(0.1, 1.0, (cells.size, d.dim))
    alpha /= alpha.sum(axis=1, keepdims=True)
    powers = np.stack([np.linalg.matrix_power(np.eye(d.dim) + d.T / q, k) for k in range(21)])
    args = (alpha, powers, d.exit, delta, cell)
    for a, b in zip(emfit._window_groups(*args, kept), emfit._window_groups(*args)):
        np.testing.assert_array_equal(a[3], b[3])
        np.testing.assert_allclose(a[2], b[2], rtol=1e-14, atol=0.0)


def test_kept_table_over_several_anchor_spans(monkeypatch):
    # the anchors are walked a span of cells at a time; with a span of 3
    # cells each span takes its own block-sparse view of the kept rows
    d = ph_new(BASE_PI, BASE_T)
    rng = np.random.default_rng(91)
    ys = np.unique(rng.gamma(2.0, 1.5, 300))
    wt = rng.integers(1, 4, ys.size).astype(float)
    table = _poisson_table(ys, 1.5 * _unif_rate(d.T))
    assert table[4] is not None and table[1].size > 9
    want = _estep(d, ys, wt, table)
    monkeypatch.setattr(emfit, "_BLOCK_ENTRIES", 3 * 2 * d.dim**2)
    got = _estep(d, ys, wt, table)
    for name, a, b in zip(("starts", "sojourn", "jumps", "exits"), got, want):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0, err_msg=name)
    assert got[4] == pytest.approx(want[4], rel=1e-14)


def _loop_mstep(d, starts, sojourn, jumps, exits, freeze=None):
    """The M-step one state at a time: the reference for the vectorised
    one, which must match it bit for bit."""
    pi_new = np.maximum(starts, 0.0)
    pi_new = pi_new / pi_new.sum()
    T_new = np.array(d.T, dtype=float)
    for i in range(d.dim):
        if freeze is not None and freeze[i]:
            continue
        if not (sojourn[i] > 0.0):
            raise DegenerateStateError(
                f"state {i} has zero expected sojourn time; cannot update its rates"
            )
        row = np.maximum(jumps[i], 0.0) / sojourn[i]
        row[i] = 0.0
        ti = max(exits[i], 0.0) / sojourn[i]
        T_new[i] = row
        T_new[i, i] = -(row.sum() + ti)
    return ph_new(pi_new, T_new, markov=True)


def test_mstep_matches_the_loop_over_states():
    rng = np.random.default_rng(90)
    for trial in range(300):
        p = int(rng.integers(1, 30))
        d = ph_new(random_probability(rng, p), random_sub_intensity(rng, p))
        starts = rng.random(p)
        sojourn = rng.random(p) * 10.0 ** rng.uniform(-3, 3, p)
        jumps = rng.random((p, p)) * 10.0 ** rng.uniform(-3, 3, (p, p))
        jumps *= rng.random((p, p)) < 0.7
        np.fill_diagonal(jumps, -rng.random(p))  # T_ii U_ii: never positive
        exits = rng.random(p) * 10.0 ** rng.uniform(-3, 3, p)
        freeze = None if trial % 3 == 0 else rng.random(p) < 0.3
        if freeze is not None:
            sojourn[freeze & (rng.random(p) < 0.5)] = 0.0  # frozen: never divided by
        got = _mstep(d, starts, sojourn, jumps, exits, freeze)
        want = _loop_mstep(d, starts, sojourn, jumps, exits, freeze)
        assert np.array_equal(got.T, want.T) and np.array_equal(got.pi, want.pi)
        assert np.array_equal(got.exit, want.exit)


def test_mstep_zero_sojourn_error_names_the_first_live_state():
    d = ph_new(BASE_PI, BASE_T)
    sojourn = np.array([1.0, 0.0, 2.0, 0.0, 1.0])
    stats = (np.ones(5), sojourn, np.ones((5, 5)), np.ones(5))
    for freeze, state in ((None, 1), (np.array([0, 1, 0, 0, 0], bool), 3)):
        with pytest.raises(DegenerateStateError, match=f"^state {state} has zero expected"):
            _mstep(d, *stats, freeze=freeze)
        with pytest.raises(DegenerateStateError, match=f"^state {state} has zero expected"):
            _loop_mstep(d, *stats, freeze=freeze)
    frozen = _mstep(d, *stats, freeze=sojourn == 0.0)
    assert np.array_equal(frozen.T, _loop_mstep(d, *stats, freeze=sojourn == 0.0).T)
    assert np.array_equal(frozen.T[[1, 3]], BASE_T[[1, 3]])


def test_a_state_pi_never_reaches_gets_zero_statistics():
    # the slow third state is never entered; left in the chain, it set the
    # scale of every squaring, and the reached states' anchors went to 0/0
    mix = mixture_rep([1.0, 0.0], [erlang_rep(2, 5.0), erlang_rep(1, 0.01)])
    alone = erlang_rep(2, 5.0)
    ys = [1.0, 100.0, 300.0, 600.0]
    assert ph_loglik(mix, ys) == pytest.approx(ph_loglik(alone, ys), rel=1e-14, abs=0.0)
    for y in ys:
        got = _estep(mix, np.array([y]), np.ones(1))
        want = _estep(alone, np.array([y]), np.ones(1))
        for name, a, b in zip(("starts", "sojourn", "jumps", "exits"), got, want):
            wide = np.zeros(a.shape)
            wide[(slice(0, 2),) * a.ndim] = b
            np.testing.assert_allclose(a, wide, rtol=1e-14, atol=0.0, err_msg=name)
        assert got[4] == pytest.approx(want[4], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("y", [150.0, 300.0, 600.0])
def test_estep_of_an_unreached_slow_state_is_the_exponential_one(y):
    # pi = (1, 0): the law is Exp(5), whatever the second state's rate
    d = ph_new([1.0, 0.0], np.diag([-5.0, -0.01]))
    starts, sojourn, jumps, exits, ll = _estep(d, np.array([y]), np.ones(1))
    assert ll == pytest.approx(math.log(5.0) - 5.0 * y, rel=1e-13, abs=0.0)
    np.testing.assert_allclose(starts, [1.0, 0.0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(sojourn, [y, 0.0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(exits, [1.0, 0.0], rtol=1e-13, atol=0.0)
    assert jumps[0, 1] == jumps[1, 0] == jumps[1, 1] == 0.0


@pytest.mark.parametrize("n", [20000, 3000])
def test_fit_heap_peak_is_bounded(n):
    # the fit loop holds its Poisson table across iterations; that must not
    # add a buffer to the E-step's own bound on the same far-datum data: all
    # of it (its table streams) or its last 3000 points (the table is kept)
    d = ph_new(BASE_PI, 0.25 * BASE_T)
    ys = np.append(np.random.default_rng(82).gamma(2.0, 4.0, 20000), 200.0)[-n - 1 :]
    tracemalloc.start()
    try:
        fit_ph_em(ys, FitConfig(phases=5, max_iters=3, init=d))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_estep_mass_conservation():
    rng = np.random.default_rng(73)
    d = ph_new(random_probability(rng, 4), random_sub_intensity(rng, 4))
    for y in (0.2, 1.0, 4.0, 11.0):
        starts, sojourn, jumps, exits, _ = _estep(d, np.array([y]), np.array([1.0]))
        assert abs(sojourn.sum() - y) < 1e-8
        assert abs(exits.sum() - 1.0) < 1e-8
        assert abs(starts.sum() - 1.0) < 1e-8


def test_loglik_monotone_across_suite():
    rng = np.random.default_rng(74)
    for trial in range(4):
        p = int(rng.integers(2, 5))
        gen = ph_new(random_probability(rng, p), random_sub_intensity(rng, p))
        ys = ph_sample(gen, np.random.default_rng(100 + trial), 300)
        cfg = FitConfig(phases=p, max_iters=40, seed=trial)
        res = fit_ph_em(ys, cfg)
        trace = np.array(res.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-10)
        assert res.iterations_run <= 40


def test_scalar_fit_is_one_over_mean():
    ys = np.random.default_rng(75).exponential(0.7, 500)
    stepped = em_step(erlang_rep(1, 3.0), ys)
    assert -stepped.T[0, 0] == pytest.approx(1.0 / ys.mean(), rel=1e-12)
    res = fit_ph_em(ys, FitConfig(phases=1, max_iters=10, seed=0))
    assert -res.fitted.T[0, 0] == pytest.approx(1.0 / ys.mean(), rel=1e-12)
    assert res.converged


def test_permutation_invariance():
    rng = np.random.default_rng(76)
    p = 3
    init = ph_new(random_probability(rng, p), random_sub_intensity(rng, p))
    perm = np.array([2, 0, 1])
    init_p = ph_new(init.pi[perm], init.T[np.ix_(perm, perm)])
    ys = np.random.default_rng(77).gamma(2.0, 0.8, 250)
    res_a = fit_ph_em(ys, FitConfig(phases=p, max_iters=25, init=init))
    res_b = fit_ph_em(ys, FitConfig(phases=p, max_iters=25, init=init_p))
    ta, tb = np.array(res_a.loglik_trace), np.array(res_b.loglik_trace)
    assert ta.size == tb.size
    assert np.max(np.abs(ta - tb)) < 1e-10
    # the fitted representation is the same up to the permutation
    back = np.argsort(perm)
    assert np.max(np.abs(res_b.fitted.T[np.ix_(back, back)] - res_a.fitted.T)) < 1e-6


def test_ordered_reduction_is_bitwise_repeatable():
    ys = np.random.default_rng(78).gamma(2.0, 1.0, 400)
    cfg = FitConfig(phases=3, max_iters=15, seed=5)
    a = fit_ph_em(ys, cfg)
    b = fit_ph_em(ys, cfg)
    assert np.array_equal(a.fitted.T, b.fitted.T)
    assert a.loglik_trace == b.loglik_trace


def test_duplicate_aggregation_is_invisible():
    ys = np.array([0.5, 1.5, 0.5, 2.5, 1.5, 0.5])
    spread = ys + np.arange(6) * 1e-13  # forces the non-aggregated path
    d0 = erlang_rep(2, 1.0)
    a = em_step(d0, ys)
    b = em_step(d0, spread)
    assert np.max(np.abs(a.T - b.T)) < 1e-6


def test_degenerate_state_is_frozen_with_warning():
    # state 2 is unreachable: zero expected sojourn
    init = ph_new([1.0, 0.0], [[-1.0, 0.0], [0.0, -2.0]])
    ys = np.random.default_rng(79).exponential(1.0, 50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit_ph_em(ys, FitConfig(phases=2, max_iters=5, init=init))
    assert any(isinstance(w.message, DegenerateStateWarning) for w in caught)
    assert res.warnings
    # the frozen state kept its rates
    assert res.fitted.T[1, 1] == -2.0


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        FitConfig(phases=0)
    with pytest.raises(ConfigError):
        FitConfig(phases=2, max_iters=0)
    with pytest.raises(ConfigError):
        FitConfig(phases=2, loglik_rel_tol=-1.0)
    with pytest.raises(ConfigError):
        FitConfig(phases=2, init="exotic")


def test_data_validation():
    with pytest.raises(ValidationError):
        fit_ph_em(np.array([]), FitConfig(phases=1))
    with pytest.raises(ValidationError):
        fit_ph_em(np.array([1.0, -0.5]), FitConfig(phases=1))
    with pytest.raises(ValidationError):
        fit_ph_em(np.array([1.0, float("nan")]), FitConfig(phases=1))


def test_ph_loglik_matches_density_sum():
    d = erlang_rep(2, 1.5)
    ys = np.random.default_rng(80).gamma(2.0, 1 / 1.5, 100)
    want = float(np.sum(np.log(ph_pdf(d, ys))))
    assert ph_loglik(d, ys) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# transformed-scale fitting
# ---------------------------------------------------------------------------

def test_fit_transformed_scalar_pareto():
    rng = np.random.default_rng(81)
    lam = 1.0
    xs = np.expm1(rng.exponential(1.0 / lam, 4000))
    model, res = fit_transformed(xs, ParetoExp(), 0.0, FitConfig(phases=1, max_iters=50, seed=1))
    lam_hat = -float(model.base.T[0, 0])
    # MLE of lam from u_i = log1p(x_i): 1/mean(u)
    assert lam_hat == pytest.approx(1.0 / np.mean(np.log1p(xs)), rel=1e-10)
    assert res.converged


def test_fit_transformed_loglik_identity():
    rng = np.random.default_rng(82)
    xs = np.expm1(rng.gamma(2.0, 0.5, 800))
    tr = ParetoExp()
    model, res = fit_transformed(xs, tr, 0.0, FitConfig(phases=2, max_iters=40, seed=2))
    # original-scale loglik = transformed loglik + sum log|jacobian|
    jac_sum = float(np.sum(np.log(tr.jac(xs, 1.0))))
    assert res.loglik_original == pytest.approx(res.loglik + jac_sum, rel=1e-12)
    # round trip: evaluating the returned model on the data reproduces it
    direct = float(np.sum(np.log(tph_pdf(model, xs))))
    assert direct == pytest.approx(res.loglik_original, rel=1e-8)


def test_fit_transformed_with_shift_composes():
    rng = np.random.default_rng(83)
    shift = 0.5
    xs = np.expm1(rng.gamma(2.0, 0.5, 600) + shift)
    model, res = fit_transformed(xs, ParetoExp(), shift, FitConfig(phases=2, max_iters=40, seed=3))
    assert isinstance(model.transform, ShiftedTransform)
    assert model.transform.shift == shift
    direct = float(np.sum(np.log(tph_pdf(model, xs))))
    assert direct == pytest.approx(res.loglik_original, rel=1e-8)


def test_fit_transformed_shift_error_lists_offenders():
    xs = np.array([0.2, 5.0, 0.1, 8.0])
    with pytest.raises(ShiftError) as err:
        fit_transformed(xs, ParetoExp(), 1.0, FitConfig(phases=1, max_iters=5))
    assert set(err.value.indices) == {0, 2}


def test_fit_transformed_rejects_pinned_scale_and_prebuilt_shift():
    xs = np.expm1(np.random.default_rng(84).exponential(1.0, 50))
    with pytest.raises(ValidationError):
        fit_transformed(xs, ParetoExp(beta=2.0), 0.0, FitConfig(phases=1))
    with pytest.raises(ValidationError):
        fit_transformed(xs, ShiftedTransform(ParetoExp(), 0.3), 0.0, FitConfig(phases=1))


def test_fit_transformed_weibull_route():
    rng = np.random.default_rng(85)
    beta = 2.0
    xs = rng.gamma(2.0, 0.5, 1000) ** (1.0 / beta)
    model, res = fit_transformed(xs, Power(beta), 0.0, FitConfig(phases=2, max_iters=60, seed=4))
    direct = float(np.sum(np.log(tph_pdf(model, xs))))
    assert direct == pytest.approx(res.loglik_original, rel=1e-8)


# ---------------------------------------------------------------------------
# Erlang rate fitting
# ---------------------------------------------------------------------------

def test_erlang_rate_exact_on_constant_data():
    # n/lam0 chosen exactly representable so the identity is exact in floats
    n, lam0 = 4, 2.0
    ys = np.full(100, n / lam0)
    lam_hat, _ = fit_erlang_rate(ys, n)
    assert lam_hat == lam0


def test_erlang_rate_scalar_case():
    ys = np.random.default_rng(86).exponential(0.4, 300)
    lam_hat, ll = fit_erlang_rate(ys, 1)
    assert lam_hat == pytest.approx(1.0 / ys.mean(), rel=1e-14)
    assert ll == pytest.approx(ph_loglik(erlang_rep(1, lam_hat), ys), rel=1e-12)


@pytest.mark.parametrize("n", [3, 200])
def test_erlang_rate_log_likelihood_is_the_closed_form(n):
    # n = 200 phases is past the order a representation may have; the
    # closed form does not build one
    ys = np.random.default_rng(87).gamma(n, 0.5, 400)
    lam, ll = fit_erlang_rate(ys, n)
    want = float(np.sum(gamma.logpdf(ys, n, scale=1.0 / lam)))
    assert ll == pytest.approx(want, rel=1e-12)


def test_erlang_rate_rejects_bad_input():
    with pytest.raises(ValidationError):
        fit_erlang_rate(np.array([1.0]), 0)
    with pytest.raises(ValidationError):
        fit_erlang_rate(np.array([-1.0]), 2)
