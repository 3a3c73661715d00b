"""Classical (homogeneous) phase-type distributions.

Construction and validation of PH representations, Erlang and mixture
builders, density/survival/moment evaluation, quantiles, and jump-chain
sampling.

A representation is the triple (pi, T, t): initial probabilities, the
sub-intensity matrix of the transient states, and the exit-rate vector.
For a probabilistic (Markov) representation t is forced to -T e.  The
density and survival function are

    f(x) = pi e^{Tx} t,        1 - F(x) = pi e^{Tx} (-T)^{-1} t,

where the closing vector (-T)^{-1} t reduces to the all-ones vector for
Markov representations.  Matrix-exponential (ME) representations that are
not phase-type are admitted under ``markov=False`` with weak, grid-based
validation; for those the exit vector may be supplied explicitly (the
textbook oscillating-density example needs this).

Evaluation over arrays is routed through one of three backends: a closed
form for one phase, positive-series uniformization for Markov generators
(no cancellation, preserves relative accuracy; the distribution function
is a positive series of its own), and for non-Markov representations an
eigen-decomposition, with per-point matrix exponentials when the
eigenvectors are ill-conditioned.  Uniformization sorts the points once
and reduces blocks of Poisson weights (``_poisson_blocks``, shared with
the EM E-step, as are the rate ``_unif_rate`` and the doubled rows
``_unif_rows``) against one coefficient vector, at every q x.

Quantiles, and the inverse primitives of ``iph``, come from one
root-finder, ``_solve_increasing``: one geometric grid of four points per
octave brackets every level at once, then Anderson-Bjorck regula falsi,
with a bisection safeguard, refines only the brackets still open; a
level costs about five evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, pdtrc

from .errors import (
    DegenerateConditioningError,
    DomainError,
    UnsupportedRepresentationError,
    ValidationError,
)
from .matfun import (
    MAX_DIM,
    AnalyticFunction,
    check_square,
    check_sub_intensity,
    mat_exp,
    mat_fun,
    mat_log_neg,
    power_function,
)

__all__ = [
    "PHDist",
    "ph_new",
    "erlang_rep",
    "gen_erlang_rep",
    "mixture_rep",
    "ph_pdf",
    "ph_cdf",
    "ph_sf",
    "ph_mean",
    "ph_frac_moment",
    "ph_log_moment",
    "ph_quantile",
    "ph_sample",
]

EULER_GAMMA = float(np.euler_gamma)

# uniformization: past this q*x the forward recurrence's e^{-qx} start
# underflows, so those Poisson weight rows are built in log space; every
# series term is nonnegative, so the sum is exact to round-off either way.
_UNIF_MAX_QX = 600.0

# Poisson weight tables are built and reduced in row blocks of at most this
# many entries (4 MiB of float64): peak memory no longer grows as N x K, and
# larger blocks raised the query path's peak RSS without saving time.
_BLOCK_ENTRIES = 1 << 19

_TINY = float(np.finfo(float).tiny)

# root finding (_solve_increasing): bracketing grid points per octave, and
# the false-position steps a bracket may take without halving before one
# bisection step is forced
_GRID_PER_OCTAVE = 4
_STALL_STEPS = 3


@dataclass(frozen=True)
class PHDist:
    """A validated phase-type (or matrix-exponential) representation.

    Build through :func:`ph_new` or the representation builders; the
    constructor itself performs no checking.  ``close`` is the closing
    vector (-T)^{-1} t, exactly the all-ones vector when ``markov``.
    """

    pi: np.ndarray
    T: np.ndarray
    exit: np.ndarray
    markov: bool
    close: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.T.shape[0]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def ph_new(pi, T, markov: bool = True, exit=None) -> PHDist:
    """Validate and build a PH / ME representation.

    Parameters
    ----------
    pi, T : array_like
        Initial vector and sub-intensity matrix.
    markov : bool
        When true, enforce the probabilistic constraints (pi a probability
        vector, T a sub-intensity matrix, exits nonnegative) and derive
        t = -T e.  When false, admit any matrix-exponential triple whose
        density is nonnegative on a validation grid and integrates to one.
    exit : array_like, optional
        Explicit exit-rate vector; only allowed for ME representations.
    """
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    if pi.ndim != 1:
        raise ValidationError("pi must be a vector")
    p = pi.shape[0]
    if markov:
        if exit is not None:
            raise ValidationError("a Markov representation derives its exit vector from T")
        T = check_sub_intensity(T)
        if T.shape[0] != p:
            raise ValidationError(f"pi has length {p} but T is {T.shape[0]}x{T.shape[0]}")
        if np.any(pi < -1e-15):
            i = int(np.argmin(pi))
            raise ValidationError(f"pi[{i}] = {pi[i]} is negative")
        pi = np.maximum(pi, 0.0)
        total = pi.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"pi sums to {total}, not 1 (atom at zero not supported)")
        t = -T.sum(axis=1)
        t = np.maximum(t, 0.0)  # round-off from row sums
        return PHDist(pi, T, t, True, np.ones(p))

    T = check_square(T)
    if T.shape[0] != p:
        raise ValidationError(f"pi has length {p} but T is {T.shape[0]}x{T.shape[0]}")
    if p > MAX_DIM:
        raise ValidationError(f"order {p} exceeds the supported maximum {MAX_DIM}")
    eigs = np.linalg.eigvals(T)
    if np.max(eigs.real) >= 0:
        raise ValidationError("matrix-exponential representation needs all eigenvalues in Re < 0")
    t = -T.sum(axis=1) if exit is None else np.asarray(exit, dtype=float)
    if t.shape != (p,):
        raise ValidationError(f"exit vector must have length {p}")
    close = np.linalg.solve(-T, t)
    total = float(pi @ close)
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(f"density integrates to {total}, not 1")
    d = PHDist(pi, T, t, False, close)
    # weak validation: nonnegative density on a grid reaching far into the tail
    decay = float(np.max(eigs.real))
    grid = np.linspace(0.0, np.log(1e12) / -decay, 1024)
    dens = _exp_action(d, grid, t)
    floor = -1e-10 * max(1.0, float(np.max(np.abs(dens))))
    if np.min(dens) < floor:
        x_bad = grid[int(np.argmin(dens))]
        raise ValidationError(
            f"matrix-exponential density is negative near x = {x_bad:.6g}"
        )
    return d


def erlang_rep(n: int, lam: float) -> PHDist:
    """Erlang(n, lam) as the canonical feed-forward representation."""
    if n < 1 or n != int(n):
        raise ValidationError(f"Erlang phase count must be a positive integer, got {n}")
    if not (lam > 0):
        raise ValidationError(f"Erlang rate must be positive, got {lam}")
    return gen_erlang_rep([float(lam)] * int(n))


def gen_erlang_rep(lambdas) -> PHDist:
    """Generalized Erlang: a sum of independent exponentials with given rates."""
    lams = np.asarray(list(lambdas), dtype=float)
    if lams.size == 0:
        raise ValidationError("at least one rate is required")
    if np.any(lams <= 0):
        raise ValidationError("all rates must be positive")
    n = lams.size
    T = np.diag(-lams)
    for i in range(n - 1):
        T[i, i + 1] = lams[i]
    pi = np.zeros(n)
    pi[0] = 1.0
    return ph_new(pi, T, markov=True)


def mixture_rep(weights, components) -> PHDist:
    """Finite mixture of PH laws as one block-diagonal representation."""
    w = np.asarray(list(weights), dtype=float)
    comps = list(components)
    if w.size != len(comps) or w.size == 0:
        raise ValidationError("weights and components must be nonempty and of equal length")
    if np.any(w < 0):
        raise ValidationError("mixture weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValidationError(f"mixture weights sum to {w.sum()}, not 1")
    if len(comps) == 1:
        return comps[0]
    dims = [c.dim for c in comps]
    p = int(np.sum(dims))
    T = np.zeros((p, p))
    pi = np.zeros(p)
    exit_cat = np.zeros(p)
    at = 0
    for wi, c in zip(w, comps):
        d = c.dim
        T[at : at + d, at : at + d] = c.T
        pi[at : at + d] = wi * c.pi
        exit_cat[at : at + d] = c.exit
        at += d
    if all(c.markov for c in comps):
        return ph_new(pi, T, markov=True)
    return ph_new(pi, T, markov=False, exit=exit_cat)


# ---------------------------------------------------------------------------
# evaluation backends
# ---------------------------------------------------------------------------

def _exp_action(d: PHDist, xs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """pi e^{Tx} v for an array of nonnegative x."""
    xs = np.asarray(xs, dtype=float)
    pi, T = d.pi, d.T
    p = d.dim
    if p == 1:
        return pi[0] * v[0] * np.exp(T[0, 0] * xs)
    if d.markov:
        return _unif_action(pi, T, v, xs)
    vals, V = np.linalg.eig(T)
    if np.linalg.cond(V) < 1e7:
        w = (pi @ V) * np.linalg.solve(V, v.astype(complex))
        return (np.exp(np.multiply.outer(xs, vals)) @ w).real
    return np.array([float(pi @ mat_exp(T * x) @ v) for x in xs])


def _poisson_depth(qx):
    """Truncation depth K = m + 12 sqrt(m) + 30 of the Poisson(m) series."""
    return (qx + 12.0 * np.sqrt(qx) + 30.0).astype(np.int64)


def _poisson_blocks(qx: np.ndarray, max_depth=None):
    """Poisson(qx) pmf tables over ascending qx, one row block at a time.

    Yields (lo, hi, W): W is the column-major table of rows lo:hi over
    k = 0..K, with K the depth of the block's largest qx (at most
    ``max_depth``), so every row keeps all but a negligible tail.  A block
    ends where the depth doubles or the table would pass _BLOCK_ENTRIES,
    whichever comes first (at least one row), so memory stays bounded and
    small points never pay for the depth of a far one.  Every block is
    written into one reused buffer: reduce W before taking the next block.
    Rows with qx <= _UNIF_MAX_QX use the stable forward recurrence; the
    rest are built in log space.
    """
    depth = _poisson_depth(qx)
    if max_depth is not None:
        depth = np.minimum(depth, max_depth)
    # one buffer for every block: the budget, or the longest single row
    row = int(depth[-1]) + 1 if qx.size else 0
    buf = np.empty(max(min(_BLOCK_ENTRIES, qx.size * row), row))
    lo = 0
    while lo < qx.size:
        hi = int(np.searchsorted(depth, 2 * depth[lo], side="right"))
        hi = min(hi, lo + max(1, _BLOCK_ENTRIES // (int(depth[hi - 1]) + 1)))
        K = int(depth[hi - 1])
        W = buf[: (hi - lo) * (K + 1)].reshape((hi - lo, K + 1), order="F")
        n = int(np.searchsorted(qx[lo:hi], _UNIF_MAX_QX, side="right"))
        if n:
            Ws, qs = W[:n], qx[lo : lo + n]
            Ws[:, 0] = np.exp(-qs)
            for k in range(1, K + 1):
                np.multiply(Ws[:, k - 1], qs, out=Ws[:, k])
                Ws[:, k] /= k
        if n < hi - lo:
            ks = np.arange(K + 1.0)
            qb = qx[lo + n : hi]
            Wb = W[n:]
            np.multiply.outer(np.log(qb), ks, out=Wb)
            Wb -= qb[:, None]
            Wb -= gammaln(ks + 1.0)
            np.exp(Wb, out=Wb)
        yield lo, hi, W
        lo = hi


def _unif_rate(T: np.ndarray) -> float:
    """Uniformization rate q, just above the largest exit rate, so that
    P = I + T / q is elementwise nonnegative."""
    return 1.0000001 * float(np.max(-np.diag(T)))


def _unif_rows(pi: np.ndarray, P: np.ndarray, n: int, vanished: float = 0.0) -> np.ndarray:
    """Rows pi P^k for k = 0, 1, ..., by doubling (O(log n) matrix products).

    Returns at least n + 1 rows, or fewer once a row sums below
    ``vanished``; every product is of nonnegative matrices.
    """
    R, Pk = pi[None, :], P
    while R.shape[0] <= n and R[-1].sum() >= vanished:
        R = np.vstack([R, R @ Pk])
        Pk = Pk @ Pk
    return R


def _unif_action(pi, T, v, xs, cumulative=False):
    """Uniformization series sum_k Pois(k; qx) a_k with a_k = pi P^k v.

    All terms are nonnegative for Markov generators.  With ``cumulative``
    the coefficients are a_k = sum_{j<k} pi P^j v / q instead: for v = t
    that is the distribution function, because (I - P) e = t / q turns
    1 - pi P^k e into those sums, so small values keep their digits.

    Once pi P^k e falls below the smallest normal float every later a_k
    is that small (or, cumulative, that close to the last one), so the
    series stops there and its tail is the last coefficient times the
    Poisson tail mass: far points cost no more than the law's own decay.
    """
    q = _unif_rate(T)
    qx = q * xs
    order = np.argsort(qx, kind="stable")
    qx = qx[order]
    P = np.eye(len(pi)) + T / q
    # P is substochastic, so once a row sums below `vanished` no later
    # a_k = pi P^k v exceeds the smallest normal float
    vanished = _TINY / max(float(np.max(v)), 1.0)
    n = int(_poisson_depth(qx[-1])) + 1 if qx.size else 0
    R = _unif_rows(pi, P, n, vanished)
    small = np.flatnonzero(R.sum(axis=1) < vanished)
    stopped = small.size > 0 and small[0] <= n
    if stopped:
        n = int(small[0])
    coeffs = np.append(R[:n] @ v, 0.0)
    if cumulative:
        coeffs[1:] = np.cumsum(coeffs[:-1]) / q
        coeffs[0] = 0.0
    tail = coeffs[n] if stopped else 0.0
    out = np.empty_like(xs)
    for lo, hi, W in _poisson_blocks(qx, n - 1):
        s = W @ coeffs[: W.shape[1]]
        if tail and W.shape[1] == n:
            s += tail * pdtrc(n - 1, qx[lo:hi])
        out[order[lo:hi]] = s
    return out


def _check_points(x) -> np.ndarray:
    """x as a float array; DomainError unless every entry is finite and >= 0."""
    x_arr = np.asarray(x, dtype=float)
    invalid = (x_arr < 0) | ~np.isfinite(x_arr)
    if np.any(invalid):
        bad = x_arr[invalid][0]
        raise DomainError(f"evaluation point must be a finite nonnegative real, got {bad}")
    return x_arr


def _eval(x, action, clamp):
    """``action`` over the checked points x, clipped to ``clamp``."""
    x_arr = _check_points(x)
    scalar = x_arr.ndim == 0
    out = np.clip(action(np.atleast_1d(x_arr)), clamp[0], clamp[1])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# density, distribution, moments
# ---------------------------------------------------------------------------

def ph_pdf(d: PHDist, x):
    """Density pi e^{Tx} t at x >= 0 (scalar or array)."""
    return _eval(x, lambda xs: _exp_action(d, xs, d.exit), (0.0, np.inf))


def ph_sf(d: PHDist, x):
    """Survival probability P(X > x)."""
    return _eval(x, lambda xs: _exp_action(d, xs, d.close), (0.0, 1.0))


def ph_cdf(d: PHDist, x):
    """Distribution function P(X <= x).

    For Markov laws this is a positive uniformization series of its own,
    so it keeps its relative accuracy where it is tiny; ME laws use
    1 - ph_sf.
    """
    if not d.markov:
        return 1.0 - ph_sf(d, x)
    return _eval(x, lambda xs: _unif_action(d.pi, d.T, d.exit, xs, cumulative=True), (0.0, 1.0))


def ph_mean(d: PHDist) -> float:
    """E(X) = pi (-T)^{-1} e (closing vector for ME representations)."""
    return float(d.pi @ np.linalg.solve(-d.T, d.close))


def ph_frac_moment(d: PHDist, theta: float) -> float:
    """Fractional moment E(X^theta) = Gamma(1+theta) pi (-T)^{-theta} e.

    Finite for every theta > -1 regardless of the tail, since phase-type
    tails are exponentially bounded.
    """
    if not (theta > -1):
        raise DomainError(f"fractional moment requires theta > -1, got {theta}")
    M = mat_fun(-d.T, power_function(-theta))
    return math.gamma(1.0 + theta) * float(d.pi @ M @ d.close)


def ph_log_moment(d: PHDist) -> float:
    """E(log X) = -gamma - pi log(-T) e."""
    # the identity only needs the ME closing vector in place of e
    L = mat_log_neg(d.T) if d.markov else mat_fun(-d.T, _log_fun())
    return -EULER_GAMMA - float(d.pi @ L @ d.close)


def _log_fun():
    def deriv(z, k):
        return (-1.0) ** (k - 1) * math.factorial(k - 1) * np.power(complex(z), -k)

    return AnalyticFunction(lambda z: np.log(complex(z)), deriv, name="log")


def _condition(base: PHDist, u: float, where: str) -> PHDist:
    """Law of X - u given X > u: start vector pi e^{Tu}, renormalized.

    ``where`` names the caller's conditioning point in the error raised
    when P(X > u) underflows.
    """
    alpha = base.pi @ mat_exp(base.T * u)
    denom = float(alpha @ base.close)
    if not (denom > 1e-300):
        raise DegenerateConditioningError(
            f"survival at {where} is {denom:.3e}; conditioning is degenerate"
        )
    alpha = alpha / denom
    if base.markov:
        alpha = np.maximum(alpha, 0.0)
        alpha /= alpha.sum()
        return ph_new(alpha, base.T, markov=True)
    return ph_new(alpha, base.T, markov=False, exit=base.exit)


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

def _solve_increasing(h, c: np.ndarray, x0: float, fail: Exception, rel_tol: float = 1e-10):
    """Per-entry root of h(x) = c[i] for a nondecreasing, vectorised h on x > 0.

    One lower and one upper bound for every entry come from halving and
    doubling x0 (``fail`` is raised after 200 doublings, or if halving
    reaches 0); h is then evaluated once on a geometric grid of
    _GRID_PER_OCTAVE points per octave between them, which brackets every
    entry.  Brackets are refined by Anderson-Bjorck regula falsi, each pass
    evaluating h only at the entries still open, with a bisection step
    wherever a bracket has not halved within _STALL_STEPS steps.  An entry
    is done once its bracket is within ``rel_tol`` of its upper end; the
    midpoint is returned.  h(x) < c[i] is "below the root", so infinite
    values of h are allowed.
    """
    cmin, cmax = float(np.min(c)), float(np.max(c))
    h0 = float(h(np.array([x0]))[0])
    lo, h_lo = x0, h0
    while not h_lo < cmin:
        lo *= 0.5
        if lo == 0.0:
            raise fail
        h_lo = float(h(np.array([lo]))[0])
    hi, h_hi = x0, h0
    for _ in range(200):
        if h_hi >= cmax:
            break
        hi *= 2.0
        h_hi = float(h(np.array([hi]))[0])
    else:
        raise fail
    n = max(2, math.ceil(_GRID_PER_OCTAVE * (math.log2(hi) - math.log2(lo))) + 1)
    grid = np.geomspace(lo, hi, n)
    hs = np.concatenate([[h_lo], h(grid[1:-1]), [h_hi]])
    # first grid point at or above each target; hs may wobble by round-off
    i = np.searchsorted(np.maximum.accumulate(hs), c, side="left")
    a, b = grid[i - 1], grid[i]
    fa, fb = hs[i - 1] - c, hs[i] - c

    out = np.empty_like(c)
    idx = np.arange(c.size)
    side = np.zeros(c.size, dtype=np.int64)  # end the last point replaced: -1 a, 1 b
    ref = b - a  # width when the bracket last halved
    age = np.zeros(c.size, dtype=np.int64)  # steps since then
    for _ in range(200):
        done = b - a <= rel_tol * b
        if done.any():
            out[idx[done]] = 0.5 * (a[done] + b[done])
            keep = ~done
            idx, c, a, b, fa, fb = idx[keep], c[keep], a[keep], b[keep], fa[keep], fb[keep]
            side, ref, age = side[keep], ref[keep], age[keep]
        if not idx.size:
            return out
        # false position where both ends are finite, else bisection
        den = fb - fa
        secant = (age < _STALL_STEPS) & np.isfinite(den) & (den > 0.0)
        t = np.divide(-fa, den, out=np.full(idx.size, 0.5), where=secant)
        # a step of at least a fraction of the tolerance from either end, so
        # a point landing next to the root closes its bracket
        step = 0.4 * rel_tol * b
        x = np.clip(a + t * (b - a), a + step, b - step)
        fx = h(x) - c
        below = fx < 0.0
        # Anderson-Bjorck: an end kept twice in a row has its value scaled
        # by 1 - fx / f(replaced end), or halved if that is not positive
        new_side = np.where(below, -1, 1)
        replaced = np.where(below, fa, fb)
        valid = np.isfinite(fx) & np.isfinite(replaced) & (replaced != 0.0)
        ratio = np.divide(fx, replaced, out=np.ones(idx.size), where=valid)
        m = np.where(side == new_side, np.where(ratio < 1.0, 1.0 - ratio, 0.5), 1.0)
        fa = np.where(below, fx, fa * m)
        fb = np.where(below, fb * m, fx)
        a = np.where(below, x, a)
        b = np.where(below, b, x)
        side = new_side
        width = b - a
        halved = width <= 0.5 * ref
        ref = np.where(halved, width, ref)
        age = np.where(halved, 0, age + 1)
    out[idx] = 0.5 * (a + b)
    return out


def ph_quantile(d: PHDist, q, rel_tol: float = 1e-10):
    """Quantile: the midpoint of a bracket within ``rel_tol`` of its upper end.

    Levels below 1/2 solve log ph_cdf(x) = log q, the rest
    -log ph_sf(x) = -log(1 - q), so neither tail loses its digits to
    1 - q rounding (ph_cdf is only called for levels below 1/2).  Each
    group goes through ``_solve_increasing`` at once: halving and doubling
    from the mean give one lower and one upper bound, one geometric grid
    of four points per octave between them brackets every level, and
    Anderson-Bjorck regula falsi with a bisection safeguard refines the
    open brackets, about five evaluations per level.  Level 0 gives 0.
    """
    q_arr = np.asarray(q, dtype=float)
    scalar = q_arr.ndim == 0
    q_arr = np.atleast_1d(q_arr)
    if np.any((q_arr < 0) | (q_arr >= 1)):
        raise DomainError("quantile level must lie in [0, 1)")
    out = np.zeros_like(q_arr)
    low = (q_arr > 0.0) & (q_arr < 0.5)
    high = q_arr >= 0.5
    if low.any() or high.any():
        x0 = ph_mean(d)
        fail = DomainError("quantile bracket did not close; level too extreme")
        if low.any():
            out[low] = _solve_increasing(
                lambda x: _log(ph_cdf(d, x)), np.log(q_arr[low]), x0, fail, rel_tol)
        if high.any():
            out[high] = _solve_increasing(
                lambda x: -_log(ph_sf(d, x)), -np.log(1.0 - q_arr[high]), x0, fail, rel_tol)
    return float(out[0]) if scalar else out


def _log(v: np.ndarray) -> np.ndarray:
    """Natural log with log 0 = -inf, without a divide warning."""
    return np.log(v, out=np.full(v.shape, -np.inf), where=v > 0.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def ph_sample(d: PHDist, rng: np.random.Generator, count: int) -> np.ndarray:
    """Absorption times of the underlying jump chain, vectorized in waves.

    Start states are drawn from pi; in each wave all still-active chains
    hold an exponential time in their current state and then jump, with
    exit probabilities t_i / (-T_ii).
    """
    if not d.markov:
        raise UnsupportedRepresentationError(
            "sampling requires a Markov representation (markov=True)"
        )
    if count < 0:
        raise DomainError("count must be nonnegative")
    p = d.dim
    rates = -np.diag(d.T)
    jump = np.concatenate([d.T - np.diag(np.diag(d.T)), d.exit[:, None]], axis=1)
    jump = jump / rates[:, None]
    jump = np.maximum(jump, 0.0)
    jump /= jump.sum(axis=1, keepdims=True)

    pi = d.pi / d.pi.sum()
    states = rng.choice(p, size=count, p=pi)
    times = np.zeros(count)
    active = np.arange(count)
    while active.size:
        s = states[active]
        times[active] += rng.exponential(1.0, active.size) / rates[s]
        nxt = np.empty(active.size, dtype=np.int64)
        for i in np.unique(s):
            sel = s == i
            nxt[sel] = rng.choice(p + 1, size=int(sel.sum()), p=jump[i])
        states[active] = np.minimum(nxt, p - 1)
        active = active[nxt < p]
    return times
