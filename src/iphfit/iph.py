"""Time-inhomogeneous phase-type distributions.

Two layers live here.  The scaled family IPH(pi, T, rate) has generator
rate(t)*T, a commuting path, so the law of the absorption time reduces to
the base PH law evaluated at the primitive R(x) = int_0^x rate:

    f(x) = rate(x) pi e^{R(x) T} t,      P(tau > x) = pi e^{R(x) T} e,

and tau equals g(X) in distribution for X ~ PH(pi, T) with g the inverse
of R.  The general (non-commuting) case is handled through matrix rate
paths and the product integral prod_s^t (I + T(u) du), the solution at t
of dM/du = M T(u), M(s) = I.  It is computed by fourth-order Magnus steps
M <- M exp(Omega) with error control by step doubling (Iserles,
Munthe-Kaas, Norsett & Zanna 2000; Blanes, Casas, Oteo & Ros 2009).  T
need only be finite at interior Gauss-Legendre nodes, so a rate that is
singular at an end of the interval is fine, and a piecewise-constant path
costs one accepted step per piece.

A thinning sampler for general paths is provided as a validation oracle
for the product-integral survival function; it needs a caller-supplied
upper bound on the total jump rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    IntegrationError,
    NonConvergenceError,
    ValidationError,
)
from .matfun import _quad, check_square, check_sub_intensity, mat_exp, mat_fun
from .phcore import (
    PHDist,
    _check_points,
    _check_start,
    _condition,
    _solve_increasing,
    ph_cdf,
    ph_pdf,
    ph_sample,
    ph_sf,
)

__all__ = [
    "RateFunction",
    "rate_function",
    "constant_rate",
    "power_rate",
    "inverse_linear_rate",
    "IPHDist",
    "iph_new",
    "iph_pdf",
    "iph_sf",
    "iph_cdf",
    "iph_overshoot",
    "iph_sample",
    "iph_alpha_moment",
    "MatrixRatePath",
    "path_new",
    "scaled_path",
    "piecewise_path",
    "product_integral",
    "iph_general_sf",
    "thinning_sample",
]


# ---------------------------------------------------------------------------
# scalar rate functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunction:
    """A positive intensity t -> rate(t) on [0, inf) with its primitive.

    ``primitive`` is R(x) = int_0^x rate(t) dt; without a closed form, R at
    the sorted points is the running sum of ``matfun._quad`` of the rate
    over each gap between neighbours (from 0 to the first), each to 1e-12
    relative or an IntegrationError.  ``inverse_primitive`` is the transform
    g = R^{-1} when known; otherwise ``phcore._solve_increasing`` inverts at
    1e-10 relative.
    Build through :func:`rate_function`, which validates positivity on a
    log-spaced grid.
    Callables must be side-effect-free; vectorized evaluation assumes it.
    """

    rate: Callable[[np.ndarray], np.ndarray]
    primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inverse_primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "rate"

    def rate_at(self, x):
        return np.asarray(self.rate(np.asarray(x, dtype=float)), dtype=float)

    def primitive_at(self, x):
        x = np.asarray(x, dtype=float)
        if self.primitive is not None:
            return np.asarray(self.primitive(x), dtype=float)
        flat = np.atleast_1d(x).ravel()
        order = np.argsort(flat)
        ends = np.concatenate([[0.0], flat[order]])
        vals = np.empty(flat.size)
        vals[order] = np.cumsum([_quad(self.rate, a, b) for a, b in zip(ends[:-1], ends[1:])])
        return vals.reshape(x.shape) if x.ndim else float(vals[0])

    def inverse_at(self, y):
        y = np.asarray(y, dtype=float)
        if self.inverse_primitive is not None:
            return np.asarray(self.inverse_primitive(y), dtype=float)
        return self._invert(y)

    def _invert(self, y):
        """Root of R(x) = y at 1e-10 relative, by the bracketing solver of
        phcore; R^{-1}(0) = 0 and R^{-1}(inf) = inf."""
        scalar = y.ndim == 0
        y = np.atleast_1d(y).astype(float)
        if not np.all(y >= 0):
            raise DomainError("primitive values are nonnegative; cannot invert below 0 or NaN")
        out = np.where(y == np.inf, y, 0.0)
        pos = (y > 0.0) & (y < np.inf)
        if pos.any():
            out[pos] = _solve_increasing(
                self.primitive_at,
                y[pos],
                1.0,
                NonConvergenceError("inversion bracket did not close"),
            )
        return float(out[0]) if scalar else out


def rate_function(rate, primitive=None, inverse_primitive=None, name="rate") -> RateFunction:
    """Validate and build a :class:`RateFunction`.

    Positivity of ``rate`` is checked on a 256-point log-spaced grid over
    [1e-6, 1e6]; when both closed forms are given, the round trip
    primitive(inverse_primitive(y)) = y is checked to 1e-9.
    """
    rf = RateFunction(rate, primitive, inverse_primitive, name)
    grid = np.geomspace(1e-6, 1e6, 256)
    vals = rf.rate_at(grid)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        i = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))
        raise ValidationError(
            f"rate function {name!r} must be strictly positive; value {vals[i]} at t = {grid[i]:.3g}"
        )
    if primitive is not None:
        p0 = float(rf.primitive_at(0.0))
        if abs(p0) > 1e-12:
            raise ValidationError(f"primitive of {name!r} must vanish at 0, got {p0}")
        pg = rf.primitive_at(grid)
        if np.any(np.diff(pg) <= 0):
            raise ValidationError(f"primitive of {name!r} must be strictly increasing")
        if inverse_primitive is not None:
            # kept moderate so exponential-type inverses stay representable
            ys = np.geomspace(1e-3, 1e2, 64)
            back = rf.primitive_at(rf.inverse_at(ys))
            if np.max(np.abs(back - ys) / np.maximum(1.0, ys)) > 1e-9:
                raise ValidationError(
                    f"primitive and inverse_primitive of {name!r} are inconsistent"
                )
    return rf


def constant_rate(c: float = 1.0) -> RateFunction:
    if not (c > 0):
        raise ValidationError(f"constant rate must be positive, got {c}")
    return rate_function(
        lambda t: np.full_like(np.asarray(t, dtype=float), c),
        primitive=lambda x: c * np.asarray(x, dtype=float),
        inverse_primitive=lambda y: np.asarray(y, dtype=float) / c,
        name=f"constant({c})",
    )


def power_rate(beta: float) -> RateFunction:
    """rate(t) = beta t^{beta-1}; primitive x^beta, inverse y^{1/beta}."""
    if not (beta > 0):
        raise ValidationError(f"power rate exponent must be positive, got {beta}")
    return rate_function(
        lambda t: beta * np.asarray(t, dtype=float) ** (beta - 1.0),
        primitive=lambda x: np.asarray(x, dtype=float) ** beta,
        inverse_primitive=lambda y: np.asarray(y, dtype=float) ** (1.0 / beta),
        name=f"power({beta})",
    )


def inverse_linear_rate(scale: float = 1.0) -> RateFunction:
    """rate(t) = 1/(scale+t); primitive log(1+x/scale), inverse scale(e^y-1)."""
    if not (scale > 0):
        raise ValidationError(f"scale must be positive, got {scale}")
    return rate_function(
        lambda t: 1.0 / (scale + np.asarray(t, dtype=float)),
        primitive=lambda x: np.log1p(np.asarray(x, dtype=float) / scale),
        inverse_primitive=lambda y: scale * np.expm1(np.asarray(y, dtype=float)),
        name=f"inverse_linear({scale})",
    )


# ---------------------------------------------------------------------------
# the lambda-scaled (commuting) family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IPHDist:
    """Absorption-time law for the generator rate(t)*T with start vector pi."""

    base: PHDist
    rate: RateFunction


def iph_new(base: PHDist, rate: RateFunction) -> IPHDist:
    if not isinstance(base, PHDist):
        raise ValidationError("base must be a PHDist")
    if not isinstance(rate, RateFunction):
        raise ValidationError("rate must be a RateFunction")
    return IPHDist(base, rate)


def iph_pdf(d: IPHDist, x):
    """rate(x) pi e^{R(x) T} t."""
    x = _check_points(x)
    return d.rate.rate_at(x) * ph_pdf(d.base, d.rate.primitive_at(x))


def iph_sf(d: IPHDist, x):
    """pi e^{R(x) T} e."""
    x = _check_points(x)
    return ph_sf(d.base, d.rate.primitive_at(x))


def iph_cdf(d: IPHDist, x):
    """P(tau <= x): the base's ph_cdf at R(x), so a small value keeps its digits."""
    x = _check_points(x)
    return ph_cdf(d.base, d.rate.primitive_at(x))


def iph_overshoot(d: IPHDist, s: float) -> IPHDist:
    """Law of tau - s given tau > s: again inhomogeneous phase-type.

    The new start vector is pi e^{R(s)T} renormalized, from the anchored
    walk for every base (``phcore._condition``: a Markov base has no
    floor on its survival at s, an ME base needs it above 1e-300), and
    the rate is shifted to u -> rate(s+u).
    """
    s = float(s)
    if s < 0:
        raise DomainError(f"conditioning level must be nonnegative, got {s}")
    if s == 0.0:
        return d
    rf = d.rate
    Rs = float(rf.primitive_at(s))
    new_base = _condition(d.base, Rs, f"level {s}")

    inv = None
    if rf.inverse_primitive is not None:
        inv = lambda y: rf.inverse_at(np.asarray(y, dtype=float) + Rs) - s
    shifted = RateFunction(
        rate=lambda u: rf.rate_at(np.asarray(u, dtype=float) + s),
        primitive=lambda u: rf.primitive_at(np.asarray(u, dtype=float) + s) - Rs,
        inverse_primitive=inv,
        name=f"{rf.name}+{s:g}",
    )
    return IPHDist(new_base, shifted)


def iph_sample(d: IPHDist, rng: np.random.Generator, count: int) -> np.ndarray:
    """g(X) for X ~ PH(pi, T), with g the inverse primitive of the rate."""
    xs = ph_sample(d.base, rng, count)
    return d.rate.inverse_at(xs)


def iph_alpha_moment(d: IPHDist, alpha: float, transform_laplace) -> float:
    """E(tau^alpha) = pi L(-T) t, L the Laplace transform of g^alpha.

    ``transform_laplace`` must be analytic on the spectrum of -T (this is
    the caller's assertion; the underlying existence condition is that the
    scalar transform converges right of the spectral abscissa).
    """
    if not (alpha > 0):
        raise DomainError(f"moment order must be positive, got {alpha}")
    M = mat_fun(-d.base.T, transform_laplace)
    return float(d.base.pi @ M @ d.base.exit)


# ---------------------------------------------------------------------------
# general matrix rate paths and the product integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixRatePath:
    """A path t -> T(t) of sub-intensity matrices.

    ``breakpoints`` lists known discontinuities so integration can split
    there (an undeclared jump is still found, at the cost of many small
    steps around it); ``batch`` optionally evaluates a whole vector of
    times at once (used by the thinning oracle on large simulations).
    Build through :func:`path_new`, :func:`scaled_path` or
    :func:`piecewise_path`.
    """

    matrix: Callable[[float], np.ndarray]
    description: str = "path"
    breakpoints: tuple = ()
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def at(self, t: float) -> np.ndarray:
        return np.asarray(self.matrix(t), dtype=float)

    def at_many(self, ts: np.ndarray) -> np.ndarray:
        if self.batch is not None:
            return np.asarray(self.batch(ts), dtype=float)
        return np.stack([self.at(t) for t in ts])


def path_new(matrix, description="path", breakpoints=(), batch=None, check_times=None) -> MatrixRatePath:
    """Build a path, validating T(t) at a handful of sample times."""
    path = MatrixRatePath(matrix, description, tuple(float(b) for b in breakpoints), batch)
    if check_times is None:
        # avoids t = 0, where scaled paths with vanishing rate are degenerate
        check_times = np.geomspace(1e-3, 1.0, 5)
        if path.breakpoints:
            hi = max(path.breakpoints)
            check_times = np.concatenate([check_times, [1.5 * hi]])
    for t in check_times:
        check_sub_intensity(path.at(t), name=f"T({t:g})")
    return path


def scaled_path(rate: RateFunction, T) -> MatrixRatePath:
    """The commuting family T(t) = rate(t) * T.

    T and the rate are validated separately; no per-time check is needed
    (and none would hold at t = 0 for rates that vanish there).
    """
    T = check_sub_intensity(T)
    return MatrixRatePath(
        lambda t: rate.rate_at(t) * T,
        description=f"{rate.name} * T",
        batch=lambda ts: rate.rate_at(np.asarray(ts, dtype=float))[:, None, None] * T,
    )


def piecewise_path(times: Sequence[float], matrices) -> MatrixRatePath:
    """Piecewise-constant path: T(t) = matrices[k] for times[k-1] <= t < times[k]."""
    cuts = np.asarray(list(times), dtype=float)
    mats = [check_sub_intensity(m) for m in matrices]
    if cuts.ndim != 1 or len(mats) != cuts.size + 1:
        raise ValidationError("need one more matrix than cut points")
    if not np.all(np.isfinite(cuts)):
        raise ValidationError(f"cut points must be finite, got {cuts.tolist()}")
    if cuts.size and np.any(np.diff(cuts) <= 0):
        raise ValidationError("cut points must be strictly increasing")
    orders = sorted({m.shape[0] for m in mats})
    if len(orders) > 1:
        raise ValidationError(f"piece matrices must share one order, got orders {orders}")
    mats = np.stack(mats)

    def matrix(t):
        return mats[int(np.searchsorted(cuts, t, side="right"))]

    def batch(ts):
        return mats[np.searchsorted(cuts, np.asarray(ts, dtype=float), side="right")]

    return path_new(
        matrix,
        description=f"piecewise constant ({mats.shape[0]} pieces)",
        breakpoints=cuts,
        batch=batch,
    )


# largest local error estimate (max norm) of an accepted Magnus step
_PI_RTOL = 1e-10

# Gauss-Legendre nodes on [0, 1] and the Magnus commutator weight
_GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_COMM = np.sqrt(3.0) / 12.0
# the six nodes of a trial (one step of h, then its two halves) as fractions
# of h, and the weights that take the quintic through T at them to 0 and 1
_NODES = np.array([*_GAUSS, *(0.5 * g for g in _GAUSS), *(0.5 + 0.5 * g for g in _GAUSS)])
_END_WEIGHTS = np.linalg.solve(
    np.vander(_NODES, increasing=True).T, np.vander([0.0, 1.0], 6, increasing=True).T
).T


def _order(path: MatrixRatePath, u: float) -> int:
    """The order of T(u).  Only its shape is read: where a rate is singular
    (t^(beta-1) at 0) its entries are inf or NaN, and that is no error."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return path.at(u).shape[0]


def _node(path: MatrixRatePath, u: float, p: int) -> np.ndarray:
    """T(u), checked to be finite and p x p."""
    try:
        A = check_square(path.at(u))
    except ValidationError as exc:
        raise ValidationError(f"T({u:g}): {exc}") from None
    if A.shape != (p, p):
        raise ValidationError(f"T({u:g}) has shape {A.shape}, expected ({p}, {p})")
    return A


def _magnus_exp(A1: np.ndarray, A2: np.ndarray, h: float) -> np.ndarray:
    """exp(Omega), the fourth-order Magnus step of length h from T at its two nodes."""
    return mat_exp(0.5 * h * (A1 + A2) + _COMM * h * h * (A1 @ A2 - A2 @ A1))


def _trial(path: MatrixRatePath, u: float, end: float, p: int):
    """Two Magnus steps of h/2 over [u, end], h = end - u, and the error estimate."""
    h = end - u
    A = [_node(path, u + x * h, p) for x in _NODES]
    one = _magnus_exp(A[0], A[1], h)
    two = _magnus_exp(A[2], A[3], 0.5 * h) @ _magnus_exp(A[4], A[5], 0.5 * h)
    err = float(np.max(np.abs(two - one))) / 15.0
    # T at u and just inside end (a breakpoint there belongs to the next
    # piece) against the quintic through the nodes: the miss is O(h^6) for
    # smooth T, 0 for constant T, and O(1) past a jump hidden near an end.
    # An end where T is not finite (a singular rate at 0) is not read.
    for e, w in zip((u, np.nextafter(end, u)), _END_WEIGHTS):
        with np.errstate(divide="ignore", invalid="ignore"):
            Te = path.at(e)
        if Te.shape == (p, p) and np.all(np.isfinite(Te)):
            miss = sum(wi * (Ai - Te) for wi, Ai in zip(w, A))
            err = max(err, h * float(np.max(np.abs(miss))))
    return two, err


def product_integral(path: MatrixRatePath, s: float, t: float) -> np.ndarray:
    """prod_s^t (I + T(u) du), the solution at t of dM/du = M T(u), M(s) = I.

    Each step multiplies on the right by exp(Omega) with

        Omega = h (A1 + A2) / 2 + (sqrt(3) / 12) h^2 [A1, A2],

    A1, A2 = T at the Gauss-Legendre nodes u + (1/2 -+ sqrt(3)/6) h and
    [A1, A2] = A1 A2 - A2 A1.  That commutator sign belongs to the
    right-multiplied equation; the other sign gives order 2.

    The interval is split at ``path.breakpoints`` and each piece is first
    tried in one step.  A step of h is compared with two steps of h/2: the
    local error is taken as ||two halves - one||_max / 15, and the
    two-halves product is kept.  No node lies within 0.1 h of the step's
    ends, so T at both ends is also compared with the quintic through the
    six nodes, extrapolated; h times the miss counts as error too, which
    finds a jump or kink that no breakpoint declares.  A step is accepted
    when the error is at most ``_PI_RTOL``.  On a constant piece
    Omega = hT and both estimates are round-off, so the piece costs one
    accepted step (three exponentials).  T is only required to be finite
    at the nodes, so a rate singular at an end works.  A node that is not
    a finite p x p matrix raises ValidationError naming its time, and a
    step that underflows (u + h == u) raises IntegrationError.  The result
    is checked to be sub-stochastic within 1e3 * ``_PI_RTOL`` + 1e-12.
    """
    s, t = float(s), float(t)
    if not (np.isfinite(s) and np.isfinite(t)):
        raise DomainError(f"interval ends must be finite, got s = {s}, t = {t}")
    if s > t:
        raise DomainError(f"interval is reversed: s = {s} > t = {t}")
    p = _order(path, s)
    if s == t:
        return np.eye(p)
    # split at interior discontinuities so the error estimator stays honest
    knots = [s] + [b for b in path.breakpoints if s < b < t] + [t]
    M = np.eye(p)
    for a, b in zip(knots[:-1], knots[1:]):
        u, h = a, b - a
        while u < b:
            last = h >= b - u
            if last:
                h = b - u
            if u + h == u:
                raise IntegrationError(f"product integral step underflowed at u = {u:g}")
            end = b if last else u + h
            two, err = _trial(path, u, end, p)
            if err <= _PI_RTOL:
                M = M @ two
                u = end
            # fourth order: the local error scales as h^5; NaN shrinks
            h *= 4.0 if err == 0.0 else min(4.0, max(0.2, 0.9 * (_PI_RTOL / err) ** 0.2))
    slack = 1e3 * _PI_RTOL + 1e-12
    rows = M.sum(axis=1)
    if np.any(rows > 1.0 + slack) or np.any(M < -slack):
        raise IntegrationError(
            "product integral is not sub-stochastic within tolerance",
            achieved=float(max(np.max(rows) - 1.0, -np.min(M))),
        )
    return M


def iph_general_sf(pi, path: MatrixRatePath, x) -> float:
    """pi prod_0^x (I + T(u) du) e."""
    x = float(x)
    if x < 0:
        raise DomainError(f"evaluation point must be nonnegative, got {x}")
    M = product_integral(path, 0.0, x)
    pi = _check_start(pi, M.shape[0])
    return float(np.clip(pi @ M @ np.ones(M.shape[0]), 0.0, 1.0))


# ---------------------------------------------------------------------------
# thinning oracle
# ---------------------------------------------------------------------------

# candidate-event waves after which thinning gives up on unabsorbed paths
_MAX_WAVES = 1_000_000


def _categorical(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF categorical draws: for each uniform u[i], the first index
    whose cumulative probability exceeds it.

    ``probs`` is one probability row shared by every draw, or one row per
    draw.  The last cumulative entry is pinned to 1, so a row that sums to
    1 - 2^-53 never lets a uniform below 1 pass its end.
    """
    cum = np.cumsum(probs, axis=-1)
    cum[..., -1] = 1.0
    return (cum <= u[:, None]).sum(axis=1)


def _check_exit_rates(ts: np.ndarray, Ts: np.ndarray, rate_bound: float) -> None:
    """Raise unless every state's exit rate -T_ii(t) is finite and within
    ``rate_bound`` (to round-off) at each time; the error names the
    earliest time that fails."""
    exits = -np.diagonal(Ts, axis1=1, axis2=2)
    bad = ~(np.isfinite(exits) & (exits <= rate_bound * (1.0 + 1e-12)))
    if np.any(bad):
        at = np.flatnonzero(bad.any(axis=1))
        i = at[np.argmin(ts[at])]
        raise ValidationError(
            f"rate bound {rate_bound} is violated at t = {float(ts[i])!r}"
            f" (exit rates {exits[i].tolist()})"
        )


def thinning_sample(
    pi,
    path: MatrixRatePath,
    rate_bound: float,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Absorption times of the inhomogeneous chain by Poisson thinning.

    Validation oracle for :func:`iph_general_sf`.  Candidate events arrive
    at the constant rate ``rate_bound`` (which must dominate every exit
    rate -T_ii(t) along the path); each candidate is accepted as a real
    jump with probability -T_ii(t)/rate_bound.  Every state's exit rate is
    checked against the bound at t = 0, at each breakpoint and just past
    it, and at every candidate time, so a rate that is unbounded at the
    start or jumps past the bound on a short piece raises
    ``ValidationError`` instead of biasing the draws.
    """
    if not (0.0 < rate_bound < np.inf):
        raise ValidationError(f"rate bound must be positive and finite, got {rate_bound}")
    if count < 0:
        raise DomainError("count must be nonnegative")
    p = _order(path, 0.0)
    pi = _check_start(pi, p)
    cuts = [b for b in path.breakpoints if b >= 0.0]
    ts = np.array([0.0] + cuts + [np.nextafter(b, np.inf) for b in cuts])
    with np.errstate(divide="ignore", invalid="ignore"):
        _check_exit_rates(ts, path.at_many(ts), rate_bound)
    state = _categorical(pi / pi.sum(), rng.random(count))
    times = np.zeros(count)
    active = np.arange(count)
    for _ in range(_MAX_WAVES):
        if not active.size:
            return times
        n = active.size
        times[active] += rng.exponential(1.0 / rate_bound, n)
        Ts = path.at_many(times[active])
        _check_exit_rates(times[active], Ts, rate_bound)
        s = state[active]
        rows = Ts[np.arange(n), s, :]
        dii = -rows[np.arange(n), s]
        accept = rng.random(n) < dii / rate_bound
        idx = np.flatnonzero(accept)
        dead = np.zeros(n, dtype=bool)
        if idx.size:
            r = rows[idx].copy()
            r[np.arange(idx.size), s[idx]] = 0.0
            r = np.maximum(r, 0.0)
            exit_rate = np.maximum(dii[idx] - r.sum(axis=1), 0.0)
            probs = np.concatenate([r, exit_rate[:, None]], axis=1)
            probs /= probs.sum(axis=1, keepdims=True)
            nxt = _categorical(probs, rng.random(idx.size))
            absorbed = nxt == p
            state[active[idx]] = np.where(absorbed, s[idx], np.minimum(nxt, p - 1))
            dead[idx] = absorbed
        active = active[~dead]
    raise NonConvergenceError("thinning simulation did not absorb all paths")
