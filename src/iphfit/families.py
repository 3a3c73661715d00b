"""Transformed phase-type families with heavy or semi-heavy tails.

Each family is the law of Y = g(X) for X phase-type and g one of four
monotone transforms:

    ParetoExp     g(x) = beta (e^x - 1) / mu        power tail
    Power         g(x) = x^{1/beta}                 Weibull-type tail
    NegLogAffine  g(x) = mu - sigma log x           Gumbel-type tail
    ShiftedPower  g(x) = mu + sigma (x^{-xi}-1)/xi  GEV-type tail

The first two are increasing, the last two decreasing, so survival and
distribution functions swap roles there; every evaluator here returns
P(Y > y) regardless.  Survival and density reduce to the base PH law at
u = g^{-1}(y):

    P(Y > y) = pi e^{Tu} e  (increasing),  P(X <= u)  (decreasing)
    f_Y(y)   = pi e^{Tu} t |du/dy|

With a one-phase base these are exactly the classical Pareto, Weibull,
Gumbel and GEV laws; the closed-form moments of the last three are
fractional moments of the base law (``ph_frac_moment``).

ParetoExp with ``beta=None`` uses beta = E(X), i.e. g(x) = e^x - 1: the
log-PH case.  Mixtures sharing one transform stay inside the family:
``mixture_tph`` checks that the resolved transforms agree and builds the
one law whose density ``mixture_density`` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentMomentError,
    DomainError,
    NonConvergenceError,
    ValidationError,
)
from .matfun import _incomplete_gamma, mat_fun
from .phcore import (
    PHDist,
    _condition,
    _neg_power_form,
    _tail_points,
    mixture_rep,
    ph_cdf,
    ph_frac_moment,
    ph_log_moment,
    ph_mean,
    ph_pdf,
    ph_quantile,
    ph_sample,
    ph_sf,
)

__all__ = [
    "FAMILIES",
    "ParetoExp",
    "Power",
    "NegLogAffine",
    "ShiftedPower",
    "ShiftedTransform",
    "TransformedPH",
    "tph_new",
    "tph_sf",
    "tph_cdf",
    "tph_pdf",
    "tph_sample",
    "tph_quantile",
    "mp_conditional_excess",
    "mp_laplace",
    "mp_shifted_frac_moment",
    "mw_moment",
    "mw_mgf",
    "ep_mean",
    "ep_laplace",
    "sp_mean",
    "erlang_oracle",
    "mixture_density",
    "mixture_tph",
]


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParetoExp:
    """g(x) = beta (e^x - 1) / mu; beta=None means beta = mu, so g = e^x - 1."""

    beta: float | None = None
    tag = "pareto"
    increasing = True

    def __post_init__(self):
        if self.beta is not None and not (self.beta > 0):
            raise ValidationError(f"beta must be positive, got {self.beta}")

    def scale(self, mu: float) -> float:
        return 1.0 if self.beta is None else self.beta / mu

    def support(self, mu):
        return 0.0, np.inf

    def to_x(self, y, mu):
        return np.log1p(y / self.scale(mu))

    def from_x(self, x, mu):
        return self.scale(mu) * np.expm1(x)

    def jac(self, y, mu):
        return 1.0 / (self.scale(mu) + y)

    def resolved_key(self, mu):
        return ("pareto", self.scale(mu))


@dataclass(frozen=True)
class Power:
    """g(x) = x^{1/beta}."""

    beta: float
    tag = "weibull"
    increasing = True

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValidationError(f"beta must be positive, got {self.beta}")

    def support(self, mu):
        return 0.0, np.inf

    def to_x(self, y, mu):
        return np.asarray(y, dtype=float) ** self.beta

    def from_x(self, x, mu):
        return np.asarray(x, dtype=float) ** (1.0 / self.beta)

    def jac(self, y, mu):
        return self.beta * np.asarray(y, dtype=float) ** (self.beta - 1.0)

    def resolved_key(self, mu):
        return ("power", self.beta)


@dataclass(frozen=True)
class NegLogAffine:
    """g(x) = mu - sigma log x; decreasing in x, support all of R."""

    mu: float
    sigma: float
    tag = "gumbel"
    increasing = False

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValidationError(f"sigma must be positive, got {self.sigma}")

    def support(self, mu):
        return -np.inf, np.inf

    def to_x(self, y, mu):
        with np.errstate(over="ignore"):
            return np.exp(-(np.asarray(y, dtype=float) - self.mu) / self.sigma)

    def from_x(self, x, mu):
        return self.mu - self.sigma * np.log(np.asarray(x, dtype=float))

    def jac(self, y, mu):
        return self.to_x(y, mu) / self.sigma

    def resolved_key(self, mu):
        return ("gumbel", self.mu, self.sigma)


@dataclass(frozen=True)
class ShiftedPower:
    """g(x) = mu + sigma (x^{-xi} - 1)/xi; decreasing in x.

    Support of Y is {y : 1 + xi (y-mu)/sigma > 0}: bounded below for
    xi > 0, bounded above for xi < 0.  The auxiliary map
    z(y) = (1 + xi (y-mu)/sigma)^{-1/xi} returns to the x scale.
    """

    mu: float
    sigma: float
    xi: float
    tag = "gev"
    increasing = False

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValidationError(f"sigma must be positive, got {self.sigma}")
        if self.xi == 0:
            raise ValidationError("xi must be nonzero (the xi -> 0 limit is NegLogAffine)")

    def support(self, mu):
        edge = self.mu - self.sigma / self.xi
        return (edge, np.inf) if self.xi > 0 else (-np.inf, edge)

    def to_x(self, y, mu):
        w = 1.0 + self.xi * (np.asarray(y, dtype=float) - self.mu) / self.sigma
        with np.errstate(over="ignore"):
            return np.exp(-np.log(w) / self.xi)

    def from_x(self, x, mu):
        x = np.asarray(x, dtype=float)
        return self.mu + self.sigma * np.expm1(-self.xi * np.log(x)) / self.xi

    def jac(self, y, mu):
        z = self.to_x(y, mu)
        return z ** (self.xi + 1.0) / self.sigma

    def resolved_key(self, mu):
        return ("gev", self.mu, self.sigma, self.xi)


# family name, as the model document and the command line spell it -> transform class
FAMILIES = {cls.tag: cls for cls in (ParetoExp, Power, NegLogAffine, ShiftedPower)}


@dataclass(frozen=True)
class ShiftedTransform:
    """g composed with a location shift on the x scale: y = g(x + shift).

    This is what fitting to shifted transformed data produces: the base
    law describes U = g^{-1}(Y) - shift.  The Jacobian of g^{-1} is
    unchanged; only the support and the x <-> y maps move.  Only
    ParetoExp is defined on all of R; the other maps start at x = 0, so
    under them a negative shift would put mass where g is undefined.
    """

    inner: object
    shift: float

    def __post_init__(self):
        if not np.isfinite(self.shift):
            raise ValidationError(f"shift must be finite, got {self.shift}")
        if self.shift < 0 and not isinstance(self.inner, ParetoExp):
            raise ValidationError(
                f"shift {self.shift} is negative, but the {self.inner.tag} map "
                "is undefined below x = 0")

    @property
    def increasing(self):
        return self.inner.increasing

    def support(self, mu):
        lo, hi = self.inner.support(mu)
        with np.errstate(divide="ignore"):
            edge = float(self.inner.from_x(self.shift, mu))
        return (edge, hi) if self.inner.increasing else (lo, edge)

    def to_x(self, y, mu):
        return self.inner.to_x(y, mu) - self.shift

    def from_x(self, x, mu):
        return self.inner.from_x(np.asarray(x, dtype=float) + self.shift, mu)

    def jac(self, y, mu):
        return self.inner.jac(y, mu)

    def resolved_key(self, mu):
        return ("shifted", self.inner.resolved_key(mu), self.shift)


# ---------------------------------------------------------------------------
# transformed distribution values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformedPH:
    """Y = g(X) for X ~ base and g given by the transform.

    ``mu`` caches the base mean (the ParetoExp default scale); ``x_cap``
    is the point beyond which the base survival underflows to zero, used
    to keep never-observed u = g^{-1}(y) values finite.
    """

    base: PHDist
    transform: object
    mu: float = field(init=False, repr=False)
    x_cap: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "mu", ph_mean(self.base))
        eta = float(np.max(np.linalg.eigvals(self.base.T).real))
        object.__setattr__(self, "x_cap", 1500.0 / max(-eta, 1e-300))


def tph_new(base: PHDist, transform) -> TransformedPH:
    if not isinstance(base, PHDist):
        raise ValidationError("base must be a PHDist")
    if not isinstance(transform, (*FAMILIES.values(), ShiftedTransform)):
        raise ValidationError(f"unknown transform {transform!r}")
    return TransformedPH(base, transform)


def _as_points(y):
    """(is scalar, 1-d float array); NaN is rejected, +-inf lie at the support's ends."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(np.isnan(y_arr)):
        raise DomainError("argument must not be NaN")
    return y_arr.ndim == 0, np.atleast_1d(y_arr).astype(float)


def _tail(d: TransformedPH, y, upper: bool):
    """P(Y > y) if ``upper``, else P(Y <= y).

    Inside the support it is the base's ph_sf or ph_cdf at u = g^{-1}(y),
    whichever the map's direction makes it, so a small value keeps its
    digits; a u at or past ``x_cap`` counts as the base's far end.
    """
    scalar, ys = _as_points(y)
    g = d.transform
    lo, hi = g.support(d.mu)
    out = np.empty(ys.shape)
    out[ys <= lo] = float(upper)
    out[ys >= hi] = float(not upper)
    inside = (ys > lo) & (ys < hi)
    if np.any(inside):
        u = np.asarray(g.to_x(ys[inside], d.mu), dtype=float)
        capped = ~(u < d.x_cap)
        base_sf = upper == g.increasing
        vals = (ph_sf if base_sf else ph_cdf)(d.base, np.where(capped, d.x_cap, u))
        out[inside] = np.where(capped, float(not base_sf), vals)
    return float(out[0]) if scalar else out


def tph_sf(d: TransformedPH, y):
    """P(Y > y); 1 left of the support, 0 right of it."""
    return _tail(d, y, upper=True)


def tph_cdf(d: TransformedPH, y):
    """P(Y <= y); 0 left of the support, 1 right of it."""
    return _tail(d, y, upper=False)


def tph_pdf(d: TransformedPH, y):
    """Density pi e^{T g^{-1}(y)} t |d g^{-1}/dy|; 0 outside the support."""
    scalar, ys = _as_points(y)
    g = d.transform
    lo, hi = g.support(d.mu)
    out = np.zeros(ys.shape)
    inside = (ys > lo) & (ys < hi)
    if g.increasing and lo == 0.0:
        inside = inside | (ys == 0.0)  # boundary density is finite here
    if np.any(inside):
        u = np.asarray(g.to_x(ys[inside], d.mu), dtype=float)
        capped = ~(u < d.x_cap)
        with np.errstate(invalid="ignore", over="ignore"):
            vals = ph_pdf(d.base, np.where(capped, d.x_cap, u)) * g.jac(ys[inside], d.mu)
        out[inside] = np.where(capped, 0.0, vals)
    return float(out[0]) if scalar else out


def tph_sample(d: TransformedPH, rng: np.random.Generator, count: int) -> np.ndarray:
    """g applied elementwise to draws from the base law (``ph_sample``)."""
    return d.transform.from_x(ph_sample(d.base, rng, count), d.mu)


def tph_quantile(d: TransformedPH, q):
    """Quantile of Y by monotone mapping of the base quantile.

    A decreasing map takes the base point whose survival is q, solved as
    such (``_tail_points``), so low levels keep their digits; level 1,
    the base's point 0, is the upper end of the support.
    """
    scalar, qs = _as_points(q)
    if d.transform.increasing:
        out = d.transform.from_x(ph_quantile(d.base, qs), d.mu)
    else:
        if np.any(qs <= 0):
            raise DomainError("quantile level must be positive for decreasing transforms")
        if np.any(qs > 1):
            raise DomainError("quantile level must lie in (0, 1] for decreasing transforms")
        out = np.full_like(qs, d.transform.support(d.mu)[1])
        inner = qs < 1.0
        if inner.any():
            out[inner] = d.transform.from_x(_tail_points(d.base, qs[inner], upper=True), d.mu)
    return float(out[0]) if scalar else np.asarray(out, dtype=float)


def _expect(d: TransformedPH, cls, op: str):
    if not isinstance(d.transform, cls):
        raise ValidationError(
            f"{op} needs a {cls.__name__} transform, got {type(d.transform).__name__}"
        )


# ---------------------------------------------------------------------------
# matrix-Pareto operations
# ---------------------------------------------------------------------------

def mp_conditional_excess(d: TransformedPH, x: float) -> TransformedPH:
    """Law of Y - x given Y > x: matrix-Pareto again, threshold-stable.

    The scale grows to beta + mu x and the start vector is reweighted by
    (1 + mu x / beta)^T.
    """
    _expect(d, ParetoExp, "mp_conditional_excess")
    x = float(x)
    if x < 0:
        raise DomainError(f"threshold must be nonnegative, got {x}")
    if x == 0.0:
        return d
    c = d.transform.scale(d.mu)
    new_base = _condition(d.base, math.log1p(x / c), f"threshold {x}")
    # scale c' = c + x corresponds to beta' = beta + mu x
    return tph_new(new_base, ParetoExp(beta=(c + x) * ph_mean(new_base)))


def mp_laplace(d: TransformedPH, s: float) -> float:
    """Laplace transform E e^{-sY} = e^a pi a^{-T} Gamma(T, a) t, a = s beta/mu.

    The three factors cancel into one matrix function: with w = e^x - 1,

        E e^{-sY} = pi L_a(T) t,  L_a(z) = int_0^inf (1+w)^{z-1} e^{-aw} dw
                                         = e^a a^{-z} Gamma(z, a),

    one Schur-Parlett evaluation.  At every eigenvalue z of T (Re z < 0)
    the integrand is bounded by 1 in modulus, so neither e^a nor
    Gamma(T, a) is formed and nothing over- or underflows at any a > 0.
    """
    _expect(d, ParetoExp, "mp_laplace")
    s = float(s)
    if not (s > 0):
        raise DomainError(f"Laplace argument must be positive, got {s}")
    a = s * d.transform.scale(d.mu)
    L = mat_fun(d.base.T, _incomplete_gamma(a, scaled=True))
    return float(d.base.pi @ L @ d.base.exit)


def mp_shifted_frac_moment(d: TransformedPH, alpha: float) -> float:
    """E((mu Y / beta + 1)^alpha) = pi (-alpha I - T)^{-1} t.

    Finite exactly when the spectral bound of T lies strictly below
    -alpha; otherwise the moment diverges (power tail).
    """
    _expect(d, ParetoExp, "mp_shifted_frac_moment")
    alpha = float(alpha)
    if not (alpha > 0):
        raise DomainError(f"moment order must be positive, got {alpha}")
    T = d.base.T
    bound = float(np.max(np.linalg.eigvals(T).real))
    if bound >= -alpha:
        raise DivergentMomentError(
            f"moment of order {alpha} is infinite: spectral bound {bound:.6g} >= {-alpha}"
        )
    p = T.shape[0]
    val = d.base.pi @ np.linalg.solve(-alpha * np.eye(p) - T, d.base.exit)
    return float(val)


# ---------------------------------------------------------------------------
# matrix-Weibull operations
# ---------------------------------------------------------------------------

def mw_moment(d: TransformedPH, theta: float) -> float:
    """E(Y^theta) = E(X^{theta/beta}), a fractional moment of the base."""
    _expect(d, Power, "mw_moment")
    theta = float(theta)
    if not (theta > 0):
        raise DomainError(f"moment order must be positive, got {theta}")
    return ph_frac_moment(d.base, theta / d.transform.beta)


def mw_mgf(d: TransformedPH, theta: float, max_terms: int = 400) -> tuple[float, bool]:
    """Moment generating function as the power-moment series.

    E e^{theta Y} = sum_n theta^n/n! E(X^{n/beta}), convergent for beta > 1.
    Terms are accumulated until one falls below 1e-14 of the partial sum;
    hitting ``max_terms`` first raises, carrying the last term magnitude.
    Returns (value, converged).
    """
    _expect(d, Power, "mw_mgf")
    beta = d.transform.beta
    if not (beta > 1):
        raise DomainError(f"the series requires beta > 1, got beta = {beta}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"moment generating function argument must be finite, got {theta}")
    total = term = float(d.base.pi @ d.base.close)  # E(X^0)
    log_abs_theta = -math.inf if theta == 0.0 else math.log(abs(theta))
    for n in range(1, max_terms):
        # theta^n / n! * Gamma(1+n/beta) in log form; n! overflows past 170
        log_mag = n * log_abs_theta - math.lgamma(n + 1.0) + math.lgamma(1.0 + n / beta)
        sign = -1.0 if (theta < 0 and n % 2 == 1) else 1.0
        term = sign * math.exp(log_mag) * _neg_power_form(d.base, n / beta)
        total += term
        if abs(term) < 1e-14 * abs(total):
            return total, True
    raise NonConvergenceError(
        f"series did not converge in {max_terms} terms", last_term=abs(term)
    )


# ---------------------------------------------------------------------------
# matrix-Gumbel operations
# ---------------------------------------------------------------------------

def ep_mean(d: TransformedPH) -> float:
    """E(Y) = mu - sigma E(log X) = mu + sigma gamma + sigma pi log(-T) e."""
    _expect(d, NegLogAffine, "ep_mean")
    g = d.transform
    return g.mu - g.sigma * ph_log_moment(d.base)


def ep_laplace(d: TransformedPH, s: float) -> float:
    """E e^{-sY} = e^{-mu s} E(X^{s sigma}), a fractional moment of the base."""
    _expect(d, NegLogAffine, "ep_laplace")
    g = d.transform
    s = float(s)
    if not (s * g.sigma > -1.0):
        raise DomainError(
            f"requires s*sigma > -1 (gamma pole), got s*sigma = {s * g.sigma}"
        )
    if s == 0.0:
        return 1.0
    return math.exp(-g.mu * s) * ph_frac_moment(d.base, s * g.sigma)


# ---------------------------------------------------------------------------
# matrix-GEV operations
# ---------------------------------------------------------------------------

def sp_mean(d: TransformedPH) -> float:
    """E(Y) = mu + (sigma/xi)(E(X^{-xi}) - 1), finite for xi < 1."""
    _expect(d, ShiftedPower, "sp_mean")
    g = d.transform
    if g.xi >= 1.0:
        raise DivergentMomentError(f"mean is infinite for xi >= 1, got xi = {g.xi}")
    return g.mu + g.sigma / g.xi * (ph_frac_moment(d.base, -g.xi) - 1.0)


# ---------------------------------------------------------------------------
# Erlang closed forms (test oracles) and mixtures
# ---------------------------------------------------------------------------

def erlang_oracle(family: str, n: int, lam: float, y, mu: float = 0.0,
                  sigma: float = 1.0, xi: float = 0.5, beta: float = 1.0):
    """Closed-form transformed-Erlang densities, used as test oracles.

    All four carry the lambda^n factor that direct change of variables
    from the Erlang density produces.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"n must be a positive integer, got {n}")
    if not (lam > 0):
        raise DomainError(f"lambda must be positive, got {lam}")
    y = np.asarray(y, dtype=float)
    coeff = lam**n / math.factorial(n - 1)
    if family == "pareto":
        ly = np.log1p(y)
        return np.where(y >= 0, coeff * (1.0 + y) ** (-lam - 1.0) * ly ** (n - 1), 0.0)
    if family == "weibull":
        if not (beta > 0):
            raise DomainError(f"beta must be positive, got {beta}")
        return np.where(
            y > 0, beta * coeff * y ** (n * beta - 1.0) * np.exp(-lam * y**beta), 0.0
        )
    if family == "gumbel":
        if not (sigma > 0):
            raise DomainError(f"sigma must be positive, got {sigma}")
        w = np.exp(-(y - mu) / sigma)
        return (1.0 / sigma) * coeff * w**n * np.exp(-lam * w)
    if family == "gev":
        if not (sigma > 0) or xi == 0:
            raise DomainError(f"need sigma > 0 and xi != 0, got sigma={sigma}, xi={xi}")
        w = 1.0 + xi * (y - mu) / sigma
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            z = np.where(w > 0, w ** (-1.0 / xi), np.inf)
            out = (1.0 / sigma) * coeff * z ** (xi + n) * np.exp(-lam * z)
        return np.where(w > 0, out, 0.0)
    raise DomainError(f"unknown family {family!r}")


def mixture_density(weights, components, y):
    """Weighted sum of component densities sharing one transform.

    Evaluated as the density of :func:`mixture_tph`, the single
    TransformedPH over mixture_rep of the bases, which checks the weights
    and that the transforms resolve to the same g: a mixture only
    collapses to one transformed law when every component is pushed
    through the same map.
    """
    return tph_pdf(mixture_tph(weights, components), y)


def mixture_tph(weights, components) -> TransformedPH:
    """The same mixture as one TransformedPH over mixture_rep of the bases."""
    comps = list(components)
    keys = {c.transform.resolved_key(c.mu) for c in comps}
    if len(keys) > 1:
        raise ValidationError(f"components must share one transform, got {sorted(keys)}")
    base = mixture_rep(weights, [c.base for c in comps])
    tr = comps[0].transform
    inner = tr.inner if isinstance(tr, ShiftedTransform) else tr
    if isinstance(inner, ParetoExp):
        # pin the shared scale explicitly; the mixed base has its own mean
        pinned = ParetoExp(beta=inner.scale(comps[0].mu) * ph_mean(base))
        tr = pinned if inner is tr else ShiftedTransform(pinned, tr.shift)
    return tph_new(base, tr)
