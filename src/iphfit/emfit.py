"""EM fitting of phase-type distributions, on raw or transformed data.

The E-step statistics are the usual conditional expectations of the
latent jump path given an absorption time y: expected starts, sojourn
times, jump counts and exits per state.  All of them reduce to entries of

    e^{Ty},   and   U(y) = int_0^y e^{Tu} t pi e^{T(y-u)} du,

where U(y) is the top-right block of the exponential of the 2p x 2p
matrix [[T, t pi], [0, T]].  That block exponential is evaluated for the
whole sample at once by uniformization: with q just above the largest
exit rate (the same q as evaluation, ``phcore._unif_rate``), the 2p x 2p
matrix M = [[P, t pi / q], [0, P]] with P = I + T/q is elementwise
nonnegative, e^{Cy} is a Poisson mixture of its powers, and the
per-point mixtures collapse to one matrix polynomial G = sum_k g_k M^k
shared by every statistic.  One EM iteration costs O(sqrt K) products of
2p x 2p matrices (Paterson-Stockmeyer) plus O(N K) Poisson weights,
built and reduced in bounded row blocks over the ascending data, so each
point only pays for the depth of its own block and no N x K table is
held.  The blocks are reduced in a fixed order with fixed BLAS products,
so a fit is bitwise reproducible for a given input and BLAS thread
count; there is no separate "ordered" mode.

The M-step divides aggregated jumps and exits by aggregated sojourn and
renormalizes the starts; it never decreases the log-likelihood.

``fit_transformed`` runs the same machinery on u_i = g^{-1}(x_i) - shift
and reports the log-likelihood on both scales (they differ by the sum of
log-Jacobians).  ``fit_erlang_rate`` is the closed-form one-parameter
baseline.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateStateError,
    DegenerateStateWarning,
    DomainError,
    ShiftError,
    ValidationError,
)
from .families import (
    ParetoExp,
    ShiftedTransform,
    TransformedPH,
    tph_new,
)
from .phcore import (
    PHDist,
    _poisson_blocks,
    _poisson_depth,
    _unif_rate,
    _unif_rows,
    erlang_rep,
    ph_new,
    ph_pdf,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "ph_loglik",
    "em_step",
    "fit_ph_em",
    "fit_transformed",
    "fit_erlang_rate",
]


@dataclass(frozen=True)
class FitConfig:
    """Settings for fit_ph_em.

    ``init`` is "random" (seeded by ``seed``), "structured" (the
    feed-forward bidiagonal skeleton), or an explicit PHDist to start
    from.  Fits are always bitwise reproducible for a given input and BLAS
    thread count; ``ordered_reduction`` is accepted for compatibility and
    selects nothing.
    """

    phases: int
    max_iters: int = 2000
    loglik_rel_tol: float = 1e-8
    init: object = "random"
    seed: int | None = None
    ordered_reduction: bool = True

    def __post_init__(self):
        if self.phases < 1 or self.phases != int(self.phases):
            raise ConfigError(f"phases must be a positive integer, got {self.phases}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be positive, got {self.max_iters}")
        if not (self.loglik_rel_tol > 0):
            raise ConfigError(f"loglik_rel_tol must be positive, got {self.loglik_rel_tol}")
        if isinstance(self.init, str) and self.init not in ("random", "structured"):
            raise ConfigError(f"init must be 'random', 'structured' or a PHDist, got {self.init!r}")


@dataclass
class FitResult:
    """Outcome of an EM run.

    ``loglik_trace[k]`` is the log-likelihood of the iterate before step
    k+1; the last entry belongs to ``fitted``.  ``sparsity_report`` lists
    (i, j) entries of the fitted T below 1e-8 of its norm: the structural
    zeros EM tends to produce.  ``loglik_original`` is set by
    fit_transformed (Jacobian-adjusted to the untransformed data scale).
    """

    fitted: PHDist
    loglik_trace: list[float]
    iterations_run: int
    converged: bool
    sparsity_report: list[tuple[int, int]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    loglik_original: float | None = None

    @property
    def loglik(self) -> float:
        return self.loglik_trace[-1]


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------

def _check_data(data) -> np.ndarray:
    ys = np.atleast_1d(np.asarray(data, dtype=float))
    if ys.ndim != 1 or ys.size == 0:
        raise ValidationError("data must be a nonempty one-dimensional sequence")
    if not np.all(np.isfinite(ys)) or np.any(ys <= 0):
        bad = int(np.argmin(np.where(np.isfinite(ys), ys, -np.inf)))
        raise ValidationError(f"data must be positive reals; data[{bad}] = {ys[bad]}")
    return ys


def ph_loglik(d: PHDist, data) -> float:
    """Sum of log densities; -inf if any point has zero density."""
    ys = _check_data(data)
    dens = ph_pdf(d, ys)
    if np.any(dens <= 0.0):
        return -np.inf
    return float(np.sum(np.log(dens)))


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

def _estep(d: PHDist, ys: np.ndarray, wt: np.ndarray):
    """Aggregated E-step statistics and the current log-likelihood.

    ``ys`` must be ascending (np.unique output), as the Poisson block
    builder needs.  Returns (starts, sojourn, jumps, exits, loglik);
    starts/sojourn/exits are per-state sums over the weighted sample,
    jumps is the p x p matrix of expected transition counts.
    """
    pi, T, t = d.pi, d.T, d.exit
    p = d.dim
    q = _unif_rate(T)
    P1 = np.eye(p) + T / q
    qy = q * ys
    K = int(_poisson_depth(qy[-1]))
    fr = _unif_rows(pi, P1, K)[: K + 1] @ t  # pi P1^k t for k = 0..K

    # every statistic shares the same per-order weights g_k; blocks are
    # reduced in a fixed order, so the sums are bitwise repeatable
    g = np.zeros(K + 1)
    loglik = 0.0
    for lo, hi, W in _poisson_blocks(qy):
        Kc = W.shape[1]
        f = W @ fr[:Kc]
        if np.any(f <= 0.0) or not np.all(np.isfinite(f)):
            i = lo + int(np.argmin(f))
            raise DomainError(
                f"zero likelihood at data point y = {ys[i]}; model cannot explain it"
            )
        loglik += float(np.log(f) @ wt[lo:hi])
        g[:Kc] += (wt[lo:hi] / f) @ W
    # G = sum_k g_k M^k with M = [[P1, t pi / q], [0, P1]]: its top-left
    # block is sum_k g_k P1^k, its top-right block is U
    M = np.zeros((2 * p, 2 * p))
    M[:p, :p] = M[p:, p:] = P1
    M[:p, p:] = np.outer(t, pi) / q
    G = _nonneg_polyval(g, M)
    G11, U = G[:p, :p], G[:p, p:]
    starts = pi * (G11 @ t)
    exits = t * (pi @ G11)
    sojourn = np.diag(U).copy()
    jumps = T * U.T
    return starts, sojourn, jumps, exits, loglik


def _nonneg_polyval(c: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sum_k c_k M^k by Paterson-Stockmeyer, about 2 sqrt(K) matrix products.

    With s = ceil(sqrt(K + 1)) the powers I..M^{s-1} are stacked once; one
    tensordot forms every chunk B_j = sum_i c_{js+i} M^i, and Horner's rule
    in M^s adds them up.  For nonnegative c and M every term is
    nonnegative, so nothing cancels, and the order of the sums is fixed.
    """
    s = math.isqrt(c.size - 1) + 1
    powers = np.empty((s, *M.shape))
    powers[0] = np.eye(M.shape[0])
    for i in range(1, s):
        powers[i] = powers[i - 1] @ M
    Ms = powers[-1] @ M
    chunks = np.zeros(-(-c.size // s) * s)
    chunks[: c.size] = c
    B = np.tensordot(chunks.reshape(-1, s), powers, axes=1)
    G = B[-1]
    for j in range(B.shape[0] - 2, -1, -1):
        G = G @ Ms + B[j]
    return G


def _mstep(d: PHDist, starts, sojourn, jumps, exits, freeze=None):
    """Build the updated representation; ``freeze`` masks degenerate states."""
    p = d.dim
    pi_new = np.maximum(starts, 0.0)
    pi_new = pi_new / pi_new.sum()
    T_new = np.array(d.T, dtype=float)
    t_new = np.array(d.exit, dtype=float)
    for i in range(p):
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
        t_new[i] = ti
    return ph_new(pi_new, T_new, markov=True)


# ---------------------------------------------------------------------------
# public fitting operations
# ---------------------------------------------------------------------------

def em_step(d: PHDist, data) -> PHDist:
    """One EM update; never decreases ph_loglik."""
    if not d.markov:
        raise ValidationError("EM requires a Markov representation")
    ys = _check_data(data)
    uy, inv = np.unique(ys, return_inverse=True)
    wt = np.bincount(inv).astype(float)
    starts, sojourn, jumps, exits, _ = _estep(d, uy, wt)
    return _mstep(d, starts, sojourn, jumps, exits)


def _random_init(p: int, target_mean: float, rng: np.random.Generator) -> PHDist:
    pi = rng.uniform(0.1, 1.0, size=p)
    pi /= pi.sum()
    T = rng.uniform(0.1, 1.0, size=(p, p))
    t = rng.uniform(0.1, 1.0, size=p)
    np.fill_diagonal(T, 0.0)
    d = np.zeros((p, p))
    np.fill_diagonal(d, -(T.sum(axis=1) + t))
    T = T + d
    mean0 = float(pi @ np.linalg.solve(-T, np.ones(p)))
    T = T * (mean0 / target_mean)
    return ph_new(pi, T, markov=True)


def _structured_init(p: int, target_mean: float) -> PHDist:
    return erlang_rep(p, p / target_mean)


def fit_ph_em(data, config: FitConfig) -> FitResult:
    """Iterate EM from the configured start until the loglik stalls.

    States whose expected sojourn drops below 1e-12 of the total are
    frozen for that iteration instead of dividing by ~0; each freeze is
    recorded on the result and raised as a DegenerateStateWarning.
    """
    ys = _check_data(data)
    uy, inv = np.unique(ys, return_inverse=True)
    wt = np.bincount(inv).astype(float)

    if isinstance(config.init, PHDist):
        if not config.init.markov:
            raise ConfigError("init distribution must be a Markov representation")
        if config.init.dim != config.phases:
            raise ConfigError(
                f"init has {config.init.dim} phases but config asks for {config.phases}"
            )
        current = config.init
    elif config.init == "structured":
        current = _structured_init(config.phases, float(ys.mean()))
    else:
        rng = np.random.default_rng(config.seed)
        current = _random_init(config.phases, float(ys.mean()), rng)

    trace: list[float] = []
    notes: list[str] = []
    converged = False
    iters = 0
    for _ in range(config.max_iters):
        starts, sojourn, jumps, exits, ll = _estep(current, uy, wt)
        trace.append(ll)
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(ll - prev) <= config.loglik_rel_tol * abs(prev):
                converged = True
                break
        freeze = sojourn < 1e-12 * sojourn.sum()
        if np.any(freeze):
            which = np.flatnonzero(freeze)
            msg = f"states {which.tolist()} frozen: expected sojourn below 1e-12 of total"
            if msg not in notes:
                notes.append(msg)
                warnings.warn(msg, DegenerateStateWarning, stacklevel=2)
        current = _mstep(current, starts, sojourn, jumps, exits, freeze=freeze)
        iters += 1
    else:
        # final loglik of the last iterate
        *_, ll = _estep(current, uy, wt)
        trace.append(ll)

    norm = float(np.max(np.abs(current.T)))
    sparsity = [
        (i, j)
        for i in range(current.dim)
        for j in range(current.dim)
        if i != j and abs(current.T[i, j]) < 1e-8 * norm
    ]
    return FitResult(
        fitted=current,
        loglik_trace=trace,
        iterations_run=iters,
        converged=converged,
        sparsity_report=sparsity,
        warnings=notes,
    )


def fit_transformed(data, transform, shift: float, config: FitConfig):
    """Fit Y = g(U + shift) by running EM on u_i = g^{-1}(x_i) - shift.

    Returns (model, result): the composed TransformedPH and the FitResult
    with both log-likelihoods filled in.  ParetoExp must keep its default
    scale here (beta = fitted mean, i.e. g = e^u - 1): an explicit beta
    would need the fitted mean before the fit exists.
    """
    xs = np.atleast_1d(np.asarray(data, dtype=float))
    if xs.size == 0:
        raise ValidationError("data must be nonempty")
    if isinstance(transform, ShiftedTransform):
        raise ValidationError("pass the bare transform; the shift argument does the composing")
    if isinstance(transform, ParetoExp) and transform.beta is not None:
        raise ValidationError(
            "fitting with an explicit ParetoExp beta is ambiguous; "
            "use beta=None (the scale is the fitted mean)"
        )
    shift = float(shift)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        u_raw = np.asarray(transform.to_x(xs, 1.0), dtype=float)
        u = u_raw - shift
    bad = ~(np.isfinite(u) & (u > 0))
    if np.any(bad):
        idx = np.flatnonzero(bad).tolist()
        raise ShiftError(
            f"shift {shift} leaves {len(idx)} transformed point(s) outside (0, inf); "
            f"first offenders at indices {idx[:10]}",
            indices=idx,
        )
    result = fit_ph_em(u, config)
    composed = transform if shift == 0.0 else ShiftedTransform(transform, shift)
    model = tph_new(result.fitted, composed)
    with np.errstate(divide="ignore"):
        log_jac = np.log(np.asarray(transform.jac(xs, 1.0), dtype=float))
    result.loglik_original = result.loglik + float(np.sum(log_jac))
    return model, result


def fit_erlang_rate(data, n: int):
    """Closed-form Erlang(n) rate MLE and its log-likelihood."""
    if n < 1 or n != int(n):
        raise ValidationError(f"n must be a positive integer, got {n}")
    ys = _check_data(data)
    lam = float(n * ys.size / ys.sum())
    return lam, ph_loglik(erlang_rep(int(n), lam), ys)
