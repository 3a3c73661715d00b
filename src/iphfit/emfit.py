"""EM fitting of phase-type distributions, on raw or transformed data.

The E-step statistics are the usual conditional expectations of the
latent jump path given an absorption time y: expected starts, sojourn
times, jump counts and exits per state.  All of them reduce to entries of

    e^{Ty},   and   U(y) = int_0^y e^{Tu} t pi e^{T(y-u)} du,

where U(y) is the top-right block of the exponential of the 2p x 2p
matrix C = [[T, t pi], [0, T]].  That block exponential is evaluated for
the whole sample at once by the anchored uniformization of ``phcore``:
with q at or above the largest exit rate, M = I + C / q = [[P, t pi / q],
[0, P]] (P = I + T/q) is elementwise nonnegative, and a datum at
q y = b + delta (b its anchor cell, delta < 1) has e^{Cy} = e^{C x_b}
e^{C delta / q}.  The anchors e^{C x_b} / s_b of the occupied cells come
from one walk over the squarings of the step e^{C/q} (``phcore._walk``),
with log s_b carried beside them, s_b = pi e^{T x_b} e; each datum's
window is a Poisson(delta) mixture of M^k over k <= 20, deeper only
where ``phcore._window_groups`` finds that the stated bound on the dropped
terms asks for it.  So

    sum_i wt_i e^{C y_i} / f_i = sum_b (e^{C x_b} / s_b) sum_k g_bk M^k,

g_bk = sum over the cell's data of wt_i Pois(k; delta_i) / (f_i / s_b), a
sum in which nothing under- or overflows, and the log-likelihood is
sum_i wt_i (log(f_i / s_b) + log s_b): finite for a datum whose density
is far below the float range.  One EM iteration costs a few dozen
products of 2p x 2p matrices plus two passes over the N x 21 table of
window rows.  The rows depend only on q y and any q at or above the
largest exit rate is exact, so a fit builds its table once, at 1.1 times
the rate that asks for it, and reuses it while later rates stay in
[q/2, q]; a table over the one-buffer budget ``phcore._BLOCK_ENTRIES`` is
streamed afresh each iteration in row chunks instead.  The sums run in a
fixed order with fixed BLAS and sparse products, so a fit is bitwise
reproducible for a given input and BLAS thread count.

The M-step divides aggregated jumps and exits by aggregated sojourn and
renormalizes the starts; it never decreases the log-likelihood.

``fit_transformed`` runs the same machinery on u_i = g^{-1}(x_i) - shift
and reports the log-likelihood on both scales (they differ by the sum of
log-Jacobians).  ``fit_erlang_rate`` is the closed-form one-parameter
baseline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (
    ConfigError,
    DegenerateStateError,
    DegenerateStateWarning,
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
    _BLOCK_ENTRIES,
    _STEP_DEPTH,
    _WINDOW_DEPTH,
    PHDist,
    _cells,
    _exp_action,
    _nonneg_powers,
    _unif_rate,
    _unif_squarings,
    _walk,
    _window_groups,
    _window_rows,
    erlang_rep,
    ph_new,
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
    thread count.
    """

    phases: int
    max_iters: int = 2000
    loglik_rel_tol: float = 1e-8
    init: object = "random"
    seed: int | None = None

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
    """Sum of log densities; -inf if any point has zero density.

    Markov laws take the logs from the anchored uniformization windows, so
    a far point whose density is below the float range still counts.
    """
    return float(np.sum(_exp_action(d, _check_data(data), d.exit, log=True)))


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------

# a fit builds its Poisson table at this multiple of the rate that asks for
# it, so iterates whose rate rises by up to 10% reuse it
_TABLE_MARGIN = 1.1


def _per_cell(cell: np.ndarray, m: int):
    """The m x n sparse matrix that sums n points into their cells, for
    ``cell`` ascending; its data are the weights, to be set before use."""
    ptr = np.searchsorted(cell, np.arange(m + 1)).astype(np.int32)
    return csr_matrix((np.ones(cell.size), np.arange(cell.size, dtype=np.int32), ptr),
                      shape=(m, cell.size))


def _windows(ys: np.ndarray, q: float):
    """Chunks (lo, cells, cell, delta, W, per_cell) of the windows of q * ys.

    ``ys`` ascending; each chunk covers ys[lo:lo + n] with at most
    _BLOCK_ENTRIES Poisson entries: the anchor cells of those points as
    from ``phcore._cells``, their Poisson rows W at depth _WINDOW_DEPTH,
    and the ``_per_cell`` sum over their cells.
    """
    rows = _BLOCK_ENTRIES // (_WINDOW_DEPTH + 1)
    for lo in range(0, ys.size, rows):
        cells, cell, delta = _cells(q * ys[lo : lo + rows])
        yield (lo, cells, cell, delta, _window_rows(delta, _WINDOW_DEPTH),
               _per_cell(cell, cells.size))


def _poisson_table(ys: np.ndarray, q: float):
    """(q, chunks): every window of q * ys held at once, or None when their
    Poisson rows pass the one-buffer budget _BLOCK_ENTRIES."""
    if ys.size * (_WINDOW_DEPTH + 1) > _BLOCK_ENTRIES:
        return None
    # rows laid out C-ordered, copied once: each E-step then reads them
    # twice, about twice as fast as column by column
    return q, [(lo, cells, cell, delta, np.ascontiguousarray(W), per_cell)
               for lo, cells, cell, delta, W, per_cell in _windows(ys, q)]


def _estep(d: PHDist, ys: np.ndarray, wt: np.ndarray, table=None):
    """Aggregated E-step statistics and the current log-likelihood.

    ``ys`` must be ascending (np.unique output).  ``table`` is a
    ``_poisson_table`` of ``ys`` built at any rate q >= _unif_rate(T); the
    cells, M and its powers all use that q.  Without one, the windows are
    streamed at _unif_rate(T).  Returns (starts, sojourn, jumps, exits,
    loglik); starts/sojourn/exits are per-state sums over the weighted
    sample, jumps is the p x p matrix of expected transition counts.
    """
    pi, T, t = d.pi, d.T, d.exit
    p = d.dim
    if table is None:
        q = _unif_rate(T)
        chunks = _windows(ys, q)
    else:
        q, chunks = table
    # M = I + C / q = [[P, t pi / q], [0, P]], P = I + T / q
    M = np.eye(2 * p)
    M[:p, :p] += T / q
    M[p:, p:] = M[:p, :p]
    M[:p, p:] = np.outer(t, pi) / q
    powers = _nonneg_powers(M, _STEP_DEPTH)
    # M's top rows sum to one, its bottom rows fall short by t / q
    deficit = np.append(np.zeros(p), t / q)
    squarings = _unif_squarings(powers, deficit, int(q * ys[-1]).bit_length())
    span = max(1, _BLOCK_ENTRIES // (4 * p * p))  # anchors held at once

    # G = sum_i wt_i e^{C y_i} / f_i = sum_b (e^{C x_b} / s_b) G_b, G_b the
    # window polynomial sum_k g_bk M^k; the sums run in a fixed order, so
    # they are bitwise repeatable
    G = np.zeros((2 * p, 2 * p))
    loglik = 0.0
    for lo, cells, cell, delta, W, per_cell in chunks:
        for c0 in range(0, cells.size, span):
            m = min(span, cells.size - c0)
            a, z = np.searchsorted(cell, [c0, c0 + m])
            E, logs = _walk(np.eye(2 * p), cells[c0 : c0 + m], squarings)
            # s_b = pi e^{T x_b} e, from the top-left blocks
            alpha = pi @ E[:, :p, :p]
            s = alpha.sum(axis=1)
            alpha /= s[:, None]
            logs += np.log(s)
            E = E.reshape(m, -1) / s[:, None]
            at_cell, w = cell[a:z] - c0, wt[lo + a : lo + z]
            for sub, Wg, f, done, pw in _window_groups(
                    alpha, powers[: _WINDOW_DEPTH + 1], t, delta[a:z], at_cell, W[a:z]):
                at, wd = at_cell[sub], w[sub] * done
                c = np.divide(wd, f, out=np.zeros(f.size), where=done)
                with np.errstate(divide="ignore"):
                    logf = np.log(f, out=np.zeros(f.size), where=done)
                loglik += float(logf @ wd) + float(logs @ np.bincount(at, wd, m))
                # per cell: g_bk = sum of c_i W_ik over the cell's points;
                # a group of all the chunk's points has the chunk's cells
                S = per_cell if f.size == cell.size else _per_cell(at, m)
                S.data = c
                g = S @ Wg
                H = (g.T @ E).reshape(-1, 2 * p, 2 * p)
                G += np.matmul(H, pw).sum(axis=0)
    G11, U = G[:p, :p], G[:p, p:]
    starts = pi * (G11 @ t)
    exits = t * (pi @ G11)
    sojourn = np.diag(U).copy()
    jumps = T * U.T
    return starts, sojourn, jumps, exits, loglik


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

    table = None

    def estep(d):
        nonlocal table
        rate = _unif_rate(d.T)
        if table is None or not table[0] / 2 <= rate <= table[0]:
            table = None  # free the old buffer before the next is built
            table = _poisson_table(uy, _TABLE_MARGIN * rate)
        return _estep(d, uy, wt, table)

    trace: list[float] = []
    notes: list[str] = []
    converged = False
    iters = 0
    for _ in range(config.max_iters):
        starts, sojourn, jumps, exits, ll = estep(current)
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
        *_, ll = estep(current)
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
