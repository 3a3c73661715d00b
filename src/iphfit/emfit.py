"""EM fitting of phase-type distributions, on raw or transformed data.

The E-step statistics are the usual conditional expectations of the
latent jump path given an absorption time y: expected starts, sojourn
times, jump counts and exits per state.  All of them reduce to entries of

    e^{Ty},   and   U(y) = int_0^y e^{Tu} t pi e^{T(y-u)} du,

where U(y) is the top-right block of the exponential of the 2p x 2p
matrix C = [[T, t pi], [0, T]], cut to the states pi reaches.  The
anchored uniformization kernel of ``phcore`` evaluates it for the whole
sample at once, with C as its generator: for q at or above the largest
exit rate, M = I + C / q = [[P, t pi / q], [0, P]] (P = I + T/q) is
elementwise nonnegative, and a datum at q y = b + delta (b its anchor
cell, delta < 1) has e^{Cy} = e^{C x_b} e^{C delta / q}.  The anchors
e^{C x_b} / s_b of the occupied cells come from one walk (``_walk``)
over the squarings of the step e^{C/q} (``_unif_setup``), with log s_b
carried beside them, s_b = pi e^{T x_b} e; each datum's window is a
Poisson(delta) mixture of M^k over k <= 20, deeper only where
``_window_groups`` finds that the stated bound on the dropped terms asks
for it.  So

    sum_i wt_i e^{C y_i} / f_i = sum_b (e^{C x_b} / s_b) sum_k g_bk M^k,

g_bk = sum over the cell's data of wt_i Pois(k; delta_i) / (f_i / s_b), a
sum in which nothing under- or overflows, and the log-likelihood is
sum_i wt_i (log(f_i / s_b) + log s_b): finite for a datum whose density
is far below the float range.

Cost.  The rows depend only on q y and any q at or above the largest
exit rate is exact, so a fit builds its N x 21 table of window rows once,
at 1.1 times the rate that asks for it, and reuses it while later rates
stay in [q/2, q]; past the one-buffer budget ``phcore._BLOCK_ENTRIES`` it
keeps its cells, and only the window rows are refilled, block by block,
each iteration.  A kept table also keeps what the iteration would
otherwise recompute from it (``phcore._kept_rows``): the rows' factors in
the depth bound, their largest value per cell, and a block-sparse view
of the rows with the cells as block columns, which shares the rows'
memory.  One iteration is then two passes over the table, one product
with that view for the window sums f and one sparse per-cell sum for the
g_bk, plus a fixed cost of a few dozen products of 2p x 2p matrices: the
powers of M and the squarings of the step, a walk that carries only the
top p rows of each anchor (only those rows of the sum are read), and one
(p x 21 2p) @ (21 2p x 2p) product that folds the windows into it.  Where
one test per cell shows every window done at depth 20, the divisions and
logs run unmasked.  The sums run in a fixed order with fixed BLAS and
sparse products, so a fit is bitwise reproducible for a given input and
BLAS thread count.

The M-step divides aggregated jumps and exits by aggregated sojourn and
renormalizes the starts, all states at once; it never decreases the
log-likelihood.

``fit_transformed`` runs the same machinery on u_i = g^{-1}(x_i) - shift
and reports the log-likelihood on both scales (they differ by the sum of
log-Jacobians).  ``fit_erlang_rate`` is the closed-form one-parameter
baseline, its log-likelihood a closed form too.
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
    _WINDOW_DEPTH,
    PHDist,
    _cells,
    _exp_action,
    _kept_rows,
    _reached,
    _unif_rate,
    _unif_setup,
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
    from scipy.sparse import csr_matrix

    ptr = np.searchsorted(cell, np.arange(m + 1)).astype(np.int32)
    return csr_matrix((np.ones(cell.size), np.arange(cell.size, dtype=np.int32), ptr),
                      shape=(m, cell.size))


def _poisson_table(ys: np.ndarray, q: float):
    """(q, cells, cell, delta, kept, per_cell) for ascending ys: the anchor
    cells of q * ys as from ``_cells``, their Poisson rows at depth
    _WINDOW_DEPTH with the constants ``_kept_rows`` derives from them, and
    the ``_per_cell`` sum.  Past the one-buffer budget _BLOCK_ENTRIES,
    kept and per_cell are None: ``_window_groups`` fills the rows block by
    block, and each block sums its own cells."""
    cells, cell, delta = _cells(ys, q)
    if ys.size * (_WINDOW_DEPTH + 1) > _BLOCK_ENTRIES:
        return q, cells, cell, delta, None, None
    # rows laid out C-ordered, copied once: each E-step reads them twice,
    # through the block-sparse view and the per-cell sum
    W = np.ascontiguousarray(_window_rows(delta, _WINDOW_DEPTH))
    return (q, cells, cell, delta, _kept_rows(W, delta, cell, cells.size),
            _per_cell(cell, cells.size))


def _estep(d: PHDist, ys: np.ndarray, wt: np.ndarray, table=None):
    """Aggregated E-step statistics and the current log-likelihood.

    ``ys`` must be ascending (np.unique output).  ``table`` is a
    ``_poisson_table`` of ``ys`` at any rate q >= _unif_rate(T), by default
    that rate; the kernel's setup uses the same q.  States pi never reaches
    get zero statistics.  Returns (starts, sojourn, jumps, exits, loglik);
    starts/sojourn/exits are per-state sums over the weighted sample, jumps
    is the p x p matrix of expected transition counts.

    Only the top p rows of G = sum_b (e^{C x_b} / s_b) sum_k g_bk M^k are
    read, so the walk carries the top p rows of each anchor, and G is one
    (p x 21 2p) @ (21 2p x 2p) product per depth group.
    """
    pi, T, t = d.pi, d.T, d.exit
    if table is None:
        table = _poisson_table(ys, _unif_rate(T))
    q, cells, cell, delta, kept, per_cell = table
    r = _reached(pi, T)
    if r is not None:
        pi, T, t = pi[r], T[np.ix_(r, r)], t[r]
    p = pi.size
    C = np.zeros((2 * p, 2 * p))
    C[:p, :p] = C[p:, p:] = T
    C[:p, p:] = np.outer(t, pi)
    powers, squarings = _unif_setup(C, q, int(cells[-1]).bit_length())
    span = max(1, _BLOCK_ENTRIES // (2 * p * p))  # anchors held at once

    # G = sum_i wt_i [I 0] e^{C y_i} / f_i = sum_b (e^{C x_b} / s_b) G_b, G_b
    # the window polynomial sum_k g_bk M^k; the sums run in a fixed order,
    # so they are bitwise repeatable
    G = np.zeros((p, 2 * p))
    loglik = 0.0
    for c0 in range(0, cells.size, span):
        m = min(span, cells.size - c0)
        a, z = (0, cell.size) if m == cells.size else np.searchsorted(cell, [c0, c0 + m])
        E, logs = _walk(np.eye(p, 2 * p), cells[c0 : c0 + m], squarings)
        # s_b = pi e^{T x_b} e, from the left blocks
        alpha = pi @ E[:, :, :p]
        s = alpha.sum(axis=1)
        alpha /= s[:, None]
        logs += np.log(s)
        E = (E / s[:, None, None]).transpose(1, 0, 2)  # p x m x 2p
        at_cell, w = cell[a:z] - c0 if c0 else cell[a:z], wt[a:z]
        rows = kept if kept is None or m == cells.size else _kept_rows(
            kept[0][a:z], delta[a:z], at_cell, m)
        for sub, Wg, f, done, pw in _window_groups(
                alpha, powers[: _WINDOW_DEPTH + 1], t, delta[a:z], at_cell, rows):
            wd = w[sub]
            with np.errstate(divide="ignore"):
                if done.all():
                    c, logf = wd / f, np.log(f)
                else:
                    wd = wd * done
                    c = np.divide(wd, f, out=np.zeros(f.size), where=done)
                    logf = np.log(f, out=np.zeros(f.size), where=done)
            loglik += float(logf @ wd) + float(np.take(logs, at_cell[sub]) @ wd)
            # per cell: g_bk = sum of c_i W_ik over the cell's points; a group
            # of all the table's points has the table's sum
            S = per_cell if f.size == cell.size else _per_cell(at_cell[sub], m)
            S.data = c
            # H_k = sum_b g_bk E_b, laid out as one p x (K + 1) 2p row block
            H = np.matmul((S @ Wg).T, E)
            G += H.reshape(p, -1) @ pw.reshape(-1, 2 * p)
    G11, U = G[:, :p], G[:, p:]
    stats = [pi * (G11 @ t), U.diagonal().copy(), T * U.T, t * (pi @ G11)]
    if r is not None:
        for i, x in enumerate(stats):
            stats[i] = np.zeros((d.dim,) * x.ndim)
            stats[i][np.ix_(*(r,) * x.ndim)] = x
    return (*stats, loglik)


def _mstep(d: PHDist, starts, sojourn, jumps, exits, freeze=None):
    """Build the updated representation; ``freeze`` masks degenerate states,
    whose rows keep their rates."""
    p = d.dim
    pi_new = np.maximum(starts, 0.0)
    pi_new /= pi_new.sum()
    live = np.ones(p, dtype=bool) if freeze is None else ~freeze
    stuck = live & ~(sojourn > 0.0)
    if stuck.any():
        raise DegenerateStateError(
            f"state {int(np.argmax(stuck))} has zero expected sojourn time; "
            "cannot update its rates"
        )
    # rates: jumps and exits over sojourn, the diagonal closing each row
    R = np.maximum(jumps, 0.0)
    np.divide(R, sojourn[:, None], out=R, where=live[:, None])
    t = np.maximum(exits, 0.0)
    np.divide(t, sojourn, out=t, where=live)
    R.flat[:: p + 1] = 0.0
    t += R.sum(axis=1)
    R.flat[:: p + 1] = -t
    T = np.where(live[:, None], R, d.T)
    # pi sums to one, the off-diagonal rates are nonnegative and each row
    # closes on its exit rate, so of ph_new's checks only one can fail here:
    # every state must still reach an exit, (-T)^{-1} e > 0
    try:
        reach = np.linalg.solve(-T, np.ones(p))
    except np.linalg.LinAlgError:
        reach = np.zeros(p)
    if not (reach > 0).all():
        raise ValidationError("the EM update left a state that never reaches an exit")
    return PHDist(pi_new, T, np.maximum(-T.sum(axis=1), 0.0), True, np.ones(p))


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
        if freeze.any():
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
    composed = transform if shift == 0.0 else ShiftedTransform(transform, shift)
    result = fit_ph_em(u, config)
    model = tph_new(result.fitted, composed)
    with np.errstate(divide="ignore"):
        log_jac = np.log(np.asarray(transform.jac(xs, 1.0), dtype=float))
    result.loglik_original = result.loglik + float(np.sum(log_jac))
    return model, result


def fit_erlang_rate(data, n: int):
    """Closed-form Erlang(n) rate MLE and its log-likelihood,
    n N log lam + (n - 1) sum log u - lam sum u - N log (n - 1)!."""
    if n < 1 or n != int(n):
        raise ValidationError(f"n must be a positive integer, got {n}")
    ys = _check_data(data)
    n, N, total = int(n), ys.size, float(ys.sum())
    lam = float(n * N / total)
    ll = n * N * math.log(lam) + (n - 1) * float(np.sum(np.log(ys)))
    return lam, ll - lam * total - N * math.lgamma(n)
