"""Classical (homogeneous) phase-type distributions.

Construction and validation of PH representations, Erlang and mixture
builders, density/survival/moment evaluation, quantiles, and sampling as a
uniformized Gamma mixture.

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

Every law is evaluated by one kernel, anchored uniformization, shared
with the EM E-step; only its step depends on T (``_anchored``).  It runs
on the states pi reaches (``_reached``): a state it never reaches adds
nothing, and left in, a slow one would set the scale of every squaring.
The Markov step, for every T that passes the sign rules of a
sub-intensity matrix: with q just above the largest exit rate
(``_unif_rate``) and P = I + T/q, a point at q x = b + delta lies in the
anchor cell b = floor(q x), at an offset delta < 1, and

    pi e^{Tx} v = s_b sum_k Pois(k; delta) alpha_b P^k v,

with the anchor row alpha_b = pi e^{T b/q} / s_b scaled to sum to one and
log s_b kept beside it (``_walk``, over the squarings of the step
e^{T/q} from ``_unif_squarings``, which keep a slow decay exact to a few
ulp).  Every term is nonnegative, so nothing cancels and the value keeps
its relative accuracy; the distribution function is a positive series of
its own.  The Taylor step, for any other T (matrix-exponential laws):
T = D B D^-1 balanced by ``scipy.linalg.matrix_balance``, and the same
series on P = B/q at q = ||B||_inf, so ||P||_inf <= 1, with each point's
log scale raised by q x.  Its terms are signed, and its relative error
is not bounded by q x eps times the conditioning of the representation:
it grows faster than linearly in x.  On an ME twin of Erlang(4, 2)
(cond(S) = 2.9) the survival function is 1.7e-11 relative off at
x = 50, 1.4e-7 at 150 and 2.0e-5 at 250, and the density at 1000 is
not positive.
Every point then pays a window of the same short depth, 20 terms
(the Chernoff bound puts the Poisson(delta < 1) tail below e^-40), unless
the stated bound on its dropped terms asks for a deeper one
(``_window_groups``): coefficients that grow with k, as for an Erlang law
whose exit lies many steps away, get them.  Nothing under- or overflows
short of one limit, so the log of a density far below the float range
comes out finite: far out on a long chain the squarings themselves
underflow (Erlang(n, 1) past 256 times its mean at n = 20, 64 times at
n = 40 and 60, 16 times at n = 100), and a point there is a DomainError.
Conditioning on X > u (``_condition``) takes the start vector
pi e^{Tu} of every law from the same walk, and reads P(X > u) from its
log scale.

Quantiles, and the inverse primitives of ``iph``, come from one
root-finder, ``_solve_increasing``, at about one evaluation per level
when levels are many.  A geometric ladder brackets every level; one pass
splits each ladder bracket that holds several levels into up to 64
parts (at most one point per level); each level starts from the inverse
monotone (Fritsch-Carlson) cubic through its fine bracket and takes
steps -(h - c)/s at the bracket's secant slope s in y = log x.  Where h'
is monotone across the fine bracket and its two neighbours, twice the
spread rho of their secants about s bounds |1 - h'/s|, so a step lands
within |step| rho of the root, and it is taken without another
evaluation once |step| rho <= rel_tol/2; elsewhere the bracket itself
must close to rel_tol.  The longest step allowed halves each pass, and
the bracket is bisected instead of a longer step, so at 1e-10 a solve
ends within 65 passes past the ladder; a qq plot's levels take about 10.

Sampling uses the same uniformization: X is Gamma(N, rate q), with the step
count N drawn by inverse CDF on the survival rows pi P^n e from
``_nonneg_powers`` (see ``ph_sample``), so no jump chain is walked.

Density, survival, quantiles, sampling and conditioning of Markov laws
run on numpy alone.  Of SciPy this module calls ``block_diag`` (in
``mixture_rep``), ``bsr_matrix`` (in ``_kept_rows``, for the E-step) and
``matrix_balance`` (in ``_anchored``, for the Taylor step), each imported
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConditioningError,
    DomainError,
    UnsupportedRepresentationError,
    ValidationError,
)
from .matfun import (
    MAX_DIM,
    _log_neg,
    check_square,
    check_sub_intensity,
    mat_fun,
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

# uniformization windows: a point at q x = b + delta (b = floor(q x)) sums a
# Poisson(delta) series from the anchor row of its cell b, first over
# k <= _WINDOW_DEPTH, where the Chernoff bound e^-m (e m / K)^K puts the
# Poisson tail below e^-40 for every delta < 1; see _window_groups for
# when a window goes deeper
_WINDOW_DEPTH = 20

# the low table of _walk rescales its entries once after this many levels
# (2^9 entries), then once per level
_RAW_LEVELS = 9

# the anchor step mixes X^k over k <= _STEP_DEPTH (see _unif_squarings);
# the doubling that stacks the powers builds 32 of them with the same
# products as 21
_STEP_DEPTH = 31


# the unit round-off: a window series stops once its bound on the dropped
# terms is at most this share of the kept ones
_EPS = 2.0 ** -53

# Poisson window rows are built and reduced in row blocks of at most this
# many entries (4 MiB of float64), so peak memory does not grow as N x K
_BLOCK_ENTRIES = 1 << 19

# the spacing of the uniforms from Generator.random: every one of them but
# 0 lies above a survival row that sums below this
_UNIFORM_STEP = 2.0 ** -53

# ph_sample's first table: rows per expected step q E X; the probe laws' survival
# rows fell below 2^-53 after about 28 q E X (128 rows at q E X = 4.6, 512 at 13)
_SAMPLE_ROWS = 64

# root finding (_solve_increasing): ladder points per octave, the octaves
# below the start in its first pass (two above), and the most parts a
# ladder bracket is split into
_GRID_PER_OCTAVE = 4
_FIRST_OCTAVES = 8
_FINE_PARTS = 64


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

def _check_start(pi, p: int, markov: bool = True) -> np.ndarray:
    """A start vector of length p as floats.

    A Markov start may not have negative entries, and sums to one within
    1e-12; round-off below zero (down to -1e-15) is clamped to 0.
    """
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    if pi.ndim != 1:
        raise ValidationError("pi must be a vector")
    if pi.shape[0] != p:
        raise ValidationError(f"pi has length {pi.shape[0]} but T is {p}x{p}")
    if markov:
        if (pi < -1e-15).any():
            i = int(np.argmin(pi))
            raise ValidationError(f"pi[{i}] = {pi[i]} is negative")
        pi = np.maximum(pi, 0.0)
        total = pi.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"pi sums to {total}, not 1 (atom at zero not supported)")
    return pi


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
    if markov:
        if exit is not None:
            raise ValidationError("a Markov representation derives its exit vector from T")
        T = check_sub_intensity(T)
        p = T.shape[0]
        pi = _check_start(pi, p)
        t = -T.sum(axis=1)
        t = np.maximum(t, 0.0)  # round-off from row sums
        return PHDist(pi, T, t, True, np.ones(p))

    T = check_square(T)
    p = T.shape[0]
    pi = _check_start(pi, p, markov=False)
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
    dens = _unif_action(pi, T, t, grid)
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
    from scipy.linalg import block_diag

    w = np.asarray(list(weights), dtype=float)
    comps = list(components)
    if w.size != len(comps) or w.size == 0:
        raise ValidationError("weights and components must be nonempty and of equal length")
    if np.any(w < 0):
        raise ValidationError("mixture weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValidationError(f"mixture weights sum to {w.sum()}, not 1")
    T = block_diag(*(c.T for c in comps))
    pi = np.concatenate([wi * c.pi for wi, c in zip(w, comps)])
    if all(c.markov for c in comps):
        return ph_new(pi, T, markov=True)
    return ph_new(pi, T, markov=False, exit=np.concatenate([c.exit for c in comps]))


# ---------------------------------------------------------------------------
# evaluation backends
# ---------------------------------------------------------------------------

def _unif_rate(T: np.ndarray) -> float:
    """Uniformization rate q, just above the largest exit rate, so that
    P = I + T / q is elementwise nonnegative."""
    return 1.0000001 * -float(T.diagonal().min())


def _nonneg_powers(X: np.ndarray, K: int, R0=None, vanished: float = 0.0) -> np.ndarray:
    """R0 X^0, ..., R0 X^K stacked, by doubling: about log2 K products, each
    of the blocks so far, stacked as rows, with the next square.  R0 is the
    identity by default.  For a nonnegative X and R0 and ``vanished`` > 0
    the stack ends early, after the doubling whose last block sums below
    it; with ``vanished`` = 0 it runs to K, so X may be signed (the Taylor
    step of ``_anchored``)."""
    n = X.shape[0]
    R0 = np.eye(n) if R0 is None else R0
    r = R0.shape[0]
    out = np.empty((K + 1, r, n))
    out[0] = R0
    rows = out.reshape(-1, n)
    have, Xh = 1, X
    while True:
        take = min(have, K + 1 - have)
        np.matmul(rows[: take * r], Xh, out=rows[have * r : (have + take) * r])
        have += take
        if have > K or (vanished > 0.0 and out[have - 1].sum() < vanished):
            return out[:have]
        Xh = Xh @ Xh


def _reached(pi: np.ndarray, T: np.ndarray):
    """The states pi reaches through T's off-diagonal entries, ascending,
    or None when it reaches every state (one check when pi has no zero)."""
    if pi.all():
        return None
    seen, links = pi != 0.0, T != 0.0
    while True:
        grown = seen | links[seen].any(axis=0)
        if np.array_equal(grown, seen):
            return None if seen.all() else np.flatnonzero(seen)
        seen = grown


def _cells(xs: np.ndarray, q: float = 1.0):
    """Anchor cells of ascending points xs at rate q: (cells, cell, delta).

    Point i lies in cell b = floor(q xs_i) at offset delta_i = q xs_i - b
    in [0, 1); ``cells`` lists the occupied cells in order, and point i
    lies in cells[cell[i]] (``cell`` is int32, as sparse indices are).  A
    point at q x >= 2^62, whose cell an int64 does not hold, is a
    DomainError.
    """
    qx = q * xs
    if qx.size and not qx[-1] < 2.0 ** 62:
        raise DomainError(
            f"point {xs[-1]} is too far out to uniformize at rate {q:.6g} "
            f"(q x = {qx[-1]:.3e} >= 2^62)")
    b = np.floor(qx)
    delta = qx - b
    b = b.astype(np.int64)
    new = np.empty(b.size, dtype=np.int32)
    new[:1] = 0
    np.not_equal(b[1:], b[:-1], out=new[1:])
    cell = np.cumsum(new, dtype=np.int32)
    return b[np.flatnonzero(np.diff(cell, prepend=-1))], cell, delta


def _unif_squarings(powers: np.ndarray, u: np.ndarray, J: int):
    """The anchor step e^{X - I} and its squarings e^{2^j (X - I)}, j < J.

    ``powers`` stacks X^0..X^K for an n x n X, K = _STEP_DEPTH, and
    u = e - X e >= 0 is its row deficit.  The step is the Poisson(1)
    mixture of those powers; for a nonnegative X (the Markov step) every
    term is nonnegative, and an entry reached in
    d <= 20 jumps keeps its relative accuracy: the paths dropped past K
    weigh about d! / (K + 1)! < 1e-17 of it.  Past n = 21 states the step
    is the 2^s-th power of the Poisson(2^-s) mixture instead, with 2^s
    substeps for every four of the n - 1 jumps a path may need, so that one
    substep takes more than K of them with a chance below 1e-17 (a single
    mixture would drop every Erlang(n > K) path to the last phase).

    Squaring doubles the relative error of every entry, and a slow decay
    lives in how far the row sums fall short of one.  So the deficits
    d = e - A e are carried alongside as nonnegative sums (d' = A d + d),
    and every fourth squaring each row that keeps at least half its mass
    has its largest entry reset so that the row sums to 1 - d: the decay
    then stays within a few dozen ulp of exact over any number of
    squarings.  Returns [(A_j, log c_j)] with A^{2^j} = c_j A_j, rescaled
    by its largest magnitude every fourth squaring once no row keeps half
    its mass; the list for a smaller J is a prefix of it, so
    ``_unif_setup`` may keep the longest.  Only a nonnegative step is reset:
    a signed X (the Taylor step, ||X||_inf <= 1) has no deficit to keep,
    and its squarings are rescaled from the first, their relative error
    growing by about eps per squaring, doubled by each later one.
    """
    n = powers.shape[1]
    s = 0 if n <= 21 else (n - 1).bit_length() - 2
    w, tail = _SUBSTEP_WEIGHTS[s]
    A = (w @ powers.reshape(w.size, -1)).reshape(n, n)
    d = tail @ (powers[:-1] @ u)
    rows = np.arange(n)
    nonneg = (powers[1] >= 0.0).all()
    log_c, out = 0.0, []
    for j in range(s + J):
        if j % 4 == 0:
            big = np.abs(A).max()
            if nonneg and log_c == 0.0 and big >= 0.5 / n:
                top = np.argmax(A, axis=1)
                reset = 1.0 - d - (A.sum(axis=1) - A[rows, top])
                A[rows, top] = np.where(d <= 0.5, reset, A[rows, top])
            elif big > 0.0:
                # no row keeps half its mass now, so resets are over; from
                # a largest entry of one, four squarings stay in range
                A, log_c = A / big, log_c + math.log(big)
        if j >= s:
            out.append((A, log_c))
        if log_c == 0.0:  # a later reset reads d
            d = d + A @ d
        A, log_c = A @ A, 2.0 * log_c
    return out


@np.errstate(divide="ignore", invalid="ignore")
def _walk(X: np.ndarray, cells: np.ndarray, squarings):
    """X e^{b (Y - I)} for every cell b, from the squarings of the step.

    The low l bits of b come from a table of X e^{r (Y - I)} for every
    r < 2^l, built by doubling, with 2^l about twice the number of cells
    (at least 16); the copy of each cell's entry is then multiplied by the
    squaring j for each higher bit j set in b, so a sparse set of far
    cells costs one product per bit, not one per cell passed.  Every
    product is rescaled to absolute values summing to one (its entries,
    for a nonnegative X and step); returns (copies, log scales), the
    copies stacked as (cells, *X.shape).

    The table's first _RAW_LEVELS levels are rescaled once, after the last
    of them.  Their products stay in range: each squaring A_j is at least
    e^{-2^j} I (the step mixes in the identity with weight e^-1, and a
    rescale divides by a largest entry below one) and at most n^7 in
    every entry (four squarings past a rescale to a largest entry of
    one), so the sum of a product of up to nine of them, times X, lies in
    [e^{-511} sum X, n^72 sum X] for n <= 2 MAX_DIM.  A signed X or step
    (a matrix-exponential law's) has no such floor: a product may shrink
    by up to the condition number of e^{2^j (Y - I)}, at most e^{2^{j+1}}
    for ||Y||_inf <= 1, and at most e^{2^j} cond(V)^2 for a Y = V L V^-1
    whose spectrum has real parts in [-1, 0], as an ME law's step does.

    Far out on a long chain the squarings themselves underflow (see
    ``_unif_squarings``), and a product can sum to 0: a cell whose copy
    did is a DomainError, "too far out", as a cell past 2^62 is in
    ``_cells``.
    """
    r, n = X.shape
    l = min(len(squarings), max(int(cells.size).bit_length(), 4))
    low = np.empty((1 << l, r, n))
    low[0] = X
    low_logs = np.zeros(1 << l)
    for j, (A, log_c) in enumerate(squarings[:l]):
        h = 1 << j
        np.matmul(low[:h].reshape(-1, n), A, out=low[h : 2 * h].reshape(-1, n))
        np.add(low_logs[:h], log_c, out=low_logs[h : 2 * h])
        if j >= min(l, _RAW_LEVELS) - 1:
            # every product so far after the last raw level, then each new half
            lo = 1 if j == min(l, _RAW_LEVELS) - 1 else h
            s = np.abs(low[lo : 2 * h]).reshape(2 * h - lo, -1).sum(axis=1)
            low[lo : 2 * h] /= s[:, None, None]
            low_logs[lo : 2 * h] += np.log(s)
    rest = cells & ((1 << l) - 1)
    out, logs = np.take(low, rest, axis=0), np.take(low_logs, rest)
    for j, (A, log_c) in enumerate(squarings[l:], start=l):
        sel = np.flatnonzero((cells >> j) & 1)
        if sel.size:
            Y = (np.take(out, sel, axis=0).reshape(-1, n) @ A).reshape(sel.size, r, n)
            s = np.abs(Y).sum(axis=(1, 2))
            out[sel] = Y / s[:, None, None]
            logs[sel] += np.log(s) + log_c
    if not np.isfinite(logs).all():
        b = cells[np.argmin(np.isfinite(logs))]
        raise DomainError(f"anchor cell {b} is too far out: the squarings "
                          "of the uniformized step underflow before it")
    return out, logs


def _window_rows(delta: np.ndarray, K: int) -> np.ndarray:
    """Poisson(delta) pmf over k = 0..K for each delta in [0, 1].

    Rows of an F-ordered (n, K + 1) array, by the forward recurrence
    w_k = w_{k-1} delta / k from w_0 = e^{-delta}: no term cancels and
    none leaves the float range before delta^k / k! does.  Each column is
    filled in place; a table of the factors delta / k would be one more
    buffer the size of W to fault in on every call.
    """
    W = np.empty((delta.size, K + 1), order="F")
    np.exp(-delta, out=W[:, 0])
    for k in range(1, K + 1):
        np.multiply(W[:, k - 1], delta, out=W[:, k])
        W[:, k] /= k
    return W


def _substep_weights(s: int):
    """Poisson(2^-s) pmf over k <= _STEP_DEPTH, a row of ``_window_rows``,
    and P(k < Pois <= K) for k < K: the weights of an anchor substep and of
    its deficit."""
    w = _window_rows(np.array([2.0**-s]), _STEP_DEPTH)[0]
    return w, np.cumsum(w[::-1])[-2::-1]


# for every order up to 2 MAX_DIM, the size of the E-step's chain
_SUBSTEP_WEIGHTS = [_substep_weights(s) for s in range((2 * MAX_DIM - 1).bit_length())]


def _kept_rows(W: np.ndarray, delta: np.ndarray, cell: np.ndarray, m: int):
    """A kept table's rows and their constants: (W, tail, Z, tail_max).

    W is the C-ordered (n, _WINDOW_DEPTH + 1) table of Poisson rows of
    points in ascending cells ``cell`` (m of them); tail = W[:, K] delta
    is each row's factor in the depth bound of ``_window_groups`` and
    tail_max its largest value per cell.  Z is the n x (21 m) block-sparse
    matrix whose row i holds W_i in block column cell_i, so that
    Z @ vec(a) = sum_k W_ik a_{cell_i, k} for an m x 21 array a; its data
    is W itself, not a copy.
    """
    from scipy.sparse import bsr_matrix

    K = W.shape[1] - 1
    tail = W[:, K] * delta
    Z = bsr_matrix((W.reshape(-1, 1, K + 1), cell, np.arange(cell.size + 1, dtype=np.int32)),
                   shape=(cell.size, m * (K + 1)))
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    return W, tail, Z, np.maximum.reduceat(tail, starts)


def _window_groups(alpha, powers, v, delta, cell, kept=None):
    """Window sums f_i = sum_{k <= K} Pois(k; delta_i) alpha_{cell_i} P^k v.

    ``alpha`` holds one anchor row per cell (absolute values summing to
    one); P^k is the top-left block, as wide as alpha, of X^k, where
    ``powers`` stacks X^0..X^K at K = _WINDOW_DEPTH, and ||X||_inf <= 1.
    alpha, X and v are nonnegative for a Markov law, signed for the Taylor
    step of a matrix-exponential one.  The points go in depth
    groups.  Yields (sub, W, f, done, powers) per group: its points (a
    slice, then ascending indices), their Poisson rows W over k = 0..K,
    the sums f, which of them are final, and X^0..X^K.  The first group is
    every point at K = _WINDOW_DEPTH; a point not done comes back in the
    next group at twice the depth.  Groups are yielded in slices of at
    most _BLOCK_ENTRIES Poisson entries, but for a table ``kept`` (from
    ``_kept_rows``) passed in for the first group.

    Two routes give the first group's sums.  Rows of a kept table, read
    every EM iteration, go through its block-sparse view, one product
    f = Z @ vec(alpha P^k v) for every cell at once.  Fresh rows, built
    F-ordered for one use (evaluation, a streamed E-step, deeper groups),
    take one dense product and a row-wise dot: a C-ordered copy and a
    sparse view of them would cost twice that or more (at 5000 points).

    Depth bound: it needs only ||P||_inf <= 1, so every later coefficient
    alpha P^k v (k > K) is at most S_K max|v| in magnitude, with
    S_K = |alpha| |P^K| e, and the Poisson tail past K is at most
    Pois(K; delta) delta / K, since each term is at most delta / (K + 1)
    times the one before.  A sum is done once that bound on what it drops
    is at most 2^-53 of |f|.  The tail leaves the float range before
    K = 171, so the depth stays below 320, even where a signed sum is 0.
    On a kept table (the E-step's, nonnegative) one test per cell settles
    it first: every sum has f_i >= Pois(0; delta_i) alpha_b v >
    0.36 alpha_b v, so a cell whose largest tail factor passes against
    0.36 alpha_b v has every point done, exactly as the test point by
    point would find.
    """
    if not delta.size:
        return
    p = alpha.shape[1]
    vmax = float(np.abs(v).max())
    K = _WINDOW_DEPTH
    idx = None  # the group's points; None for all of them, the first group
    while True:
        Pk = powers[:, :p, :p]
        cols = Pk @ v  # P^k v, k = 0..K, as rows
        reach = np.abs(alpha) @ (np.abs(Pk[K]).sum(axis=1) * (vmax / K))
        if kept is not None:
            W, tail, Z, tail_max = kept
            coef = alpha @ cols.T  # alpha_b P^k v, one row per cell
            f = Z @ coef.ravel()
            if (tail_max * reach <= _EPS * (0.36 * coef[:, 0])).all():
                yield slice(0, f.size), W, f, np.ones(f.size, dtype=bool), powers
                return
            deep = tail * np.take(reach, cell) > _EPS * f
            yield slice(0, f.size), W, f, ~deep, powers
            deeper = [np.flatnonzero(deep)]
            kept = None
        else:
            n = delta.size if idx is None else idx.size
            rows = max(1, _BLOCK_ENTRIES // (K + 1))
            deeper = []
            for lo in range(0, n, rows):
                # the first group takes its points as slices: no copies
                sub = slice(lo, min(lo + rows, n)) if idx is None else idx[lo : lo + rows]
                W = _window_rows(delta[sub], K)
                at = cell[sub]
                f = np.einsum("ij,ij->i", W @ cols, np.take(alpha, at, axis=0))
                # NaN compares false, so it never asks for a deeper series
                deep = W[:, K] * delta[sub] * np.take(reach, at) > _EPS * np.abs(f)
                yield sub, W, f, ~deep, powers
                deeper.append(lo + np.flatnonzero(deep) if idx is None else sub[deep])
        idx = np.concatenate(deeper)
        if not idx.size:
            return
        K *= 2
        powers = _nonneg_powers(powers[1], K)


# the powers and anchor squarings of the two generators evaluated last,
# the latest first: a quantile solve evaluates one law a few dozen times on
# shrinking sets, and a qq solve alternates its survival chain with the
# cdf's augmented chain
_setups = []


def _unif_setup(T: np.ndarray, q: float, J: int):
    """(P^0..P^K, the anchor squarings j < J) for P = I + T / q; T may be
    any generator with row sums <= 0, the E-step's chain C among them, or
    B - q I with ||B||_inf = q, the Taylor step of ``_anchored``."""
    key = (T.tobytes(), q)
    hit = next((s for s in _setups if s[0] == key and len(s[2]) >= J), None)
    if hit is None:
        powers = _nonneg_powers(np.eye(T.shape[0]) + T / q, _STEP_DEPTH)
        u = np.maximum(-T.sum(axis=1), 0.0) / q
        hit = (key, powers, _unif_squarings(powers, u, J))
    _setups[:] = [hit] + [s for s in _setups if s[0] != key][:1]
    return hit[1], hit[2][:J]


def _anchored(pi, T, xs, v):
    """(P^0..P^K, alpha, v, log scales, cell, delta) for ascending xs, with
    pi e^{Tx} v = s_x sum_k Pois(k; delta) alpha_b P^k v at each point x of
    cell b (``_cells`` at rate q), on the states pi reaches (see
    ``_reached``), and v cut to them.  v may be a vector or a matrix, cut
    and scaled by rows: for v = I the window sum is the row pi e^{Tx}
    itself.  The anchor rows alpha_b, walked by ``_walk``, have absolute
    values summing to one; the log scales log s_x are one per point.

    The step comes from T.  T passing the sign rules of
    ``check_sub_intensity`` (off-diagonal entries >= 0, row sums at most
    1e-12 max(1, -min T_ii)), every Markov law's and the cdf's augmented
    chain among them, takes the Markov step P = I + T/q at q =
    _unif_rate(T).  Any other T takes the Taylor step: balanced as
    T = D B D^-1 by ``scipy.linalg.matrix_balance``, D an exact power-of-two
    diagonal, it runs on pi D and D^-1 v with P = B/q at q = ||B||_inf, so
    that ||P||_inf <= 1, and adds q x to each point's log scale, since
    e^{Bx} = e^{qx} e^{qx (P - I)}.
    """
    r = _reached(pi, T)
    if r is not None:
        pi, T, v = pi[r], T[np.ix_(r, r)], v[r]
    diag = T.diagonal()
    markov_step = (np.count_nonzero(T < 0.0) == np.count_nonzero(diag < 0.0)
                   and T.sum(axis=1).max() <= 1e-12 * max(1.0, -diag.min()))
    if markov_step:
        q = _unif_rate(T)
    else:
        from scipy.linalg import matrix_balance

        B, (scale, _) = matrix_balance(T, permute=False, separate=True)
        q = float(np.abs(B).sum(axis=1).max())
        pi, T, v = pi * scale, B - q * np.eye(B.shape[0]), (v.T / scale).T
    cells, cell, delta = _cells(xs, q)
    powers, squarings = _unif_setup(T, q, int(cells[-1]).bit_length() if cells.size else 0)
    R, logs = _walk(pi[None, :], cells, squarings)
    logs = logs[cell] if markov_step else logs[cell] + q * xs
    return powers, R[:, 0], v, logs, cell, delta


def _unif_action(pi, T, v, xs, log=False):
    """pi e^{Tx} v over the points xs, or its log (-inf where the value is
    not positive).

    A point of anchor cell b at offset delta takes the log scale and the
    anchor row alpha_b from ``_anchored`` and the window series
    sum_k Pois(k; delta) alpha_b P^k v from ``_window_groups``, for the
    Markov step and the Taylor step alike.  No row or sum under- or
    overflows, so the log is finite wherever the value is positive.  For a
    Markov law every term is nonnegative; a matrix-exponential law's terms
    may cancel, and its relative error grows faster than linearly in q x
    (see the module docstring), so far out its values are finite and wrong.
    """
    order = np.argsort(xs)
    powers, alpha, v, logs, cell, delta = _anchored(pi, T, xs[order], v)
    out = np.empty(xs.size)
    for sub, _, f, done, _ in _window_groups(alpha, powers[: _WINDOW_DEPTH + 1], v, delta, cell):
        i, s = order[sub], logs[sub]
        if not done.all():
            i, s, f = i[done], s[done], f[done]
        out[i] = _log(f) + s if log else f * np.exp(s)
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
    return _eval(x, lambda xs: _unif_action(d.pi, d.T, d.exit, xs), (0.0, np.inf))


def ph_sf(d: PHDist, x):
    """Survival probability P(X > x)."""
    return _eval(x, lambda xs: _unif_action(d.pi, d.T, d.close, xs), (0.0, 1.0))


def ph_cdf(d: PHDist, x):
    """Distribution function P(X <= x) = pi~ e^{T~x} e_a.

    T~ = [[T, t], [0, 0]] and pi~ = (pi, 0) add the absorbing state a to
    the representation, for every law (Bladt & Nielsen 2017, ME laws
    included), so the value is one corner entry, not a complement: it is
    0 at x = 0 and keeps its digits where it is tiny.  A Markov law's T~ is
    a generator, so its series is positive.  An ME law's cdf tends to
    pi (-T)^{-1} t, which ``ph_new`` admits within 1e-6 of 1.
    """
    p = d.dim
    T = np.zeros((p + 1, p + 1))
    T[:p, :p] = d.T
    T[:p, p] = d.exit
    pi, e_a = np.append(d.pi, 0.0), np.eye(p + 1)[p]
    return _eval(x, lambda xs: _unif_action(pi, T, e_a, xs), (0.0, 1.0))


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
    return math.gamma(1.0 + theta) * _neg_power_form(d, theta)


def _neg_power_form(d: PHDist, theta: float) -> float:
    """pi (-T)^{-theta} e, the closing vector in e's place: E(X^theta) / Gamma(1 + theta)."""
    return float(d.pi @ mat_fun(-d.T, power_function(-theta)) @ d.close)


def ph_log_moment(d: PHDist) -> float:
    """E(log X) = -gamma - pi log(-T) e."""
    # the identity only needs the ME closing vector in place of e
    return -EULER_GAMMA - float(d.pi @ _log_neg(d.T) @ d.close)


def _condition(base: PHDist, u: float, where: str) -> PHDist:
    """Law of X - u given X > u: start vector pi e^{Tu}, renormalized.

    The row comes from ``_anchored`` at v = I, for every law: the anchor
    row of u's cell times its Poisson(delta) window over P^0..P^K,
    K = _WINDOW_DEPTH (the dropped tail is below e^-40 of the anchor row's
    absolute sum), put back in T's coordinates by the rows of I that
    ``_anchored`` returns (cut to the reached states, and scaled by D^-1
    for the Taylor step), and divided by its survival row @ close.  Conditioning keeps a law valid, so the
    result is built directly.  The walk keeps log P(X > u) finite, so a
    Markov law conditions at any u it reaches; an ME law raises
    DegenerateConditioningError where P(X > u) is not above 1e-300, since
    far out the Taylor step's row is finite and wrong with no signal.
    ``where`` names the caller's conditioning point in the errors raised.
    """
    if not math.isfinite(u):
        raise DomainError(f"conditioning at {where} needs a finite point, got {u}")
    powers, alpha, back, logs, _, delta = _anchored(base.pi, base.T, np.array([u]),
                                                    np.eye(base.dim))
    row = _window_rows(delta, _WINDOW_DEPTH)[0] @ (alpha[0] @ powers[: _WINDOW_DEPTH + 1]) @ back
    sf = float(row @ base.close)
    log_sf = logs[0] + math.log(sf) if sf > 0.0 else -math.inf
    if not (base.markov or log_sf > math.log(1e-300)):
        raise DegenerateConditioningError(
            f"survival at {where} is {math.exp(log_sf):.3e}; conditioning is degenerate"
        )
    return PHDist(row / sf, base.T, base.exit, base.markov, base.close)


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

def _solve_increasing(h, c: np.ndarray, x0: float, fail: Exception, rel_tol: float = 1e-10):
    """Per-entry root of h(x) = c[i] for a nondecreasing, vectorised h on x > 0.

    This is the one monotone root-finder: quantiles (``_tail_points``) and
    the inverse primitives of ``iph`` come from it.  Each pass evaluates h
    once, on a vector.  h(x) < c[i] is "below the root", so infinite
    values of h are allowed.

    Ladder.  Every entry is bracketed on one geometric ladder
    2^(k/_GRID_PER_OCTAVE) around x0: h is evaluated from _FIRST_OCTAVES
    octaves below x0 to two above it in one pass, and a side whose end
    does not yet reach min(c) or max(c) gets as many octaves again as it
    already spans in the next pass, so a level 2^m x0 away costs about
    log2 m passes more.  The first pass reaches further down than up:
    points far above x0 cost the kernel many anchor cells, and there its
    squarings lose long Erlang chains (the survival function of
    Erlang(40, 3) is a DomainError at 60 times its mean).  Nothing limits the
    ladder but the float range, 2^-1074 to 2^(1024 - 1/_GRID_PER_OCTAVE);
    ``fail`` is raised once a side that still falls short has reached its
    end.

    Refinement.  One pass splits each ladder bracket that holds m >= 2
    levels into min(_FINE_PARTS, m + 1) equal parts in y = log x: at most
    one point per level, and none for a bracket of one level, so a
    single-level solve pays no such pass.  Each level then lies in a fine
    bracket of the nodes, of secant slope s = dh/dy, between intervals of
    secants s_l and s_r.

    Start.  The inverse monotone cubic through the fine bracket: y as the
    Hermite cubic in h whose end slopes are the Fritsch-Carlson weighted
    harmonic means of the secants, which keeps it inside the bracket.

    Polish.  Each pass evaluates h at every open entry's point, keeps the
    bracket [a, b] around its root, and takes the step -(h - c) / s in y.
    s is the fine secant at first, then the secant through the entry's
    last two points wherever that lies between s_l and s_r.  Where h' is
    monotone across the three intervals (1/256 octave each once refined)
    it lies between s_l and s_r on the fine bracket, so |1 - h'/s| <=
    rho/2 with rho = 2 max(|s_l - s|, |s_r - s|) / s, and the step lands
    within |step| (rho/2) / (1 - rho/2) <= |step| rho of the root once
    rho <= 1.  (The secants' order is not checked: round-off makes those
    of a nearly linear h wobble, and at a smooth extremum of h' their
    spread still exceeds that of h' over the fine bracket.)  So y + step
    is returned, without another evaluation, when rho <= 1 and
    |step| rho <= rel_tol/2.  Otherwise (rho > 1, or no
    neighbour at the ladder's end) the strict rule holds: the step is
    pushed rel_tol/4 further, so that a step of at most rel_tol/2 that
    crosses the root leaves a bracket narrow enough to close.  An entry
    is done once its bracket is within ``rel_tol`` (at least 2^-52, the
    widest relative gap between floats) of its upper end, or its ends are
    adjacent subnormals; the midpoint is returned then.

    Pass bound.  A step must land inside the bracket and be at most
    w 2^-n long at the n-th polish pass, w the fine bracket's width in y
    (at most ln 2 / 4); otherwise the pass bisects.  After log2(4 w /
    rel_tol) passes no step fits but one rho accepts at once (a pushed
    step is at least rel_tol/4 long), so every pass after that accepts or
    bisects, and a ladder bracket, < 0.16 of its upper end wide, closes
    within 31 bisections at 1e-10: at most 1 + 33 + 31 = 65 polish passes.
    The loop's one exit is when all entries are done.
    """
    rel_tol = max(rel_tol, 2.0 ** -52)
    cmin, cmax = float(np.min(c)), float(np.max(c))
    g = _GRID_PER_OCTAVE
    k_min, k_max = -1074 * g, 1024 * g - 1  # 2^(k/g) is positive and finite
    k0 = min(max(round(g * math.log2(x0)), k_min), k_max)
    lo, hi = max(k0 - _FIRST_OCTAVES * g, k_min), min(k0 + 2 * g, k_max)
    hs = h(np.exp2(np.arange(lo, hi + 1) / g))
    while True:
        short_lo, short_hi = not hs[0] < cmin, not hs[-1] >= cmax
        if not (short_lo or short_hi):
            break
        if (short_lo and lo == k_min) or (short_hi and hi == k_max):
            raise fail
        new_lo = max(2 * lo - k0, k_min) if short_lo else lo
        new_hi = min(2 * hi - k0, k_max) if short_hi else hi
        ext = h(np.exp2(np.r_[new_lo:lo, hi + 1 : new_hi + 1] / g))
        hs = np.concatenate([ext[: lo - new_lo], hs, ext[lo - new_lo :]])
        lo, hi = new_lo, new_hi
    k = np.arange(lo, hi + 1, dtype=float)
    # first node at or above each target; hs may wobble by round-off
    i = np.searchsorted(np.maximum.accumulate(hs), c, side="left")
    held = np.bincount(i, minlength=k.size)
    cuts = np.where(held > 1, np.minimum(held, _FINE_PARTS - 1), 0)  # new nodes per bracket
    if cuts.any():
        at = np.repeat(np.arange(k.size), cuts)
        parts = cuts[at] + 1.0
        part = np.arange(at.size) - np.repeat(np.cumsum(cuts) - cuts, cuts) + 1
        sub = k[at] - 1.0 + part / parts
        hs = np.insert(hs, at, h(np.exp2(sub / g)))
        k = np.insert(k, at, sub)
        i = np.searchsorted(np.maximum.accumulate(hs), c, side="left")
    x = np.exp2(k / g)
    y = np.log(x)  # of the float evaluated, subnormals included
    with np.errstate(invalid="ignore", divide="ignore"):
        dh = np.diff(hs)
        sec = np.r_[np.nan, dh / np.diff(y), np.nan]
        dh = np.r_[np.nan, dh, np.nan]
        a, b = x[i - 1], x[i]
        s, s_l, s_r = sec[i], sec[i - 1], sec[i + 1]
        # Fritsch-Carlson slopes of y(h) at the bracket ends, as ratios to its secant
        w, w_l, w_r = dh[i], dh[i - 1], dh[i + 1]
        r_l, r_r = s_l / s, s_r / s
        m_a = 3.0 * (w + w_l) / ((2.0 * w + w_l) * r_l + w + 2.0 * w_l)
        m_b = 3.0 * (w + w_r) / (2.0 * w_r + w + (w_r + 2.0 * w) * r_r)
        m_a = np.where((r_l > 0.0) & np.isfinite(m_a), m_a, 1.0)
        m_b = np.where((r_r > 0.0) & np.isfinite(m_b), m_b, 1.0)
        t = (c - hs[i - 1]) / w
        t = t + t * (1.0 - t) * ((1.0 - t) * (m_a - 1.0) - t * (m_b - 1.0))
        start = np.exp(y[i - 1] + t * (y[i] - y[i - 1]))
    x = np.where(np.isfinite(s), np.clip(start, a, b), 0.5 * (a + b))
    lim = y[i] - y[i - 1]  # the longest step allowed; it halves every pass

    out = np.empty_like(c)
    idx = np.arange(c.size)
    y_last = f_last = None  # each entry's previous point and value
    while True:
        f = h(x) - c
        below = f < 0.0
        a = np.where(below, x, a)
        b = np.where(below, b, x)
        yx = np.log(x)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            if y_last is not None:
                # the secant through the last two points, where it keeps rho's bound
                fresh = (f - f_last) / (yx - y_last)
                s = np.where(((s_l - fresh) * (s_r - fresh) <= 0.0) & (fresh > 0.0), fresh, s)
            rho = 2.0 * np.maximum(abs(s_l - s), abs(s_r - s)) / s
            trusted = rho <= 1.0
            step = -f / s
            # an untrusted step goes a quarter tolerance past where it aims
            step = np.where(trusted, step, step + np.where(below, 0.25, -0.25) * rel_tol)
            nxt = x + x * np.expm1(step)
            lands = trusted & (abs(step) * rho <= 0.5 * rel_tol)
        closed = b - a <= rel_tol * b + 2.0 ** -1074
        done = lands | closed
        if done.any():
            out[idx[done]] = np.where(lands, np.clip(nxt, a, b), 0.5 * (a + b))[done]
            keep = ~done
            idx, c, a, b, x, nxt, f, yx = (v[keep] for v in (idx, c, a, b, x, nxt, f, yx))
            step, s, s_l, s_r, lim = (v[keep] for v in (step, s, s_l, s_r, lim))
        if not idx.size:
            return out
        y_last, f_last = yx, f
        lim = 0.5 * lim
        fits = (abs(step) <= lim) & (a < nxt) & (nxt < b)
        x = np.where(fits, nxt, 0.5 * (a + b))


def ph_quantile(d: PHDist, q, rel_tol: float = 1e-10):
    """Quantile to ``rel_tol`` relative (see ``_solve_increasing``).

    The levels go through ``_tail_points``: below 1/2 they solve
    log ph_cdf(x) = log q, the rest -log ph_sf(x) = -log(1 - q), so
    neither tail loses its digits to 1 - q rounding.  Level 0 gives 0.
    """
    q_arr = np.asarray(q, dtype=float)
    scalar = q_arr.ndim == 0
    q_arr = np.atleast_1d(q_arr)
    if np.any(~((q_arr >= 0) & (q_arr < 1))):
        raise DomainError("quantile level must lie in [0, 1)")
    out = np.zeros_like(q_arr)
    inner = q_arr > 0.0
    if inner.any():
        out[inner] = _tail_points(d, q_arr[inner], False, rel_tol)
    return float(out[0]) if scalar else out


def _tail_points(d: PHDist, lv: np.ndarray, upper: bool, rel_tol: float = 1e-10):
    """Points x with P(X > x) = lv if ``upper``, else P(X <= x) = lv, for
    levels in (0, 1).

    A level below 1/2 is solved on the log of its own tail, a level at or
    above it on the log of the other tail at 1 - lv, which is exact there:
    log ph_cdf(x) = log c or -log ph_sf(x) = -log c, with c <= 1/2 the
    level of the tail solved on, so no level loses its digits to a
    complement (ph_cdf is only called where its level is below 1/2).  Each
    tail goes through ``_solve_increasing`` at once, from the mean.
    """
    small = lv < 0.5
    c = np.where(small, lv, 1.0 - lv)
    on_cdf = small != upper
    out = np.empty_like(lv)
    x0 = ph_mean(d)
    fail = DomainError("quantile bracket did not close; level too extreme")
    if on_cdf.any():
        out[on_cdf] = _solve_increasing(
            lambda x: _log(ph_cdf(d, x)), np.log(c[on_cdf]), x0, fail, rel_tol)
    if not on_cdf.all():
        out[~on_cdf] = _solve_increasing(
            lambda x: -_log(ph_sf(d, x)), -np.log(c[~on_cdf]), x0, fail, rel_tol)
    return out


def _log(v: np.ndarray) -> np.ndarray:
    """Natural log with log 0 = -inf, without a divide warning."""
    return np.log(v, out=np.full(v.shape, -np.inf), where=v > 0.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def ph_sample(d: PHDist, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draws of X ~ PH(pi, T) as a uniformized Gamma mixture.

    With q = _unif_rate(T) and P = I + T / q, X is Gamma(N, rate q), where
    the number N >= 1 of uniformized steps up to absorption has
    P(N > n) = S_n = pi P^n e.  Each table of rows S_0, ..., S_M is
    ``_nonneg_powers`` from its start row, and ends at the first row below
    2^-53, the spacing of the uniforms, or at its row count.  The first
    starts from pi with the power of two at or above _SAMPLE_ROWS q E X
    rows, at most the cap (the largest power of two of rows whose p columns
    fit _BLOCK_ENTRIES).  One ``searchsorted`` draws N = max(1, #{n : S_n > U})
    for uniforms U, and one ``gamma`` call draws X.

    Row rule: a draw continues past the table exactly when its U lies
    below S_M: a U of 0, or, in a table ended by its row count (stiff
    laws), any U below S_M.  Such a draw takes Gamma(M, rate q) for its
    first M steps and draws the rest the same way from the next table: it
    starts from pi P^M scaled to sum to one (the law given N > M), with
    twice the rows up to the cap, and so on.  The draws are exact for every
    Markov law; memory is O(count) plus one table at a time, the first of
    fewer than 2 _SAMPLE_ROWS q E X rows and none past _BLOCK_ENTRIES floats,
    with S written over rows of its own table once they are summed.
    """
    if not d.markov:
        raise UnsupportedRepresentationError(
            "sampling requires a Markov representation (markov=True)"
        )
    if count < 0:
        raise DomainError("count must be nonnegative")
    p = d.dim
    q = _unif_rate(d.T)
    P = np.eye(p) + d.T / q
    # a power of two, so the doubling stops exactly there
    cap = 1 << ((_BLOCK_ENTRIES // p).bit_length() - 1)
    rows = 1 << (math.ceil(min(_SAMPLE_ROWS * q * ph_mean(d), cap)) - 1).bit_length()
    start = d.pi[None, :]
    x = todo = None  # the draws, and the indices of those still going
    while True:
        R = _nonneg_powers(P, rows - 1, start, _UNIFORM_STEP)[:, 0]
        # -S_n goes into the table's own buffer at flat index n, over rows
        # already summed, in blocks of 1/8 of a full table: S takes no
        # second table's worth of memory
        flat, block = R.reshape(-1), np.empty(min(R.shape[0], _BLOCK_ENTRIES // 8))
        for lo in range(0, R.shape[0], block.size):
            sums = R[lo : lo + block.size].sum(axis=1, out=block[: R.shape[0] - lo])
            small = np.flatnonzero(sums < _UNIFORM_STEP)
            if small.size or lo + sums.size == R.shape[0]:
                M = lo + int(small[0]) if small.size else R.shape[0] - 1
                start = R[M : M + 1] / R[M].sum()
                np.negative(sums[: M + 1 - lo], out=flat[lo : M + 1])
                break
            np.negative(sums, out=flat[lo : lo + sums.size])
        # -S_n rises with n (the accumulation irons out round-off)
        neg_S = np.maximum.accumulate(flat[: M + 1], out=flat[: M + 1])
        u = rng.random(count if todo is None else todo.size)
        # N = #{n <= M : S_n > U}
        N = np.searchsorted(neg_S, np.negative(u, out=u), side="left")
        del R, flat, neg_S, block, sums  # so the next table is not built beside this one
        cont = np.flatnonzero(N == M + 1)
        # the shapes, written over the spent uniforms
        np.clip(N, 1, M, out=u)
        del N
        if todo is None:
            x, todo = rng.gamma(u, 1.0 / q), cont
        else:
            x[todo] += rng.gamma(u, 1.0 / q)
            todo = todo[cont]
        if not todo.size:
            return x
        rows = min(2 * rows, cap)
