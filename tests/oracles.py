"""Independent reference implementations used as ground truth.

Nothing here touches the production numerics: matrix exponentials come
from a high-precision Taylor series, general matrix functions from a
contour quadrature, product integrals from a coarse left-product or a
tight DOP853 solve of the matrix ODE, the EM E-step from the plain K-step
uniformization recurrences, and the scalar family densities are typed in
from their closed forms.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp


# ---------------------------------------------------------------------------
# random representation generators
# ---------------------------------------------------------------------------

def random_sub_intensity(rng, p: int, density: float = 0.7):
    """Random valid sub-intensity matrix with nonzero exit rates."""
    off = rng.uniform(0.1, 1.0, size=(p, p)) * (rng.uniform(size=(p, p)) < density)
    np.fill_diagonal(off, 0.0)
    exit_rates = rng.uniform(0.1, 1.0, size=p)
    T = off.copy()
    np.fill_diagonal(T, -(off.sum(axis=1) + exit_rates))
    return T


def random_probability(rng, p: int):
    w = rng.uniform(0.05, 1.0, size=p)
    return w / w.sum()


# ---------------------------------------------------------------------------
# matrix-function oracles
# ---------------------------------------------------------------------------

def taylor_expm(A, dps: int = 40):
    """Matrix exponential via mpmath's arbitrary-precision expm."""
    A = np.asarray(A, dtype=float)
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.matrix(A.tolist()))
        return np.array([[float(E[i, j]) for j in range(A.shape[1])]
                         for i in range(A.shape[0])])


def contour_matfun(A, h, points: int = 512, pad: float = 1.0):
    """h(A) by trapezoidal Cauchy-integral quadrature on a circle.

    The circle is centered at the eigenvalue centroid with radius covering
    the spectrum plus `pad`; h must be analytic inside it.
    """
    A = np.asarray(A, dtype=complex)
    p = A.shape[0]
    eigs = np.linalg.eigvals(A)
    center = eigs.mean()
    radius = np.max(np.abs(eigs - center)) + pad
    total = np.zeros((p, p), dtype=complex)
    eye = np.eye(p)
    for k in range(points):
        theta = 2.0 * math.pi * k / points
        z = center + radius * complex(math.cos(theta), math.sin(theta))
        dz = radius * complex(-math.sin(theta), math.cos(theta))
        total += h(z) * np.linalg.solve(z * eye - A, eye) * dz
    return total * (2.0 * math.pi / points) / (2.0j * math.pi)


def mp_scaled_upper_gamma(z, a):
    """e^a a^{-z} Γ(z, a) at mpmath's working precision."""
    return mpmath.exp(a) * mpmath.power(a, -z) * mpmath.gammainc(z, a)


def eig_matfun(A, f, dps: int = 50):
    """f(A) = V diag(f(λ)) V⁻¹ from mpmath's eigen-decomposition.

    For A with distinct eigenvalues; ``f`` maps an mpmath number to one.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    with mpmath.workdps(dps):
        E, V = mpmath.eig(mpmath.matrix(A.tolist()))
        F = V * mpmath.diag([f(lam) for lam in E]) * mpmath.inverse(V)
        return np.array([[float(mpmath.re(F[i, j])) for j in range(n)] for i in range(n)])


def confluent_matfun(A, f, dps: int = 50):
    """f(A) = Σₙ f⁽ⁿ⁾(λ) (A − λI)ⁿ / n! for A whose one eigenvalue is λ = A[0, 0].

    The Jordan-block expansion, which terminates because A − λI is
    nilpotent; derivatives by mpmath's ``diff``.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    lam = float(A[0, 0])
    with mpmath.workdps(dps):
        M = mpmath.matrix(A.tolist()) - lam * mpmath.eye(n)
        F, P = mpmath.zeros(n, n), mpmath.eye(n)
        for k in range(n):
            F += mpmath.diff(f, lam, k) / mpmath.factorial(k) * P
            P = P * M
        return np.array([[float(F[i, j]) for j in range(n)] for i in range(n)])


def quad_upper_gamma_matrix(T, s: float, upper: float = 400.0, steps: int = 200001):
    """Entry-wise Simpson quadrature of the defining integral of Γ(T, s).

    Γ(T, s) = ∫_s^∞ u^{T − I} e^{−u} du with u^{T − I} = exp((T − I) log u).
    """
    import scipy.linalg as sla

    T = np.asarray(T, dtype=float)
    p = T.shape[0]
    eye = np.eye(p)
    us = np.linspace(s, upper, steps)
    vals = np.empty((steps, p, p))
    for i, u in enumerate(us):
        vals[i] = sla.expm((T - eye) * math.log(u)) * math.exp(-u)
    h = us[1] - us[0]
    w = np.ones(steps)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.tensordot(w, vals, axes=(0, 0)) * h / 3.0


# ---------------------------------------------------------------------------
# E-step oracle (step-by-step uniformization recurrences)
# ---------------------------------------------------------------------------

def poisson_row(mu: float, K: int):
    """Poisson(mu) pmf at k = 0..K: the mode term from mpmath at 30 digits,
    the rest by ratio products outward from it."""
    m = min(int(mu), K)
    with mpmath.workdps(30):
        wm = float(mpmath.exp(m * mpmath.log(mu) - mu - mpmath.loggamma(m + 1)))
    ks = np.arange(K + 1, dtype=float)
    row = np.empty(K + 1)
    row[m] = wm
    row[m + 1:] = wm * np.cumprod(mu / ks[m + 1:])
    row[:m] = wm * np.cumprod((ks[1 : m + 1] / mu)[::-1])[::-1]
    return row


def recurrence_estep(d, ys, wt):
    """E-step statistics from the K-step recurrences of the uniformized chain.

    With q = 1.05 times the largest exit rate (a different q from the
    production code, whose statistics must not depend on it) and P = I + T/q:
    R_k = pi P^k, C_k = P^k t and S_k = S_{k-1} P + C_{k-1} pi / q (the
    top-right block of the k-th power of [[P, t pi / q], [0, P]]), each run
    one step at a time.  Poisson weights come from ``poisson_row``.
    Returns (starts, sojourn, jumps, exits, loglik).
    """
    pi, T, t = d.pi, d.T, d.exit
    p = T.shape[0]
    ys = np.asarray(ys, dtype=float)
    wt = np.asarray(wt, dtype=float)
    q = 1.05 * float(np.max(-np.diag(T)))
    P = np.eye(p) + T / q
    K = int(q * ys.max() + 12.0 * math.sqrt(q * ys.max()) + 30.0)
    R = np.empty((K + 1, p))
    C = np.empty((K + 1, p))
    R[0], C[0] = pi, t
    for k in range(1, K + 1):
        R[k] = R[k - 1] @ P
        C[k] = P @ C[k - 1]
    W = np.array([poisson_row(q * y, K) for y in ys])
    f = W @ (R @ t)
    g = (wt / f) @ W
    U = np.zeros((p, p))
    S = np.zeros((p, p))
    for k in range(1, K + 1):
        S = S @ P + np.outer(C[k - 1], pi) / q
        U += g[k] * S
    starts = pi * (g @ C)
    exits = t * (g @ R)
    return starts, np.diag(U).copy(), T * U.T, exits, float(np.log(f) @ wt)


# ---------------------------------------------------------------------------
# product-integral oracle (left-product refinement)
# ---------------------------------------------------------------------------

def left_product(path_matrix, s: float, t: float, steps: int):
    """∏ (I + T(u) Δ) over a uniform grid, midpoint-evaluated."""
    grid = np.linspace(s, t, steps + 1)
    h = (t - s) / steps
    A0 = np.asarray(path_matrix(s), dtype=float)
    M = np.eye(A0.shape[0])
    for k in range(steps):
        u = 0.5 * (grid[k] + grid[k + 1])
        M = M @ (np.eye(A0.shape[0]) + h * np.asarray(path_matrix(u), dtype=float))
    return M


def ode_product_integral(path_matrix, s: float, t: float):
    """Solution at t of dM/du = M T(u), M(s) = I, by DOP853 at rtol 1e-13."""
    p = np.asarray(path_matrix(s), dtype=float).shape[0]

    def rhs(u, m):
        return (m.reshape(p, p) @ np.asarray(path_matrix(u), dtype=float)).ravel()

    sol = solve_ivp(rhs, (s, t), np.eye(p).ravel(), method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(p, p)


# ---------------------------------------------------------------------------
# scalar / Erlang closed forms
# ---------------------------------------------------------------------------

def erlang_pdf(n: int, lam: float, u):
    u = np.asarray(u, dtype=float)
    return lam**n * u ** (n - 1) * np.exp(-lam * u) / math.factorial(n - 1)


def erlang_sf(n: int, lam: float, u):
    u = np.asarray(u, dtype=float)
    acc = np.zeros_like(u)
    for k in range(n):
        acc += (lam * u) ** k / math.factorial(k)
    return np.exp(-lam * u) * acc


def log_erlang_pdf(n: int, lam: float, y):
    """Density of e^X − 1 for X ~ Erlang(n, λ)."""
    y = np.asarray(y, dtype=float)
    return (
        lam**n
        / math.factorial(n - 1)
        * (1.0 + y) ** (-lam - 1.0)
        * np.log1p(y) ** (n - 1)
    )


def log_erlang_sf(n: int, lam: float, y):
    y = np.asarray(y, dtype=float)
    acc = np.zeros_like(y)
    for k in range(n):
        acc += (lam * np.log1p(y)) ** k / math.factorial(k)
    return (1.0 + y) ** (-lam) * acc


def gen_erlang_pareto_pdf(rates, y):
    """Partial-fraction density of e^X − 1 for X a sum of distinct-rate
    exponentials."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    for i, li in enumerate(rates):
        coef = 1.0
        for j, lj in enumerate(rates):
            if j != i:
                coef *= lj / (lj - li)
        out += coef * li * (1.0 + y) ** (-li - 1.0)
    return out


def erlang_weibull_pdf(n: int, lam: float, beta: float, y):
    """Density of X^{1/β} for X ~ Erlang(n, λ)."""
    y = np.asarray(y, dtype=float)
    return (
        beta
        * lam**n
        / math.factorial(n - 1)
        * y ** (n * beta - 1.0)
        * np.exp(-lam * y**beta)
    )


def erlang_gumbel_pdf(n: int, lam: float, mu: float, sigma: float, y):
    """Density of μ − σ log X for X ~ Erlang(n, λ)."""
    y = np.asarray(y, dtype=float)
    u = np.exp(-(y - mu) / sigma)
    return lam**n / math.factorial(n - 1) * u**n * np.exp(-lam * u) / sigma


def erlang_gev_pdf(n: int, lam: float, mu: float, sigma: float, xi: float, y):
    """Density of μ + σ(X^{−ξ} − 1)/ξ for X ~ Erlang(n, λ)."""
    y = np.asarray(y, dtype=float)
    w = 1.0 + xi * (y - mu) / sigma
    z = w ** (-1.0 / xi)
    return lam**n / math.factorial(n - 1) * z ** (xi + n) * np.exp(-lam * z) / sigma


# classical p = 1 laws -------------------------------------------------------

def pareto_pdf(alpha: float, c: float, y):
    y = np.asarray(y, dtype=float)
    return (alpha / c) * (1.0 + y / c) ** (-alpha - 1.0)


def pareto_sf(alpha: float, c: float, y):
    y = np.asarray(y, dtype=float)
    return (1.0 + y / c) ** (-alpha)


def weibull_pdf(lam: float, beta: float, y):
    y = np.asarray(y, dtype=float)
    return lam * beta * y ** (beta - 1.0) * np.exp(-lam * y**beta)


def weibull_cdf(lam: float, beta: float, y):
    y = np.asarray(y, dtype=float)
    return 1.0 - np.exp(-lam * y**beta)


def gumbel_pdf(lam: float, mu: float, sigma: float, y):
    y = np.asarray(y, dtype=float)
    u = np.exp(-(y - mu) / sigma)
    return lam * u * np.exp(-lam * u) / sigma


def gumbel_cdf(lam: float, mu: float, sigma: float, y):
    y = np.asarray(y, dtype=float)
    return np.exp(-lam * np.exp(-(y - mu) / sigma))


def gev_pdf(lam: float, mu: float, sigma: float, xi: float, y):
    y = np.asarray(y, dtype=float)
    w = 1.0 + xi * (y - mu) / sigma
    z = w ** (-1.0 / xi)
    return lam * z ** (xi + 1.0) * np.exp(-lam * z) / sigma


def gev_cdf(lam: float, mu: float, sigma: float, xi: float, y):
    y = np.asarray(y, dtype=float)
    w = 1.0 + xi * (y - mu) / sigma
    return np.exp(-lam * w ** (-1.0 / xi))


# ---------------------------------------------------------------------------
# generic quadrature helpers
# ---------------------------------------------------------------------------

def quad_expectation(pdf, fn, lo: float, hi: float, limit: int = 400):
    from scipy.integrate import quad

    val, _ = quad(lambda y: fn(y) * pdf(y), lo, hi, limit=limit)
    return val


def ks_distance(samples, cdf):
    """Two-sided Kolmogorov-Smirnov distance against an exact CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    d_plus = np.max(np.arange(1, n + 1) / n - F)
    d_minus = np.max(F - np.arange(0, n) / n)
    return max(d_plus, d_minus)


def ks_critical(n: int, alpha: float = 0.01) -> float:
    """Asymptotic critical value c(α)/√n."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)
