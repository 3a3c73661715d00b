"""Dense matrix-function kernel.

Provides the matrix exponential, real-base matrix powers, the principal
logarithm of a negated sub-intensity matrix, evaluation of general analytic
functions of a matrix, and the matrix upper incomplete gamma function.

The generic evaluator :func:`mat_fun` realizes the Cauchy-integral
definition

    h(A) = (1/2пi) oint h(z) (zI - A)^{-1} dz

through a Schur-Parlett scheme (Davies & Higham 2003): reduce A to complex
triangular form, reorder it by ``ztrsen`` so that eigenvalues closer than
``1e-7 * ||A||`` form contiguous diagonal blocks, evaluate each block by a
local Taylor expansion, which is what makes repeated-eigenvalue
(Erlang-like) representations work, and sweep the block rows from the last,
one triangular Sylvester solve (``ztrsyl``) per row.

All operations are pure functions of their arguments; matrices are dense
and of order at most 128.  SciPy supplies ``expm``, ``logm``, ``schur``
with ``ztrsen`` and ``ztrsyl``, and ``quad``; each is imported in the one
function that calls it, so importing the package loads numpy alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    IntegrationError,
    NonConvergenceError,
    SingularMatrixError,
    ValidationError,
)

__all__ = [
    "MAX_DIM",
    "AnalyticFunction",
    "check_square",
    "check_sub_intensity",
    "complex_quad",
    "exp_function",
    "mat_exp",
    "mat_fun",
    "mat_log_neg",
    "mat_power_base",
    "power_function",
    "upper_gamma_function",
    "upper_inc_gamma_mat",
]

MAX_DIM = 128

# Relative eigenvalue-distance threshold under which a group of eigenvalues
# is treated as one confluent cluster, and the finite-difference step used
# when no derivative oracle is supplied.
CLUSTER_RTOL = 1e-7
FD_STEP = 1e-6
QUAD_RTOL = 1e-12  # every adaptive quadrature's, with no absolute floor


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def check_square(A) -> np.ndarray:
    """Coerce ``A`` to a float array and verify it is square and finite."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValidationError("matrix order must be at least 1")
    if not np.isfinite(A).all():
        raise ValidationError("matrix entries must be finite (no NaN/Inf)")
    return A


def check_sub_intensity(T, name: str = "T") -> np.ndarray:
    """Validate a sub-intensity matrix.

    Requires nonnegative off-diagonal entries, strictly negative diagonal,
    row sums <= 0 (up to round-off slack), invertibility, and all
    eigenvalues in the open left half-plane (every state transient).  As
    -T is a Z-matrix, the last holds exactly when -T is a nonsingular
    M-matrix, that is when x = (-T)^{-1} e is positive, which the solve for
    invertibility already gives.
    """
    T = check_square(T)
    p = T.shape[0]
    if p > MAX_DIM:
        raise ValidationError(f"{name}: order {p} exceeds the supported maximum {MAX_DIM}")
    diag = T.diagonal()
    if (diag >= 0).any():
        i = int(np.argmax(diag >= 0))
        raise ValidationError(f"{name}: diagonal entry ({i},{i}) = {diag[i]} must be negative")
    # the p diagonal entries are negative, so any further one is off it
    if np.count_nonzero(T < 0) > p:
        off = T - np.diag(diag)
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        raise ValidationError(
            f"{name}: off-diagonal entry ({i},{j}) = {T[i, j]} must be nonnegative"
        )
    row_sums = T.sum(axis=1)
    slack = 1e-12 * max(1.0, -float(diag.min()))
    if (row_sums > slack).any():
        i = int(np.argmax(row_sums))
        raise ValidationError(f"{name}: row {i} sums to {row_sums[i]} > 0")
    try:
        x = np.linalg.solve(-T, np.ones(p))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is singular: {exc}") from exc
    if not (x > 0).all():
        raise ValidationError(f"{name}: an eigenvalue has nonnegative real part")
    return T


# ---------------------------------------------------------------------------
# scalar analytic functions with derivative oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticFunction:
    """A scalar analytic function together with its derivatives.

    Parameters
    ----------
    fun : callable
        Evaluation ``z -> h(z)`` for complex ``z``.
    deriv : callable, optional
        Derivative oracle ``(z, k) -> h^(k)(z)`` for ``k >= 1``.  When
        absent, central finite differences with step ``1e-6`` are used;
        those are only trustworthy for low orders, so supply the oracle
        whenever confluent eigenvalue clusters are expected.
    name : str
        Used in error messages.
    """

    fun: Callable[[complex], complex]
    deriv: Callable[[complex, int], complex] | None = None
    name: str = "h"

    def __call__(self, z: complex) -> complex:
        try:
            value = self.fun(z)
        except (ArithmeticError, ValueError) as exc:
            err = DomainError(f"{self.name} is not evaluable at eigenvalue {z}: {exc}")
            err.eigenvalue = z
            raise err from exc
        if not np.all(np.isfinite([value.real if np.iscomplexobj(value) else value])):
            err = DomainError(f"{self.name} is not finite at eigenvalue {z}")
            err.eigenvalue = z
            raise err
        return value

    def derivative(self, z: complex, k: int) -> complex:
        if k == 0:
            return self(z)
        if self.deriv is not None:
            return self.deriv(z, k)
        # central difference fallback, step FD_STEP
        h = FD_STEP
        total = 0.0 + 0.0j
        for j in range(k + 1):
            total += (-1) ** j * math.comb(k, j) * self(z + (k / 2.0 - j) * h)
        return total / h**k


def exp_function() -> AnalyticFunction:
    return AnalyticFunction(np.exp, lambda z, k: np.exp(z), name="exp")


def power_function(a: float) -> AnalyticFunction:
    """The principal power ``z -> z**a`` with exact derivatives.

    Analytic off the branch cut (-inf, 0]; the k-th derivative is
    ``a (a-1) ... (a-k+1) z^{a-k}``.
    """

    def fun(z):
        return np.power(complex(z), a)

    def deriv(z, k):
        coeff = 1.0
        for j in range(k):
            coeff *= a - j
        if coeff == 0.0:
            return 0.0 + 0.0j
        return coeff * np.power(complex(z), a - k)

    return AnalyticFunction(fun, deriv, name=f"z**{a}")


def _quad(fun, a, b, limit=200):
    """int_a^b fun to QUAD_RTOL relative, or an IntegrationError where quad falls short."""
    from scipy.integrate import quad

    val, err, _, *msg = quad(fun, a, b, limit=limit, epsabs=0.0, epsrel=QUAD_RTOL, full_output=1)
    if msg:
        raise IntegrationError("quad: " + " ".join(msg[0].split(".")[0].split()), achieved=err)
    return val


def complex_quad(fun, a, b):
    """int_a^b of a complex-valued integrand, each part by :func:`_quad`."""
    re, im = _quad(lambda t: fun(t).real, a, b), _quad(lambda t: fun(t).imag, a, b)
    return re if im == 0.0 else re + 1j * im


def upper_gamma_function(s: float) -> AnalyticFunction:
    """``z -> Gamma(z, s)``, the upper incomplete gamma function in z.

    Entire in z for s > 0.  With t = s(1 + w), value and derivatives are

        d^k/dz^k Gamma(z, s) = e^{-s} s^z int_0^inf (log s + log1p w)^k
                               (1+w)^{z-1} e^{-sw} dw.

    The integral lacks the factor e^{-s} that puts Gamma(z, s) below any
    absolute tolerance for large s, so adaptive quadrature runs on a
    relative tolerance alone; e^{-s} s^z is applied afterwards as one
    exponential, so neither factor over- or underflows on its own.
    """
    if not (s > 0):
        raise DomainError(f"upper incomplete gamma requires s > 0, got {s}")
    return _incomplete_gamma(s, scaled=False)


def _incomplete_gamma(s: float, scaled: bool) -> AnalyticFunction:
    """Gamma(., s), or with ``scaled`` L_s(z) = e^s s^{-z} Gamma(z, s).

    L_s(z) = int_0^inf (1+w)^{z-1} e^{-sw} dw is the integral of
    :func:`upper_gamma_function` without its prefactor.  It runs in
    x = log(1 + w), where its k-th derivative is

        int_0^inf (shift + x)^k e^{zx - s(e^x - 1)} dx,

    shift = 0, or log s for Gamma(., s) itself.  The factor e^{zx - s(e^x - 1)}
    is at most e^{Re z x}; past the X where s(e^X - 1) reaches
    50 + max(Re z, 0) X (a few fixed-point steps from X = log(1 + 50/s)) it
    is below about e^-50 and falls faster than any exponential, so the
    quadrature covers [0, X].  (In w, a slowly decaying phase, Re z near 0,
    leaves a tail like w^{Re z - 1} that no map of [0, inf) resolves.)
    """
    log_s = math.log(s)
    shift = 0.0 if scaled else log_s

    def nth(z, k):
        z = complex(z)
        grow = max(z.real, 0.0)
        top = math.log1p(50.0 / s)
        for _ in range(4):
            top = math.log1p((50.0 + grow * top) / s)

        def integrand(x):
            return (shift + x) ** k * cmath.exp(z * x - s * math.expm1(x))

        val = complex_quad(integrand, 0.0, top)
        return val if scaled else np.exp(z * log_s - s) * val

    name = f"{'scaled_' if scaled else ''}upper_gamma(., {s})"
    return AnalyticFunction(lambda z: nth(z, 0), nth, name=name)


# ---------------------------------------------------------------------------
# matrix exponential, powers, logarithm
# ---------------------------------------------------------------------------

def mat_exp(A) -> np.ndarray:
    """Matrix exponential e^A.

    Scaling-and-squaring with a degree-13 diagonal Pade approximant and
    norm-based scaling selection (scipy's expm).
    """
    from scipy.linalg import expm

    return expm(check_square(A))


def mat_power_base(x: float, A) -> np.ndarray:
    """Real-base matrix power ``x^A = exp(ln(x) A)`` for x > 0."""
    if not (x > 0):
        raise DomainError(f"matrix power requires a positive base, got {x}")
    return mat_exp(math.log(x) * check_square(A))


def mat_log_neg(T) -> np.ndarray:
    """Principal matrix logarithm of -T for a sub-intensity matrix T.

    All eigenvalues of -T lie in the open right half-plane, so the
    principal branch exists and is real.
    """
    return _log_neg(check_sub_intensity(T))


def _log_neg(T) -> np.ndarray:
    """Real principal logarithm of -T; needs only Re(eig T) < 0, so ME generators qualify."""
    from scipy.linalg import logm

    out = logm(-T)
    out = np.real_if_close(out, tol=1e6)
    if np.iscomplexobj(out):
        out = out.real
    if not np.all(np.isfinite(out)):
        raise SingularMatrixError("matrix logarithm of -T did not converge")
    return out


# ---------------------------------------------------------------------------
# generic analytic matrix functions (Schur-Parlett)
# ---------------------------------------------------------------------------

def _taylor_atom(Tblk: np.ndarray, h: AnalyticFunction) -> np.ndarray:
    """Evaluate h on one triangular diagonal block with clustered eigenvalues.

    Taylor expansion about the cluster mean; with exactly repeated
    eigenvalues the shifted block is nilpotent and the series terminates
    after the block size, otherwise the cluster radius (below the
    clustering threshold by construction) makes the remainder negligible.
    """
    m = Tblk.shape[0]
    sigma = complex(np.mean(np.diag(Tblk)))
    M = Tblk - sigma * np.eye(m)
    F = h(sigma) * np.eye(m, dtype=complex)
    P = np.eye(m, dtype=complex)
    kmax = m + 25 if h.deriv is not None else m + 2
    last = np.inf
    for k in range(1, kmax + 1):
        P = P @ M
        if not P.any():
            return F  # M^k = 0: every later term vanishes, no derivative is needed
        coeff = h.derivative(sigma, k) / math.factorial(k)
        term = coeff * P
        F += term
        last = np.max(np.abs(term))
        if k >= m - 1 and last <= 2e-16 * max(1.0, np.max(np.abs(F))):
            return F
    if h.deriv is not None:
        raise NonConvergenceError(
            f"Taylor evaluation of {h.name} on a {m}x{m} eigenvalue cluster did not converge",
            last_term=float(last),
        )
    return F  # finite-difference fallback: best effort at low order


def mat_fun(A, h: AnalyticFunction) -> np.ndarray:
    """Evaluate the analytic function ``h`` at the matrix ``A``.

    ``h`` must be analytic on a neighborhood of the spectrum.  Clusters are
    the transitively connected classes of |l_i - l_j| <= CLUSTER_RTOL ||A||_2,
    numbered by their first eigenvalue.  One ``ztrsen`` call per cluster
    boundary j moves clusters 0..j of the Schur form T = Q* A Q to the front,
    keeping the order of the selected and of the unselected eigenvalues.
    Block row i, swept from the last, takes F11 from :func:`_taylor_atom` and
    F12 from T11 F12 - F12 T22 = F11 T12 - T12 F22, with F22 already known.
    """
    from scipy.linalg import schur
    from scipy.linalg.lapack import ztrsen, ztrsyl

    A = check_square(A)
    if not isinstance(h, AnalyticFunction):
        h = AnalyticFunction(h)
    n = A.shape[0]
    nrm = np.linalg.norm(A, 2)
    T, Q = schur(A.astype(complex), output="complex")

    eigs = np.diag(T)
    near = np.abs(eigs[:, None] - eigs) <= CLUSTER_RTOL * nrm
    while True:
        closed = near @ near.astype(float) > 0
        if (closed == near).all():
            break
        near = closed
    labels = np.unique(np.argmax(near, axis=1), return_inverse=True)[1].ravel()

    for j in range(labels.max()):
        select = labels <= j
        T, Q, _, _, _, _, info = ztrsen(select, T, Q, job="N")
        if info != 0:
            raise NonConvergenceError(f"Schur reordering failed (ztrsen info={info})")
        labels = np.concatenate([labels[select], labels[~select]])
    bounds = np.concatenate([[0], np.cumsum(np.bincount(labels))])

    F = np.zeros_like(T)
    for i0, i1 in zip(bounds[-2::-1], bounds[:0:-1]):
        F[i0:i1, i0:i1] = F11 = _taylor_atom(T[i0:i1, i0:i1], h)
        if i1 == n:
            continue
        T12 = T[i0:i1, i1:]
        C = F11 @ T12 - T12 @ F[i1:, i1:]
        X, scale, info = ztrsyl(T[i0:i1, i0:i1], T[i1:, i1:], C, isgn=-1)
        if info < 0:
            raise NonConvergenceError(f"Parlett recurrence failed (ztrsyl info={info})")
        F[i0:i1, i1:] = X / scale

    out = Q @ F @ Q.conj().T
    return out.real


def upper_inc_gamma_mat(A, s: float) -> np.ndarray:
    """Matrix upper incomplete gamma function Gamma(A, s), s > 0.

    Production path is :func:`mat_fun` with the scalar map z -> Gamma(z, s)
    and quadrature derivatives; repeated eigenvalues (Erlang blocks with
    maximal multiplicity) therefore go through the confluent Taylor path.
    """
    return mat_fun(A, upper_gamma_function(s))
