"""Dense matrix-function kernel.

Provides the matrix exponential, real-base matrix powers, the principal
logarithm of a negated sub-intensity matrix, evaluation of general analytic
functions of a matrix, and the matrix upper incomplete gamma function.

The generic evaluator :func:`mat_fun` realizes the Cauchy-integral
definition

    h(A) = (1/2пi) oint h(z) (zI - A)^{-1} dz

through a Schur-Parlett scheme: reduce A to complex triangular form, apply
``h`` on the diagonal, and recover the off-diagonal part by the Parlett
block recurrence.  Eigenvalues closer to each other than ``1e-7 * ||A||``
are grouped into one block which is evaluated by a local Taylor expansion;
that is what makes repeated-eigenvalue (Erlang-like) representations work,
where the recurrence alone would divide by zero.

All operations are pure functions of their arguments; matrices are dense
and of order at most 128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.linalg.lapack import ztrexc

from .errors import (
    DomainError,
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
    if not np.all(np.isfinite(A)):
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
    diag = np.diag(T)
    if np.any(diag >= 0):
        i = int(np.argmax(diag >= 0))
        raise ValidationError(f"{name}: diagonal entry ({i},{i}) = {diag[i]} must be negative")
    off = T - np.diag(diag)
    if np.any(off < 0):
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        raise ValidationError(
            f"{name}: off-diagonal entry ({i},{j}) = {T[i, j]} must be nonnegative"
        )
    row_sums = T.sum(axis=1)
    slack = 1e-12 * max(1.0, float(np.max(-diag)))
    if np.any(row_sums > slack):
        i = int(np.argmax(row_sums))
        raise ValidationError(f"{name}: row {i} sums to {row_sums[i]} > 0")
    try:
        x = np.linalg.solve(-T, np.ones(p))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is singular: {exc}") from exc
    if not np.all(x > 0):
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


def complex_quad(fun, a, b, **kwargs):
    """Adaptive quadrature of a complex-valued integrand on a real interval."""
    opts = {"limit": 200, "epsabs": 1e-13, "epsrel": 1e-11}
    opts.update(kwargs)
    re, _ = quad(lambda t: fun(t).real, a, b, **opts)
    im, _ = quad(lambda t: fun(t).imag, a, b, **opts)
    if im == 0.0:
        return re
    return re + 1j * im


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
    if s <= 0:
        raise DomainError(f"upper incomplete gamma requires s > 0, got {s}")
    return _incomplete_gamma(s, scaled=False)


def _incomplete_gamma(s: float, scaled: bool) -> AnalyticFunction:
    """Gamma(., s), or with ``scaled`` L_s(z) = e^s s^{-z} Gamma(z, s).

    L_s(z) = int_0^inf (1+w)^{z-1} e^{-sw} dw is the integral of
    :func:`upper_gamma_function` without its prefactor.
    """
    log_s = math.log(s)
    shift = 0.0 if scaled else log_s
    c = 1.0 / (1.0 + s)  # w = c v: e^{-sw} decays on the unit v scale for large s

    def nth(z, k):
        z = complex(z)

        def integrand(v):
            w = c * v
            return (shift + math.log1p(w)) ** k * (1.0 + w) ** (z - 1.0) * math.exp(-s * w)

        val = c * complex_quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)
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
    return sla.expm(check_square(A))


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
    out = sla.logm(-T)
    out = np.real_if_close(out, tol=1e6)
    if np.iscomplexobj(out):
        out = out.real
    if not np.all(np.isfinite(out)):
        raise SingularMatrixError("matrix logarithm of -T did not converge")
    return out


# ---------------------------------------------------------------------------
# generic analytic matrix functions (Schur-Parlett)
# ---------------------------------------------------------------------------

def _cluster_labels(eigs: np.ndarray, tol: float) -> list[int]:
    """Union-find grouping of eigenvalues closer than ``tol``."""
    n = len(eigs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(eigs[i] - eigs[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    return [find(i) for i in range(n)]


def _reorder_schur(T, Q, labels):
    """Reorder a complex Schur form so equal-label eigenvalues are contiguous.

    Uses unitary similarity swaps (LAPACK ztrexc); returns the reordered
    pair plus the list of diagonal blocks as (start, stop) index pairs.
    """
    n = T.shape[0]
    rank = {}
    for lab in labels:
        rank.setdefault(lab, len(rank))
    target = sorted(labels, key=lambda lab: rank[lab])
    current = list(labels)
    for pos in range(n):
        if current[pos] == target[pos]:
            continue
        idx = pos + 1
        while current[idx] != target[pos]:
            idx += 1
        T, Q, info = ztrexc(T, Q, idx + 1, pos + 1)
        if info != 0:
            raise NonConvergenceError(f"Schur reordering failed (ztrexc info={info})")
        current.insert(pos, current.pop(idx))
    blocks = []
    start = 0
    for i in range(1, n + 1):
        if i == n or current[i] != current[start]:
            blocks.append((start, i))
            start = i
    return T, Q, blocks


def _taylor_atom(Tblk: np.ndarray, h: AnalyticFunction) -> np.ndarray:
    """Evaluate h on one triangular diagonal block with clustered eigenvalues.

    Taylor expansion about the cluster mean; with exactly repeated
    eigenvalues the shifted block is nilpotent and the series terminates
    after the block size, otherwise the cluster radius (below the
    clustering threshold by construction) makes the remainder negligible.
    """
    m = Tblk.shape[0]
    sigma = complex(np.mean(np.diag(Tblk)))
    if m == 1:
        return np.array([[h(sigma)]], dtype=complex)
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

    Schur-Parlett with confluent-cluster handling; see the module
    docstring.  ``h`` must be analytic on a neighborhood of the spectrum.
    """
    A = check_square(A)
    if not isinstance(h, AnalyticFunction):
        h = AnalyticFunction(h)
    n = A.shape[0]
    if n == 1:
        return np.array([[complex(h(A[0, 0])).real]])
    nrm = np.linalg.norm(A, 2)
    if nrm == 0.0:
        return np.eye(n) * complex(h(0.0)).real
    T, Q = sla.schur(A.astype(complex), output="complex")
    labels = _cluster_labels(np.diag(T), CLUSTER_RTOL * nrm)
    T, Q, blocks = _reorder_schur(T, Q, labels)

    F = np.zeros_like(T)
    for i0, i1 in blocks:
        F[i0:i1, i0:i1] = _taylor_atom(T[i0:i1, i0:i1], h)

    # Parlett block recurrence: solve T_ii F_ij - F_ij T_jj = C block by block,
    # sweeping superdiagonals outward so every needed block is already known.
    nb = len(blocks)
    for sd in range(1, nb):
        for ib in range(nb - sd):
            jb = ib + sd
            i0, i1 = blocks[ib]
            j0, j1 = blocks[jb]
            C = F[i0:i1, i0:i1] @ T[i0:i1, j0:j1] - T[i0:i1, j0:j1] @ F[j0:j1, j0:j1]
            for kb in range(ib + 1, jb):
                k0, k1 = blocks[kb]
                C += F[i0:i1, k0:k1] @ T[k0:k1, j0:j1]
                C -= T[i0:i1, k0:k1] @ F[k0:k1, j0:j1]
            F[i0:i1, j0:j1] = sla.solve_sylvester(
                T[i0:i1, i0:i1], -T[j0:j1, j0:j1], C
            )

    out = Q @ F @ Q.conj().T
    return out.real


def upper_inc_gamma_mat(A, s: float) -> np.ndarray:
    """Matrix upper incomplete gamma function Gamma(A, s), s > 0.

    Production path is :func:`mat_fun` with the scalar map z -> Gamma(z, s)
    and quadrature derivatives; repeated eigenvalues (Erlang blocks with
    maximal multiplicity) therefore go through the confluent Taylor path.
    """
    if not (s > 0):
        raise DomainError(f"upper incomplete gamma requires s > 0, got {s}")
    return mat_fun(check_square(A), upper_gamma_function(s))
