"""Phase-type numerics written with numpy/scipy only, never with iphfit.

The benchmark draws its inputs and checks the program's outputs with
these, so a change to iphfit can alter neither the inputs nor the yardstick.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla


def exit_vector(T) -> np.ndarray:
    return -np.asarray(T, dtype=float).sum(axis=1)


def expm_action(pi, T, xs, v) -> np.ndarray:
    """pi e^{T x} v for every x, by batched scaling-and-squaring."""
    xs = np.asarray(xs, dtype=float)
    return np.einsum("i,nij,j->n", pi, sla.expm(xs[:, None, None] * T), v)


def ph_pdf(pi, T, xs) -> np.ndarray:
    return expm_action(pi, T, xs, exit_vector(T))


def ph_sf(pi, T, xs) -> np.ndarray:
    return expm_action(pi, T, xs, np.ones(len(pi)))


def ph_quantile(pi, T, levels) -> np.ndarray:
    """Quantiles by 80 bisection steps on the spectral form of the survival."""
    lam, V = np.linalg.eig(T)
    left = np.asarray(pi, dtype=complex) @ V
    right = np.linalg.solve(V, np.ones(len(pi), dtype=complex))

    def sf(x):
        return (np.exp(np.multiply.outer(x, lam)) @ (left * right)).real

    target = 1.0 - np.asarray(levels, dtype=float)
    hi = np.ones_like(target)
    while np.any(sf(hi) > target):
        hi = np.where(sf(hi) > target, 2.0 * hi, hi)
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = sf(mid) > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def stratified_levels(rng, n: int) -> np.ndarray:
    """One uniform level in each of n equal strata.

    The lowest and highest strata are pinned at their midpoints: the
    smallest datum sets the automatic shift and the largest sets the
    uniformization depth, so pinning them keeps the work per seed steady.
    """
    u = rng.random(n)
    u[0] = u[-1] = 0.5
    return (np.arange(n) + u) / n


def rel_err(got, want, floor: float = 1e-300) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return np.inf
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))
