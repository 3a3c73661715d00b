"""Matrix-function layer against independent high-precision oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iphfit.errors import DomainError, ValidationError
from iphfit.matfun import (
    MAX_DIM,
    AnalyticFunction,
    check_sub_intensity,
    exp_function,
    mat_exp,
    mat_fun,
    mat_log_neg,
    mat_power_base,
    power_function,
    upper_inc_gamma_mat,
)

from oracles import (
    confluent_matfun,
    contour_matfun,
    quad_upper_gamma_matrix,
    random_sub_intensity,
    taylor_expm,
)


def test_mat_exp_matches_high_precision_oracle():
    rng = np.random.default_rng(101)
    for p in (1, 2, 3, 5, 8):
        for _ in range(4):
            T = random_sub_intensity(rng, p)
            got = mat_exp(T)
            want = taylor_expm(T)
            assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_mat_exp_scaled_argument():
    rng = np.random.default_rng(102)
    T = random_sub_intensity(rng, 4)
    for x in (1e-6, 0.1, 1.0, 37.5):
        got = mat_exp(T * x)
        want = taylor_expm(T * x)
        assert np.max(np.abs(got - want)) < 1e-11


def test_mat_exp_commuting_product_property():
    # pairs that commute: polynomials in the same matrix
    rng = np.random.default_rng(103)
    for _ in range(8):
        A = random_sub_intensity(rng, 4)
        B = 0.3 * A + 0.7 * A @ A + 0.1 * np.eye(4)
        lhs = mat_exp(A + B)
        rhs = mat_exp(A) @ mat_exp(B)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))


def test_mat_power_base_multiplicative():
    rng = np.random.default_rng(104)
    for _ in range(8):
        A = random_sub_intensity(rng, 3)
        x, y = rng.uniform(0.2, 3.0, size=2)
        lhs = mat_power_base(x, A) @ mat_power_base(y, A)
        rhs = mat_power_base(x * y, A)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_mat_power_base_rejects_nonpositive_base():
    T = np.array([[-1.0]])
    with pytest.raises(DomainError):
        mat_power_base(0.0, T)
    with pytest.raises(DomainError):
        mat_power_base(-2.0, T)


def test_mat_log_neg_inverts_exp():
    rng = np.random.default_rng(105)
    for p in (2, 4, 8):
        T = random_sub_intensity(rng, p)
        L = mat_log_neg(T)
        assert np.max(np.abs(mat_exp(L) - (-T))) < 1e-8


def test_mat_fun_identity_is_exact():
    rng = np.random.default_rng(106)
    A = random_sub_intensity(rng, 5)
    ident = AnalyticFunction(lambda z: z, lambda z, k: 1.0 if k == 1 else 0.0, name="id")
    got = mat_fun(A, ident)
    assert np.max(np.abs(got - A)) < 1e-13 * max(1.0, np.max(np.abs(A)))


def test_mat_fun_exp_matches_contour_oracle():
    rng = np.random.default_rng(107)
    for p in (2, 3, 5):
        A = random_sub_intensity(rng, p)
        got = mat_fun(A, exp_function())
        want = contour_matfun(A, np.exp).real
        assert np.max(np.abs(got - want)) < 1e-9


def test_mat_fun_power_matches_contour_on_clustered_spectrum():
    # bidiagonal Erlang block: one eigenvalue with maximal multiplicity
    lam = 1.5
    p = 4
    T = np.diag([-lam] * p) + np.diag([lam] * (p - 1), 1)
    a = 0.6
    got = mat_fun(-T, power_function(a))

    def h(z):
        return np.power(z, a)

    want = contour_matfun(-T, h, pad=0.5).real
    assert np.max(np.abs(got - want)) < 1e-8


def test_mat_fun_near_cluster_stability():
    # eigenvalues split by 1e-9: far below the clustering threshold
    eps = 1e-9
    T = np.array([[-1.0, 0.3], [0.0, -1.0 - eps]])
    got = mat_fun(T, exp_function())
    want = taylor_expm(T)
    assert np.max(np.abs(got - want)) < 1e-10


def test_mat_fun_domain_error_carries_eigenvalue():
    T = np.array([[-2.0, 1.0], [0.5, -1.0]])
    bad = AnalyticFunction(lambda z: float("nan"), name="bad")
    with pytest.raises(DomainError):
        mat_fun(T, bad)


def test_analytic_function_finite_difference_fallback():
    # no derivative oracle: repeated eigenvalues force the FD path
    f = AnalyticFunction(lambda z: z**3, name="cube")
    assert abs(f.derivative(2.0, 1) - 12.0) < 1e-4
    assert abs(f.derivative(2.0, 2) - 12.0) < 1e-2
    T = np.array([[-1.0, 1.0], [0.0, -1.0]])
    got = mat_fun(T, f)
    # h(T) for h=z^3 is just T^3
    want = T @ T @ T
    assert np.max(np.abs(got - want)) < 1e-3


def test_upper_inc_gamma_matches_quadrature():
    rng = np.random.default_rng(108)
    for p in (2, 3):
        T = random_sub_intensity(rng, p)
        A = -T  # positive-real spectrum
        s = 0.8
        got = upper_inc_gamma_mat(A, s)
        want = quad_upper_gamma_matrix(A, s)
        denom = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) / denom < 1e-6


def test_upper_inc_gamma_confluent_erlang_block():
    # maximal multiplicity: scalar check against mpmath on the diagonal
    import mpmath

    lam = 2.0
    p = 3
    A = np.diag([lam] * p) - np.diag([lam] * (p - 1), 1)
    s = 1.3
    got = upper_inc_gamma_mat(A, s)
    want = quad_upper_gamma_matrix(A, s)
    assert np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))) < 1e-6
    diag_exact = float(mpmath.gammainc(lam, s))
    assert abs(got[0, 0] - diag_exact) < 1e-9


@pytest.mark.parametrize("s", [1.0, 20.0, 50.0])
def test_upper_inc_gamma_erlang_block_matches_mpmath(s):
    # Erlang(3, 2) sub-intensity block: Gamma(z, s) near z = -2 is of order
    # s^{-3} e^{-s}, far below any absolute quadrature tolerance
    import mpmath

    lam = 2.0
    T = -lam * np.eye(3) + np.diag([lam, lam], 1)
    want = confluent_matfun(T, lambda z: mpmath.gammainc(z, s))
    got = upper_inc_gamma_mat(T, s)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_upper_inc_gamma_rejects_bad_s():
    A = np.array([[1.0]])
    with pytest.raises(DomainError):
        upper_inc_gamma_mat(A, 0.0)


def test_check_sub_intensity_names_the_violation():
    with pytest.raises(ValidationError, match="diagonal"):
        check_sub_intensity(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValidationError, match="off-diagonal"):
        check_sub_intensity(np.array([[-1.0, -0.1], [0.0, -1.0]]))
    with pytest.raises(ValidationError, match="row"):
        check_sub_intensity(np.array([[-1.0, 2.0], [0.0, -1.0]]))
    from iphfit.errors import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        check_sub_intensity(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def _eigvals_verdict(T):
    """The transience rule check_sub_intensity used before: a solve, then
    every eigenvalue in Re < 0.  Where the largest real part is too close
    to 0 for float eigenvalues to tell its sign (a class whose rows sum a
    hair above 0 read as transient in floats), it comes from 30 digits."""
    try:
        np.linalg.solve(T, np.ones(len(T)))
    except np.linalg.LinAlgError:
        return "singular"
    top = float(np.max(np.linalg.eigvals(T).real))
    if abs(top) < 1e-8 * float(np.max(np.abs(T))):
        import mpmath

        with mpmath.workdps(30):
            eigs = mpmath.eig(mpmath.matrix(T.tolist()), left=False, right=False)
            top = float(max(mpmath.re(z) for z in eigs))
    return "transient" if top < 0 else "recurrent"


@st.composite
def sub_intensities(draw):
    """Sub-intensity matrices of order 1..6 with rates over 1e-3..1e2, some
    with a near-closed class: its states exit only by a leak of 1e-10 to
    1e-4 of their rates, or their rows sum to slightly above zero (within
    the row-sum slack), which makes the class recurrent."""
    p = draw(st.integers(1, 6))
    rate = st.sampled_from([1e-3, 1e2]) | st.floats(1e-3, 1e2)
    off = np.array(draw(st.lists(st.just(0.0) | rate, min_size=p * p, max_size=p * p)))
    off = off.reshape(p, p)
    np.fill_diagonal(off, 0.0)
    exits = np.array(draw(st.lists(rate, min_size=p, max_size=p)))
    closed = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    if closed.any():
        kind = draw(st.sampled_from(["leak", "excess"]))
        scale = draw(st.sampled_from([1e-10, 1e-7, 1e-4]))
        off[np.ix_(closed, ~closed)] *= scale if kind == "leak" else 0.0
        exits[closed] *= scale if kind == "leak" else 0.0
        if not off[np.ix_(closed, closed)].any():
            off[np.ix_(closed, closed)] = 1.0 - np.eye(int(closed.sum()))
    T = off - np.diag(off.sum(axis=1) + exits)
    if closed.any() and kind == "excess":
        slack = 1e-12 * max(1.0, float(np.max(-np.diag(T))))
        T[closed, np.flatnonzero(closed)[0]] += 0.2 * slack
        np.fill_diagonal(T, np.minimum(np.diag(T), -1e-3))
    return T


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(T=sub_intensities())
def test_check_sub_intensity_agrees_with_the_eigenvalue_rule(T):
    from iphfit.errors import SingularMatrixError

    want = _eigvals_verdict(T)
    try:
        check_sub_intensity(T)
        got = "transient"
    except SingularMatrixError:
        got = "singular"
    except ValidationError as exc:
        assert "eigenvalue" in str(exc)  # the entries are valid by construction
        got = "recurrent"
    assert got == want


def test_dimension_cap():
    p = MAX_DIM + 1
    T = -np.eye(p)
    with pytest.raises(ValidationError):
        check_sub_intensity(T)


def test_frozen_exp_value():
    # 2x2 [[ -2, 1], [0, -1]]: e^T has (0,1) entry e^{-1} - e^{-2}
    T = np.array([[-2.0, 1.0], [0.0, -1.0]])
    E = mat_exp(T)
    assert abs(E[0, 1] - (math.exp(-1) - math.exp(-2))) < 1e-15
    assert abs(E[0, 0] - math.exp(-2)) < 1e-15
