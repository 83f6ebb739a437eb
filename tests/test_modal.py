import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedbvp.modal import (
    assemble,
    hadamard_row_bound,
    modal_ode_residual,
    scaled_determinant,
    solve_modal,
    stacked_profiles,
    upper_block_closed_form,
    upper_block_direct,
)
from mixedbvp.roots import characteristic_roots, fundamental_system

# |det| of the scaled prototype system at lam = 1, a = pi:
# (C+S) - e^(-2Ra)(C-S) with R=1, C=cos(pi)=-1, S=0.
DET_PROTO_K1_API = -(1.0 - math.exp(-2.0 * math.pi))


def proto_system(lam, a=math.pi, phi=0.0, psi=0.0):
    return assemble(n=1, lam=lam, a=a, gamma=1, delta=1, q=0, chi=0,
                    phi_k=[phi], psi_k=[psi])


def closed_form_2x2(lam, a):
    """Independent reduction of the prototype system to two unknowns."""
    R = math.sqrt(lam)
    C, S = math.cos(R * a), math.sin(R * a)
    E = math.exp(-R * a)
    det = (C + S) - E * E * (C - S)
    return R, C, S, E, det


def test_frozen_prototype_determinant():
    det = scaled_determinant(proto_system(1.0))
    assert det == pytest.approx(DET_PROTO_K1_API, abs=1e-14)


def test_determinant_matches_reduction_all_k():
    a = math.pi
    for k in range(1, 51):
        lam = float(k * k)
        det4 = scaled_determinant(proto_system(lam, a))
        det2 = closed_form_2x2(lam, a)[4]
        assert det4 == pytest.approx(det2, rel=1e-12, abs=1e-15)


def test_prototype_solve_against_reduction():
    lam, a = 9.0, 1.25
    phi, psi = 0.7, -0.4
    sol = solve_modal(proto_system(lam, a, phi, psi))
    R, C, S, E, det = closed_form_2x2(lam, a)
    c1h = (psi * (C + S) - phi * E) / det
    c2 = (phi - psi * (C - S) * E) / det
    d1 = c1h * E + c2
    d2 = c1h * E - c2
    assert sol.coeffs == pytest.approx([c1h, c2, d1, d2], rel=1e-12, abs=1e-14)
    ys = np.linspace(-a, a, 41)
    upper = c1h * np.exp(R * (ys - a)) + c2 * np.exp(-R * ys)
    lower = d1 * np.cos(R * ys) + d2 * np.sin(R * ys)
    expect = np.where(ys >= 0, upper, lower)
    assert np.max(np.abs(stacked_profiles(sol, ys, 0, None) - expect)) < 1e-13


def test_unscaled_determinant_against_complex_exponential_basis():
    # Rebuild the raw (unscaled) modal matrix over the complex exponential
    # fundamental system e^(z y) with mpmath and compare determinants.
    # A real conjugate pair (cos, sin) spans the same space as (e^z, e^zbar)
    # with change-of-basis determinant of modulus 1/2, and both regions
    # together always hold 2n - 1 pairs.
    n, lam, a = 2, 7.3, 0.8
    gamma = delta = 1
    q, chi = 1, 0
    sys = assemble(n=n, lam=lam, a=a, gamma=gamma, delta=delta, q=q, chi=chi)
    det_scaled = scaled_determinant(sys)
    rho = lam ** (1.0 / (2 * n))

    mpmath.mp.dps = 40
    lam_mp = mpmath.mpf("7.3")
    a_mp = mpmath.mpf("0.8")

    def region_roots(sign):
        # roots of z^(2n) = sign * lam
        target = sign * lam_mp
        return mpmath.polyroots([1] + [0] * (2 * n - 1) + [-target])

    upper_roots = region_roots((-1) ** (n + 1))
    lower_roots = region_roots((-1) ** n)
    size = 4 * n
    M = mpmath.zeros(size, size)
    for j in range(n):  # upper data rows
        order = chi + delta * j
        for c, z in enumerate(upper_roots):
            M[j, c] = z**order * mpmath.exp(z * a_mp)
    for j in range(n):  # lower data rows
        order = q + gamma * j
        for c, z in enumerate(lower_roots):
            M[n + j, 2 * n + c] = z**order * mpmath.exp(-z * a_mp)
    for j in range(2 * n):  # matching rows at y = 0
        for c, z in enumerate(upper_roots):
            M[2 * n + j, c] = z**j
        for c, z in enumerate(lower_roots):
            M[2 * n + j, 2 * n + c] = -(z**j)
    det_complex = mpmath.det(M)

    pairs = 2 * n - 1
    expected_abs = abs(det_complex) / mpmath.mpf(2) ** pairs
    reconstructed = (
        abs(det_scaled)
        * math.exp(sum(sys.column_scales_log))
        * rho ** sum(sys.row_orders)
    )
    assert float(abs(expected_abs - reconstructed) / expected_abs) < 1e-11


@pytest.mark.parametrize("n,gamma,q,chi", [
    (1, 1, 0, 0),
    (1, 1, 1, 1),
    (2, 1, 1, 0),
    (2, 2, 1, 1),
    (3, 1, 2, 3),
])
def test_solve_reproduces_boundary_and_matching(n, gamma, q, chi):
    lam, a = 43.7, 0.9
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(n)
    psi = rng.standard_normal(n)
    sys = assemble(n=n, lam=lam, a=a, gamma=gamma, delta=gamma, q=q, chi=chi,
                   phi_k=phi, psi_k=psi)
    sol = solve_modal(sys)
    for r in range(n):
        got = float(stacked_profiles(sol, -a, q + gamma * r, "lower"))
        assert got == pytest.approx(phi[r], rel=1e-9, abs=1e-9)
        got = float(stacked_profiles(sol, a, chi + gamma * r, "upper"))
        assert got == pytest.approx(psi[r], rel=1e-9, abs=1e-9)
    rho = lam ** (1.0 / (2 * n))
    for j in range(2 * n):
        err = abs(stacked_profiles(sol, 0.0, j, "upper") - stacked_profiles(sol, 0.0, j, "lower"))
        assert err <= 1e-9 * max(1.0, rho**j)


def test_ode_residual_small():
    sys = assemble(n=2, lam=625.0, a=1.0, gamma=1, delta=1, q=0, chi=0,
                   phi_k=[1.0, 0.3], psi_k=[0.5, -0.2])
    sol = solve_modal(sys)
    ys = np.linspace(-1.0, 1.0, 81)
    assert modal_ode_residual(sol, ys) < 1e-9


def test_no_overflow_at_large_k():
    # raw fundamental solutions overflow near e^(k a); scaled entries must not
    lam = float(2000 ** 4)
    sys = assemble(n=2, lam=lam, a=math.pi, gamma=1, delta=1, q=1, chi=0)
    assert np.all(np.isfinite(sys.matrix))
    assert np.max(np.abs(sys.matrix)) <= 1.0 + 1e-9
    det = scaled_determinant(sys)
    assert np.isfinite(det)


def unit_eval_system(n, lam, a, gamma, q, chi):
    """One mode's scaled matrix, entry by entry from its own BasisFunctions."""
    upper, lower = (fundamental_system(characteristic_roots(n, lam, region))
                    for region in ("upper", "lower"))
    shifts = ([a if f.alpha > 0 else 0.0 for f in upper.functions],
              [-a if f.alpha < 0 else 0.0 for f in lower.functions])

    def row(system, shift, y, order, sign=1.0):
        return [sign * f.unit_eval(y, order, sh) for f, sh in zip(system.functions, shift)]

    n2 = 2 * n
    M = np.zeros((4 * n, 4 * n))
    for j in range(n):
        M[j, :n2] = row(upper, shifts[0], a, chi + gamma * j)
        M[n + j, n2:] = row(lower, shifts[1], -a, q + gamma * j)
    for j in range(n2):
        M[n2 + j, :n2] = row(upper, shifts[0], 0.0, j)
        M[n2 + j, n2:] = row(lower, shifts[1], 0.0, j, -1.0)
    return M


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("gamma", [1, 2])
@pytest.mark.parametrize("high_top", [False, True])
def test_stacked_assembly_matches_unit_eval(n, gamma, high_top):
    # One stacked assemble and solve against per-mode matrices built from
    # BasisFunction.unit_eval and per-matrix numpy linear algebra: exact.
    hi = n if gamma == 1 else 1
    q, chi = (0, hi) if high_top else (hi, 0)
    a = 1.3
    lams = np.array([0.5, 2.0, 37.5, 1e3, 1e6, 1e9, 1e12])
    rng = np.random.default_rng(n)
    phi, psi = rng.standard_normal((2, len(lams), n))
    bank = solve_modal(assemble(n=n, lam=lams, a=a, gamma=gamma, delta=gamma,
                                q=q, chi=chi, phi_k=phi, psi_k=psi))
    assert not bank.singular.any()
    for i, lam in enumerate(lams):
        M = unit_eval_system(n, lam, a, gamma, q, chi)
        np.testing.assert_array_equal(bank.matrix[i], M)
        assert bank.det_scaled[i] == np.linalg.det(M)
        np.testing.assert_array_equal(bank.coeffs[i], np.linalg.solve(M, bank.rhs[i]))
        assert bank.cond[i] == np.linalg.cond(M)


def test_hadamard_bound_dominates():
    sys = assemble(n=2, lam=81.0, a=1.0, gamma=1, delta=1, q=0, chi=0)
    assert hadamard_row_bound(sys.matrix) >= abs(scaled_determinant(sys))


def test_singular_mode_detected():
    # a/pi = 1/2 with the pi/2 phase family: odd modes decay to singular
    a = math.pi / 2
    sys = assemble(n=2, lam=float(7**4), a=a, gamma=1, delta=1, q=1, chi=0,
                   phi_k=[1.0, 0.0], psi_k=[0.0, 0.0])
    sol = solve_modal(sys, tol_singular=1e-6)
    assert sol.singular
    assert abs(sol.det_scaled) < 1e-5
    assert np.all(sol.coeffs == 0.0)


def test_rhs_scaling_matches_row_scaling():
    # a data row of order m is divided by rho^m on both sides
    n, lam, a = 2, 16.0, 1.0
    rho = lam ** 0.25
    sys = assemble(n=n, lam=lam, a=a, gamma=1, delta=1, q=1, chi=0,
                   phi_k=[0.25, 0.0], psi_k=[0.0, 0.0])
    # lower data rows sit at indices n..2n-1 with orders q + gamma*r
    assert sys.rhs[n] == pytest.approx(0.25 / rho**1)
    assert sys.rhs[n + 1] == pytest.approx(0.0)


@pytest.mark.parametrize("delta", [1, 2])
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("lam", [16.0, 1e4])
@pytest.mark.parametrize("a", [1.0, math.pi])
def test_upper_block_closed_form(delta, n, lam, a):
    log_c, factor_c = upper_block_closed_form(n, delta, lam, a)
    log_d, factor_d = upper_block_direct(n, delta, 0, lam, a)
    rel = abs(factor_d * math.exp(log_d - log_c) - factor_c) / abs(factor_c)
    assert rel < 1e-10


def test_upper_block_chi_invariance():
    # the scaled upper-left block determinant does not depend on chi
    n, lam, a = 2, 81.0, 1.3
    base = upper_block_direct(n, 1, 0, lam, a)
    for chi in (1,):
        other = upper_block_direct(n, 1, chi, lam, a)
        assert other[1] == pytest.approx(base[1], rel=1e-10)
        assert other[0] == pytest.approx(base[0], rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    lam=st.floats(min_value=0.5, max_value=1e10),
    a=st.floats(min_value=0.2, max_value=4.0),
)
def test_assembly_always_bounded(n, lam, a):
    sys = assemble(n=n, lam=lam, a=a, gamma=1, delta=1, q=0, chi=0)
    assert np.all(np.isfinite(sys.matrix))
    assert np.max(np.abs(sys.matrix)) <= 1.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2),
    lam=st.floats(min_value=2.0, max_value=1e6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_solve_property(n, lam, seed):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(n)
    psi = rng.standard_normal(n)
    a = 1.1
    sys = assemble(n=n, lam=lam, a=a, gamma=1, delta=1, q=0, chi=0,
                   phi_k=phi, psi_k=psi)
    sol = solve_modal(sys)
    if sol.singular:
        return
    for r in range(n):
        got = float(stacked_profiles(sol, -a, r, "lower"))
        assert got == pytest.approx(phi[r], rel=1e-7, abs=1e-7)
