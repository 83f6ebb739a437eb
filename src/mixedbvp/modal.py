"""Per-mode linear system: assembly, scaled determinant, solve, evaluators.

For mode k with eigenvalue lam the y-profile Y(y) is a combination of 2n
fundamental solutions in each half of (-a, a), tied together by 4n linear
conditions: n data rows at y = +a (derivative orders chi + delta*j), n data
rows at y = -a (orders q + gamma*j), and 2n matching rows at y = 0 (orders
0..2n-1, upper value minus lower value).

Conditioning is managed analytically rather than numerically:

  * every row of derivative order o is divided by rho^o = lam^(o/(2n)),
  * every column is divided by the largest exponential envelope its basis
    function attains on its own half-interval, exp(alpha * y_shift).

All scaled entries then have magnitude <= 1 for any mode index, the scaled
determinant keeps exactly the zero set of the raw one (the extracted scale
factors are strictly positive), and the solved coefficients combine with
re-anchored envelopes exp(alpha*(y - y_shift)) so that evaluation never
forms an overflowing intermediate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roots import FundamentalSystem, characteristic_roots, fundamental_system, unit_values


class SingularMode(Exception):
    """The scaled modal determinant vanished (to tolerance) at mode k."""

    def __init__(self, k, det_scaled, threshold):
        self.k = k
        self.det_scaled = det_scaled
        self.threshold = threshold
        super().__init__(
            f"modal system at k={k} is singular: |det|={abs(det_scaled):.3e} "
            f"< threshold {threshold:.3e}"
        )


@dataclass
class ModalSystem:
    """Assembled, scaled 4n x 4n system for one mode."""

    k: int | None
    lam: float
    rho: float
    n: int
    a: float
    gamma: int
    delta: int
    q: int
    chi: int
    upper: FundamentalSystem
    lower: FundamentalSystem
    matrix: np.ndarray
    rhs: np.ndarray
    column_scales_log: np.ndarray
    column_shifts: np.ndarray
    row_orders: np.ndarray

    @property
    def size(self) -> int:
        return 4 * self.n


def assemble(
    *,
    n: int,
    lam: float,
    a: float,
    gamma: int,
    delta: int,
    q: int,
    chi: int,
    phi_k=None,
    psi_k=None,
    k: int | None = None,
) -> ModalSystem:
    """Build the scaled modal system for one mode.

    phi_k / psi_k are the n expansion coefficients of the lower / upper
    boundary data for this mode (default zero).
    """
    upper = fundamental_system(characteristic_roots(n, lam, "upper"))
    lower = fundamental_system(characteristic_roots(n, lam, "lower"))
    rho = upper.rootset.rho
    phi_k = np.zeros(n) if phi_k is None else np.asarray(phi_k, dtype=float)
    psi_k = np.zeros(n) if psi_k is None else np.asarray(psi_k, dtype=float)
    if len(phi_k) != n or len(psi_k) != n:
        raise ValueError("boundary coefficient vectors must have length n")

    n2 = 2 * n
    # Column envelope anchors: exp(alpha * shift) is the largest envelope a
    # column attains on its own half.
    alpha_up = rho * np.cos(upper.theta)
    alpha_lo = rho * np.cos(lower.theta)
    shifts = np.concatenate([np.where(alpha_up > 0, a, 0.0), np.where(alpha_lo < 0, -a, 0.0)])
    scales_log = np.concatenate([alpha_up, alpha_lo]) * shifts
    top = chi + delta * np.arange(n)
    bottom = q + gamma * np.arange(n)
    match = np.arange(n2)
    row_orders = np.concatenate([top, bottom, match])

    matrix = np.zeros((4 * n, 4 * n))
    up, lo = slice(None, n2), slice(n2, None)
    matrix[:n, up] = unit_values(rho, upper.theta, upper.is_sin, a, top[:, None], shifts[up])
    matrix[n:n2, lo] = unit_values(rho, lower.theta, lower.is_sin, -a, bottom[:, None], shifts[lo])
    matrix[n2:, up] = unit_values(rho, upper.theta, upper.is_sin, 0.0, match[:, None], shifts[up])
    matrix[n2:, lo] = -unit_values(rho, lower.theta, lower.is_sin, 0.0, match[:, None], shifts[lo])
    rhs = np.concatenate([psi_k / rho**top, phi_k / rho**bottom, np.zeros(n2)])

    return ModalSystem(
        k=k, lam=float(lam), rho=rho, n=n, a=a, gamma=gamma, delta=delta,
        q=q, chi=chi, upper=upper, lower=lower, matrix=matrix, rhs=rhs,
        column_scales_log=scales_log, column_shifts=shifts,
        row_orders=row_orders,
    )


def assemble_from_spec(spec, k: int, lam: float, phi_k, psi_k) -> ModalSystem:
    return assemble(
        n=spec.n, lam=lam, a=spec.a, gamma=spec.gamma, delta=spec.delta,
        q=spec.q, chi=spec.chi, phi_k=phi_k, psi_k=psi_k, k=k,
    )


def scaled_determinant(sys: ModalSystem) -> float:
    """Determinant of the scaled matrix; same zero set as the raw one."""
    return float(np.linalg.det(sys.matrix))


def hadamard_row_bound(matrix: np.ndarray) -> float:
    """Product of row 2-norms; a scale-aware magnitude for |det|."""
    norms = np.linalg.norm(matrix, axis=1)
    return float(np.prod(norms))


@dataclass
class ModalSolution:
    """Solved mode: scaled coefficients plus overflow-safe evaluators."""

    k: int | None
    lam: float
    rho: float
    n: int
    det_scaled: float
    cond: float
    coeffs: np.ndarray
    upper: FundamentalSystem
    lower: FundamentalSystem
    column_shifts: np.ndarray
    solve_residual: float

    def _stack(self, y, order, region):
        one = stacked_profiles(
            self.upper, self.lower, np.array([self.rho]), self.coeffs[None],
            self.column_shifts[None], y, order, region,
        )
        return one[0]

    def upper_value(self, y, order: int = 0):
        return self._stack(y, order, "upper")

    def lower_value(self, y, order: int = 0):
        return self._stack(y, order, "lower")

    def value(self, y, order: int = 0):
        """Y^(order)(y); y = 0 uses the upper-side representation."""
        out = self._stack(y, order, None)
        return float(out) if np.ndim(out) == 0 else out

    def matching_errors(self) -> np.ndarray:
        """|Y^(j)(0+) - Y^(j)(0-)| for j = 0..2n-1."""
        return np.array(
            [
                abs(self.upper_value(0.0, j)[()] - self.lower_value(0.0, j)[()])
                for j in range(2 * self.n)
            ]
        )


def _half_profiles(rho, system: FundamentalSystem, coeffs, shifts, y, order):
    """rho^order sum_i coeffs[:, i] unit_values(rho, theta_i, ...) at y.

    One basis column at a time, so no temporary is larger than the
    (K,) + y.shape result.
    """
    lead = (slice(None),) + (None,) * y.ndim
    rho = rho[lead]
    total = np.zeros(rho.shape[:1] + y.shape)
    for i, (theta, is_sin) in enumerate(zip(system.theta, system.is_sin)):
        total += coeffs[:, i][lead] * unit_values(rho, theta, is_sin, y, order, shifts[:, i][lead])
    return rho**order * total


def stacked_profiles(upper, lower, rho, coeffs, shifts, y, order, region):
    """Y_k^(order)(y) for a stack of K solved modes, shape (K,) + y.shape.

    upper / lower are the fundamental systems of either half (their angles
    do not depend on the mode); rho has shape (K,), coeffs and shifts
    (K, 4n) as solved.  With region None each half's representation is
    evaluated only at points on its own half (y = 0 counts as upper), so
    no envelope is ever evaluated where it grows; "upper" or "lower" uses
    that half's representation at every y.
    """
    y = np.asarray(y, dtype=float)
    n2 = upper.size
    if region == "upper":
        return _half_profiles(rho, upper, coeffs[:, :n2], shifts[:, :n2], y, order)
    if region == "lower":
        return _half_profiles(rho, lower, coeffs[:, n2:], shifts[:, n2:], y, order)
    flat = y.reshape(-1)
    up = flat >= 0
    out = np.empty((len(rho), flat.size))
    out[:, up] = stacked_profiles(upper, lower, rho, coeffs, shifts, flat[up], order, "upper")
    out[:, ~up] = stacked_profiles(upper, lower, rho, coeffs, shifts, flat[~up], order, "lower")
    return out.reshape((len(rho),) + y.shape)


def solve_modal(sys: ModalSystem, tol_singular: float = 1e-10) -> ModalSolution:
    """Direct pivoted solve of the scaled system.

    Raises SingularMode when |det| falls below tol_singular times the
    Hadamard row bound, which signals a vanishing modal determinant.
    """
    det = scaled_determinant(sys)
    bound = hadamard_row_bound(sys.matrix)
    threshold = tol_singular * bound
    if not math.isfinite(det) or abs(det) < threshold:
        raise SingularMode(sys.k, det, threshold)
    coeffs = np.linalg.solve(sys.matrix, sys.rhs)
    resid = np.abs(sys.matrix @ coeffs - sys.rhs)
    denom = np.abs(sys.matrix) @ np.abs(coeffs) + np.abs(sys.rhs)
    rel = float(np.max(resid / np.maximum(denom, 1e-300)))
    return ModalSolution(
        k=sys.k, lam=sys.lam, rho=sys.rho, n=sys.n, det_scaled=det,
        cond=float(np.linalg.cond(sys.matrix)), coeffs=coeffs,
        upper=sys.upper, lower=sys.lower, column_shifts=sys.column_shifts,
        solve_residual=rel,
    )


def modal_ode_residual(solution: ModalSolution, sample_ys) -> float:
    """Max |Y^(2n) + (-1)^n sgn(y) lam Y| / (lam * max|Y|) at the samples."""
    ys = np.asarray(sample_ys, dtype=float)
    n, lam = solution.n, solution.lam
    y_val = solution.value(ys, 0)
    y_top = solution.value(ys, 2 * n)
    sgn = np.where(ys >= 0, 1.0, -1.0)
    res = y_top + ((-1.0) ** n) * sgn * lam * y_val
    scale = lam * max(float(np.max(np.abs(y_val))), 1e-300)
    return float(np.max(np.abs(res)) / scale)


def upper_block_closed_form(n: int, delta: int, lam: float, a: float):
    """Closed-form determinant of the upper-boundary block, even n.

    Returns (log_envelope, bounded_factor): the determinant of the n x n
    block of top-edge rows (orders chi + delta*j, each divided by rho^order)
    against the n basis functions with growing envelopes equals
    exp(log_envelope) * bounded_factor.  The value does not depend on chi:
    only order differences enter through the angle-addition identities.
    """
    if n % 2 != 0:
        raise ValueError("the closed form covers even n only")
    m = n // 2
    rho = float(lam) ** (1.0 / (2 * n))
    thetas = [math.pi * (1 + 2 * r) / (2 * n) for r in range(m)]
    log_env = 2.0 * a * rho * sum(math.cos(t) for t in thetas)
    factor = 1.0
    for t in thetas:
        factor *= math.sin(delta * t)
    for s_idx in range(m):
        for j_idx in range(s_idx + 1, m):
            dj, ds = thetas[j_idx], thetas[s_idx]
            factor *= 4.0 * (1.0 - math.cos(delta * (dj - ds)))
            factor *= 1.0 - math.cos(delta * (dj + ds))
    return log_env, factor


def upper_block_direct(n: int, delta: int, chi: int, lam: float, a: float):
    """Numeric counterpart of upper_block_closed_form from the real assembly.

    Returns (log_envelope, bounded_factor) where bounded_factor is the
    determinant of the scaled block and log_envelope the extracted column
    scales, so exp(log_envelope) * bounded_factor is the raw block
    determinant.
    """
    if n % 2 != 0:
        raise ValueError("the upper block comparison is defined for even n")
    sys = assemble(
        n=n, lam=lam, a=a, gamma=delta, delta=delta, q=0, chi=chi,
    )
    block = sys.matrix[:n, :n]
    log_env = float(np.sum(sys.column_scales_log[:n]))
    return log_env, float(np.linalg.det(block))
