"""Modal linear systems: assembly, scaled determinant, solve, evaluators.

For mode k with eigenvalue lam the y-profile Y(y) is a combination of 2n
fundamental solutions in each half of (-a, a), tied together by 4n linear
conditions: n data rows at y = +a (derivative orders chi + delta*j), n data
rows at y = -a (orders q + gamma*j), and 2n matching rows at y = 0 (orders
0..2n-1, upper value minus lower value).  The modes differ only in
rho = lam^(1/(2n)), so every stage works on a stack of modes: a ModeBank
holds one array per quantity whose leading shape is that of lam (a scalar
lam is a stack with no leading axis).

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
from dataclasses import dataclass, replace

import numpy as np

from .roots import FundamentalSystem, characteristic_roots, fundamental_system, unit_values

# ModeBank fields with one entry per mode (the leading axes).
_PER_MODE = ("lam", "rho", "matrix", "rhs", "column_shifts", "column_scales_log",
             "det_scaled", "cond", "coeffs", "solve_residual", "singular")


@dataclass(frozen=True)
class ModeBank:
    """A stack of scaled 4n x 4n modal systems, one array per quantity.

    Every per-mode array has the leading shape of lam.  assemble fills the
    system; solve_modal returns a copy with the solution fields set.  upper
    and lower are the fundamental systems of either half on the unit circle:
    their root angles (theta, is_sin) serve every mode.
    """

    n: int
    lam: np.ndarray
    rho: np.ndarray
    upper: FundamentalSystem
    lower: FundamentalSystem
    matrix: np.ndarray  # (..., 4n, 4n)
    rhs: np.ndarray  # (..., 4n)
    column_shifts: np.ndarray  # (..., 4n)
    column_scales_log: np.ndarray  # (..., 4n)
    row_orders: np.ndarray  # (4n,), shared by every mode
    det_scaled: np.ndarray | None = None
    cond: np.ndarray | None = None
    coeffs: np.ndarray | None = None  # (..., 4n), zero on singular modes
    solve_residual: np.ndarray | None = None  # NaN on singular modes
    singular: np.ndarray | None = None

    def rows(self, index) -> ModeBank:
        """The bank restricted to the modes lam[index]."""
        return replace(self, **{
            name: getattr(self, name)[index]
            for name in _PER_MODE if getattr(self, name) is not None
        })


def assemble(
    *,
    n: int,
    lam,
    a: float,
    gamma: int,
    delta: int,
    q: int,
    chi: int,
    phi_k=None,
    psi_k=None,
) -> ModeBank:
    """Build the scaled modal systems for a scalar or a stack of eigenvalues.

    phi_k / psi_k, shape lam.shape + (n,), are the expansion coefficients of
    the lower / upper boundary data for each mode (default zero).
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("eigenvalue must be positive")
    upper = fundamental_system(characteristic_roots(n, 1.0, "upper"))
    lower = fundamental_system(characteristic_roots(n, 1.0, "lower"))
    # Python's float power, as characteristic_roots computes rho: numpy's
    # vectorised power can differ from it in the last bit.
    rho = np.asarray(lam.astype(object) ** (1.0 / (2 * n)), dtype=float)
    shape = lam.shape + (n,)
    phi_k = np.zeros(shape) if phi_k is None else np.asarray(phi_k, dtype=float)
    psi_k = np.zeros(shape) if psi_k is None else np.asarray(psi_k, dtype=float)
    if phi_k.shape != shape or psi_k.shape != shape:
        raise ValueError(f"boundary coefficients must have shape {shape}")

    n2 = 2 * n
    rho_col = rho[..., None]  # against arrays over columns or rows
    # Column envelope anchors: exp(alpha * shift) is the largest envelope a
    # column attains on its own half.
    alpha_up = rho_col * np.cos(upper.theta)
    alpha_lo = rho_col * np.cos(lower.theta)
    shifts = np.concatenate(
        [np.where(alpha_up > 0, a, 0.0), np.where(alpha_lo < 0, -a, 0.0)], axis=-1)
    scales_log = np.concatenate([alpha_up, alpha_lo], axis=-1) * shifts
    top = chi + delta * np.arange(n)
    bottom = q + gamma * np.arange(n)
    match = np.arange(n2)

    def block(system, y, orders, shift):
        """Rows of the given orders at y against one half's 2n columns."""
        return unit_values(rho[..., None, None], system.theta, system.is_sin, y,
                           orders[:, None], shift[..., None, :])

    matrix = np.zeros(lam.shape + (4 * n, 4 * n))
    matrix[..., :n, :n2] = block(upper, a, top, shifts[..., :n2])
    matrix[..., n:n2, n2:] = block(lower, -a, bottom, shifts[..., n2:])
    matrix[..., n2:, :n2] = block(upper, 0.0, match, shifts[..., :n2])
    matrix[..., n2:, n2:] = -block(lower, 0.0, match, shifts[..., n2:])
    rhs = np.concatenate(
        [psi_k / rho_col**top, phi_k / rho_col**bottom, np.zeros(lam.shape + (n2,))], axis=-1)

    return ModeBank(
        n=n, lam=lam, rho=rho, upper=upper, lower=lower, matrix=matrix, rhs=rhs,
        column_shifts=shifts, column_scales_log=scales_log,
        row_orders=np.concatenate([top, bottom, match]),
    )


def assemble_from_spec(spec, lam, phi_k, psi_k) -> ModeBank:
    return assemble(
        n=spec.n, lam=lam, a=spec.a, gamma=spec.gamma, delta=spec.delta,
        q=spec.q, chi=spec.chi, phi_k=phi_k, psi_k=psi_k,
    )


def scaled_determinant(bank: ModeBank):
    """Determinant of each scaled matrix; same zero set as the raw one."""
    return np.linalg.det(bank.matrix)


def hadamard_row_bound(matrix: np.ndarray):
    """Product of row 2-norms of each matrix; a scale-aware magnitude for |det|."""
    return np.prod(np.linalg.norm(matrix, axis=-1), axis=-1)


def solve_modal(bank: ModeBank, tol_singular: float = 1e-10) -> ModeBank:
    """Direct pivoted solve of every mode that is not singular.

    A mode is singular when its scaled determinant is not finite or falls
    below tol_singular times its own Hadamard row bound, which signals a
    vanishing modal determinant.  Singular modes are flagged in the
    returned bank's singular mask and left unsolved; the caller decides
    whether one is fatal.
    """
    det = scaled_determinant(bank)
    singular = ~np.isfinite(det) | (np.abs(det) < tol_singular * hadamard_row_bound(bank.matrix))
    live = ~singular
    coeffs = np.zeros(bank.rhs.shape)
    coeffs[live] = np.linalg.solve(bank.matrix[live], bank.rhs[live][..., None])[..., 0]
    resid = np.abs(np.einsum("...ij,...j->...i", bank.matrix, coeffs) - bank.rhs)
    denom = np.einsum("...ij,...j->...i", np.abs(bank.matrix), np.abs(coeffs)) + np.abs(bank.rhs)
    rel = np.max(resid / np.maximum(denom, 1e-300), axis=-1)
    return replace(
        bank, det_scaled=det, cond=np.linalg.cond(bank.matrix), coeffs=coeffs,
        solve_residual=np.where(singular, np.nan, rel), singular=singular,
    )


def _half_profiles(bank: ModeBank, system: FundamentalSystem, first: int, y, order):
    """rho^order sum_i coeffs[..., first + i] unit_values(rho, theta_i, ...) at y.

    One basis column at a time, so no temporary is larger than the
    lam.shape + y.shape result.
    """
    lead = bank.rho.shape + (1,) * y.ndim
    rho = bank.rho.reshape(lead)
    total = np.zeros(bank.rho.shape + y.shape)
    for i, (theta, is_sin) in enumerate(zip(system.theta, system.is_sin), start=first):
        shift = bank.column_shifts[..., i].reshape(lead)
        coeff = bank.coeffs[..., i].reshape(lead)
        total += coeff * unit_values(rho, theta, is_sin, y, order, shift)
    return rho**order * total


def stacked_profiles(bank: ModeBank, y, order: int, region: str | None):
    """Y^(order)(y) of every solved mode, shape lam.shape + y.shape.

    With region None each half's representation is evaluated only at
    points on its own half (y = 0 counts as upper), so no envelope is ever
    evaluated where it grows; "upper" or "lower" uses that half's
    representation at every y.  Singular modes read 0.
    """
    y = np.asarray(y, dtype=float)
    n2 = 2 * bank.n
    if region == "upper":
        return _half_profiles(bank, bank.upper, 0, y, order)
    if region == "lower":
        return _half_profiles(bank, bank.lower, n2, y, order)
    flat = y.reshape(-1)
    up = flat >= 0
    out = np.empty(bank.rho.shape + flat.shape)
    out[..., up] = stacked_profiles(bank, flat[up], order, "upper")
    out[..., ~up] = stacked_profiles(bank, flat[~up], order, "lower")
    return out.reshape(bank.rho.shape + y.shape)


def modal_ode_residual(bank: ModeBank, sample_ys) -> float:
    """Max |Y^(2n) + (-1)^n sgn(y) lam Y| / (lam * max|Y|) at the samples."""
    ys = np.asarray(sample_ys, dtype=float)
    lam = bank.lam[..., None]
    y_val = stacked_profiles(bank, ys, 0, None)
    y_top = stacked_profiles(bank, ys, 2 * bank.n, None)
    sgn = np.where(ys >= 0, 1.0, -1.0)
    res = np.abs(y_top + ((-1.0) ** bank.n) * sgn * lam * y_val)
    scale = lam * np.maximum(np.max(np.abs(y_val), axis=-1, keepdims=True), 1e-300)
    return float(np.max(res / scale))


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
