"""Independent checks on a computed solution field.

Two PDE residual routes: a termwise one that uses the closed-form (or
spectral) derivatives of every factor, and a finite-difference one that
only sees sampled values of the field.  Both are normalized by
lam_max * max|u| so the numbers are comparable across problems.  Boundary
reproduction, interface matching, and (for the second-order prototype) a
closed-form oracle round out the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import central_fd_offsets, fd_weights
from .series import SolutionField


class OracleUnavailable(RuntimeError):
    """No closed-form reference solution for this parameter set."""


_TINY = 1e-300


def _field_normalization(field: SolutionField, umax: float) -> float:
    return field.lam_active_max * max(umax, _TINY)


def _region_grids(field: SolutionField, nx: int, ny: int):
    a = field.spec.a
    xs = np.linspace(0.0, math.pi, nx)
    ys_up = np.linspace(0.0, a, ny)
    ys_lo = np.linspace(-a, 0.0, ny)
    return xs, ys_up, ys_lo


def _termwise_region(field: SolutionField, xs, ys, upper: bool) -> np.ndarray:
    """sum_k [ l(X_k)(x) Y_k(y) + (-1)^n sgn(y) X_k(x) Y_k^(2n)(y) ]."""
    spec = field.spec
    region = "upper" if upper else "lower"
    XV = field.functions(xs)
    if field.basis.kind == "model":
        LX = field.mode_lams[:, None] * XV
    else:
        LX = (-1) ** spec.s * field.functions(xs, 2 * spec.s) + spec.p0(xs) * XV
    YV = field.profiles(ys, 0, region)
    Y2 = field.profiles(ys, 2 * spec.n, region)
    sign = (-1) ** spec.n * (1.0 if upper else -1.0)
    return YV.T @ LX + sign * (Y2.T @ XV)


def _fd_axis(U: np.ndarray, axis: int, order: int, h: float):
    """Central difference of given order, accuracy 4, trimmed to the core."""
    offs = central_fd_offsets(order, accuracy=4)
    w = fd_weights(order, offs) / h**order
    hw = int(offs[-1])
    core = U.shape[axis] - 2 * hw
    if core <= 0:
        raise ValueError("grid too small for the difference stencil")
    shape = list(U.shape)
    shape[axis] = core
    out = np.zeros(shape)
    for off, wo in zip(offs, w):
        sl = [slice(None)] * U.ndim
        sl[axis] = slice(hw + off, hw + off + core)
        out += wo * U[tuple(sl)]
    return out, hw


def _fd_region(field: SolutionField, xs, ys, upper: bool) -> np.ndarray:
    """Sampled-value residual, valid on the stencil interior only."""
    spec = field.spec
    U = field.evaluate_grid(xs, ys)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    DX, hwx = _fd_axis(U, 1, 2 * spec.s, hx)
    DY, hwy = _fd_axis(U, 0, 2 * spec.n, hy)
    core_x = slice(hwx, len(xs) - hwx)
    core_y = slice(hwy, len(ys) - hwy)
    p0_vals = spec.p0(xs[core_x])
    r = (-1) ** spec.s * DX[core_y, :] + p0_vals[None, :] * U[core_y, core_x]
    sign = (-1) ** spec.n * (1.0 if upper else -1.0)
    r += sign * DY[:, core_x]
    return r


@dataclass
class ResidualReport:
    termwise_upper: float
    termwise_lower: float
    fd_upper: float
    fd_lower: float
    umax: float
    normalization: float

    @property
    def termwise(self) -> float:
        return max(self.termwise_upper, self.termwise_lower)

    @property
    def fd(self) -> float:
        return max(self.fd_upper, self.fd_lower)


def pde_residual(field: SolutionField, nx: int = 201, ny: int = 201) -> ResidualReport:
    """Normalized interior residual by both routes.

    The y grids exclude the interface line (termwise route) and the
    difference route is only evaluated where the full stencil fits inside
    one region, so no stencil ever straddles y = 0.
    """
    xs, ys_up, ys_lo = _region_grids(field, nx, ny)
    U_up = field.evaluate_grid(xs, ys_up)
    U_lo = field.evaluate_grid(xs, ys_lo)
    umax = float(max(np.max(np.abs(U_up)), np.max(np.abs(U_lo))))
    if umax < _TINY:
        return ResidualReport(0.0, 0.0, 0.0, 0.0, 0.0, _TINY)
    norm = _field_normalization(field, umax)
    r_up = _termwise_region(field, xs, ys_up[1:], upper=True)
    r_lo = _termwise_region(field, xs, ys_lo[:-1], upper=False)
    f_up = _fd_region(field, xs, ys_up, upper=True)
    f_lo = _fd_region(field, xs, ys_lo, upper=False)
    return ResidualReport(
        termwise_upper=float(np.max(np.abs(r_up))) / norm,
        termwise_lower=float(np.max(np.abs(r_lo))) / norm,
        fd_upper=float(np.max(np.abs(f_up))) / norm,
        fd_lower=float(np.max(np.abs(f_lo))) / norm,
        umax=umax,
        normalization=norm,
    )


@dataclass
class BoundaryReport:
    lower_abs: list
    lower_rel: list
    upper_abs: list
    upper_rel: list
    corner_max: float

    @property
    def worst_rel(self) -> float:
        vals = self.lower_rel + self.upper_rel
        return max(vals) if vals else 0.0


def boundary_check(field: SolutionField, nx: int = 201) -> BoundaryReport:
    """Reproduce every prescribed edge derivative and the x = 0, pi pins."""
    spec = field.spec
    xs = np.linspace(0.0, math.pi, nx)
    lower_abs, lower_rel, upper_abs, upper_rel = [], [], [], []
    for r in range(spec.n):
        order = spec.q + spec.gamma * r
        got = field.evaluate_grid(xs, [-spec.a], 0, order)[0]
        want = spec.phi[r](xs)
        err = float(np.max(np.abs(got - want)))
        scale = float(np.max(np.abs(want)))
        lower_abs.append(err)
        lower_rel.append(err / max(scale, _TINY) if scale > 0 else err)
    for r in range(spec.n):
        order = spec.chi + spec.delta * r
        got = field.evaluate_grid(xs, [spec.a], 0, order)[0]
        want = spec.psi[r](xs)
        err = float(np.max(np.abs(got - want)))
        scale = float(np.max(np.abs(want)))
        upper_abs.append(err)
        upper_rel.append(err / max(scale, _TINY) if scale > 0 else err)
    ys = np.linspace(-spec.a, spec.a, 101)
    corner = 0.0
    for j in range(spec.s):
        vals = field.evaluate_grid([0.0, math.pi], ys, 2 * j, 0)
        corner = max(corner, float(np.max(np.abs(vals))))
    return BoundaryReport(lower_abs, lower_rel, upper_abs, upper_rel, corner)


@dataclass
class MatchingReport:
    absolute: list  # per derivative order 0..2n-1
    relative: list

    @property
    def worst_rel(self) -> float:
        return max(self.relative) if self.relative else 0.0


def matching_check(field: SolutionField, nx: int = 201) -> MatchingReport:
    """Continuity of u and its first 2n-1 y-derivatives across y = 0."""
    XV = field.functions(np.linspace(0.0, math.pi, nx))
    xmax = np.max(np.abs(XV), axis=1)
    absolute, relative = [], []
    for j in range(2 * field.spec.n):
        up = field.profiles(0.0, j, "upper")
        lo = field.profiles(0.0, j, "lower")
        err = float(np.max(np.abs((up - lo) @ XV)))
        scale = float(xmax @ np.maximum(np.abs(up), np.abs(lo)))
        absolute.append(err)
        relative.append(err / max(scale, _TINY) if scale > 0 else err)
    return MatchingReport(absolute, relative)


@dataclass
class OracleComparison:
    max_mode_deviation: float
    max_field_deviation: float
    det_ratios: list
    det_ratio_spread: float


def oracle_compare(field: SolutionField, ny: int = 101) -> OracleComparison:
    """Second-order prototype (s = n = 1, value data on both edges).

    The modal system collapses to two unknowns with an explicit solution,
    derived separately from the general assembly; agreement validates the
    scaling and the linear solve at once.
    """
    spec = field.spec
    if not (spec.s == 1 and spec.n == 1 and spec.gamma == 1 and spec.delta == 1
            and spec.q == 0 and spec.chi == 0):
        raise OracleUnavailable(
            "closed-form reference requires s = n = 1 with value data"
        )
    a = spec.a
    ys = np.linspace(-a, a, ny)
    up = ys >= 0.0
    lams = field.mode_lams
    live = np.flatnonzero(lams)
    R = np.sqrt(lams[live])[:, None]
    C, S = np.cos(R * a), np.sin(R * a)
    E = np.exp(-R * a)
    det2 = (C + S) - E * E * (C - S)
    phi_k = field.expansion.phi[0, live][:, None]
    psi_k = field.expansion.psi[0, live][:, None]
    c1h = (psi_k * (C + S) - phi_k * E) / det2
    c2 = (phi_k - psi_k * (C - S) * E) / det2
    d1 = c1h * E + c2
    d2 = c1h * E - c2
    # Each branch only on its own half: exp(-R y) overflows for y < 0 once
    # R a > 709.
    YO = np.empty((len(live), ny))
    YO[:, up] = c1h * np.exp(R * (ys[up] - a)) + c2 * np.exp(-R * ys[up])
    YO[:, ~up] = d1 * np.cos(R * ys[~up]) + d2 * np.sin(R * ys[~up])
    YF = field.profiles(ys)[live]
    scale = np.maximum(np.max(np.abs(YO), axis=1), _TINY)
    max_mode_dev = float(np.max(np.max(np.abs(YF - YO), axis=1) / scale, initial=0.0))
    ratios = [float(r) for r in field.dets[live] / det2[:, 0]]
    XM = field.functions(np.linspace(0.0, math.pi, 101))[live]
    U_oracle = YO.T @ XM
    U_field = YF.T @ XM
    uscale = max(float(np.max(np.abs(U_oracle))), _TINY)
    field_dev = float(np.max(np.abs(U_field - U_oracle))) / uscale
    if ratios:
        med = float(np.median(ratios))
        spread = max(abs(r - med) for r in ratios) / max(abs(med), _TINY)
    else:
        spread = 0.0
    return OracleComparison(
        max_mode_deviation=max_mode_dev,
        max_field_deviation=field_dev,
        det_ratios=ratios,
        det_ratio_spread=spread,
    )


DEFAULT_THRESHOLDS = {
    "pde_termwise": 1e-8,
    "pde_fd": 1e-3,
    "boundary_rel": 5e-4,
    "matching_rel": 1e-8,
}


def run_verification(field: SolutionField, thresholds: dict | None = None,
                     nx: int = 201, ny: int = 201) -> dict:
    """Full check suite as a JSON-ready dict with an overall verdict."""
    th = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        th.update(thresholds)
    res = pde_residual(field, nx, ny)
    bnd = boundary_check(field, nx)
    mat = matching_check(field, nx)
    failures = []
    if res.termwise > th["pde_termwise"]:
        failures.append(f"termwise residual {res.termwise:.3e} > {th['pde_termwise']:.1e}")
    if res.fd > th["pde_fd"]:
        failures.append(f"difference residual {res.fd:.3e} > {th['pde_fd']:.1e}")
    if bnd.worst_rel > th["boundary_rel"]:
        failures.append(f"boundary error {bnd.worst_rel:.3e} > {th['boundary_rel']:.1e}")
    if mat.worst_rel > th["matching_rel"]:
        failures.append(f"matching error {mat.worst_rel:.3e} > {th['matching_rel']:.1e}")
    report = {
        "thresholds": th,
        "pde": {
            "termwise": res.termwise,
            "fd": res.fd,
            "termwise_upper": res.termwise_upper,
            "termwise_lower": res.termwise_lower,
            "fd_upper": res.fd_upper,
            "fd_lower": res.fd_lower,
            "umax": res.umax,
        },
        "boundary": {
            "lower_abs": bnd.lower_abs, "lower_rel": bnd.lower_rel,
            "upper_abs": bnd.upper_abs, "upper_rel": bnd.upper_rel,
            "corner_max": bnd.corner_max,
        },
        "matching": {"absolute": mat.absolute, "relative": mat.relative},
        "failures": failures,
        "ok": not failures,
    }
    try:
        oc = oracle_compare(field)
        report["oracle"] = {
            "max_mode_deviation": oc.max_mode_deviation,
            "max_field_deviation": oc.max_field_deviation,
            "det_ratio_spread": oc.det_ratio_spread,
        }
    except OracleUnavailable:
        report["oracle"] = None
    return report
