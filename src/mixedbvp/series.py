"""End-to-end series solution: expand data, solve modes, sum, evaluate.

The solution is the series u(x, y) = sum_k Y_k(y) X_k(x) over the eigenbasis
of the x-operator, with each Y_k solved from the per-mode boundary/matching
system.  This module owns the smoothness preconditions on the data, the
truncation rule, singular-mode policy, and the evaluators.

Truncation weights the per-mode amplification by the separation verdict:
weight 1 when the denominators have a uniform floor, k^(b(1+eps)) when an
irrational a/pi passed the Diophantine scan, and the conservative
k^(2s - r - b) otherwise, where r is the measured drift exponent of the
eigenvalue asymptote.  A mode k is kept while
lam_k * weight(k) * (|phi_k| + |psi_k|) / |det_scaled(k)| >= tol.

A singular mode (vanishing scaled determinant) is fatal when the data have
a component on it and is skipped (with a "nonunique" flag) when the data
are orthogonal to it; the returned field is then the minimal representative
with zero content on the skipped modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy

from . import denominators as dn
from ._util import format_float
from .eigen import (
    EigenBasis,
    asymptote_check,
    model_eigenpairs,
    numeric_eigenpairs,
)
from .modal import (
    SingularMode,
    assemble_from_spec,
    scaled_determinant,
    solve_modal,
    stacked_profiles,
)
from .problem import X, ProblemSpec, validate


class OutOfDomain(ValueError):
    """Evaluation point or derivative order outside the solution's class."""


class SingularModeWithData(Exception):
    """A singular mode carries boundary data: no solution exists."""

    def __init__(self, k, det_scaled, data_magnitude):
        self.k = k
        self.det_scaled = det_scaled
        self.data_magnitude = data_magnitude
        super().__init__(
            f"mode k={k} has a vanishing determinant ({det_scaled:.3e}) but "
            f"data of magnitude {data_magnitude:.3e}; the problem is unsolvable "
            "unless the data are orthogonal to that mode"
        )


@dataclass
class SmoothnessEntry:
    function: str
    condition: str
    status: str  # pass | fail | estimated
    worst: float


@dataclass
class SmoothnessReport:
    entries: list
    data_conditions_met: bool
    weighted_route_allowed: bool
    notes: list

    def failures(self) -> list:
        return [e for e in self.entries if e.status == "fail"]


def _operator_image(fn, s: int, p0) -> sympy.Expr:
    """(-1)^s f^(2s) + p0 f as an expression; needs expression inputs."""
    expr = (-1) ** s * sympy.diff(fn.expr, X, 2 * s)
    if p0 is not None and p0.expr is not None and p0.expr != 0:
        expr = expr + p0.expr * fn.expr
    return expr


def smoothness_check(spec: ProblemSpec) -> SmoothnessReport:
    """Endpoint vanishing conditions that make the coefficient decay work.

    For each data function f: the even derivatives f^(2m), m < s, must
    vanish at x = 0 and x = pi, and so must the even derivatives of the
    operator image (-1)^s f^(2s) + p0 f.  Expression inputs are checked
    exactly; sampled inputs only by one-sided finite differences, reported
    as "estimated".
    """
    entries = []
    notes = []
    tol = 1e-9
    for group, fns in (("phi", spec.phi), ("psi", spec.psi)):
        for r, fn in enumerate(fns):
            name = f"{group}[{r}]"
            if fn.is_expression:
                image = _operator_image(fn, spec.s, spec.p0)
                if spec.p0.samples is not None:
                    notes.append(
                        f"{name}: p0 is sampled; operator-image check "
                        "omits the p0 term"
                    )
                for m in range(spec.s):
                    worst = max(
                        abs(fn.endpoint_derivative("left", 2 * m)),
                        abs(fn.endpoint_derivative("right", 2 * m)),
                    )
                    entries.append(SmoothnessEntry(
                        name, f"derivative order {2 * m} vanishes at 0 and pi",
                        "pass" if worst <= tol else "fail", worst,
                    ))
                    ivals = [
                        abs(float(sympy.N(sympy.diff(image, X, 2 * m).subs(X, pt), 30)))
                        for pt in (sympy.Integer(0), sympy.pi)
                    ]
                    worst_i = max(ivals)
                    entries.append(SmoothnessEntry(
                        name,
                        f"operator image derivative order {2 * m} vanishes at 0 and pi",
                        "pass" if worst_i <= tol else "fail", worst_i,
                    ))
            else:
                for m in range(spec.s):
                    try:
                        worst = max(
                            abs(fn.endpoint_derivative("left", 2 * m)),
                            abs(fn.endpoint_derivative("right", 2 * m)),
                        )
                    except Exception:
                        worst = math.inf
                    entries.append(SmoothnessEntry(
                        name, f"derivative order {2 * m} vanishes at 0 and pi",
                        "estimated" if worst <= 1e-3 else "fail", worst,
                    ))
                notes.append(f"{name}: sampled data, endpoint checks are estimates")
    weighted_ok = spec.b <= spec.s - 1
    if not weighted_ok:
        notes.append(
            "b = s (n = 1): the weighted-denominator route would demand "
            "stronger data smoothness, so it is refused; only the uniform "
            "separation route applies"
        )
    met = all(e.status == "pass" for e in entries) and bool(entries)
    return SmoothnessReport(
        entries=entries, data_conditions_met=met,
        weighted_route_allowed=weighted_ok, notes=notes,
    )


@dataclass
class BoundaryExpansion:
    """Expansion coefficients of the edge data in the eigenbasis."""

    phi: np.ndarray  # (n, K)
    psi: np.ndarray  # (n, K)
    lam: np.ndarray  # (K,)

    @property
    def data_norm(self) -> float:
        stacked = np.concatenate([self.phi.ravel(), self.psi.ravel()])
        return float(np.max(np.abs(stacked))) if stacked.size else 0.0

    def mode_magnitude(self, k_index: int) -> float:
        return float(
            max(np.max(np.abs(self.phi[:, k_index])), np.max(np.abs(self.psi[:, k_index])))
        )

    def decay_diagnostic(self) -> dict:
        """max_k lam^2 |coef| per function, head half vs tail quarter."""
        out = {}
        for label, mat in (("phi", self.phi), ("psi", self.psi)):
            for r in range(mat.shape[0]):
                series = self.lam**2 * np.abs(mat[r])
                qt = max(1, len(series) // 4)
                out[f"{label}[{r}]"] = {
                    "max": float(np.max(series)) if series.size else 0.0,
                    "tail_max": float(np.max(series[-qt:])) if series.size else 0.0,
                }
        return out


def expand_boundary(spec: ProblemSpec, basis: EigenBasis) -> BoundaryExpansion:
    phi = np.stack([basis.expand(f) for f in spec.phi])
    psi = np.stack([basis.expand(f) for f in spec.psi])
    return BoundaryExpansion(phi=phi, psi=psi, lam=basis.lambdas)


def _drift_exponent(basis: EigenBasis, s: int, b: int) -> float:
    """Measured r in lam_k^(1/(2n)) = k^b + O(k^(r + b - 2s))."""
    chk = asymptote_check(basis, b)
    dev = np.abs(np.asarray(chk["deviation"]))
    if chk["max_deviation"] < 1e-12:
        return 0.0
    K = len(dev)
    ks = np.arange(1, K + 1, dtype=float)
    half = K // 2
    mask = dev[half:] > 0
    if np.count_nonzero(mask) < 3:
        return 0.0
    slope = np.polyfit(np.log(ks[half:][mask]), np.log(dev[half:][mask]), 1)[0]
    r = slope + 2.0 * s - b
    return float(min(max(r, 0.0), 2.0 * s - b - 1e-9))


@dataclass
class SolutionField:
    """Truncated series solution with evaluators and full diagnostics."""

    spec: ProblemSpec
    basis: EigenBasis
    expansion: BoundaryExpansion
    modes: list  # ModalSolution or None (skipped singular), length K_active
    dets: np.ndarray  # scaled determinants for k = 1..K_requested
    K_requested: int
    K_active: int
    denominator: dn.DenominatorReport
    smoothness: SmoothnessReport
    tail_bound: float
    weight_law: dict
    nonunique_modes: list
    tol: float
    tol_singular: float

    def _check_orders(self, dx_order: int, dy_order: int):
        s, n = self.spec.s, self.spec.n
        if not (0 <= dx_order <= 2 * s and 0 <= dy_order <= 2 * n):
            raise OutOfDomain(
                f"derivative orders ({dx_order}, {dy_order}) outside "
                f"[0, {2 * s}] x [0, {2 * n}]"
            )
        if dx_order == 2 * s and dy_order == 2 * n:
            raise OutOfDomain("both derivative orders at their maximum")

    def _check_domain(self, x, y):
        a = self.spec.a
        eps = 1e-12
        if np.any(x < -eps) or np.any(x > math.pi + eps):
            raise OutOfDomain("x outside [0, pi]")
        if np.any(y < -a - eps) or np.any(y > a + eps):
            raise OutOfDomain(f"y outside [-{a!r}, {a!r}]")

    def profiles(self, y, order: int = 0, region: str | None = None) -> np.ndarray:
        """Y_k^(order)(y) for every active mode, shape (K_active,) + y.shape.

        With region None each half's representation is evaluated only at
        points on its own half (y = 0 counts as upper); "upper" or "lower"
        uses that half's representation at every y.  Skipped singular modes
        read 0.  rho, coefficients and shifts are read from self.modes on
        each call.
        """
        y = np.asarray(y, dtype=float)
        K = len(self.modes)
        live = [i for i, mode in enumerate(self.modes) if mode is not None]
        if not live:
            return np.zeros((K,) + y.shape)
        width = 4 * self.spec.n
        rho, coeffs, shifts = np.zeros(K), np.zeros((K, width)), np.zeros((K, width))
        rho[live] = [self.modes[i].rho for i in live]
        coeffs[live] = [self.modes[i].coeffs for i in live]
        shifts[live] = [self.modes[i].column_shifts for i in live]
        first = self.modes[live[0]]
        return stacked_profiles(first.upper, first.lower, rho, coeffs, shifts, y, order, region)

    def functions(self, x, order: int = 0) -> np.ndarray:
        """X_k^(order)(x) for the active modes, shape (K_active,) + x.shape."""
        return self.basis.functions(x, order)[: len(self.modes)]

    def evaluate(self, x, y, dx_order: int = 0, dy_order: int = 0):
        """Pointwise series value; x and y broadcast together."""
        self._check_orders(dx_order, dy_order)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._check_domain(x, y)
        xb, yb = np.broadcast_arrays(x, y)
        out = np.sum(self.functions(xb, dx_order) * self.profiles(yb, dy_order), axis=0)
        if out.ndim == 0:
            return float(out)
        return out

    def evaluate_grid(self, xs, ys, dx_order: int = 0, dy_order: int = 0) -> np.ndarray:
        """Outer-product evaluation, shape (len(ys), len(xs)).

        Summation over modes is a fixed-order matrix product, so repeated
        runs with identical inputs give identical bytes.
        """
        self._check_orders(dx_order, dy_order)
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        self._check_domain(xs, ys)
        return self.profiles(ys, dy_order).T @ self.functions(xs, dx_order)

    def max_abs(self, nx: int = 101, ny: int = 101) -> float:
        xs = np.linspace(0.0, math.pi, nx)
        ys = np.linspace(-self.spec.a, self.spec.a, ny)
        return float(np.max(np.abs(self.evaluate_grid(xs, ys))))

    @property
    def mode_lams(self) -> np.ndarray:
        """Eigenvalue stored on each active mode; skipped singular modes read 0."""
        return np.array([0.0 if m is None else m.lam for m in self.modes])

    @property
    def lam_active_max(self) -> float:
        lams = self.mode_lams
        return float(lams.max()) if lams.any() else 1.0

    def metadata_dict(self) -> dict:
        spec = self.spec
        return {
            "spec": {
                "s": spec.s, "n": spec.n, "b": spec.b,
                "a": spec.a, "a_over_pi": spec.a_over_pi.describe(),
                "gamma": spec.gamma, "delta": spec.delta,
                "q": spec.q, "chi": spec.chi,
                "p0": spec.p0.source,
                "phi": [f.source for f in spec.phi],
                "psi": [f.source for f in spec.psi],
            },
            "K_requested": self.K_requested,
            "K_active": self.K_active,
            "tol": self.tol,
            "tol_singular": self.tol_singular,
            "tail_bound": self.tail_bound,
            "weight_law": self.weight_law,
            "denominator_verdict": self.denominator.verdict,
            "delta1": self.denominator.delta1,
            "nonunique_modes": list(self.nonunique_modes),
            "smoothness_ok": self.smoothness.data_conditions_met,
            "smoothness_notes": list(self.smoothness.notes),
            "basis_kind": self.basis.kind,
        }


def solve_problem(
    spec: ProblemSpec,
    K: int,
    tol: float = 1e-10,
    *,
    grid_points: int | None = None,
    grid_size: int = 512,
    tol_singular: float = 1e-10,
    ortho_tol_factor: float = 1e-9,
    eig_rel_tol: float = 1e-6,
    scan_kmax: int = 2000,
) -> SolutionField:
    """Solve the full problem with K candidate modes.

    Raises SingularModeWithData when a vanishing modal determinant meets
    non-orthogonal data; singular modes with orthogonal data are skipped
    and listed in the returned field's nonunique_modes.
    """
    validate(spec, K).raise_if_failed()
    if spec.p0_is_zero:
        basis = model_eigenpairs(spec.s, K, grid_points or 8193)
    else:
        basis = numeric_eigenpairs(spec.s, spec.p0, K, grid_size, eig_rel_tol)
    smooth = smoothness_check(spec)
    expansion = expand_boundary(spec, basis)
    lams = basis.lambdas

    systems = [
        assemble_from_spec(spec, k, lams[k - 1], expansion.phi[:, k - 1], expansion.psi[:, k - 1])
        for k in range(1, K + 1)
    ]
    dets = np.array([scaled_determinant(s_) for s_ in systems])
    denom = dn.build_report(
        spec, ks=np.arange(1, K + 1), dets=dets, lams=lams, scan_kmax=scan_kmax
    )

    # Truncation weights by verdict.
    ks = np.arange(1, K + 1, dtype=float)
    if denom.verdict == "separated":
        weights = np.ones(K)
        law = {"kind": "uniform", "exponent": 0.0}
    elif denom.verdict == "diophantine":
        expo = spec.b * (1.0 + denom.scan.epsilon)
        weights = ks**expo
        law = {"kind": "weighted", "exponent": expo, "epsilon": denom.scan.epsilon}
    else:
        r = _drift_exponent(basis, spec.s, spec.b)
        expo = 2.0 * spec.s - r - spec.b
        weights = ks**expo
        law = {"kind": "fallback", "exponent": expo, "drift_r": r}

    data_term = np.abs(expansion.phi).sum(axis=0) + np.abs(expansion.psi).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        metric = lams * weights * data_term / np.abs(dets)
    metric = np.where(data_term == 0.0, 0.0, metric)
    metric = np.where(np.isfinite(metric), metric, np.inf)
    keep = np.nonzero(metric >= tol)[0]
    K_active = int(keep[-1] + 1) if keep.size else 0

    modes = []
    nonunique = []
    data_norm = expansion.data_norm
    ortho_tol = ortho_tol_factor * data_norm
    for k in range(1, K_active + 1):
        try:
            modes.append(solve_modal(systems[k - 1], tol_singular))
        except SingularMode as sm:
            magnitude = expansion.mode_magnitude(k - 1)
            if magnitude <= ortho_tol:
                modes.append(None)
                nonunique.append(k)
            else:
                raise SingularModeWithData(k, sm.det_scaled, magnitude) from sm

    field = SolutionField(
        spec=spec, basis=basis, expansion=expansion, modes=modes, dets=dets,
        K_requested=K, K_active=K_active, denominator=denom, smoothness=smooth,
        tail_bound=0.0, weight_law=law, nonunique_modes=nonunique,
        tol=tol, tol_singular=tol_singular,
    )
    # Contribution of the last quarter of active modes to max |D_y^(2n) u|.
    if K_active:
        tail = slice(K_active - max(1, K_active // 4), K_active)
        ys = np.linspace(-spec.a, spec.a, 33)
        ymax = np.max(np.abs(field.profiles(ys, 2 * spec.n)[tail]), axis=1)
        xmax = np.max(np.abs(basis.samples[tail]), axis=1)
        field.tail_bound = float(np.sum(ymax * xmax))
    return field


def solution_to_csv(field: SolutionField, xs, ys, path) -> None:
    """Grid dump x,y,u with deterministic float formatting."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    U = field.evaluate_grid(xs, ys)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,u\n")
        for j, yv in enumerate(ys):
            for i, xv in enumerate(xs):
                fh.write(
                    f"{format_float(xv)},{format_float(yv)},{format_float(U[j, i])}\n"
                )
