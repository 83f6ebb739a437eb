"""Characteristic roots and real fundamental systems of the modal ODE.

For one mode with eigenvalue lam > 0 the y-profile satisfies

    Y^(2n)(y) + (-1)^n sgn(y) lam Y(y) = 0,

so the characteristic roots are the 2n-th roots of (-1)^(n+1) lam in the
upper half-plane region (y > 0) and of (-1)^n lam in the lower one.  Both
families live on the circle of radius rho = lam^(1/(2n)); only the angle
pattern differs:

  * "oblique" family, angles pi(1+2r)/(2n), r = 0..n-1: n conjugate pairs,
    no real roots (this is the upper family for even n, lower for odd n);
  * "axis" family, angles pi*r/n, r = 0..n: two real roots +rho, -rho and
    n-1 conjugate pairs (upper family for odd n, lower for even n).

Every real basis function is exp(alpha*y)*cos(beta*y) or the sin partner,
with alpha = rho*cos(theta), beta = rho*sin(theta), and the closed-form
derivative rule

    d^j/dy^j [e^(alpha y) cos(beta y)] = rho^j e^(alpha y) cos(beta y + j theta),

(sin analogue with sin).  Real roots are covered by the same rule with
beta = 0 and theta in {0, pi}.  Storing (alpha, beta, theta) separately lets
the assembly stage factor the exponential envelopes out analytically, which
keeps determinants finite for large mode indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class RootAngle:
    """One root angle theta = pi*num/den; a conjugate pair unless real."""

    num: int
    den: int
    is_pair: bool

    @property
    def theta_over_pi(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def theta(self) -> float:
        return math.pi * self.num / self.den


@dataclass(frozen=True)
class RootSet:
    """All 2n characteristic roots of one mode in one half-plane region."""

    n: int
    lam: float
    region: str
    rho: float
    angles: tuple

    def roots(self) -> np.ndarray:
        """All 2n roots as complex numbers (pairs expanded)."""
        out = []
        for ang in self.angles:
            z = self.rho * complex(math.cos(ang.theta), math.sin(ang.theta))
            out.append(z)
            if ang.is_pair:
                out.append(z.conjugate())
        return np.asarray(out, dtype=complex)

    @property
    def target(self) -> float:
        """Right-hand side of the root equation rho^(2n) = target."""
        sign = -1.0 if (self.n % 2 == 0) == (self.region == "upper") else 1.0
        return sign * self.lam


def characteristic_roots(n: int, lam: float, region: str) -> RootSet:
    """Root angles of the modal ODE for one region, exact as fractions of pi."""
    if region not in ("upper", "lower"):
        raise ValueError(f"region must be 'upper' or 'lower', got {region!r}")
    if not lam > 0:
        raise ValueError("eigenvalue must be positive")
    rho = float(lam) ** (1.0 / (2 * n))
    # The oblique family solves z^(2n) = -lam, the axis family z^(2n) = +lam.
    oblique = (n % 2 == 0) == (region == "upper")
    if oblique:
        angles = tuple(RootAngle(1 + 2 * r, 2 * n, True) for r in range(n))
    else:
        angles = tuple(
            RootAngle(r, n, 0 < r < n) for r in range(n + 1)
        )
    return RootSet(n=n, lam=float(lam), region=region, rho=rho, angles=angles)


def root_equation_residual(rootset: RootSet) -> float:
    """Max relative residual |z^(2n) - target| / lam over all roots."""
    z = rootset.roots()
    return float(np.max(np.abs(z ** (2 * rootset.n) - rootset.target)) / rootset.lam)


@dataclass(frozen=True)
class BasisFunction:
    """One real solution e^(alpha y) cos(beta y) or e^(alpha y) sin(beta y).

    theta is the root angle, so the j-th derivative is
    rho^j e^(alpha y) trig(beta y + j*theta).
    """

    rho: float
    theta: float
    trig: str  # "cos" or "sin"

    @property
    def alpha(self) -> float:
        return self.rho * math.cos(self.theta)

    @property
    def beta(self) -> float:
        return self.rho * math.sin(self.theta)

    def eval(self, y, order: int = 0):
        y = np.asarray(y, dtype=float)
        phase = self.beta * y + order * self.theta
        osc = np.cos(phase) if self.trig == "cos" else np.sin(phase)
        return self.rho**order * np.exp(self.alpha * y) * osc

    def unit_eval(self, y, order: int, y_shift: float):
        """Derivative value with rho^order removed and envelope re-anchored.

        Equals eval(y, order) / (rho^order * exp(alpha * y_shift)); written
        directly so no overflowing intermediate is ever formed.
        """
        y = np.asarray(y, dtype=float)
        phase = self.beta * y + order * self.theta
        osc = np.cos(phase) if self.trig == "cos" else np.sin(phase)
        return np.exp(self.alpha * (y - y_shift)) * osc


def unit_values(rho, theta, is_sin, y, order, y_shift):
    """BasisFunction.unit_eval with every argument broadcast.

    rho^-order e^(-alpha y_shift) d^order/dy^order [e^(alpha y) trig(beta y)]
    with alpha = rho cos(theta), beta = rho sin(theta) and trig = sin where
    is_sin holds, cos elsewhere.  theta is a float or an array, not a list.
    """
    phase = rho * np.sin(theta) * y + order * theta
    osc = np.where(is_sin, np.sin(phase), np.cos(phase))
    return np.exp(rho * np.cos(theta) * (y - y_shift)) * osc


@dataclass(frozen=True)
class FundamentalSystem:
    """Ordered real basis of the modal ODE in one region (2n functions).

    Order: angles ascending; each conjugate pair contributes its cos
    function then its sin function; real roots contribute one cos-type
    function (beta = 0).  theta and is_sin hold the same basis as arrays of
    shape (2n,) for unit_values.
    """

    rootset: RootSet
    functions: tuple
    theta: np.ndarray
    is_sin: np.ndarray

    @property
    def size(self) -> int:
        return len(self.functions)


def fundamental_system(rootset: RootSet) -> FundamentalSystem:
    fns = []
    for ang in rootset.angles:
        fns.append(BasisFunction(rho=rootset.rho, theta=ang.theta, trig="cos"))
        if ang.is_pair:
            fns.append(BasisFunction(rho=rootset.rho, theta=ang.theta, trig="sin"))
    assert len(fns) == 2 * rootset.n
    return FundamentalSystem(
        rootset=rootset, functions=tuple(fns),
        theta=np.array([f.theta for f in fns]),
        is_sin=np.array([f.trig == "sin" for f in fns]),
    )


def ode_residual(system: FundamentalSystem, ys) -> float:
    """Max relative ODE residual of each basis function at the sample points.

    The sign factor uses the system's own region, so callers should pass
    y-samples from that region.
    """
    rs = system.rootset
    n, lam, rho = rs.n, rs.lam, rs.rho
    sgn = 1.0 if rs.region == "upper" else -1.0
    ys = np.asarray(ys, dtype=float)
    theta, is_sin = system.theta[:, None], system.is_sin[:, None]
    val0 = unit_values(rho, theta, is_sin, ys, 0, 0.0)
    top = rho ** (2 * n) * unit_values(rho, theta, is_sin, ys, 2 * n, 0.0)
    res = np.max(np.abs(top + ((-1) ** n) * sgn * lam * val0), axis=1)
    scale = lam * np.maximum(1.0, np.max(np.abs(val0), axis=1))
    return float(np.max(res / scale))


def scaled_wronskian(system: FundamentalSystem) -> float:
    """Determinant of [f_i^(j)(0) / rho^j], rows j = 0..2n-1.

    The true Wronskian at 0 equals this times rho^(n(2n-1)); a bounded
    nonzero value here certifies independence at every eigenvalue scale.
    """
    orders = np.arange(system.size)[:, None]
    mat = unit_values(system.rootset.rho, system.theta, system.is_sin, 0.0, orders, 0.0)
    return float(np.linalg.det(mat))
