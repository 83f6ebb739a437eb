"""Eigenbasis of the reduced operator (-1)^s d^{2s}/dx^{2s} + p0(x) on (0, pi).

Boundary conditions are homogeneous even derivatives at both endpoints,
X^(2j)(0) = X^(2j)(pi) = 0 for j = 0..s-1.  With p0 identically zero the
basis is exact: lambda_k = k^(2s), X_k = sqrt(2/pi) sin(kx).  For general
nonnegative p0 the operator is discretized by symmetric finite differences:
the Dirichlet second-difference matrix T implements the odd reflection that
those boundary conditions encode, T^s + diag(p0) stays symmetric, and its
eigenvalues are variationally ordered.

Discrete eigenvalues carry an O(h^2) bias with a smooth even expansion in h,
so the values returned are Richardson-extrapolated from the requested grid
and its doubling, (4*lam_fine - lam_coarse)/3.  A mode counts as resolved
when k <= grid_size/8 and the relative coarse-to-fine change squared clears
rel_tol; the square reflects that extrapolation roughly squares the relative
error, with a safety factor left over.

Quadrature throughout is composite Simpson.  On this basis that choice is
sharper than the generic h^4 error bound suggests: Simpson is a combination
of two trapezoid rules, and the trapezoid rule on [0, pi] sums products of
sines exactly, so Gram matrices of trigonometric polynomials are exact up
to rounding whenever the panel count exceeds the bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse

from ._util import format_float, simpson_weights


class DiscretizationTooCoarse(RuntimeError):
    """A requested mode failed the grid-doubling resolution test."""


@dataclass
class EigenPair:
    k: int
    lam: float
    norm: float = 1.0


def _sine_waves(u, v, order: int) -> np.ndarray:
    """sin(u v + order pi/2) over the outer product, built in place."""
    out = np.multiply.outer(u, v)
    out += order * math.pi / 2.0
    return np.sin(out, out=out)


@dataclass
class EigenBasis:
    """Ordered eigenpairs with their sample grid and quadrature weights."""

    s: int
    kind: str  # "model" or "numeric"
    x: np.ndarray
    weights: np.ndarray
    pairs: list
    samples: np.ndarray  # (K, len(x)) eigenfunction values on x
    meta: dict = field(default_factory=dict)

    @property
    def K(self) -> int:
        return len(self.pairs)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    def functions(self, x, order: int = 0) -> np.ndarray:
        """X_k^(order)(x) for every pair, shape (K,) + x.shape, closed form.

        The numeric basis is the sine interpolant of its samples: one DST-I
        of the interior samples gives every mode's sine coefficients c_km,
        and X_k^(order)(x) = sum_m c_km m^order sin(m x + order pi/2).
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "model":
            k = np.array([p.k for p in self.pairs], dtype=float)
            out = _sine_waves(k, x, order)
            out *= (math.sqrt(2.0 / math.pi) * k**order).reshape((-1,) + (1,) * x.ndim)
            return out
        panels = len(self.x) - 1
        coeffs = scipy.fft.dst(self.samples[:, 1:-1], type=1, axis=1) / panels
        m = np.arange(1, panels, dtype=float)
        waves = _sine_waves(x.reshape(-1), m, order)
        # einsum, not a BLAS product: these calls come one at a time between
        # other work, where a threaded BLAS call can wait milliseconds for its
        # idle worker threads to wake.
        return np.einsum("xm,km->kx", waves, coeffs * m**order).reshape((self.K,) + x.shape)

    def expand(self, f) -> np.ndarray:
        """Quadrature coefficients <f, X_k> for k = 1..K."""
        if callable(f):
            values = np.asarray(f(self.x), dtype=float)
        else:
            values = np.asarray(f, dtype=float)
            if values.shape != self.x.shape:
                raise ValueError(
                    f"sample vector has length {len(values)}, grid has {len(self.x)}"
                )
        return self.samples @ (self.weights * values)

    def gram_error(self) -> float:
        """Max deviation of the quadrature Gram matrix from identity."""
        gram = (self.samples * self.weights) @ self.samples.T
        return float(np.max(np.abs(gram - np.eye(self.K))))


def model_eigenpairs(s: int, K: int, grid_points: int = 8193) -> EigenBasis:
    """Exact eigenbasis for p0 = 0: lambda_k = k^(2s), sqrt(2/pi) sin(kx)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if grid_points % 2 == 0:
        grid_points += 1  # Simpson needs an even panel count
    # Simpson on M panels combines trapezoid rules on M and M/2 panels; the
    # coarser one is exact for cos(mx) only while m < M, so the products
    # sin(kx) sin(jx) alias once k + j reaches M = grid_points - 1.
    limit = (grid_points - 1) // 2
    if K >= limit:
        raise DiscretizationTooCoarse(
            f"K={K} model modes alias on {grid_points} grid points; "
            f"need K < (grid_points - 1)/2 = {limit}"
        )
    x = np.linspace(0.0, math.pi, grid_points)
    w = simpson_weights(grid_points, x[1] - x[0])
    k = np.arange(1, K + 1)
    samples = np.outer(k, x)
    np.sin(samples, out=samples)
    samples *= math.sqrt(2.0 / math.pi)
    pairs = [EigenPair(k=int(kk), lam=float(kk) ** (2 * s)) for kk in k]
    return EigenBasis(
        s=s, kind="model", x=x, weights=w, pairs=pairs, samples=samples,
        meta={"grid_points": grid_points},
    )


def _band_matrix(s: int, N: int, p0_interior: np.ndarray) -> np.ndarray:
    """Upper-band storage of T^s + diag(p0) on the N-1 interior nodes."""
    h = math.pi / N
    dim = N - 1
    T = scipy.sparse.diags(
        [np.full(dim - 1, -1.0), np.full(dim, 2.0), np.full(dim - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    ) / h**2
    M = T
    for _ in range(s - 1):
        M = M @ T
    band = np.zeros((s + 1, dim))
    for off in range(s + 1):
        diag = M.diagonal(off)
        band[s - off, off:] = diag
    band[s, :] += p0_interior
    return band


def _p0_values(p0, xs: np.ndarray) -> np.ndarray:
    if p0 is None:
        return np.zeros_like(xs)
    if callable(p0):
        return np.asarray(p0(xs), dtype=float)
    return np.full_like(xs, float(p0))


def numeric_eigenpairs(
    s: int,
    p0,
    K: int,
    grid_size: int = 512,
    rel_tol: float = 1e-6,
) -> EigenBasis:
    """First K eigenpairs of the finite-difference operator, extrapolated.

    Args:
        s: half-order of the derivative term (operator order 2s).
        p0: nonnegative coefficient; callable, constant, or None.
        K: number of modes wanted.
        grid_size: coarse panel count N; the solve also runs at 2N.
        rel_tol: resolution tolerance; mode k is resolved when
            k <= N/8 and (coarse-to-fine relative change)^2 <= rel_tol.

    Raises:
        DiscretizationTooCoarse: some requested mode is not resolved.
    """
    N = int(grid_size)
    if K < 1:
        raise ValueError("K must be >= 1")
    # With p0 = 0 the operator is a pure power T^s, which shares its
    # eigenvectors with T.  Diagonalizing T instead of T^s and raising the
    # extrapolated values to the s-th power avoids the accuracy floor
    # eps * ||T^s|| that the squared spectral range would impose.
    probe = np.linspace(0.0, math.pi, 2 * N + 1)[1:-1]
    factored = s > 1 and not np.any(_p0_values(p0, probe))
    s_band = 1 if factored else s
    results = {}
    for factor in (1, 2):
        nn = factor * N
        xs_int = np.linspace(0.0, math.pi, nn + 1)[1:-1]
        band = _band_matrix(s_band, nn, _p0_values(p0, xs_int))
        vals, vecs = scipy.linalg.eig_banded(
            band, lower=False, select="i", select_range=(0, K - 1)
        )
        results[factor] = (vals, vecs)
    mu_coarse = results[1][0]
    mu_fine, vecs = results[2][0], results[2][1]
    mu = (4.0 * mu_fine - mu_coarse) / 3.0
    rel_change = np.abs(mu_fine - mu_coarse) / np.abs(mu_fine)
    if factored:
        lam = mu**s
        lam_coarse = mu_coarse**s
        lam_fine = mu_fine**s
        rel_change = s * rel_change
    else:
        lam = mu
        lam_coarse = mu_coarse
        lam_fine = mu_fine

    ks = np.arange(1, K + 1)
    resolved = (ks <= N // 8) & (rel_change**2 <= rel_tol)
    if not np.all(resolved):
        bad = int(ks[~resolved][0])
        raise DiscretizationTooCoarse(
            f"mode k={bad} unresolved at grid_size={N} "
            f"(rel change {rel_change[bad - 1]:.2e}, limit k <= {N // 8}); "
            "increase grid_size"
        )

    # Full fine grid with the boundary zeros put back.
    x = np.linspace(0.0, math.pi, 2 * N + 1)
    w = simpson_weights(len(x), x[1] - x[0])
    V = np.zeros((K, len(x)))
    V[:, 1:-1] = vecs.T
    sign = np.where(V[:, 1] >= 0, 1.0, -1.0)
    V *= sign[:, None]
    # Orthonormalize in the Simpson inner product (eig vectors are only
    # orthogonal in the plain discrete one).
    gram = (V * w) @ V.T
    L = np.linalg.cholesky(gram)
    V = scipy.linalg.solve_triangular(L, V, lower=True)

    pairs = [EigenPair(k=int(k), lam=float(lam[k - 1])) for k in ks]
    return EigenBasis(
        s=s, kind="numeric", x=x, weights=w, pairs=pairs, samples=V,
        meta={
            "grid_size": N,
            "rel_change": rel_change,
            "lam_coarse": lam_coarse,
            "lam_fine": lam_fine,
            "rel_tol": rel_tol,
        },
    )


def asymptote_check(basis: EigenBasis, b: int) -> dict:
    """Deviation of lambda_k^(1/(2n)) from k^b, and whether it decays.

    With n = s/b the exponent 1/(2n) equals b/(2s); the model case gives
    exactly zero deviation.
    """
    lam = basis.lambdas
    ks = np.arange(1, basis.K + 1, dtype=float)
    dev = lam ** (b / (2.0 * basis.s)) - ks**b
    absdev = np.abs(dev)
    quarter = max(2, basis.K // 4)
    head = float(np.max(absdev[:quarter]))
    tail = float(np.max(absdev[-quarter:]))
    return {
        "deviation": dev,
        "max_deviation": float(np.max(absdev)),
        "head_max": head,
        "tail_max": tail,
        "decays": bool(tail <= head + 1e-15),
    }


def mercer_partial_sums(basis: EigenBasis, xs) -> np.ndarray:
    """Partial sums S_K(x) = sum_{k<=K} X_k(x)^2 / lambda_k, K = 1..K_max.

    Returns an array of shape (K_max, len(xs)); nondecreasing along axis 0
    and bounded for the operator class handled here.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    terms = basis.functions(xs) ** 2 / basis.lambdas[:, None]
    return np.cumsum(terms, axis=0)


def eigen_to_csv(basis: EigenBasis, path, include_samples: bool = False) -> None:
    """CSV of (k, lambda_k), optionally with sampled eigenfunction columns."""
    with open(path, "w", encoding="utf-8") as fh:
        if include_samples:
            fh.write("k,lambda," + ",".join(
                format_float(xv) for xv in basis.x
            ) + "\n")
        else:
            fh.write("k,lambda\n")
        for i, p in enumerate(basis.pairs):
            row = f"{p.k},{format_float(p.lam)}"
            if include_samples:
                row += "," + ",".join(format_float(v) for v in basis.samples[i])
            fh.write(row + "\n")
