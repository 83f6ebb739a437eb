"""Eigenbasis of the reduced operator (-1)^s d^{2s}/dx^{2s} + p0(x) on (0, pi).

Boundary conditions are homogeneous even derivatives at both endpoints,
X^(2j)(0) = X^(2j)(pi) = 0 for j = 0..s-1.  With p0 identically zero the
basis is exact: lambda_k = k^(2s), X_k = sqrt(2/pi) sin(kx).

For general nonnegative p0 there are two paths, chosen by p0 itself.  One
DCT-I of p0 on 4097 points gives its cosine coefficients
a_m = (2/pi) int p0 cos(mx).

- Sine-Galerkin, when that cosine series is resolved (a_m negligible from
  m = 2048 on: constants, trigonometric polynomials, exp(cos(2x))).  In the
  orthonormal sines the operator is the matrix A = diag(j^(2s)) + P with
  P_jk = (a_|j-k| - a_(j+k))/2, exact up to truncation at G modes.  A is
  graded like j^(2s), so a dense symmetric eigensolver loses the low modes to
  rounding of order eps * G^(2s); instead A = L L^T is factored and the
  singular values of L are taken by a relative-accuracy Jacobi SVD (LAPACK
  dgejsv; Drmac and Veselic, SIAM J. Matrix Anal. Appl. 29(4), 2008).  Then
  lambda = sigma^2 to a few ulps for every s, and the left singular vectors
  are the eigenvectors.  G starts at max(4K, 64) and doubles until every
  eigenvector's coefficients beyond G/2 fall below 1e-13.
- Finite differences, when p0's even extension has a kink (p0'(0) != 0 or
  p0'(pi) != 0, as for 1 + x(pi - x), or a sampled p0, which is linearly
  interpolated), so that a_m decays only like m^-2: for 1 + x(pi - x) the
  truncated Galerkin solution's termwise residual reads 9e-7 at G = 80 and
  1.5e-8 at G = 320, and only G = 1280 (0.7 s per solve) passes 1e-8.  The
  Dirichlet second-difference matrix T implements the odd reflection the
  boundary conditions encode, T^s + diag(p0) stays symmetric, and its
  eigenvalues are variationally ordered.  At s = 1 the matrix is tridiagonal
  and goes to a tridiagonal eigensolver, which never forms the N x N
  transformation a banded solver builds.  Discrete eigenvalues carry an
  O(h^2) bias with a smooth even expansion in h, so the values returned are
  Richardson-extrapolated from the requested grid and its doubling,
  (4*lam_fine - lam_coarse)/3.  A mode counts as resolved when the relative
  coarse-to-fine change squared clears rel_tol; the square reflects that
  extrapolation roughly squares the relative error, with a safety factor
  left over.  The eigensolver's absolute error eps * ||T^s|| on the fine
  grid, relative to lambda_k, must clear the same test: it grows like
  h^(-2s) and swamps the low modes at s >= 2, so this path mostly refuses
  there, and says why.

Either way each mode is stored once as sine coefficients c_km, with
X_k(x) = sum_m c_km sin(mx), and `samples` holds that series on the
2*grid_size + 1 point grid.  Both paths refuse K > grid_size/8.

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
import scipy.linalg.lapack
import scipy.sparse

from ._util import format_float, simpson_weights

# p0's cosine series counts as resolved when max |a_m| over the upper half of
# the DCT-I band is at most this fraction of max |a_m|; a Galerkin eigenvector
# counts as converged when its coefficients beyond G/2 are at most this.
_RESOLVED_TAIL = 1e-13
_COSINE_PANELS = 4096


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


def _sine_series(coeffs: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """sum_m c_km m^order sin(m x + order pi/2) for each row k, shape (K,) + x.shape."""
    m = np.arange(1, coeffs.shape[1] + 1, dtype=float)
    waves = _sine_waves(x.reshape(-1), m, order)
    # einsum, not a BLAS product: these calls come one at a time between
    # other work, where a threaded BLAS call can wait milliseconds for its
    # idle worker threads to wake.
    return np.einsum("xm,km->kx", waves, coeffs * m**order).reshape(
        (len(coeffs),) + x.shape
    )


@dataclass
class EigenBasis:
    """Ordered eigenpairs with their sample grid and quadrature weights."""

    s: int
    kind: str  # "model" or "numeric"
    x: np.ndarray
    weights: np.ndarray
    pairs: list
    samples: np.ndarray  # (K, len(x)) eigenfunction values on x
    coeffs: np.ndarray | None = None  # numeric: (K, M), X_k = sum_m c_km sin(mx)
    meta: dict = field(default_factory=dict)

    @property
    def K(self) -> int:
        return len(self.pairs)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    def functions(self, x, order: int = 0) -> np.ndarray:
        """X_k^(order)(x) for every pair, shape (K,) + x.shape, closed form.

        The numeric basis contracts the sine coefficients stored at
        construction: X_k^(order)(x) = sum_m c_km m^order sin(m x + order pi/2).
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "model":
            k = np.array([p.k for p in self.pairs], dtype=float)
            out = _sine_waves(k, x, order)
            out *= (math.sqrt(2.0 / math.pi) * k**order).reshape((-1,) + (1,) * x.ndim)
            return out
        return _sine_series(self.coeffs, x, order)

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


def _cosine_series(p0, panels: int) -> tuple:
    """a_m = (2/pi) int_0^pi p0 cos(mx) dx, m = 0..panels, and min p0.

    One DCT-I is the trapezoid rule on panels + 1 points; a0 is not halved.
    """
    values = _p0_values(p0, np.linspace(0.0, math.pi, panels + 1))
    return scipy.fft.dct(values, type=1) / panels, float(np.min(values))


def _galerkin_eigenpairs(s: int, a: np.ndarray, p0_min: float, K: int, G: int):
    """K smallest eigenpairs of diag(j^(2s)) + P on G sine modes.

    Returns the eigenvalues and the (K, G) coefficients of the eigenvectors
    in the orthonormal sines sqrt(2/pi) sin(jx).
    """
    j = np.arange(1, G + 1)
    A = (a[np.abs(j[:, None] - j)] - a[j[:, None] + j]) / 2.0
    # P >= min p0 as a quadratic form, so the shift keeps A positive definite
    # for any p0; it is zero, and costs no accuracy, for nonnegative p0.
    shift = max(0.0, -p0_min)
    A[np.diag_indices(G)] += j.astype(float) ** (2 * s) + shift
    L = np.linalg.cholesky(A)
    # A = L L^T = U S^2 U^T.  jobv=3 skips the right singular vectors.
    sva, u, _, work, _, info = scipy.linalg.lapack.dgejsv(L, jobv=3)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgejsv failed with info={info}")
    lam = (work[0] / work[1] * sva[::-1][:K]) ** 2 - shift
    return lam, u[:, ::-1][:, :K].T


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


def _fd_eigenpairs(s: int, p0, K: int, N: int, vectors: bool):
    """Lowest K eigenvalues of T^s + diag(p0) on N panels, with vectors if asked."""
    xs_int = np.linspace(0.0, math.pi, N + 1)[1:-1]
    p0_int = _p0_values(p0, xs_int)
    if s == 1:
        h2 = (math.pi / N) ** 2
        return scipy.linalg.eigh_tridiagonal(
            2.0 / h2 + p0_int, np.full(N - 2, -1.0 / h2),
            eigvals_only=not vectors, select="i", select_range=(0, K - 1),
        )
    return scipy.linalg.eig_banded(
        _band_matrix(s, N, p0_int), lower=False,
        eigvals_only=not vectors, select="i", select_range=(0, K - 1),
    )


def _galerkin_basis(s: int, a: np.ndarray, p0_min: float, K: int, x: np.ndarray):
    """Galerkin eigenvalues, sine coefficients and samples on x, with meta.

    G starts at max(4K, 64) and doubles while some eigenvector keeps
    coefficients above the tolerance beyond G/2, as far as a supports.
    """
    G = max(4 * K, 64)
    while True:
        lam, U = _galerkin_eigenpairs(s, a, p0_min, K, G)
        spill = np.max(np.abs(U[:, G // 2:]), axis=1)
        if np.all(spill <= _RESOLVED_TAIL) or 4 * G > len(a) - 1:
            break
        G *= 2
    if not np.all(spill <= _RESOLVED_TAIL):
        bad = int(np.argmax(spill > _RESOLVED_TAIL))
        raise DiscretizationTooCoarse(
            f"mode k={bad + 1} keeps sine coefficients of {spill[bad]:.2e} beyond "
            f"mode {G // 2} of {G}, the most p0's cosine series supports"
        )
    coeffs = math.sqrt(2.0 / math.pi) * U
    return lam, _sine_series(coeffs, x, 0), coeffs, {"method": "galerkin", "modes": G}


def _fd_basis(s: int, p0, K: int, N: int, x, w, rel_tol: float, p0_tail: float):
    """Richardson-extrapolated finite-difference eigenpairs on N and 2N panels."""
    def refuse(k, what, cause):
        raise DiscretizationTooCoarse(
            f"mode k={k} unresolved at grid_size={N} ({what}): p0's cosine "
            f"series did not resolve (tail {p0_tail:.1e}), so finite "
            f"differences ran; {cause}"
        )

    mu_coarse = _fd_eigenpairs(s, p0, K, N, vectors=False)
    # The eigensolver's absolute error, eps * ||T^s|| on the fine grid, grows
    # 2^(2s)-fold per doubling; relative to lambda_k it is negligible at s = 1.
    rounding = np.finfo(float).eps * (4.0 / (math.pi / (2 * N)) ** 2) ** s
    floor = rounding / np.abs(mu_coarse)
    rounding_note = (
        f"rounding of order eps*||T^s|| = {rounding:.1e} grows 2^(2s)-fold "
        "per doubling of grid_size"
    )
    if np.any(floor**2 > rel_tol):
        i = int(np.argmax(floor**2 > rel_tol))
        refuse(i + 1, f"rounding {floor[i]:.1e} of lambda_k",
               rounding_note + ", so a finer grid cannot resolve this mode")
    mu_fine, vecs = _fd_eigenpairs(s, p0, K, 2 * N, vectors=True)
    lam = (4.0 * mu_fine - mu_coarse) / 3.0
    rel_change = np.abs(mu_fine - mu_coarse) / np.abs(mu_fine)
    if np.any(rel_change**2 > rel_tol):
        i = int(np.argmax(rel_change**2 > rel_tol))
        refuse(i + 1, f"rel change {rel_change[i]:.2e}",
               "a finer grid_size may resolve it"
               + (f", but at s >= 2 {rounding_note}" if s >= 2 else ""))
    # Full fine grid with the boundary zeros put back.
    V = np.zeros((K, len(x)))
    V[:, 1:-1] = vecs.T
    # Orthonormalize in the Simpson inner product (eig vectors are only
    # orthogonal in the plain discrete one).
    gram = (V * w) @ V.T
    V = scipy.linalg.solve_triangular(np.linalg.cholesky(gram), V, lower=True)
    coeffs = scipy.fft.dst(V[:, 1:-1], type=1, axis=1) / (2 * N)
    meta = {
        "method": "fd",
        "rel_change": rel_change,
        "lam_coarse": mu_coarse,
        "lam_fine": mu_fine,
        "rel_tol": rel_tol,
    }
    return lam, V, coeffs, meta


def numeric_eigenpairs(
    s: int,
    p0,
    K: int,
    grid_size: int = 512,
    rel_tol: float = 1e-6,
) -> EigenBasis:
    """First K eigenpairs: sine-Galerkin for resolved p0, else finite differences.

    Args:
        s: half-order of the derivative term (operator order 2s).
        p0: nonnegative coefficient; callable, constant, or None.
        K: number of modes wanted; at most grid_size/8.
        grid_size: N; the samples lie on 2N + 1 points, and finite
            differences run on N and 2N panels.
        rel_tol: finite-difference resolution tolerance; mode k is resolved
            when its coarse-to-fine relative change squared, and its rounding
            floor squared, are at most rel_tol.

    Raises:
        DiscretizationTooCoarse: some requested mode is not resolved.
    """
    N = int(grid_size)
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > N // 8:
        raise DiscretizationTooCoarse(
            f"K={K} modes need grid_size >= 8K = {8 * K}; got grid_size={N}"
        )
    panels = max(_COSINE_PANELS, 8 * K)
    a, p0_min = _cosine_series(p0, panels)
    p0_tail = float(np.max(np.abs(a[panels // 2:])))
    x = np.linspace(0.0, math.pi, 2 * N + 1)
    w = simpson_weights(len(x), x[1] - x[0])
    if p0_tail <= _RESOLVED_TAIL * float(np.max(np.abs(a))):
        lam, V, coeffs, meta = _galerkin_basis(s, a, p0_min, K, x)
    else:
        lam, V, coeffs, meta = _fd_basis(s, p0, K, N, x, w, rel_tol, p0_tail)
    sign = np.where(V[:, 1] >= 0, 1.0, -1.0)[:, None]
    pairs = [EigenPair(k=int(k), lam=float(lam[k - 1])) for k in range(1, K + 1)]
    return EigenBasis(
        s=s, kind="numeric", x=x, weights=w, pairs=pairs, samples=V * sign,
        coeffs=coeffs * sign, meta={"grid_size": N, "p0_tail": p0_tail, **meta},
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
