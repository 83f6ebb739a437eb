import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedbvp.eigen import (
    DiscretizationTooCoarse,
    asymptote_check,
    eigen_to_csv,
    mercer_partial_sums,
    model_eigenpairs,
    numeric_eigenpairs,
)
from mixedbvp.problem import BoundaryFunction

# expansion coefficients in the orthonormal basis sqrt(2/pi) sin(kx):
# <sin x> = sqrt(pi/2); <x(pi-x)> = 4 sqrt(2/pi) / k^3 for odd k, 0 for even
COEF_SIN_X = math.sqrt(math.pi / 2.0)
COEF_PARABOLA_K1 = 4.0 * math.sqrt(2.0 / math.pi)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_model_eigenvalues_exact(s):
    basis = model_eigenpairs(s, K=25)
    ks = np.arange(1, 26, dtype=float)
    assert np.array_equal(basis.lambdas, ks ** (2 * s))


def test_model_orthonormal():
    basis = model_eigenpairs(1, K=60)
    assert basis.gram_error() < 1e-12


def test_model_expand_sin():
    basis = model_eigenpairs(1, K=8)
    coefs = basis.expand(lambda x: np.sin(x))
    assert coefs[0] == pytest.approx(COEF_SIN_X, rel=1e-13)
    assert np.max(np.abs(coefs[1:])) < 1e-13


def test_model_expand_parabola():
    basis = model_eigenpairs(1, K=9)
    coefs = basis.expand(lambda x: x * (math.pi - x))
    for k in range(1, 10):
        want = COEF_PARABOLA_K1 / k**3 if k % 2 else 0.0
        assert coefs[k - 1] == pytest.approx(want, abs=1e-12)


def test_model_eigenfunction_derivatives():
    basis = model_eigenpairs(2, K=5)
    xs = np.linspace(0, math.pi, 11)
    scale = math.sqrt(2 / math.pi)
    assert basis.functions(xs).shape == (5, 11)
    assert np.allclose(basis.functions(xs)[2], scale * np.sin(3 * xs))
    assert np.allclose(basis.functions(xs, 1)[2], 3 * scale * np.cos(3 * xs))
    assert np.allclose(basis.functions(xs, 2)[2], -9 * scale * np.sin(3 * xs))


def test_numeric_matches_model_for_zero_potential():
    basis = numeric_eigenpairs(1, BoundaryFunction.zero(), K=10, grid_size=512)
    ks = np.arange(1, 11, dtype=float)
    rel = np.abs(basis.lambdas - ks**2) / ks**2
    assert np.max(rel) < 1e-8
    # eigenvectors match the closed form up to sign
    xs = basis.x
    for idx in (0, 4, 9):
        k = idx + 1
        exact = math.sqrt(2 / math.pi) * np.sin(k * xs)
        dev = min(
            np.max(np.abs(basis.samples[idx] - exact)),
            np.max(np.abs(basis.samples[idx] + exact)),
        )
        assert dev < 1e-4


def test_numeric_constant_shift():
    # adding a constant to p0 shifts every eigenvalue by exactly that much
    one = BoundaryFunction.from_expression("1")
    basis = numeric_eigenpairs(1, one, K=12, grid_size=512)
    ks = np.arange(1, 13, dtype=float)
    rel = np.abs(basis.lambdas - (ks**2 + 1.0)) / (ks**2 + 1.0)
    assert np.max(rel) < 1e-7


def test_numeric_orthonormal_and_interpolant():
    p0 = BoundaryFunction.from_expression("1 + x*(pi - x)")
    basis = numeric_eigenpairs(1, p0, K=6, grid_size=256)
    assert basis.gram_error() < 1e-10
    # the sine interpolant reproduces the grid samples
    assert np.max(np.abs(basis.functions(basis.x) - basis.samples)) < 1e-8


def test_numeric_functions_derivative_matches_difference():
    p0 = BoundaryFunction.from_expression("1 + x*(pi - x)")
    basis = numeric_eigenpairs(1, p0, K=6, grid_size=256)
    xs = np.linspace(0.3, math.pi - 0.3, 23)
    h = 1e-3
    f = [basis.functions(xs + j * h) for j in (-2, -1, 0, 1, 2)]
    fd = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    d2 = basis.functions(xs, 2)
    assert d2.shape == (6, 23)
    assert np.max(np.abs(d2 - fd)) < 1e-6 * np.max(np.abs(d2))


def test_numeric_higher_order_operator():
    basis = numeric_eigenpairs(2, BoundaryFunction.zero(), K=6, grid_size=512)
    ks = np.arange(1, 7, dtype=float)
    rel = np.abs(basis.lambdas - ks**4) / ks**4
    assert np.max(rel) < 1e-6


def test_too_many_modes_raises():
    with pytest.raises(DiscretizationTooCoarse):
        numeric_eigenpairs(1, BoundaryFunction.zero(), K=100, grid_size=256)


def test_asymptote_check_decays():
    basis = numeric_eigenpairs(1, BoundaryFunction.from_expression("1"),
                               K=20, grid_size=512)
    report = asymptote_check(basis, b=1)
    assert report["decays"]
    # lam^(1/2) - k = sqrt(k^2+1) - k ~ 1/(2k)
    dev = np.asarray(report["deviation"])
    assert dev[0] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-5)


def test_mercer_sums_bounded():
    basis = model_eigenpairs(1, K=200)
    xs = np.linspace(0.1, math.pi - 0.1, 9)
    sums = mercer_partial_sums(basis, xs)
    # partial sums of X_k(x)^2 / lam_k are increasing and bounded
    assert np.all(np.diff(sums, axis=0) >= -1e-15)
    assert np.max(sums[-1]) < 2.0


def test_eigen_to_csv(tmp_path):
    basis = model_eigenpairs(1, K=4)
    path = tmp_path / "eigs.csv"
    eigen_to_csv(basis, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("k,")
    assert len(rows) == 5
    k, lam = rows[2].split(",")[:2]
    assert int(k) == 2 and float(lam) == 4.0


@settings(max_examples=20, deadline=None)
@given(
    coefs=st.lists(
        st.floats(min_value=-5, max_value=5).filter(lambda v: abs(v) > 1e-3),
        min_size=1, max_size=6,
    )
)
def test_expand_recovers_band_limited(coefs):
    basis = model_eigenpairs(1, K=8)
    scale = math.sqrt(2 / math.pi)

    def f(x):
        out = np.zeros_like(x)
        for i, c in enumerate(coefs):
            out += c * scale * np.sin((i + 1) * x)
        return out

    got = basis.expand(f)
    want = np.zeros(8)
    want[: len(coefs)] = coefs
    assert np.max(np.abs(got - want)) < 1e-10
