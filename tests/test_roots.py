import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedbvp.roots import (
    characteristic_roots,
    fundamental_system,
    ode_residual,
    root_equation_residual,
    scaled_wronskian,
    unit_values,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("region", ["upper", "lower"])
def test_count_and_equation(n, region):
    rs = characteristic_roots(n, 81.0, region)
    roots = rs.roots()
    assert len(roots) == 2 * n
    assert root_equation_residual(rs) < 1e-12
    # all roots distinct
    vals = sorted((z.real, z.imag) for z in roots)
    for a, b in zip(vals, vals[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1e-9


@pytest.mark.parametrize("n,region,family", [
    (1, "upper", "axis"),     # rho^2 = +lam: real pair
    (1, "lower", "oblique"),  # rho^2 = -lam: conjugate pair
    (2, "upper", "oblique"),
    (2, "lower", "axis"),
    (3, "upper", "axis"),
    (3, "lower", "oblique"),
])
def test_family_alternation(n, region, family):
    rs = characteristic_roots(n, 16.0, region)
    angles = [a.theta_over_pi for a in rs.angles]
    if family == "oblique":
        # no real root: all angles strictly inside (0, 1) excluding 0 and 1
        assert all(0 < f < 1 for f in angles)
        assert Fraction(1, 2 * n) in angles
    else:
        # real roots at both ends of the fan
        assert Fraction(0) in angles
        assert Fraction(1) in angles


def test_real_root_count_axis():
    # axis family of order n has exactly the two real roots +rho, -rho
    rs = characteristic_roots(3, 64.0, "upper")
    real = [z for z in rs.roots() if abs(z.imag) < 1e-14]
    assert len(real) == 2


def test_pure_imaginary_pair_even_axis():
    rs = characteristic_roots(2, 16.0, "lower")
    imag = [z for z in rs.roots() if abs(z.real) < 1e-14]
    assert len(imag) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("region", ["upper", "lower"])
def test_fundamental_system_size_and_ode(n, region):
    rs = characteristic_roots(n, 37.5, region)
    sys = fundamental_system(rs)
    assert len(sys.functions) == 2 * n
    ys = np.linspace(-0.9, 0.9, 41)
    assert ode_residual(sys, ys) < 1e-10


def test_wronskian_nonzero():
    for n in (1, 2, 3):
        for region in ("upper", "lower"):
            sys = fundamental_system(characteristic_roots(n, 5.0, region))
            assert abs(scaled_wronskian(sys)) > 1e-8


def test_basis_derivative_matches_numeric():
    # d/dy of rho^j e^(ay) trig(by + j theta) steps j by one
    rs = characteristic_roots(2, 30.0, "upper")
    sys = fundamental_system(rs)
    h = 1e-6
    for f in sys.functions:
        for order in range(3):
            at = 0.37
            numeric = (f.eval(at + h, order) - f.eval(at - h, order)) / (2 * h)
            assert numeric == pytest.approx(f.eval(at, order + 1), rel=1e-7, abs=1e-5)


def test_unit_eval_bounded_by_shift():
    # with the shift at the growing end, the scaled profile stays <= 1-ish
    lam = 1e12
    for region in ("upper", "lower"):
        rs = characteristic_roots(2, lam, region)
        sys = fundamental_system(rs)
        a = 2.0
        ys = np.linspace(0.0, a, 33) if region == "upper" else np.linspace(-a, 0.0, 33)
        for f in sys.functions:
            shift = a if f.alpha > 0 else (-a if f.alpha < 0 else 0.0)
            if region == "upper" and f.alpha < 0:
                shift = 0.0
            if region == "lower" and f.alpha > 0:
                shift = 0.0
            vals = [abs(f.unit_eval(y, 0, shift)) for y in ys]
            assert max(vals) <= 1.0 + 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("region", ["upper", "lower"])
@pytest.mark.parametrize("lam", [0.5, 37.5, 1e6, 1e12])
def test_unit_values_matches_unit_eval(n, region, lam):
    # one broadcast call over (order, column, y) against the scalar reference
    sys = fundamental_system(characteristic_roots(n, lam, region))
    a = 1.3
    ys = np.linspace(0.0, a, 9) if region == "upper" else np.linspace(-a, 0.0, 9)
    shifts = [
        (a if f.alpha > 0 else 0.0) if region == "upper" else (-a if f.alpha < 0 else 0.0)
        for f in sys.functions
    ]
    orders = np.arange(2 * n + 1)
    got = unit_values(sys.rootset.rho, sys.theta[:, None], sys.is_sin[:, None],
                      ys, orders[:, None, None], np.array(shifts)[:, None])
    assert got.shape == (2 * n + 1, 2 * n, len(ys))
    want = np.array([
        [f.unit_eval(ys, int(order), shift) for f, shift in zip(sys.functions, shifts)]
        for order in orders
    ])
    np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    lam=st.floats(min_value=1e-3, max_value=1e12),
    upper=st.booleans(),
)
def test_root_equation_property(n, lam, upper):
    rs = characteristic_roots(n, lam, "upper" if upper else "lower")
    assert root_equation_residual(rs) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    lam=st.floats(min_value=0.5, max_value=1e4),
    upper=st.booleans(),
)
def test_ode_property(n, lam, upper):
    sys = fundamental_system(
        characteristic_roots(n, lam, "upper" if upper else "lower")
    )
    ys = np.linspace(-0.5, 0.5, 11)
    assert ode_residual(sys, ys) < 1e-8
