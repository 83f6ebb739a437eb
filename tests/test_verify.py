import dataclasses
import math
import warnings

import numpy as np
import pytest

from mixedbvp.problem import make_spec
from mixedbvp.series import solve_problem
from mixedbvp.verify import (
    OracleUnavailable,
    boundary_check,
    matching_check,
    oracle_compare,
    pde_residual,
    run_verification,
)


@pytest.fixture(scope="module")
def proto_field():
    spec = make_spec(s=1, n=1, a_over_pi="1/1",
                     phi="sin(x) + 0.3*sin(2*x)", psi="0")
    return solve_problem(spec, K=10)


class TestResidual:
    def test_prototype_residuals_small(self, proto_field):
        rep = pde_residual(proto_field, nx=101, ny=101)
        assert rep.termwise < 1e-12
        assert rep.fd < 1e-4

    def test_zero_field_zero_residual(self):
        spec = make_spec(s=1, n=1, a_over_pi="1/1", phi="0")
        rep = pde_residual(solve_problem(spec, K=4))
        assert rep.termwise == 0.0
        assert rep.fd == 0.0

    def test_termwise_detects_wrong_multiplier(self, proto_field):
        # corrupt the stored eigenvalue of one mode: the termwise route
        # trusts it, the field evaluation does not
        broken_mode = dataclasses.replace(proto_field.modes[0], lam=2.0)
        modes = list(proto_field.modes)
        modes[0] = broken_mode
        broken = dataclasses.replace(proto_field, modes=modes)
        rep = pde_residual(broken, nx=101, ny=101)
        assert rep.termwise > 1e-2
        assert rep.fd < 1e-4

    def test_fd_detects_grafted_profile(self, proto_field):
        # move the k=2 transverse profile into the k=1 slot: each stored
        # pair is internally consistent so termwise stays quiet, but the
        # assembled field no longer solves the equation
        modes = list(proto_field.modes)
        modes[0] = modes[1]
        broken = dataclasses.replace(proto_field, modes=modes)
        rep = pde_residual(broken, nx=101, ny=101)
        assert rep.fd > 1e-2
        assert rep.termwise < 1e-12


class TestBoundary:
    def test_prototype_boundary(self, proto_field):
        rep = boundary_check(proto_field)
        assert rep.worst_rel < 1e-12
        assert rep.corner_max < 1e-12

    def test_detects_wrong_data(self, proto_field):
        wrong_spec = make_spec(s=1, n=1, a_over_pi="1/1", phi="sin(3*x)")
        broken = dataclasses.replace(proto_field, spec=wrong_spec)
        rep = boundary_check(broken)
        assert rep.worst_rel > 0.1


class TestMatching:
    def test_prototype_matching(self, proto_field):
        rep = matching_check(proto_field)
        assert rep.worst_rel < 1e-12
        assert len(rep.absolute) == 2 * proto_field.spec.n

    def test_higher_order_case(self):
        spec = make_spec(s=2, n=2, a_over_pi="1/3", gamma=1, q=1, chi=0,
                         phi=["sin(x)", "0"], psi=["0", "sin(2*x)"])
        field = solve_problem(spec, K=6)
        rep = matching_check(field)
        assert rep.worst_rel < 1e-10
        assert len(rep.absolute) == 4


class TestOracle:
    def test_prototype_agrees(self, proto_field):
        rep = oracle_compare(proto_field)
        assert rep.max_mode_deviation < 1e-12
        assert rep.max_field_deviation < 1e-12
        assert rep.det_ratio_spread < 1e-12

    def test_large_k_does_not_overflow(self):
        # exp(-R y) on the lower half overflows once k a > 709 (k > 225 here)
        spec = make_spec(s=1, n=1, a_over_pi="1/1",
                         phi="x*(pi - x)", psi="sin(x)")
        field = solve_problem(spec, K=300)
        assert field.K_active > 226
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = oracle_compare(field)
        assert rep.max_mode_deviation < 1e-9
        assert len(rep.det_ratios) == field.K_active

    def test_unavailable_outside_prototype(self):
        spec = make_spec(s=2, n=2, a_over_pi="1/3", gamma=1, q=1, chi=0,
                         phi=["sin(x)", "0"])
        field = solve_problem(spec, K=4)
        with pytest.raises(OracleUnavailable):
            oracle_compare(field)


class TestRunner:
    def test_report_ok(self, proto_field):
        report = run_verification(proto_field, nx=101, ny=101)
        assert report["ok"]
        assert report["failures"] == []
        assert report["oracle"] is not None
        assert set(report["pde"]) >= {"termwise", "fd"}

    def test_threshold_failure_listed(self, proto_field):
        report = run_verification(proto_field,
                                  thresholds={"pde_termwise": 1e-30},
                                  nx=101, ny=101)
        assert not report["ok"]
        assert any("termwise residual" in f for f in report["failures"])

    def test_oracle_skipped_gracefully(self):
        spec = make_spec(s=2, n=2, a_over_pi="1/3", gamma=1, q=1, chi=0,
                         phi=["sin(x)", "0"])
        field = solve_problem(spec, K=4)
        report = run_verification(field, nx=61, ny=61)
        assert report["oracle"] is None
        assert report["ok"]
