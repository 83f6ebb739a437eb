import json
import math

import numpy as np
import pytest

from mixedbvp._util import jsonable
from mixedbvp.problem import BoundaryFunction, make_spec
from mixedbvp.series import (
    OutOfDomain,
    SingularModeWithData,
    expand_boundary,
    smoothness_check,
    solution_to_csv,
    solve_problem,
)


def proto_spec(phi="sin(x)", psi="0", a="1/1"):
    return make_spec(s=1, n=1, a_over_pi=a, phi=phi, psi=psi)


class TestSmoothness:
    def test_clean_data_passes(self):
        spec = make_spec(s=2, n=2, a_over_pi="1/3", gamma=1, q=1, chi=0,
                         phi=["sin(x)", "sin(2*x)"], psi=["0", "0"])
        rep = smoothness_check(spec)
        assert rep.data_conditions_met
        assert rep.weighted_route_allowed

    def test_rough_data_fails(self):
        # x(pi - x) has nonvanishing second derivative at the endpoints
        spec = make_spec(s=2, n=2, a_over_pi="1/3", gamma=1, q=1, chi=0,
                         phi=["x*(pi - x)", "0"], psi=["0", "0"])
        rep = smoothness_check(spec)
        assert not rep.data_conditions_met
        assert any(e.status == "fail" for e in rep.entries)

    def test_sampled_data_estimated(self):
        xs = np.linspace(0, math.pi, 801)
        spec = make_spec(s=1, n=1, a_over_pi="1/1", phi=np.sin(xs))
        rep = smoothness_check(spec)
        assert any(e.status == "estimated" for e in rep.entries)
        assert any("sampled" in note for note in rep.notes)

    def test_b_equals_s_refuses_weighted_route(self):
        rep = smoothness_check(proto_spec())
        assert not rep.weighted_route_allowed
        assert any("refused" in note for note in rep.notes)


class TestExpansion:
    def test_shapes_and_values(self):
        spec = make_spec(s=2, n=2, a_over_pi="1/3", gamma=1, q=1, chi=0,
                         phi=["sin(x)", "0"], psi=["0", "sin(3*x)"])
        from mixedbvp.eigen import model_eigenpairs

        basis = model_eigenpairs(2, K=6)
        exp = expand_boundary(spec, basis)
        assert exp.phi.shape == (2, 6)
        assert exp.psi.shape == (2, 6)
        root = math.sqrt(math.pi / 2)
        assert exp.phi[0, 0] == pytest.approx(root, rel=1e-12)
        assert exp.psi[1, 2] == pytest.approx(root, rel=1e-12)
        assert exp.data_norm == pytest.approx(root, rel=1e-12)
        diag = exp.decay_diagnostic()
        assert set(diag) == {"phi[0]", "phi[1]", "psi[0]", "psi[1]"}


class TestTruncation:
    def test_zero_data_gives_zero_field(self):
        field = solve_problem(proto_spec(phi="0", psi="0"), K=8)
        assert field.K_active == 0
        assert field.max_abs() == 0.0
        assert field.tail_bound == 0.0

    def test_band_limited_data_truncates(self):
        field = solve_problem(proto_spec(phi="sin(3*x)"), K=12)
        assert field.K_active == 3

    def test_weight_law_separated(self):
        field = solve_problem(proto_spec(), K=6)
        assert field.weight_law["kind"] == "uniform"

    def test_weight_law_diophantine(self):
        spec = make_spec(s=2, n=2, a_over_pi="sqrt2", gamma=1, q=1, chi=0,
                         phi=["sin(x)", "0"], psi=["0", "0"])
        field = solve_problem(spec, K=6, scan_kmax=200)
        assert field.weight_law["kind"] == "weighted"
        # b = 1 with the default epsilon = 1 for s = 2
        assert field.weight_law["exponent"] == pytest.approx(2.0)

    def test_weight_law_fallback_undeclared(self):
        spec = make_spec(s=1, n=1, a_over_pi=1.37, phi="sin(x)")
        field = solve_problem(spec, K=6)
        assert field.weight_law["kind"] == "fallback"
        # model basis drifts nowhere: exponent 2s - b = 1
        assert field.weight_law["exponent"] == pytest.approx(1.0)


class TestEvaluate:
    def test_grid_matches_pointwise(self):
        field = solve_problem(proto_spec(psi="sin(2*x)"), K=8)
        xs = np.linspace(0, math.pi, 5)
        ys = np.linspace(-math.pi, math.pi, 7)
        grid = field.evaluate_grid(xs, ys)
        for j, yv in enumerate(ys):
            for i, xv in enumerate(xs):
                assert grid[j, i] == pytest.approx(field.evaluate(xv, yv),
                                                   abs=1e-14)

    def test_scalar_returns_float(self):
        field = solve_problem(proto_spec(), K=4)
        out = field.evaluate(1.0, 0.5)
        assert isinstance(out, float)

    def test_broadcast(self):
        field = solve_problem(proto_spec(), K=4)
        xs = np.linspace(0.5, 2.5, 4)
        out = field.evaluate(xs, 0.25)
        assert out.shape == (4,)

    def test_domain_guard(self):
        field = solve_problem(proto_spec(), K=4)
        with pytest.raises(OutOfDomain):
            field.evaluate(-0.5, 0.0)
        with pytest.raises(OutOfDomain):
            field.evaluate(1.0, 4.0)

    def test_order_guard(self):
        field = solve_problem(proto_spec(), K=4)
        with pytest.raises(OutOfDomain):
            field.evaluate(1.0, 0.5, dx_order=3)
        with pytest.raises(OutOfDomain):
            field.evaluate(1.0, 0.5, dx_order=2, dy_order=2)
        field.evaluate(1.0, 0.5, dx_order=2, dy_order=1)

    def test_linearity(self):
        f1 = solve_problem(proto_spec(phi="sin(x)"), K=8)
        f2 = solve_problem(proto_spec(phi="sin(2*x)"), K=8)
        f12 = solve_problem(proto_spec(phi="sin(x) + sin(2*x)"), K=8)
        xs = np.linspace(0, math.pi, 9)
        ys = np.linspace(-math.pi, math.pi, 9)
        combined = f1.evaluate_grid(xs, ys) + f2.evaluate_grid(xs, ys)
        assert np.max(np.abs(combined - f12.evaluate_grid(xs, ys))) < 1e-12


class TestSingularPolicy:
    def singular_spec(self, phi0):
        return make_spec(s=2, n=2, a_over_pi="1/2", gamma=1, q=1, chi=0,
                         phi=[phi0, "0"])

    def test_data_on_singular_mode_raises(self):
        with pytest.raises(SingularModeWithData) as info:
            solve_problem(self.singular_spec("sin(7*x)"), K=10,
                          tol_singular=1e-6)
        assert info.value.k == 7

    def test_orthogonal_data_skips_and_flags(self):
        field = solve_problem(self.singular_spec("sin(8*x)"), K=10,
                              tol_singular=1e-6)
        assert 7 in field.nonunique_modes
        assert field.modes[6] is None
        # the skipped mode contributes nothing but the rest solves
        assert np.isfinite(field.max_abs())

    def test_profiles_match_basis_function_sum(self):
        field = solve_problem(self.singular_spec("sin(8*x)"), K=10,
                              tol_singular=1e-6)
        a, n2 = field.spec.a, 2 * field.spec.n
        ys = np.linspace(-a, a, 13)
        for order in range(2 * field.spec.n + 1):
            got = field.profiles(ys, order)
            assert got.shape == (field.K_active, len(ys))
            for idx, mode in enumerate(field.modes):
                if mode is None:
                    assert np.all(got[idx] == 0.0)
                    continue
                want = np.zeros(len(ys))
                for j, yv in enumerate(ys):
                    fns, cols = (mode.upper.functions, range(n2)) if yv >= 0 else \
                        (mode.lower.functions, range(n2, 2 * n2))
                    want[j] = mode.rho**order * sum(
                        mode.coeffs[c] * f.unit_eval(yv, order, mode.column_shifts[c])
                        for f, c in zip(fns, cols)
                    )
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got[idx] - want)) <= 1e-13 * scale


class TestArtifacts:
    def test_csv_deterministic(self, tmp_path):
        field = solve_problem(proto_spec(psi="sin(x)/3"), K=6)
        xs = np.linspace(0, math.pi, 11)
        ys = np.linspace(-math.pi, math.pi, 11)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        solution_to_csv(field, xs, ys, p1)
        solution_to_csv(field, xs, ys, p2)
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2
        lines = b1.decode().splitlines()
        assert lines[0] == "x,y,u"
        assert len(lines) == 1 + 11 * 11

    def test_metadata_serializable(self):
        field = solve_problem(proto_spec(), K=5)
        payload = json.dumps(jsonable(field.metadata_dict()), sort_keys=True)
        meta = json.loads(payload)
        assert meta["K_active"] == 1
        assert meta["denominator_verdict"] == "separated"


class TestSampledDataSolve:
    def test_sampled_boundary_round_trip(self):
        xs = np.linspace(0, math.pi, 4097)
        spec = make_spec(s=1, n=1, a_over_pi="1/1",
                         phi=np.sin(xs) + 0.25 * np.sin(2 * xs))
        field = solve_problem(spec, K=8)
        probe = np.linspace(0, math.pi, 33)
        got = field.evaluate_grid(probe, [-spec.a])[0]
        want = np.sin(probe) + 0.25 * np.sin(2 * probe)
        assert np.max(np.abs(got - want)) < 1e-6
