import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedbvp.denominators import (
    CalibrationUnstable,
    CaseNotTabulated,
    IrrationalInput,
    asymptote_comparison,
    build_report,
    classify_phase,
    continued_fraction,
    default_epsilon,
    diophantine_scan,
    separation_check,
)
from mixedbvp.modal import assemble, scaled_determinant
from mixedbvp.problem import PiRatio, make_spec


class TestPhaseTable:
    @pytest.mark.parametrize("n,gamma,q,want", [
        # n = 2 mod 4 (2n = 4 mod 8), stride 1
        (2, 1, 1, Fraction(1, 2)),
        (2, 1, 0, Fraction(0)),
        (2, 1, 2, Fraction(0)),
        # n = 0 mod 4 (2n = 0 mod 8), stride 1: parity rule flips
        (4, 1, 0, Fraction(1, 2)),
        (4, 1, 1, Fraction(0)),
        # even n, stride 2
        (2, 2, 0, Fraction(1, 4)),
        (2, 2, 1, Fraction(3, 4)),
        # n = 1 mod 4 (2n = 2 mod 8), stride 1
        (1, 1, 0, Fraction(1, 4)),
        (1, 1, 1, Fraction(3, 4)),
        (5, 1, 0, Fraction(1, 4)),
        # n = 3 mod 4 (2n = 6 mod 8), stride 1: parity rule flips
        (3, 1, 1, Fraction(1, 4)),
        (3, 1, 0, Fraction(3, 4)),
        # odd n, stride 2
        (1, 2, 0, Fraction(1, 4)),
        (1, 2, 1, Fraction(3, 4)),
        (3, 2, 1, Fraction(3, 4)),
    ])
    def test_rows(self, n, gamma, q, want):
        assert classify_phase(n, gamma, q).phase_over_pi == want

    def test_q_out_of_range_stride1(self):
        with pytest.raises(CaseNotTabulated):
            classify_phase(2, 1, 3)

    def test_q_out_of_range_stride2(self):
        with pytest.raises(CaseNotTabulated):
            classify_phase(2, 2, 2)

    def test_bad_stride(self):
        with pytest.raises(CaseNotTabulated):
            classify_phase(2, 3, 0)

    def test_bad_n(self):
        with pytest.raises(CaseNotTabulated):
            classify_phase(0, 1, 0)


def _tabulated_rows(max_n=4):
    for n in range(1, max_n + 1):
        for gamma in (1, 2):
            hi = n if gamma == 1 else 1
            for q in range(hi + 1):
                for chi in range(hi + 1):
                    yield n, gamma, q, chi


@pytest.mark.parametrize("n,gamma,q,chi", list(_tabulated_rows()))
def test_phase_table_matches_fitted_determinants(n, gamma, q, chi):
    # Fit det_scaled(k) = c sin(rho_k a) + d cos(rho_k a) = A sin(rho_k a + phi)
    # by least squares, with rho_k = k for lam = k^(2n).  The corrections to
    # the asymptote decay like exp(-c rho a); at a = 1.5 they are below
    # rounding from k = 40 on.
    a = 1.5
    ks = np.arange(40, 201, dtype=float)
    lam = ks ** (2 * n)
    det = scaled_determinant(assemble(n=n, lam=lam, a=a, gamma=gamma, delta=gamma,
                                      q=q, chi=chi))
    basis = np.stack([np.sin(ks * a), np.cos(ks * a)], axis=1)
    (c, d), *_ = np.linalg.lstsq(basis, det, rcond=None)
    assert np.max(np.abs(basis @ [c, d] - det)) <= 1e-12 * np.max(np.abs(det))
    fitted = math.atan2(d, c) % math.pi
    gap = abs(fitted - classify_phase(n, gamma, q).phase)
    assert min(gap, math.pi - gap) < 1e-9


class TestSeparation:
    def test_t1_quarter_phase(self):
        res = separation_check(PiRatio.parse("1/1"), classify_phase(1, 1, 0))
        assert res.separated
        assert res.delta1 == pytest.approx(math.sqrt(2) / 2)

    def test_t3_half_phase(self):
        res = separation_check(PiRatio.parse("1/3"), classify_phase(2, 1, 1))
        assert res.separated
        assert res.delta1 == pytest.approx(0.5)

    def test_even_t_half_phase_not_separated(self):
        res = separation_check(PiRatio.parse("1/2"), classify_phase(2, 1, 1))
        assert not res.separated
        assert res.delta1 is None
        assert res.verdict == "not_guaranteed"

    def test_t_multiple_of_4_quarter_phase(self):
        res = separation_check(PiRatio.parse("1/4"), classify_phase(1, 1, 0))
        assert not res.separated

    def test_phase_zero_never_separated(self):
        res = separation_check(PiRatio.parse("1/3"), classify_phase(2, 1, 0))
        assert not res.separated

    def test_odd_t_half_phase_floor_is_one(self):
        res = separation_check(PiRatio.parse("1/1"), classify_phase(2, 1, 1))
        assert res.separated
        assert res.delta1 == pytest.approx(1.0)

    def test_irrational_refused(self):
        with pytest.raises(IrrationalInput):
            separation_check(PiRatio.parse("sqrt2"), classify_phase(1, 1, 0))

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=9),
        t=st.integers(min_value=1, max_value=12),
        b=st.integers(min_value=1, max_value=3),
        phase_num=st.sampled_from([1, 2, 3]),
    )
    def test_floor_bounds_brute_force(self, p, t, b, phase_num):
        # the residue floor bounds |sin(pi p k^b / t + phase)| from below;
        # for b = 1 and gcd(p, t) = 1 every residue is hit, so it is sharp
        phase = classify_phase(1, 1, 0)  # placeholder, rebuilt below
        frac = Fraction(phase_num, 4)
        ratio = PiRatio.rational(p, t)
        tt = ratio.fraction.denominator
        values = np.abs(np.sin(math.pi * (np.arange(tt) / tt + float(frac))))
        floor = float(np.min(values))
        ks = np.arange(1, 6 * tt + 1)
        brute = np.min(np.abs(np.sin(
            math.pi * (ratio.fraction.numerator * ks.astype(float) ** b
                       / tt + float(frac))
        )))
        assert brute >= floor - 1e-9
        if b == 1:
            assert brute == pytest.approx(floor, abs=1e-9)


class TestScan:
    def test_m_selection_and_gap(self):
        scan = diophantine_scan("sqrt2", b=1, epsilon=0.5, phase=Fraction(0),
                                k_max=200)
        k5 = 4  # index of k = 5
        assert scan.m[k5] == 8
        assert np.all(scan.gap <= 0.5 / scan.k.astype(float) + 1e-15)

    def test_rational_tau_hits_zero(self):
        scan = diophantine_scan(Fraction(1, 2), b=1, epsilon=0.5,
                                phase=Fraction(0), k_max=50)
        assert scan.min_w < 1e-12

    def test_sqrt2_half_phase_floor(self):
        # the k = 1 weighted term is |cos(pi sqrt(2))| exactly
        scan = diophantine_scan("sqrt2", b=1, epsilon=0.5,
                                phase=Fraction(1, 2), k_max=2000)
        assert scan.argmin_raw == 1
        assert scan.min_raw == pytest.approx(abs(math.cos(math.pi * math.sqrt(2))),
                                             rel=1e-12)
        assert scan.min_w > 0.25

    def test_refinement_agrees_with_float(self):
        base = diophantine_scan("sqrt2", b=1, epsilon=0.3, phase=Fraction(1, 2),
                                k_max=500, refine_top=0)
        refined = diophantine_scan("sqrt2", b=1, epsilon=0.3, phase=Fraction(1, 2),
                                   k_max=500, refine_top=20)
        assert refined.min_w == pytest.approx(base.min_w, rel=1e-9)

    @pytest.mark.parametrize("k_max, top", [(500, 20), (5, 20), (500, 0)])
    def test_refines_smallest_weights_in_order(self, k_max, top):
        args = dict(tau="sqrt3", b=2, epsilon=0.3, phase=Fraction(1, 4), k_max=k_max)
        base = diophantine_scan(**args, refine_top=0)
        scan = diophantine_scan(**args, refine_top=top)
        want = base.k[np.argsort(base.w, kind="stable")][:top]
        assert list(scan.refined) == want.tolist()

    def test_epsilon_weighting(self):
        flat = diophantine_scan("sqrt2", b=1, epsilon=0.0, phase=Fraction(1, 2),
                                k_max=100)
        assert np.allclose(flat.w, flat.raw)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            diophantine_scan(-1.0, b=1, epsilon=0.5, phase=Fraction(0), k_max=10)


class TestContinuedFraction:
    def test_sqrt2(self):
        cf = continued_fraction("sqrt2", depth=10)
        assert cf.quotients[0] == 1
        assert all(a == 2 for a in cf.quotients[1:])
        assert cf.convergents[3] == Fraction(17, 12)
        assert not cf.near_rational
        assert not cf.terminated

    def test_golden(self):
        cf = continued_fraction("golden", depth=12)
        assert all(a == 1 for a in cf.quotients)

    def test_rational_terminates(self):
        cf = continued_fraction(Fraction(3, 7), depth=10)
        assert cf.quotients == [0, 2, 3]
        assert cf.terminated
        assert cf.convergents[-1] == Fraction(3, 7)

    def test_near_rational_flag(self):
        cf = continued_fraction("0.333333333333", depth=6)
        assert cf.near_rational

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            continued_fraction("sqrt2", depth=0)


class TestAsymptote:
    def _phase(self):
        return classify_phase(2, 1, 1)  # pi/2

    def test_amplitude_recovered(self):
        ks = np.arange(1, 81)
        lams = ks.astype(float) ** 4
        phase = self._phase()
        delta4 = np.sin(ks.astype(float) * 1.0 + phase.phase)
        dets = 3.7 * (delta4 + 0.4 * np.exp(-0.3 * ks))
        rep = asymptote_comparison(ks, dets, lams, n=2, a=1.0, phase=phase)
        assert rep.amplitude == pytest.approx(3.7, rel=1e-3)
        assert rep.sup_tail < 1e-6
        assert rep.sup_tail < rep.sup_head

    def test_degenerate_phase_zero_unstable(self):
        # phase 0 with a = pi puts every k on a sine zero
        ks = np.arange(1, 41)
        lams = ks.astype(float) ** 4
        phase = classify_phase(2, 1, 0)
        dets = 1e-12 * np.random.default_rng(0).standard_normal(len(ks))
        with pytest.raises(CalibrationUnstable):
            asymptote_comparison(ks, dets, lams, n=2, a=math.pi, phase=phase)

    def test_too_few_modes(self):
        ks = np.arange(1, 5)
        with pytest.raises(CalibrationUnstable):
            asymptote_comparison(ks, np.ones(4), ks.astype(float) ** 4,
                                 n=2, a=1.0, phase=self._phase())


class TestDefaultEpsilon:
    def test_values(self):
        assert default_epsilon(2, 1) == pytest.approx(1.0)
        assert default_epsilon(3, 1) == pytest.approx(2.0)
        assert default_epsilon(1, 1) is None
        assert default_epsilon(2, 2) is None


class TestBuildReport:
    def test_rational_separated(self):
        spec = make_spec(s=2, n=2, a_over_pi="1/3", gamma=1, q=1, chi=0)
        rep = build_report(spec)
        assert rep.verdict == "separated"
        assert rep.delta1 == pytest.approx(0.5)

    def test_irrational_scans(self):
        spec = make_spec(s=2, n=2, a_over_pi="sqrt2", gamma=1, q=1, chi=0)
        rep = build_report(spec, scan_kmax=300)
        assert rep.verdict == "diophantine"
        assert rep.scan is not None
        assert rep.scan.epsilon == pytest.approx(1.0)  # default for s=2, b=1

    def test_irrational_b_equals_s_notes_refusal(self):
        spec = make_spec(s=1, n=1, a_over_pi="sqrt2")
        rep = build_report(spec, scan_kmax=100)
        assert rep.verdict == "diophantine"
        assert any("epsilon" in note for note in rep.notes)

    def test_untagged_undeclared(self):
        spec = make_spec(s=1, n=1, a_over_pi=1.37)
        rep = build_report(spec)
        assert rep.verdict == "undeclared"
        assert rep.delta1 is None

    def test_json_round_trip(self):
        import json

        spec = make_spec(s=2, n=2, a_over_pi="1/3", gamma=1, q=1, chi=0)
        ks = np.arange(1, 31)
        lams = ks.astype(float) ** 4
        from mixedbvp.modal import assemble, scaled_determinant

        dets = np.array([
            scaled_determinant(assemble(n=2, lam=lam, a=spec.a, gamma=1,
                                        delta=1, q=1, chi=0))
            for lam in lams
        ])
        rep = build_report(spec, ks=ks, dets=dets, lams=lams)
        payload = rep.to_json_dict()
        json.dumps(payload)
        assert payload["verdict"] == "separated"
        assert payload["min_abs_normalized"] > 0.4
