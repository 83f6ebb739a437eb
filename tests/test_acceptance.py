"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with -s to see the verdict lines:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from mixedbvp.denominators import (
    asymptote_comparison,
    classify_phase,
    continued_fraction,
    diophantine_scan,
    separation_check,
)
from mixedbvp.eigen import asymptote_check, model_eigenpairs, numeric_eigenpairs
from mixedbvp.modal import (
    assemble,
    scaled_determinant,
    upper_block_closed_form,
    upper_block_direct,
)
from mixedbvp.problem import PiRatio, make_spec
from mixedbvp.series import SingularModeWithData, solution_to_csv, solve_problem
from mixedbvp.verify import (
    boundary_check,
    matching_check,
    oracle_compare,
    pde_residual,
)


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def det_family(ks, *, n, s, a, gamma, delta, q, chi):
    lams = ks.astype(float) ** (2 * s)
    dets = np.array([
        scaled_determinant(assemble(n=n, lam=lam, a=a, gamma=gamma,
                                    delta=delta, q=q, chi=chi))
        for lam in lams
    ])
    return lams, dets


def test_criterion_01_model_basis_exact():
    t0 = time.perf_counter()
    worst_gram = 0.0
    exact = True
    for s in (1, 2, 3):
        basis = model_eigenpairs(s, K=100)
        ks = np.arange(1, 101, dtype=float)
        exact = exact and np.array_equal(basis.lambdas, ks ** (2 * s))
        worst_gram = max(worst_gram, basis.gram_error())
    elapsed = time.perf_counter() - t0
    ok = exact and worst_gram <= 1e-10 and elapsed < 1.0
    report(1, ok,
           f"lambda_k = k^2s exact for s in 1..3, gram error "
           f"{worst_gram:.2e} <= 1e-10, {elapsed:.2f}s < 1s")


def test_criterion_02_numeric_eigensolver():
    t0 = time.perf_counter()
    basis = numeric_eigenpairs(1, 1.0, K=20, grid_size=512)
    ks = np.arange(1, 21, dtype=float)
    target = ks**2 + 1.0
    rel = float(np.max(np.abs(basis.lambdas - target) / target))
    asym = asymptote_check(basis, b=1)
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and asym["decays"] and elapsed < 10.0
    report(2, ok,
           f"p0=1 eigenvalues within {rel:.2e} <= 1e-6 of k^2+1, "
           f"sqrt-asymptote deviation decays ({asym['head_max']:.2e} -> "
           f"{asym['tail_max']:.2e}), {elapsed:.2f}s < 10s")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    terms = " + ".join(f"sin({k}*x)/{k * k}" for k in range(1, 51))
    spec = make_spec(s=1, n=1, a_over_pi="1/1", phi=terms, psi=terms)
    field = solve_problem(spec, K=50)
    oc = oracle_compare(field, ny=101)
    elapsed = time.perf_counter() - t0
    ok = (field.K_active == 50 and oc.det_ratio_spread <= 1e-8
          and oc.max_mode_deviation <= 1e-9 and elapsed < 5.0)
    report(3, ok,
           f"4x4 pipeline vs 2x2 reduction over k <= 50: det ratio spread "
           f"{oc.det_ratio_spread:.2e} <= 1e-8, mode profile deviation "
           f"{oc.max_mode_deviation:.2e} <= 1e-9 on 101 points, "
           f"{elapsed:.2f}s < 5s")


def test_criterion_04_determinant_asymptote():
    t0 = time.perf_counter()
    # second-order prototype at a = pi, shifted-sine phase pi/4
    ks = np.arange(2, 101)
    lams, dets = det_family(ks, n=1, s=1, a=math.pi, gamma=1, delta=1,
                            q=0, chi=0)
    rep1 = asymptote_comparison(ks, dets, lams, n=1, a=math.pi,
                                phase=classify_phase(1, 1, 0))
    absres = np.abs(rep1.residual)
    win = (ks >= 20) & (ks <= 100)
    max_win_1 = float(np.max(absres[win]))
    sup_tail_1 = float(np.max(absres[ks >= 50]))
    sup_head_1 = float(np.max(absres[ks <= 50]))
    ok1 = max_win_1 <= 0.01 and sup_tail_1 < sup_head_1

    # eighth-order even case, phase 0; at a = pi the asymptote is
    # identically zero, so the width is set to 1 instead
    ks2 = np.arange(2, 61)
    lams2, dets2 = det_family(ks2, n=2, s=2, a=1.0, gamma=1, delta=1,
                              q=0, chi=0)
    rep2 = asymptote_comparison(ks2, dets2, lams2, n=2, a=1.0,
                                phase=classify_phase(2, 1, 0))
    absres2 = np.abs(rep2.residual)
    win2 = (ks2 >= 20) & (ks2 <= 60)
    max_win_2 = float(np.max(absres2[win2]))
    sup_tail_2 = float(np.max(absres2[ks2 >= 31]))
    sup_head_2 = float(np.max(absres2[ks2 <= 31]))
    ok2 = max_win_2 <= 0.01 and sup_tail_2 < sup_head_2
    elapsed = time.perf_counter() - t0
    ok = ok1 and ok2 and elapsed < 30.0
    report(4, ok,
           f"shifted-sine residual: prototype max {max_win_1:.2e} <= 0.01 on "
           f"[20,100] with tail {sup_tail_1:.2e} < head {sup_head_1:.2e}; "
           f"n=2 case max {max_win_2:.2e} <= 0.01 on [20,60] with tail "
           f"{sup_tail_2:.2e} < head {sup_head_2:.2e}; {elapsed:.2f}s < 30s")


def test_criterion_05_separation():
    t0 = time.perf_counter()
    # phase pi/2 realized by n=2, stride 1, q=1
    phase = classify_phase(2, 1, 1)
    assert float(phase.phase_over_pi) == 0.5
    ks = np.arange(1, 201)

    def floor_for(a):
        lams, dets = det_family(ks, n=2, s=2, a=a, gamma=1, delta=1,
                                q=1, chi=2)
        rep = asymptote_comparison(ks, dets, lams, n=2, a=a, phase=phase)
        return float(np.min(np.abs(rep.normalized)))

    floor_full = floor_for(math.pi)
    floor_third = floor_for(math.pi / 3.0)
    floor_half = floor_for(math.pi / 2.0)
    sep_full = separation_check(PiRatio.parse("1/1"), phase)
    sep_third = separation_check(PiRatio.parse("1/3"), phase)
    sep_half = separation_check(PiRatio.parse("1/2"), phase)
    elapsed = time.perf_counter() - t0
    ok = (floor_full >= 0.9 and sep_full.separated
          and floor_third >= 0.45 and sep_third.separated
          and floor_half < 1e-2 and not sep_half.separated
          and elapsed < 10.0)
    report(5, ok,
           f"normalized floors over k <= 200: a/pi=1 gives {floor_full:.3f} "
           f">= 0.9, a/pi=1/3 gives {floor_third:.3f} >= 0.45, a/pi=1/2 "
           f"collapses to {floor_half:.2e} < 1e-2 and is reported "
           f"not guaranteed; {elapsed:.2f}s < 10s")


def test_criterion_06_diophantine_scan():
    t0 = time.perf_counter()
    scan = diophantine_scan("sqrt2", b=1, epsilon=0.5, phase="1/2",
                            k_max=10_000)
    cf = continued_fraction("sqrt2", depth=12)
    elapsed = time.perf_counter() - t0
    ok = scan.min_w > 0.0 and scan.min_raw > 0.0 and elapsed < 5.0
    report(6, ok,
           f"tau=sqrt(2), k <= 1e4: weighted floor {scan.min_w:.4f} > 0, "
           f"raw floor {scan.min_raw:.4f} > 0 (quotients "
           f"{cf.quotients[:4]}...), {elapsed:.2f}s < 5s")


def test_criterion_07_full_solve():
    t0 = time.perf_counter()
    spec = make_spec(s=1, n=1, a_over_pi="1/1",
                     phi="sin(x) + 0.3*sin(2*x)", psi="0")
    field = solve_problem(spec, K=10)
    res = pde_residual(field, nx=201, ny=201)
    bnd = boundary_check(field)
    mat = matching_check(field)
    elapsed = time.perf_counter() - t0
    ok = (bnd.worst_rel <= 1e-8 and res.termwise <= 1e-8
          and mat.worst_rel <= 1e-8 and res.fd <= 1e-3 and elapsed < 30.0)
    report(7, ok,
           f"boundary {bnd.worst_rel:.2e} <= 1e-8, termwise residual "
           f"{res.termwise:.2e} <= 1e-8, matching {mat.worst_rel:.2e} "
           f"<= 1e-8, difference residual {res.fd:.2e} <= 1e-3 on 201x201, "
           f"{elapsed:.2f}s < 30s")


def test_criterion_08_singular_fallback():
    t0 = time.perf_counter()

    def spec_with(phi0):
        return make_spec(s=2, n=2, a_over_pi="1/2", gamma=1, q=1, chi=0,
                         phi=[phi0, "0"])

    field = solve_problem(spec_with("sin(8*x)"), K=10, tol_singular=1e-6)
    flagged = 7 in field.nonunique_modes
    raised = False
    k_hit = None
    try:
        solve_problem(spec_with("sin(7*x)"), K=10, tol_singular=1e-6)
    except SingularModeWithData as err:
        raised = True
        k_hit = err.k
    elapsed = time.perf_counter() - t0
    ok = flagged and raised and k_hit == 7 and elapsed < 10.0
    report(8, ok,
           f"a/pi=1/2 near-singular mode k=7: orthogonal data completes "
           f"with nonunique flag {sorted(field.nonunique_modes)}, data on "
           f"the mode raises the singular error (k={k_hit}), "
           f"{elapsed:.2f}s < 10s")


def test_criterion_09_linearity_determinism(tmp_path):
    spec1 = make_spec(s=1, n=1, a_over_pi="1/1",
                      phi="sin(x) + 0.3*sin(2*x)", psi="sin(3*x)/2")
    spec2 = make_spec(s=1, n=1, a_over_pi="1/1",
                      phi="2*sin(x) + 0.6*sin(2*x)", psi="sin(3*x)")
    f1 = solve_problem(spec1, K=8)
    f2 = solve_problem(spec2, K=8)
    xs = np.linspace(0, math.pi, 21)
    ys = np.linspace(-math.pi, math.pi, 21)
    dev = float(np.max(np.abs(f2.evaluate_grid(xs, ys)
                              - 2.0 * f1.evaluate_grid(xs, ys))))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    solution_to_csv(solve_problem(spec1, K=8), xs, ys, p1)
    solution_to_csv(solve_problem(spec1, K=8), xs, ys, p2)
    identical = p1.read_bytes() == p2.read_bytes()
    ok = dev <= 1e-10 and identical
    report(9, ok,
           f"solve(2*data) - 2*solve(data) max {dev:.2e} <= 1e-10; two "
           f"fresh runs produce byte-identical CSV: {identical}")


def test_criterion_10_block_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for delta in (1, 2):
        for lam in (16.0, 1e4):
            for a in (1.0, math.pi):
                log_c, factor_c = upper_block_closed_form(2, delta, lam, a)
                log_d, factor_d = upper_block_direct(2, delta, 0, lam, a)
                closed = factor_c * math.exp(log_c - log_d)
                worst = max(worst, abs(closed - factor_d) / abs(factor_d))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(10, ok,
           f"upper-block determinant, direct vs closed form, n=2 over "
           f"delta/lambda/a grid: worst relative {worst:.2e} <= 1e-8, "
           f"{elapsed:.2f}s < 1s")
