"""The package surface that bench/ reads or rebinds.

The benchmark under bench/ is frozen between changes to it: it calls these
names through their modules, wraps some of them in timing spans, and reads
the listed field attributes and report keys.  A refactor that renames or
removes any of them breaks the benchmark, so it fails here first.
"""

import math

import numpy as np
import pytest

import mixedbvp.cli as cli
import mixedbvp.denominators as dn
import mixedbvp.modal as modal
import mixedbvp.problem as problem
import mixedbvp.roots as roots
import mixedbvp.series as series
import mixedbvp.verify as verify

SURFACE = {
    problem: ["make_spec", "parse_config_text"],
    cli: ["load_config", "solve_problem", "run_verification", "main",
          "solution_to_csv", "dump_json"],
    series: ["model_eigenpairs", "numeric_eigenpairs", "assemble_from_spec",
             "scaled_determinant", "solve_modal", "smoothness_check",
             "expand_boundary", "solve_problem"],
    series.SolutionField: ["evaluate_grid"],
    modal: ["fundamental_system"],
    roots.BasisFunction: ["unit_eval"],
    dn: ["build_report", "diophantine_scan", "asymptote_comparison",
         "continued_fraction", "default_epsilon", "classify_phase"],
    verify: ["pde_residual", "boundary_check", "matching_check",
             "oracle_compare", "run_verification"],
}


@pytest.mark.parametrize(
    "owner,name",
    [(owner, name) for owner, names in SURFACE.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", str(v)),
)
def test_name_exists(owner, name):
    assert callable(getattr(owner, name))


def _check_report(report, with_oracle):
    assert report["ok"], report["failures"]
    assert report["failures"] == []
    assert math.isfinite(report["pde"]["termwise"])
    assert math.isfinite(report["pde"]["fd"])
    assert max(report["boundary"]["lower_rel"] + report["boundary"]["upper_rel"]) >= 0.0
    assert max(report["matching"]["relative"], default=0.0) >= 0.0
    if with_oracle:
        assert report["oracle"]["max_mode_deviation"] <= 1e-9
    else:
        assert report["oracle"] is None


def test_prototype_solve_and_verify():
    spec = problem.make_spec(s=1, n=1, a_over_pi="1/1",
                             phi="sin(x) + 0.1*sin(4*x)", psi="sin(2*x)/4")
    fld = series.solve_problem(spec, 4)
    assert fld.K_active == 4
    assert fld.basis.samples.nbytes > 0
    assert fld.nonunique_modes == []
    _check_report(verify.run_verification(fld), with_oracle=True)


def test_quartic_solve_verify_and_scan():
    spec = problem.make_spec(s=2, n=2, a_over_pi="sqrt2", gamma=1, q=1, chi=2,
                             phi=["sin(x)", "sin(2*x)/8"], psi=["sin(3*x)/27", "0"])
    fld = series.solve_problem(spec, 4, scan_kmax=1000)
    _check_report(verify.run_verification(fld), with_oracle=False)
    den = fld.denominator
    assert den.verdict == "diophantine"
    scan = dn.diophantine_scan(spec.a_over_pi, spec.b, den.scan.epsilon, den.phase, 1000)
    assert scan.min_w > 0.0 and len(scan.k) == 1000
    dn.continued_fraction(spec.a_over_pi, 30)
    eps = dn.default_epsilon(2, 1)
    dn.diophantine_scan("sqrt2", 1, eps, dn.classify_phase(2, 1, 1), 100)


def test_numeric_solve_and_verify():
    # K = 20 as in the benchmark: at K = 4 the normalization lam_max * max|u|
    # is too small for the finite-difference basis to clear 1e-8.
    spec = problem.make_spec(s=1, n=1, a_over_pi="1/1", p0="2",
                             phi="sin(x) + 0.3*sin(2*x)", psi="0.5*sin(3*x)")
    fld = series.solve_problem(spec, 20, grid_size=2048)
    ks = np.arange(1, 21, dtype=float)
    assert np.max(np.abs(fld.basis.lambdas - (ks**2 + 2.0)) / (ks**2 + 2.0)) <= 1e-6
    _check_report(verify.run_verification(fld), with_oracle=True)


def test_traced_layers_are_reached(monkeypatch):
    # The traced run rebinds these module attributes; each must still be
    # looked up there by the code path it times.
    calls = {}
    for owner, name in [(series, "assemble_from_spec"), (series, "scaled_determinant"),
                        (series, "solve_modal"), (modal, "fundamental_system"),
                        (series, "expand_boundary"), (series.SolutionField, "evaluate_grid"),
                        (verify, "pde_residual")]:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    spec = problem.make_spec(s=1, n=1, a_over_pi="1/1", phi="sin(x)", psi="0")
    verify.run_verification(series.solve_problem(spec, 4))
    # One call each on the stack of all modes; one fundamental system per half.
    assert calls["assemble_from_spec"] == calls["scaled_determinant"] == 1
    assert calls["fundamental_system"] == 2
    assert calls["solve_modal"] == 1
    assert calls["expand_boundary"] == 1
    assert calls["evaluate_grid"] >= 1 and calls["pde_residual"] == 1


def test_cli_solve_and_verify(tmp_path, capsys):
    text = (
        "s = 1\nn = 1\ngamma = 1\ndelta = 1\nq = 0\nchi = 0\n"
        "a_over_pi = 1/1\nphi[0] = sin(x)\npsi[0] = sin(4*x)/4\nK = 4\ngrid = 11\n"
    )
    spec, options = problem.parse_config_text(text)
    assert options["K"] == 4 and spec.n == 1
    cfg = tmp_path / "problem.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("solution.csv", "metadata.json", "denominator.json", "residual.json", "run.log"):
        assert (out / name).is_file()
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    capsys.readouterr()
