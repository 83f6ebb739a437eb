"""Seeded benchmark workloads: inputs, one operation each, correctness gate.

Every call into the package goes through a module attribute
(``mixedbvp.series.solve_problem``, not an imported name), so the tracer's
rebinding sees it.  Each operation builds a fresh spec, because users pay
the per-spec sympy cost on every new problem.

An operation returns an ``Op``: named step timings in seconds, the failure
reasons of the gate (empty when it passed), and the active mode count.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import mixedbvp.cli
import mixedbvp.denominators
import mixedbvp.problem
import mixedbvp.series
import mixedbvp.verify
import numpy as np

SIZES = {
    "full": {
        "proto_K": 2000, "quartic_K": 300, "scan_kmax": 1_000_000,
        "numeric_K": 20, "numeric_grid": 2048, "cli_K": 10, "cli_grid": 101,
    },
    # Sizes for the self-test, which only checks that everything runs.
    "tiny": {
        "proto_K": 40, "quartic_K": 20, "scan_kmax": 10_000,
        "numeric_K": 16, "numeric_grid": 2048, "cli_K": 4, "cli_grid": 21,
    },
}

QUARTIC_TAUS = ("sqrt2", "sqrt3", "golden", "e")
NUMERIC_P0S = ("1 + x*(pi - x)", "1 + cos(2*x)", "2")
CLI_ARTIFACTS = ("solution.csv", "metadata.json", "denominator.json",
                 "residual.json", "run.log")
CF_DEPTH = 30
ORACLE_MODE_TOL = 1e-9  # acceptance criterion 3
EIGEN_REL_TOL = 1e-6  # acceptance criterion 2


@dataclass
class Op:
    steps: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    k_active: int = 0
    child_rss_mb: float = 0.0


@contextlib.contextmanager
def timed(op: Op, step: str):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        op.steps[step] = op.steps.get(step, 0.0) + time.perf_counter() - t0


# Child interpreters import the package from the same source tree.
PKG_ENV = dict(os.environ)
PKG_ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(mixedbvp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")) if p)


@contextlib.contextmanager
def guarded(op: Op):
    """A raising op is a failed op, not a crashed run."""
    try:
        yield
    except Exception as exc:
        op.failures.append(f"{type(exc).__name__}: {exc}")


def _sines(rng, ks, decay: float) -> str:
    return " + ".join(
        f"{rng.uniform(-1.0, 1.0) / k**decay:.9f}*sin({k}*x)" for k in sorted(ks)
    )


def _cli_sines(rng, K: int) -> str:
    """Mode K and two other seeded modes below it: CLI-sized data whose
    last mode, and so K_active = K, does not depend on the seed."""
    return _sines(rng, [*rng.choice(np.arange(1, K), min(2, K - 1), replace=False), K], 2.0)


def _read(path: Path):
    return path.read_bytes() if path.is_file() else None


def _check_report(op: Op, report: dict) -> None:
    if not report["ok"]:
        op.failures.append("verification failed: " + "; ".join(report["failures"]))


def _solve_and_verify(op: Op, spec, K: int, **solve_kwargs):
    with timed(op, "solve"):
        fld = mixedbvp.series.solve_problem(spec, K, **solve_kwargs)
    with timed(op, "verify"):
        report = mixedbvp.verify.run_verification(fld)
    op.k_active = fld.K_active
    _check_report(op, report)
    return fld, report


def standalone_scan(op: Op, tau, b: int, epsilon: float, phase, k_max: int):
    """What ``mixedbvp denominator --tau ... --cf-depth 30`` computes."""
    with timed(op, "scan"):
        scan = mixedbvp.denominators.diophantine_scan(tau, b, epsilon, phase, k_max)
        mixedbvp.denominators.continued_fraction(tau, CF_DEPTH)
    if not scan.min_w > 0.0:
        op.failures.append(f"scan floor min_w={scan.min_w!r} is not positive")


class Workload:
    """Base: seeded op stream over a per-run work directory."""

    name = ""
    PROBES = ("cli", "scan")

    def __init__(self, seed: int, size: dict, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        # Probes draw from their own stream: how many run depends on timing,
        # and the ops' inputs must not.
        self.probe_rng = np.random.default_rng([seed, 1])
        self.count = 0
        self.probe_count = 0

    def next_op(self) -> Op:
        # A full collection first, so no op pays for garbage an earlier one
        # left; without it sympy-heavy ops vary up to 4x.
        gc.collect()
        op = Op()
        with guarded(op):
            self.run(op, self.count)
        self.count += 1
        return op

    def next_probe(self) -> Op:
        """Time a step this workload's ops lack; kinds take turns."""
        index = self.probe_count
        kind = self.PROBES[index % len(self.PROBES)]
        gc.collect()
        op = Op()
        with guarded(op):
            if kind == "cli":
                cli_probe(op, self.cli_config(index, self.probe_rng), self.workdir / f"probe{index}")
            elif kind == "lib":
                text = self.cli_config(index, self.probe_rng)
                spec, options = mixedbvp.problem.parse_config_text(text)
                _solve_and_verify(op, spec, options["K"])
            else:
                scan_probe(op, index // len(self.PROBES), self.size["scan_kmax"])
        self.probe_count += 1
        return op

    def run(self, op: Op, index: int) -> None:
        raise NotImplementedError

    def cli_config(self, index: int, rng) -> str:
        """Config text of this workload's problem at CLI size (K = 10)."""
        raise NotImplementedError


def _config_text(spec_lines: dict, K: int, grid: int) -> str:
    lines = [f"{key} = {value}" for key, value in spec_lines.items()]
    lines += [f"K = {K}", f"grid = {grid}"]
    return "\n".join(lines) + "\n"


class Prototype(Workload):
    """s = n = 1, a/pi = 1, model basis, K_active = K set by the data."""

    name = "prototype_k2000"

    def _data(self, K: int) -> tuple:
        rng = self.rng
        out = []
        for _ in range(2):
            # One of the 20 sines is mode K itself, so the data, not
            # round-off, keep every requested mode active.
            ks = set(rng.choice(np.arange(1, K), 19, replace=False).tolist()) | {K}
            out.append(f"{rng.uniform(0.5, 2.0):.9f}*x*(pi - x) + " + _sines(rng, ks, 3.0))
        return tuple(out)

    def run(self, op: Op, index: int) -> None:
        K = self.size["proto_K"]
        phi, psi = self._data(K)
        with timed(op, "spec"):
            spec = mixedbvp.problem.make_spec(s=1, n=1, a_over_pi="1/1", phi=phi, psi=psi)
        fld, report = _solve_and_verify(op, spec, K)
        if fld.K_active != K:
            op.failures.append(f"K_active={fld.K_active} != {K}")
        oracle = report["oracle"]
        if oracle is None or not oracle["max_mode_deviation"] <= ORACLE_MODE_TOL:
            op.failures.append(f"oracle deviation {oracle} above {ORACLE_MODE_TOL}")

    def cli_config(self, index: int, rng) -> str:
        # Band-limited within K, so the short CLI series reproduces the data.
        K = self.size["cli_K"]
        phi, psi = (_cli_sines(rng, K) for _ in range(2))
        return _config_text(
            {"s": 1, "n": 1, "gamma": 1, "delta": 1, "q": 0, "chi": 0,
             "a_over_pi": "1/1", "phi[0]": phi, "psi[0]": psi},
            self.size["cli_K"], self.size["cli_grid"])


class Quartic(Workload):
    """s = n = 2, q = 1, chi = 2, irrational a/pi, K = 300, 1e6-point scan."""

    name = "quartic_diophantine"
    PROBES = ("cli",)

    def _data(self, kmax: int = 40) -> tuple:
        return tuple(
            _sines(self.rng, self.rng.choice(np.arange(1, kmax + 1), min(6, kmax), replace=False), 3.0)
            for _ in range(4))

    def _tau(self, index: int) -> str:
        # The op index, not the seed, picks tau, so runs of equal length
        # solve the same mix; the seed sets the data.
        return QUARTIC_TAUS[index % len(QUARTIC_TAUS)]

    def run(self, op: Op, index: int) -> None:
        K, kmax = self.size["quartic_K"], self.size["scan_kmax"]
        p0, p1, s0, s1 = self._data(min(40, K))
        with timed(op, "spec"):
            spec = mixedbvp.problem.make_spec(
                s=2, n=2, a_over_pi=self._tau(index), gamma=1, q=1, chi=2,
                phi=[p0, p1], psi=[s0, s1])
        fld, _ = _solve_and_verify(op, spec, K, scan_kmax=kmax)
        den = fld.denominator
        if den.verdict != "diophantine":
            op.failures.append(f"verdict {den.verdict!r}, expected 'diophantine'")
            return
        standalone_scan(op, spec.a_over_pi, spec.b, den.scan.epsilon, den.phase, kmax)

    def cli_config(self, index: int, rng) -> str:
        p0, p1, s0, s1 = (_cli_sines(rng, self.size["cli_K"]) for _ in range(4))
        return _config_text(
            {"s": 2, "n": 2, "gamma": 1, "delta": 1, "q": 1, "chi": 2,
             "a_over_pi": self._tau(index), "phi[0]": p0, "phi[1]": p1,
             "psi[0]": s0, "psi[1]": s1},
            self.size["cli_K"], self.size["cli_grid"])


class NumericPotential(Workload):
    """s = n = 1, a/pi = 1, nonzero p0: the finite-difference eigenbasis."""

    name = "numeric_potential"

    def _p0(self, index: int) -> str:
        # As for the quartic tau: the op index picks p0, the seed the data.
        return NUMERIC_P0S[index % len(NUMERIC_P0S)]

    def _data(self, rng) -> tuple:
        a1, a2, a3 = rng.uniform(0.5, 2.0, 3)
        return (f"{a1:.9f}*sin(x) + {0.3 * a2:.9f}*sin(2*x)", f"{0.5 * a3:.9f}*sin(3*x)")

    def run(self, op: Op, index: int) -> None:
        K = self.size["numeric_K"]
        p0 = self._p0(index)
        phi, psi = self._data(self.rng)
        with timed(op, "spec"):
            spec = mixedbvp.problem.make_spec(s=1, n=1, a_over_pi="1/1", phi=phi, psi=psi, p0=p0)
        fld, _ = _solve_and_verify(op, spec, K, grid_size=self.size["numeric_grid"])
        if p0 == "2":
            ks = np.arange(1, K + 1, dtype=float)
            exact = ks**2 + 2.0
            rel = float(np.max(np.abs(fld.basis.lambdas - exact) / exact))
            if not rel <= EIGEN_REL_TOL:
                op.failures.append(f"eigenvalues off k^2+2 by {rel:.3e}")

    def cli_config(self, index: int, rng) -> str:
        # The CLI cannot set grid_size, and at its default grid the two
        # non-constant potentials fail `verify` (termwise residual ~9e-8 >
        # 1e-8), so the CLI probe uses the constant one.
        phi, psi = self._data(rng)
        return _config_text(
            {"s": 1, "n": 1, "gamma": 1, "delta": 1, "q": 0, "chi": 0,
             "a_over_pi": "1/1", "p0": "2", "phi[0]": phi, "psi[0]": psi},
            self.size["cli_K"], self.size["cli_grid"])


def run_cli(op: Op, step: str, argv: list, in_process: bool, env=None, cwd=None) -> int:
    """One CLI command, timed as ``step``; returns its exit code.

    ``in_process`` calls ``mixedbvp.cli.main``; otherwise a fresh
    interpreter runs ``python -m mixedbvp.cli`` and its own peak RSS is
    kept in ``op.child_rss_mb``.
    """
    if in_process:
        with timed(op, step), contextlib.redirect_stdout(io.StringIO()):
            return mixedbvp.cli.main(argv)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mixedbvp.cli", *argv],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd)
    # wait4 reaps the child and reports its rusage alone.
    _, status, usage = os.wait4(proc.pid, 0)
    op.steps[step] = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    op.child_rss_mb = max(op.child_rss_mb, usage.ru_maxrss / 1024.0)
    return proc.returncode


def check_solve_output(op: Op, rc: int, out: Path) -> None:
    if rc != 0:
        op.failures.append(f"solve exited {rc}")
    missing = [a for a in CLI_ARTIFACTS if not (out / a).is_file()]
    if missing:
        op.failures.append(f"missing artifacts {missing} in {out.name}")


def cli_probe(op: Op, config_text: str, base: Path) -> None:
    """Solve and verify one config through ``mixedbvp.cli.main`` here."""
    base.mkdir(parents=True, exist_ok=True)
    cfg = base / "problem.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    out = base / "out"
    rc = run_cli(op, "cli_solve", ["solve", "--config", str(cfg), "--out", str(out)], True)
    check_solve_output(op, rc, out)
    rc = run_cli(op, "cli_verify", ["verify", "--config", str(cfg)], True)
    if rc != 0:
        op.failures.append(f"verify exited {rc}")
    shutil.rmtree(base, ignore_errors=True)


def scan_probe(op: Op, index: int, k_max: int) -> None:
    """The quartic workload's standalone scan, tau picked by ``index``."""
    dn = mixedbvp.denominators
    tau = QUARTIC_TAUS[index % len(QUARTIC_TAUS)]
    standalone_scan(op, tau, 1, dn.default_epsilon(2, 1), dn.classify_phase(2, 1, 1), k_max)


class CliCold(Workload):
    """Fresh interpreters running ``python -m mixedbvp.cli solve|verify``.

    Per config the ops cycle through solve, a second solve into another
    fresh directory (whose artifacts must match the first byte for byte,
    run.log aside), and verify.  Its "lib" probes solve and verify fresh
    configs of the same kind in this warm process, which gives solve_s and
    verify_s their values here.  With ``in_process`` the same argv goes to
    ``mixedbvp.cli.main`` in this process instead, which is how the traced
    run sees inside the CLI.
    """

    name = "cli_cold"
    PROBES = ("lib", "scan")
    PHASES = ("solve", "solve_again", "verify")

    def __init__(self, seed, size, workdir, in_process: bool = False):
        super().__init__(seed, size, workdir)
        self.in_process = in_process
        self.config = None

    def cli_config(self, index: int, rng) -> str:
        K = self.size["cli_K"]
        return _config_text(
            {"s": 1, "n": 1, "gamma": 1, "delta": 1, "q": 0, "chi": 0,
             "a_over_pi": "sqrt2", "phi[0]": _cli_sines(rng, K),
             "psi[0]": _cli_sines(rng, K)},
            self.size["cli_K"], self.size["cli_grid"])

    def _cli(self, op: Op, step: str, argv: list) -> int:
        return run_cli(op, step, argv, self.in_process, PKG_ENV, self.workdir)

    def run(self, op: Op, index: int) -> None:
        cycle, phase = divmod(index, len(self.PHASES))
        base = self.workdir / f"cfg{cycle}"
        kind = self.PHASES[phase]
        if kind == "solve":
            base.mkdir(parents=True, exist_ok=True)
            self.config = base / "problem.cfg"
            self.config.write_text(self.cli_config(cycle, self.rng), encoding="utf-8")
        if kind == "verify":
            rc = self._cli(op, "cli_verify", ["verify", "--config", str(self.config)])
            if rc != 0:
                op.failures.append(f"verify exited {rc}")
            shutil.rmtree(base, ignore_errors=True)
            return
        out = base / kind
        rc = self._cli(op, "cli_solve", ["solve", "--config", str(self.config), "--out", str(out)])
        check_solve_output(op, rc, out)
        if kind == "solve_again":
            first = base / "solve"
            differ = [a for a in CLI_ARTIFACTS[:-1] if _read(first / a) != _read(out / a)]
            if differ:
                op.failures.append(f"artifacts differ between reruns: {differ}")


WORKLOADS = {cls.name: cls for cls in (Prototype, Quartic, NumericPotential, CliCold)}
