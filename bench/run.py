"""mixedbvp benchmark: one workload, one closed loop, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload prototype_k2000 --seed 1 --seconds 18 --trace 0

The package is imported from ``src/`` next to this directory.  A run sets up
(import, first spec, one warm-up op) in this process and in fresh child
interpreters, then runs the workload's operations one at a time until
``--seconds`` have passed, and checks every output.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of ``BENCHMARK.json`` with
``--trace 1``.  See bench/README.md for what each metric means.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_CHILDREN = 2  # set-ups repeated in fresh interpreters, for a median
PROBE_SHARE = 0.2  # probe time allowed per unit of loop time
CHILD_TIMEOUT_S = 150
# The reference kernel's median time on the host the benchmark was tuned on
# (2-vCPU Xeon, 2.1 GHz).  It only scales the reported times.
REF_S = 0.0045
REF_REPS = 5  # reference-kernel samples after set-up, after each op, at the end


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(
        "prototype_k2000", "quartic_diophantine", "numeric_potential", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="problem sizes; tiny is for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the set-up timings and exit")
    return ap.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


class Reference:
    """Host-speed reference: fixed Python and numpy work that runs no
    mixedbvp code and allocates nothing, so its time follows only the
    host's CPU speed, not memory returned by a child that just exited."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 10.0, 100_000)
        self.y = np.empty_like(self.x)
        self.samples = []

    def sample(self, reps: int = REF_REPS) -> None:
        for _ in range(reps):
            t0 = time.perf_counter()
            acc = 0
            for i in range(30_000):
                acc += i * i % 7
            self.np.sin(self.x, out=self.y)
            float(self.y.sum())
            self.samples.append(time.perf_counter() - t0)


def blas_info() -> dict:
    """BLAS build of numpy and the thread count each loaded OpenBLAS uses."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads[Path(path).name] = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(args) -> dict:
    import mpmath
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "sympy": sympy.__version__, "mpmath": mpmath.__version__,
        "blas": blas_info(), "machine": platform.machine(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace,
    }


def child_setups(argv, n: int) -> list:
    """(setup_s, import_s) of ``n`` set-ups in fresh interpreters."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, __file__, *argv, "--setup-probe"],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((rec["setup_s"], rec["import_s"]))
    return out


def import_breakdown() -> dict:
    """Self time of each package under ``python -X importtime``, in s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mixedbvp"],
                          capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import child failed: {proc.stderr.strip()[-500:]}")
    totals = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        totals[top] = totals.get(top, 0) + self_us
    names = {"numpy": "numpy", "scipy": "scipy", "sympy": "sympy", "mpmath": "mpmath",
             "mixedbvp": "mixedbvp_self"}
    return {f"import.{label}_s": totals.get(pkg, 0) / 1e6 for pkg, label in names.items()}


def make_tracer():
    import mixedbvp.cli as cli
    import mixedbvp.denominators as dn
    import mixedbvp.modal as modal
    import mixedbvp.problem as problem
    import mixedbvp.roots as roots
    import mixedbvp.series as series
    import mixedbvp.verify as verify
    from tracer import Tracer

    def solved(tr, fld):
        tr.add("series.K_active", fld.K_active)
        tr.add("eigen.basis_mb", fld.basis.samples.nbytes / 1e6)
        tr.add("modal.singular_skipped", len(fld.nonunique_modes))

    def verified(tr, rep):
        tr.peak("verify.pde_termwise", rep["pde"]["termwise"])
        tr.peak("verify.pde_fd", rep["pde"]["fd"])
        tr.peak("verify.boundary_rel",
                max(rep["boundary"]["lower_rel"] + rep["boundary"]["upper_rel"]))
        tr.peak("verify.matching_rel", max(rep["matching"]["relative"], default=0.0))
        if rep["oracle"] is not None:
            tr.peak("verify.oracle_mode_dev", rep["oracle"]["max_mode_deviation"])

    def scanned(tr, scan):
        tr.add("denominators.scan_points", len(scan.k))

    # Each public function is wrapped under every name its callers use.
    targets = [
        (problem, "make_spec", "problem.make_spec", None),
        (cli, "load_config", "problem.load_config", None),
        (series, "model_eigenpairs", "eigen.model_eigenpairs", None),
        (series, "numeric_eigenpairs", "eigen.numeric_eigenpairs", None),
        (modal, "fundamental_system", "roots.fundamental_system", None),
        (series, "assemble_from_spec", "modal.assemble", None),
        (series, "scaled_determinant", "modal.determinant", None),
        (series, "solve_modal", "modal.solve_modal", None),
        (dn, "build_report", "denominators.build_report", None),
        (dn, "diophantine_scan", "denominators.diophantine_scan", scanned),
        (dn, "asymptote_comparison", "denominators.asymptote_comparison", None),
        (series, "smoothness_check", "series.smoothness_check", None),
        (series, "expand_boundary", "series.expand_boundary", None),
        (series, "solve_problem", "series.solve_problem", solved),
        (cli, "solve_problem", "series.solve_problem", solved),
        (series.SolutionField, "evaluate_grid", "series.evaluate_grid", None),
        (verify, "pde_residual", "verify.pde_residual", None),
        (verify, "boundary_check", "verify.boundary_check", None),
        (verify, "matching_check", "verify.matching_check", None),
        (verify, "oracle_compare", "verify.oracle_compare", None),
        (verify, "run_verification", "verify.run_verification", verified),
        (cli, "run_verification", "verify.run_verification", verified),
        (cli, "main", "cli.main", None),
        (cli, "solution_to_csv", "cli.solution_to_csv", None),
        (cli, "dump_json", "cli.dump_json", None),
    ]
    return Tracer(targets, counted=[(roots.BasisFunction, "unit_eval", "roots.unit_eval")])


# Per-layer metric -> (source, key, unit): where the per-op trace summary
# holds it, and its unit.
LAYER_METRICS = {
    "problem.make_spec_s": ("total", "problem.make_spec", "s"),
    "problem.load_config_s": ("total", "problem.load_config", "s"),
    "eigen.model_eigenpairs_s": ("total", "eigen.model_eigenpairs", "s"),
    "eigen.numeric_eigenpairs_s": ("total", "eigen.numeric_eigenpairs", "s"),
    "eigen.basis_mb": ("counts", "eigen.basis_mb", "MB"),
    "roots.fundamental_system_s": ("total", "roots.fundamental_system", "s"),
    "roots.fundamental_system_calls": ("calls", "roots.fundamental_system", "count"),
    "roots.unit_eval_calls": ("counts", "roots.unit_eval", "count"),
    "modal.assemble_s": ("total", "modal.assemble", "s"),
    "modal.assemble_calls": ("calls", "modal.assemble", "count"),
    "modal.determinant_s": ("total", "modal.determinant", "s"),
    "modal.solve_modal_s": ("total", "modal.solve_modal", "s"),
    "modal.singular_skipped": ("counts", "modal.singular_skipped", "count"),
    "denominators.build_report_s": ("total", "denominators.build_report", "s"),
    "denominators.diophantine_scan_s": ("total", "denominators.diophantine_scan", "s"),
    "denominators.asymptote_comparison_s": ("total", "denominators.asymptote_comparison", "s"),
    "denominators.scan_points": ("counts", "denominators.scan_points", "count"),
    "series.smoothness_check_s": ("total", "series.smoothness_check", "s"),
    "series.expand_boundary_s": ("total", "series.expand_boundary", "s"),
    "series.solve_problem_self_s": ("self", "series.solve_problem", "s"),
    "series.evaluate_grid_s": ("total", "series.evaluate_grid", "s"),
    "series.evaluate_grid_calls": ("calls", "series.evaluate_grid", "count"),
    "series.K_active": ("counts", "series.K_active", "count"),
    "verify.pde_residual_s": ("total", "verify.pde_residual", "s"),
    "verify.boundary_check_s": ("total", "verify.boundary_check", "s"),
    "verify.matching_check_s": ("total", "verify.matching_check", "s"),
    "verify.oracle_compare_s": ("total", "verify.oracle_compare", "s"),
    "verify.runtime_warnings": ("counts", "warnings@verify.run_verification", "count"),
    "verify.pde_termwise": ("counts", "verify.pde_termwise", "rel"),
    "verify.pde_fd": ("counts", "verify.pde_fd", "rel"),
    "verify.boundary_rel": ("counts", "verify.boundary_rel", "rel"),
    "verify.matching_rel": ("counts", "verify.matching_rel", "rel"),
    "verify.oracle_mode_dev": ("counts", "verify.oracle_mode_dev", "rel"),
    "cli.main_s": ("total", "cli.main", "s"),
    "cli.solution_to_csv_s": ("total", "cli.solution_to_csv", "s"),
    "cli.dump_json_s": ("total", "cli.dump_json", "s"),
}


def layer_metrics(tracer, traced_ops) -> dict:
    summary = tracer.per_op()
    out = {}
    for metric, (source, key, unit) in LAYER_METRICS.items():
        values = [summary.get(op, {}).get(source, {}).get(key, 0) for op in traced_ops]
        out[metric] = (median(values), unit)
    return out


def run(args, argv) -> dict:
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import mixedbvp

    import_s = time.perf_counter() - t
    if Path(mixedbvp.__file__).resolve().parent != (SRC / "mixedbvp").resolve():
        raise RuntimeError(f"mixedbvp was imported from {mixedbvp.__file__}, not {SRC}")
    import workloads as wk

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, argv, wk, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, argv, wk, workdir: Path, import_s: float) -> dict:
    size = wk.SIZES[args.size]
    cls = wk.WORKLOADS[args.workload]
    extra = {"in_process": bool(args.trace)} if cls is wk.CliCold else {}
    wl = cls(args.seed, size, workdir, **extra)
    ops = [wl.next_op()]  # warm-up: checked, not timed
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        return {"setup_s": setup_s, "import_s": import_s}

    setups = [(setup_s, import_s)]
    ref = Reference()
    if not args.trace:
        ref.sample()
        setups += child_setups(argv, SETUP_CHILDREN)
    tracer = make_tracer() if args.trace else None
    t_start = time.perf_counter()
    deadline = t_start + args.seconds

    # Steps the workload's own ops lack are timed by probes, spread over the
    # window between ops, so every run reports every end-to-end metric.
    loop, probes, traced = [], [], []
    loop_s = probe_s = 0.0
    while not loop or time.perf_counter() < deadline:
        t = time.perf_counter()
        if tracer is not None and len(loop) % 2 == 0:
            with tracer.recording(len(loop)):
                op = wl.next_op()
            traced.append(len(loop))
        else:
            op = wl.next_op()
        loop.append(op)
        loop_s += time.perf_counter() - t
        if tracer is None:
            ref.sample()
        while tracer is None and probe_s < PROBE_SHARE * loop_s and time.perf_counter() < deadline:
            t = time.perf_counter()
            probes.append(wl.next_probe())
            probe_s += time.perf_counter() - t
    while tracer is None and len(probes) < len(wl.PROBES):
        probes.append(wl.next_probe())
    if tracer is None:
        ref.sample()
    ops += probes + loop

    failed = sum(1 for op in ops if op.failures)
    for i, op in enumerate(ops):
        for reason in op.failures:
            print(f"op {i} failed: {reason}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed}

    steps = {}
    for op in probes + loop:
        for step, secs in op.steps.items():
            steps.setdefault(step, []).append(secs)
    if tracer is None:
        solved = [op for op in loop + probes if "solve" in op.steps and "verify" in op.steps]
        busy = sum(op.steps["solve"] + op.steps["verify"] for op in solved)
        rss = (max(op.child_rss_mb for op in loop) if cls is wk.CliCold
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        raw = {
            "solve_s": (median(steps.get("solve", [])), "s"),
            "verify_s": (median(steps.get("verify", [])), "s"),
            "scan_s": (median(steps.get("scan", [])), "s"),
            "modes_per_s": (sum(op.k_active for op in solved) / busy if busy else 0.0, "1/s"),
            "cli_solve_s": (median(steps.get("cli_solve", [])), "s"),
            "cli_verify_s": (median(steps.get("cli_verify", [])), "s"),
            "import_s": (median([imp for _, imp in setups]), "s"),
            "setup_s": (median([s for s, _ in setups]), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        # Times in reference seconds: the host's speed drifts by up to a
        # third between runs, moving every time of a run together, and the
        # reference kernel sampled through the run follows that drift.
        speed = REF_S / median(ref.samples)
        scale = {"s": speed, "1/s": 1.0 / speed, "MB": 1.0}
        metrics = {k: (v * scale[u], u) for k, (v, u) in raw.items()}
    else:
        metrics = layer_metrics(tracer, traced)
        metrics.update({k: (v, "s") for k, v in import_breakdown().items()})
        for step in ("solve", "verify"):
            key = step if cls is not wk.CliCold else f"cli_{step}"
            on = [loop[i].steps[key] for i in traced if key in loop[i].steps]
            off = [op.steps[key] for i, op in enumerate(loop) if i not in traced and key in op.steps]
            overhead = median(on) - median(off) if on and off else 0.0
            metrics[f"trace.overhead_{step}_s"] = (overhead, "s")
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"env": environment(args), "traced_ops": traced})
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    info = {"failed_frac": failed / len(ops), "ops": len(loop), "probes": len(probes),
            "setups": setups, "steps": steps, "env": environment(args)}
    if tracer is None:
        info.update(reference_s=median(ref.samples), speed=speed,
                    raw={k: v for k, (v, _) in raw.items()})
    print(json.dumps(info))
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "mixedbvp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args, argv)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
