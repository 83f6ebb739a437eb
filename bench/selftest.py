"""Self-test of the benchmark at tiny problem sizes.

    python3 bench/selftest.py

For every workload it runs bench/run.py once untraced and once traced, and
checks that the run passed its correctness gate and printed every metric
named in BENCHMARK.json with that metric's unit.  For the traced runs it
checks the span tree: each span ends after it starts, lies inside its
parent and in its parent's op, and has a non-negative self time.  Last, it
checks that the benchmark refuses to run, printing no result, in a copy that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on any
failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
SECONDS = {"cli_cold": "4"}  # one full solve/solve/verify cycle of children
EPS = 1e-9


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS.get(workload, "2"), "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(stdout: str, wanted: dict) -> list:
    errors = []
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"no JSON result line: {exc}"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"gate failed: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(wanted):
        errors.append(f"metric names differ: missing {sorted(set(wanted) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            errors.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r} is not a finite number")
    return errors


def check_spans(path: Path) -> list:
    trace = json.loads(path.read_text(encoding="utf-8"))
    spans = trace["spans"]
    if not spans:
        return ["trace holds no spans"]
    errors = []
    child_time = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp["end"] < sp["start"]:
            errors.append(f"span {i} {sp['name']} ends before it starts")
        parent = sp["parent"]
        if parent is None:
            continue
        par = spans[parent]
        if parent >= i or sp["start"] < par["start"] - EPS or sp["end"] > par["end"] + EPS:
            errors.append(f"span {i} {sp['name']} lies outside parent {parent} {par['name']}")
        if sp["op"] != par["op"]:
            errors.append(f"span {i} is in op {sp['op']}, its parent in op {par['op']}")
        child_time[parent] += sp["end"] - sp["start"]
    for i, sp in enumerate(spans):
        if sp["end"] - sp["start"] - child_time[i] < -EPS:
            errors.append(f"span {i} {sp['name']} has negative self time")
    return errors[:10]


def check_bare_copy() -> list:
    """The benchmark must fail, printing no result, without the package."""
    bare = ROOT / ".bench_work" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in json.loads((ROOT / "BENCHMARK.json").read_text())["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "prototype_k2000", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("exit code 0 in a copy without src/")
    if '"metrics"' in proc.stdout:
        errors.append("printed a result in a copy without src/")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            errors = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
            errors += check_result(proc.stdout, wanted[trace])
            if trace:
                errors += check_spans(ROOT / ".bench_work" / f"trace-{workload}-seed{SEED}.json")
            failures += bool(errors)
            print(f"{'FAIL' if errors else 'ok  '} {workload} trace={trace}")
            for err in errors:
                print(f"     {err}")
    errors = check_bare_copy()
    failures += bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} refuses to run without src/")
    for err in errors:
        print(f"     {err}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
