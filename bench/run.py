"""reloop benchmark: three continual-learning workloads, timed end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload continual-deepfm --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Jobs run in worker processes (bench/worker.py) with BLAS pinned to one
thread. With ``--trace 0`` processes that each set up and run the job once
follow one another for ``--seconds``, more processes only set up until five
have, and the run prints the end-to-end metrics as medians. With ``--trace 1`` two processes each time one plain and
one traced job, and the run prints the per-layer metrics of the traced jobs. The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, and a file under ``.bench_runs/results/``,
hold the environment, every job's timing and the sha256 of every report.
``--smoke`` runs every workload, plain and traced, at tiny sizes, checks the
outputs and the metric names against BENCHMARK.json, and gates on no timing.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
RUNS_DIR = ".bench_runs"
WORKLOADS = ("continual-deepfm", "continual-wide-cli", "sweep-static-cli")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "auc_mean": "AUC",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed once per process, so a plain run starts at least this many.
SETUPS = 5
# A run must end within 180 s; start no process expected to finish later.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure: no package, or a process died."""


def _spawn(root: Path, workload: str, seed: int, plan: list[str], index: int,
           smoke: bool, budget_s: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    tag = f"{workload}-seed{seed}-{os.getpid()}-{index}"
    work = root / RUNS_DIR / "work" / tag
    spans = root / RUNS_DIR / "results" / f"{workload}-seed{seed}-proc{index}"
    spans.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("RELOOP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--plan", ",".join(plan), "--work", str(work),
           "--spans", str(spans)] + (["--smoke"] if smoke else [])
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{tag}: still running after {budget_s:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{tag}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def _percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def _finite_or_none(x):
    return x if x is not None and math.isfinite(x) else None


def _end_to_end(procs: list[dict], jobs: list[dict]) -> dict:
    run_s = statistics.median(j["run_s"] for j in jobs)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "run_s": run_s,
        "rows_per_s": procs[0]["nominal_rows"] / run_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in procs if p["jobs"]),
        "auc_mean": _finite_or_none(jobs[0]["auc_mean"]),
    }


def _per_layer(traced: list[dict], plain: list[dict], problems: list[str]) -> dict:
    """Times from the median traced job, so its self times add up to its run_s."""
    traced = sorted(traced, key=lambda j: j["run_s"])
    metrics = dict(traced[(len(traced) - 1) // 2]["layer"])
    covered = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    if abs(covered + metrics["trace.untraced_remainder_s"] - metrics["trace.run_s"]) > 1e-6:
        problems.append("self times plus the untraced remainder differ from trace.run_s")
    for name in tracer.count_metrics():
        values = {j["layer"][name] for j in traced}
        if len(values) > 1:
            problems.append(f"count {name} differs between traced jobs: {sorted(values)}")
    for group in tracer.STEP_GROUPS:
        pooled = sorted(ns for j in traced for ns in j["samples"][group])
        metrics[f"{group}.p50_us"] = _percentile(pooled, 0.50) / 1e3 if pooled else 0.0
        metrics[f"{group}.p99_us"] = _percentile(pooled, 0.99) / 1e3 if pooled else 0.0
    metrics["trace.overhead_s"] = (
        statistics.median(j["run_s"] for j in traced)
        - statistics.median(j["run_s"] for j in plain)
    )
    return metrics


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details)."""
    start = time.monotonic()
    procs = []

    def spawn(plan):
        began = time.monotonic()
        budget = TIME_LIMIT_S - (began - start)
        procs.append(_spawn(root, workload, seed, plan, len(procs), smoke, budget))
        return time.monotonic() - began

    if trace:
        # two processes, so the exact counts are compared across processes;
        # the order of plain and traced jobs alternates between them
        spawn(["plain", "traced"])
        spawn(["traced", "plain"])
    else:
        took = spawn(["plain"])
        while time.monotonic() - start < seconds:
            if time.monotonic() - start + took > TIME_LIMIT_S:
                break
            took = spawn(["plain"])
        while len(procs) < SETUPS:
            spawn([])

    jobs = [j for p in procs for j in p["jobs"]]
    timed = [j for j in jobs if j["run_s"] is not None]
    if not timed:
        raise BenchError(f"no job finished: {jobs[0]['errors']}")
    problems = [e for j in jobs for e in j["errors"]]
    failed = sum(1 for j in jobs if j["errors"])
    digests = {j["report_sha256"] for j in timed}
    if len(digests) > 1:
        problems.append(f"one seed gave {len(digests)} different reports")
        failed = len(jobs)

    plain = [j for j in timed if not j["traced"]]
    if trace:
        traced = [j for j in timed if j["traced"]]
        if not traced or not plain:
            raise BenchError(f"a traced or plain job did not finish: {problems}")
        metrics = _per_layer(traced, plain, problems)
        units = tracer.per_layer_metrics()
        if problems and not failed:
            failed = len(traced)
    else:
        metrics = _end_to_end(procs, plain)
        units = END_TO_END
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for p in procs:
        for j in p["jobs"]:
            j.pop("samples", None)
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "git_commit": _git_commit(root),
        "environment": procs[0]["environment"],
        "problems": problems,
        "processes": [{k: v for k, v in p.items() if k != "environment"} for p in procs],
    }
    return result, details


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _check_declared(root: Path) -> list[str]:
    """Metric names and units printed here must be those BENCHMARK.json declares."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    pairs = (
        ("workloads", {w["name"]: None for w in declared["workloads"]},
         dict.fromkeys(WORKLOADS)),
        ("end_to_end", {m["name"]: m["unit"] for m in declared["end_to_end"]}, END_TO_END),
        ("per_layer", {m["name"]: m["unit"] for m in declared["per_layer"]},
         tracer.per_layer_metrics()),
    )
    for key, got, want in pairs:
        if got != want:
            errors.append(f"BENCHMARK.json {key} differ: {sorted(set(got.items()) ^ set(want.items()))}")
    return errors


def _smoke(root: Path) -> int:
    ok = True
    for error in _check_declared(root):
        print(error)
        ok = False
    for workload in WORKLOADS:
        for trace in (False, True):
            result, details = measure(root, workload, 1, 0.0, trace, smoke=True)
            print(f"{workload} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for problem in details["problems"]:
                print(f"  {problem}")
            ok = ok and result["correct"]
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="reloop benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="start no further job process after this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny sizes, no timing gate")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "reloop" / "__init__.py").is_file():
        print(f"error: {root} holds no src/reloop package to benchmark", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return _smoke(root)
        if args.workload is None:
            ap.error("--workload is required")
        result, details = measure(root, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details["result"] = result
    results = root / RUNS_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
