"""One workload process: set up, run the planned jobs, print them as one JSON line.

run.py starts this script once per process it measures, with BLAS pinned to
one thread in the environment it passes. The script sets the thread
variables again before numpy is first imported, so a run by hand measures the
same thing:

    PYTHONPATH=src python3 bench/worker.py --workload continual-deepfm \
        --seed 1 --t0 0 --plan plain --work .bench_runs/work/manual

``--plan`` lists the jobs to time after set-up, each ``plain`` or ``traced``;
an empty plan measures set-up alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("RELOOP_THREADS",)},
    }


def _job(wl, inputs, out: Path, seed: int, tracer, spans_path: Path) -> dict:
    record = {"traced": tracer is not None}
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter_ns()
            output = wl.run(inputs, out, seed)
            run_ns = time.perf_counter_ns() - start
        errors, auc_mean = wl.check(inputs, output, out)
    except Exception:  # a failing job is a failed operation, not a failed benchmark
        record.update(run_s=None, errors=[traceback.format_exc()])
        return record
    record.update(
        run_s=run_ns / 1e9,
        report_sha256=hashlib.sha256(output.report).hexdigest(),
        auc_mean=auc_mean,
        errors=errors,
    )
    if tracer is not None:
        record["layer"], record["samples"] = tracer.summary(run_ns)
        tracer.write(spans_path)
    shutil.rmtree(out, ignore_errors=True)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--plan", default="", help="comma-separated plain/traced jobs")
    ap.add_argument("--work", type=Path, required=True, help="directory for inputs and outputs, removed at exit")
    ap.add_argument("--spans", type=Path, default=None,
                    help="span file prefix for traced jobs")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    args = ap.parse_args(argv)
    plan = [p for p in args.plan.split(",") if p]
    if any(p not in ("plain", "traced") for p in plan):
        ap.error(f"bad --plan {args.plan!r}")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RELOOP_THREADS", None)
    import numpy
    import reloop

    src = (Path.cwd() / "src").resolve()
    if src not in Path(reloop.__file__).resolve().parents:
        print(f"error: reloop imported from {reloop.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    import tracer as tracing
    import workloads

    wl = workloads.make(args.workload, args.smoke)
    args.work.mkdir(parents=True, exist_ok=True)
    inputs = wl.generate(args.work / "inputs", args.seed)
    workloads.warm_up(wl, args.work / "warm", args.seed)
    setup_s = time.monotonic() - args.t0

    jobs = []
    for k, mode in enumerate(plan):
        tracer = tracing.Tracer() if mode == "traced" else None
        spans_path = Path(f"{args.spans}-job{k}.spans.jsonl") if args.spans else None
        if tracer is not None and spans_path is None:
            ap.error("traced jobs need --spans")
        jobs.append(_job(wl, inputs, args.work / f"job{k}", args.seed, tracer, spans_path))
    shutil.rmtree(args.work, ignore_errors=True)

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "nominal_rows": wl.nominal_rows,
        "environment": _environment(numpy),
        "jobs": jobs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
