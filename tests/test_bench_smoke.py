"""The benchmark harness runs end to end at tiny sizes.

``bench/run.py --smoke`` runs every workload plain and traced, checks each
job's outputs and the metric names against BENCHMARK.json, and exits 0 only
if all of that holds. No timing is gated here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_exits_zero():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
