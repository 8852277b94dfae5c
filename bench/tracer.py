"""Span tracing of reloop's layer boundaries, installed from outside the package.

Each wrapped function is replaced at the module attribute its caller looks
up at call time. ``reloop.optim`` imports ``backward_batch`` by name, so the
training step's backward pass is wrapped at ``reloop.optim.backward_batch``,
not at ``reloop.models``. Calls a module makes to its own helpers (``sigmoid``
inside ``forward_batch``, ``ce_vec`` inside ``combined_vec``) cross no
boundary and stay inside their caller's self time.

Spans are kept in memory as ``[group, start_ns, end_ns, parent]`` and written
out once the job has ended. A span's self time is its duration minus the
durations of its child spans; the process is single-threaded, so children
never overlap and their durations add up to the time they cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import Counter

# (metric prefix, call sites as (module, attribute path), per-step)
SITES = [
    ("cli", [("reloop.cli", "main")], False),
    ("features.ingest_csv", [("reloop.cli", "ingest_csv")], False),
    ("loop", [("reloop.loop", "run_continual"), ("reloop.loop", "run_static_prior"),
              ("reloop.cli", "run_continual"), ("reloop.cli", "run_static_prior")], False),
    ("loop.infer_scores", [("reloop.loop", "infer_scores"),
                           ("reloop.cli", "infer_scores")], False),
    ("loop.write_report", [("reloop.cli", "write_loop_report")], False),
    ("loop.scorelog_save", [("reloop.loop", "ScoreLog.save")], False),
    ("models.init_params", [("reloop.loop", "init_params"),
                            ("reloop.cli", "init_params")], False),
    ("models.predict_batch", [("reloop.loop", "predict_batch"),
                              ("reloop.cli", "predict_batch")], False),
    ("models.forward_batch", [("reloop.optim", "forward_batch")], True),
    ("models.backward_batch", [("reloop.optim", "backward_batch")], True),
    ("losses", [("reloop.optim", "combined_vec"), ("reloop.optim", "grad_z_vec")], False),
    ("optim.apply_update", [("reloop.optim", "apply_update")], True),
    ("optim.train_epochs", [("reloop.loop", "train_epochs"),
                            ("reloop.cli", "train_epochs")], False),
    ("metrics.evaluate", [("reloop.loop", "evaluate"), ("reloop.cli", "evaluate")], False),
    ("checkpoint.save", [("reloop.loop", "save_checkpoint"),
                         ("reloop.cli", "save_checkpoint")], False),
    ("checkpoint.load", [("reloop.loop", "load_checkpoint"),
                         ("reloop.cli", "load_checkpoint")], False),
    ("checkpoint.check_schema", [("reloop.loop", "check_schema")], False),
]
STEP_GROUPS = [prefix for prefix, _, per_step in SITES if per_step]

# Metrics whose value is a count of work: two traced jobs of one seed must
# report them identically, so later changes can cite them as counts.
_EXTRA_COUNTS = {
    "features.hash_digests": "count",
    "features.hash_hit_ratio": "ratio",
    "models.grad_bytes_per_step": "B",
    "optim.row_passes": "rows",
    "loop.scorelog_save.bytes": "B",
    "checkpoint.save.bytes": "B",
}


def count_metrics() -> dict[str, str]:
    """Exact count metrics of a traced job, name -> unit."""
    out = {f"{prefix}.calls": "count" for prefix, _, _ in SITES}
    out.update(_EXTRA_COUNTS)
    return out


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric a traced run reports, name -> unit."""
    out = count_metrics()
    out.update({f"{prefix}.self_s": "s" for prefix, _, _ in SITES})
    for prefix in STEP_GROUPS:
        out[f"{prefix}.p50_us"] = "us"
        out[f"{prefix}.p99_us"] = "us"
    out["features.ingest_rows_per_s"] = "rows/s"
    out["models.predict_batch.rows_per_s"] = "rows/s"
    out["trace.run_s"] = "s"
    out["trace.untraced_remainder_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not callable(getattr(owner, attr, None)):
        raise AttributeError(f"{module}.{path} is not a callable to trace")
    return owner, attr


def _grads_nbytes(grads) -> int:
    arrays = [grads.linear, grads.emb, grads.head, grads.touched]
    arrays += [a for pair in grads.mlp + grads.cross for a in pair]
    return 8 + sum(a.nbytes for a in arrays if a is not None)  # 8: the float bias


class Tracer:
    """Records spans and counts while installed; restores the package after."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, group: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_hooks(self):
        counts = self.counts

        def rows_of(arg_pos, key):
            def hook(args, result):
                counts[key] += len(args[arg_pos])
            return hook

        def ingested(args, result):
            counts["features.rows"] += len(result)
            counts["features.cells"] += len(result) * result.n_fields

        def trained(args, result):
            counts["optim.row_passes"] += len(args[1]) * args[2].epochs

        def grads(args, result):
            counts["models.grad_bytes"] += _grads_nbytes(result)

        def file_bytes(key):
            def hook(args, result):
                counts[key] += os.path.getsize(args[1])
            return hook

        return {
            "features.ingest_csv": ingested,
            "models.predict_batch": rows_of(1, "models.predict_rows"),
            "models.backward_batch": grads,
            "optim.train_epochs": trained,
            "loop.scorelog_save": file_bytes("loop.scorelog_save.bytes"),
            "checkpoint.save": file_bytes("checkpoint.save.bytes"),
        }

    def _counting_digest(self, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def digest(data):
            if stack and spans[stack[-1]][0] == "features.ingest_csv":
                counts["features.hash_digests"] += 1
            return fn(data)

        return digest

    @contextlib.contextmanager
    def installed(self):
        """Replace every call site with its traced wrapper for the block."""
        hooks = self._after_hooks()
        saved = []
        try:
            for group, sites, _ in SITES:
                for module, path in sites:
                    owner, attr = _resolve(module, path)
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(group, original, hooks.get(group)))
            owner, attr = _resolve("reloop.features", "fnv1a64")
            saved.append((owner, attr, owner.fnv1a64))
            owner.fnv1a64 = self._counting_digest(owner.fnv1a64)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for group, start, end, parent in self.spans:
                fh.write(json.dumps([group, start, end, parent]) + "\n")

    def summary(self, run_ns: int) -> tuple[dict, dict]:
        """Per-layer metrics of one traced job, plus per-step samples in ns.

        ``run_ns`` is the job's wall-clock time; the part of it that no root
        span covers is reported as ``trace.untraced_remainder_s``.
        """
        child_ns = [0] * len(self.spans)
        root_ns = 0
        for group, start, end, parent in self.spans:
            if parent < 0:
                root_ns += end - start
            else:
                child_ns[parent] += end - start
        calls, self_ns = Counter(), Counter()
        samples = {prefix: [] for prefix in STEP_GROUPS}
        for i, (group, start, end, _) in enumerate(self.spans):
            calls[group] += 1
            self_ns[group] += end - start - child_ns[i]
            if group in samples:
                samples[group].append(end - start)

        c = self.counts
        metrics = {}
        for prefix, _, _ in SITES:
            metrics[f"{prefix}.calls"] = calls[prefix]
            metrics[f"{prefix}.self_s"] = self_ns[prefix] / 1e9
        for key in ("features.hash_digests", "optim.row_passes",
                    "loop.scorelog_save.bytes", "checkpoint.save.bytes"):
            metrics[key] = c[key]
        cells = c["features.cells"]
        metrics["features.hash_hit_ratio"] = (
            1.0 - c["features.hash_digests"] / cells if cells else 0.0
        )
        steps = calls["models.backward_batch"]
        metrics["models.grad_bytes_per_step"] = c["models.grad_bytes"] / steps if steps else 0.0
        metrics["features.ingest_rows_per_s"] = _rate(
            c["features.rows"], self_ns["features.ingest_csv"])
        metrics["models.predict_batch.rows_per_s"] = _rate(
            c["models.predict_rows"], self_ns["models.predict_batch"])
        metrics["trace.run_s"] = run_ns / 1e9
        metrics["trace.untraced_remainder_s"] = (run_ns - root_ns) / 1e9
        return metrics, samples


def _rate(rows: int, ns: int) -> float:
    return rows / (ns / 1e9) if ns else 0.0
