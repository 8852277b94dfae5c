"""Shared fixtures: deterministic synthetic data generated once per session.

The bundled fixtures are not checked in; they are regenerated bitwise from
frozen specs at session start, which keeps the repo slim while every test
still runs offline.
"""

from __future__ import annotations

import numpy as np
import pytest

from hashutils import feature_index
from reloop.features import (
    FeatureSchema,
    FieldSpec,
    SyntheticSpec,
    generate_synthetic,
    generate_synthetic_csv,
)

# The bundled single-window fixture: 50k rows, 8 fields, seed 42.
FIXTURE_SPEC = SyntheticSpec(
    n_fields=8, buckets_per_field=64, latent_dim=4, n_rows=50_000, seed=42
)

# The continual fixture: 6 windows under drift 0.3.
CONTINUAL_SPEC = SyntheticSpec(
    n_fields=8,
    buckets_per_field=64,
    latent_dim=4,
    n_rows=12_000,
    seed=42,
    n_windows=6,
    drift_rate=0.3,
)


@pytest.fixture(scope="session")
def fixture_dataset():
    (ds,) = generate_synthetic(FIXTURE_SPEC)
    return ds


@pytest.fixture(scope="session")
def fixture_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture50k")
    (path,) = generate_synthetic_csv(FIXTURE_SPEC, out)
    return path


@pytest.fixture(scope="session")
def continual_windows():
    return generate_synthetic(CONTINUAL_SPEC)


@pytest.fixture(scope="session")
def continual_csv_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("continual6w")
    generate_synthetic_csv(CONTINUAL_SPEC, out)
    return out


@pytest.fixture
def small_schema():
    return FeatureSchema([FieldSpec(f"f{i}", "categorical", 6) for i in range(4)])


@pytest.fixture
def tiny_dataset(small_schema):
    """300 rows over the small schema with a planted linear signal."""
    rng = np.random.default_rng(9)
    n = 300
    tokens = rng.integers(0, 6, size=(n, 4))
    indices = np.stack(
        [np.array([feature_index(small_schema, f"f{f}", str(t)) for t in tokens[:, f]])
         for f in range(4)],
        axis=1,
    )
    weights = rng.normal(0, 1.2, size=small_schema.n_features)
    logits = weights[indices].sum(axis=1) - 0.4
    labels = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(np.float64)
    from reloop.features import Dataset

    return Dataset(small_schema, labels, indices, np.arange(n))


# One visible pass/fail line per acceptance criterion at the end of the run.

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance" in name and "::test_ac" in name:
                label = name.split("::test_")[-1]
                crit = label.split("_")[0].upper().replace("AC", "AC-")
                results[crit] = outcome
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for crit in sorted(results, key=lambda c: int(c.split("-")[1])):
            status = "PASS" if results[crit] == "passed" else "FAIL"
            terminalreporter.write_line(f"{crit}: {status}")
