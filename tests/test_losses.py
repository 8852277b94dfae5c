"""Objectives: worked values, zero regions, blends, and exact gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradutils import ce_loss, combined_loss, kd_loss, loss_grad_z, sc_loss
from reloop.losses import (
    LossConfig,
    LossInputError,
    ce_vec,
    combined_vec,
    emit_loss_curves,
    grad_z_vec,
    sc_vec,
    write_loss_curves,
)

probs = st.floats(min_value=1e-6, max_value=1 - 1e-6)


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestWorkedValues:
    def test_ce(self):
        assert ce_loss(1, 0.5) == pytest.approx(math.log(2), abs=1e-9)
        assert ce_loss(0, 0.9) == pytest.approx(-math.log(0.1), abs=1e-9)
        assert ce_loss(1, 0.3) == pytest.approx(1.2039728043259361, abs=1e-9)
        assert ce_loss(1, 1.0) == pytest.approx(0.0, abs=1e-6)  # clipped perfect hit

    def test_sc_positive_scenario(self):
        # label 1, prior score 0.8: penalized only below the prior
        assert sc_loss(1, 0.6, 0.8) == pytest.approx(0.2, abs=1e-9)
        assert sc_loss(1, 0.9, 0.8) == 0.0

    def test_sc_negative_scenario(self):
        # label 0, prior score 0.3: penalized only above the prior
        assert sc_loss(0, 0.5, 0.3) == pytest.approx(0.2, abs=1e-9)
        assert sc_loss(0, 0.2, 0.3) == 0.0

    def test_kd(self):
        assert kd_loss(1 - 1e-7, 0.5) == pytest.approx(math.log(2), abs=1e-6)
        assert kd_loss(0.5, 0.5) == pytest.approx(math.log(2), abs=1e-9)
        # frozen by direct substitution into the distillation formula
        assert kd_loss(0.8, 0.6) == pytest.approx(0.5919186453876236, abs=1e-9)

    def test_combined(self):
        cfg0 = LossConfig("reloop", alpha=0.0)
        assert combined_loss(cfg0, 1, 0.3, 0.9) == pytest.approx(1.2039728043259361, abs=1e-9)
        cfg1 = LossConfig("reloop", alpha=1.0)
        assert combined_loss(cfg1, 1, 0.6, 0.8) == pytest.approx(0.2, abs=1e-9)
        cfg5 = LossConfig("reloop", alpha=0.5)
        assert combined_loss(cfg5, 1, 0.6, 0.8) == pytest.approx(0.3554128118829953, abs=1e-9)

    def test_grads(self):
        assert loss_grad_z(LossConfig("ce"), 1, 0.5) == pytest.approx(-0.5, abs=1e-12)
        assert loss_grad_z(LossConfig("reloop", alpha=1.0), 1, 0.9, 0.8) == 0.0
        got = loss_grad_z(LossConfig("reloop", alpha=0.5), 1, 0.6, 0.8)
        assert got == pytest.approx(-0.32, abs=1e-12)
        assert loss_grad_z(LossConfig("kd"), 0, 0.4, 0.7) == pytest.approx(-0.3, abs=1e-12)


class TestConfig:
    def test_alpha_range_enforced(self):
        with pytest.raises(LossInputError):
            LossConfig("reloop", alpha=1.5)
        with pytest.raises(LossInputError):
            LossConfig("nope")

    def test_missing_y_last_raises(self):
        for kind in ("reloop", "kd"):
            with pytest.raises(LossInputError, match="y_last"):
                combined_loss(LossConfig(kind), 1, 0.5)
            with pytest.raises(LossInputError, match="y_last"):
                loss_grad_z(LossConfig(kind), 1, 0.5)


class TestZeroRegion:
    def test_randomized_sweep(self):
        rng = np.random.default_rng(0)
        n = 100_000
        y = rng.integers(0, 2, size=n).astype(float)
        p = rng.random(n)
        t = rng.random(n)
        loss = sc_vec(y, p, t)
        assert np.all(loss >= 0.0)
        good = (y == 1) & (p >= t) | (y == 0) & (p <= t)
        assert np.all(loss[good] == 0.0)
        assert np.all(loss[~good] > 0.0)

    @given(y=st.sampled_from([0.0, 1.0]), p=probs, t=probs)
    def test_pointwise(self, y, p, t):
        v = sc_loss(y, p, t)
        assert v >= 0.0
        better = p >= t if y == 1 else p <= t
        assert (v == 0.0) == better

    @given(y=st.sampled_from([0.0, 1.0]), p=probs)
    def test_self_comparison_free(self, y, p):
        assert sc_loss(y, p, p) == 0.0

    def test_monotone_penalty(self):
        grid = np.linspace(0.05, 0.75, 40)
        vals = sc_vec(np.ones_like(grid), grid, np.full_like(grid, 0.8))
        assert np.all(np.diff(vals) < 0.0)


class TestBlend:
    def test_alpha_zero_is_ce_bitwise(self):
        rng = np.random.default_rng(3)
        n = 5000
        y = rng.integers(0, 2, n).astype(float)
        p = rng.random(n)
        t = rng.random(n)
        cfg = LossConfig("reloop", alpha=0.0)
        assert np.array_equal(combined_vec(cfg, y, p, t), ce_vec(y, p))
        assert np.array_equal(grad_z_vec(cfg, y, p, t), p - y)

    def test_kd_approaches_ce_as_teacher_hits_label(self):
        eps = 1e-7
        for p in np.linspace(0.01, 0.99, 25):
            for y in (0.0, 1.0):
                teacher = min(max(y, eps), 1 - eps)
                assert abs(kd_loss(teacher, p) - ce_loss(y, p)) <= 1e-5


class TestGradFiniteDifference:
    @pytest.mark.parametrize("kind,alpha", [("ce", 0.0), ("reloop", 0.35), ("kd", 0.0)])
    def test_matches_central_difference_through_sigmoid(self, kind, alpha):
        cfg = LossConfig(kind, alpha=alpha)
        rng = np.random.default_rng(17)
        h = 1e-6
        checked = 0
        while checked < 60:
            z = rng.normal(0, 2.0)
            y = float(rng.integers(0, 2))
            t = float(rng.uniform(0.05, 0.95))
            p = sigmoid(z)
            if abs(p - t) <= 1e-3:
                continue  # stay away from the hinge kink
            an = loss_grad_z(cfg, y, p, t)
            lp = combined_loss(cfg, y, sigmoid(z + h), t)
            lm = combined_loss(cfg, y, sigmoid(z - h), t)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(fd), abs(an))
            checked += 1


class TestCurves:
    def test_positive_scenario_zero_above_prior(self):
        grid = np.arange(1, 100) / 100.0
        table = emit_loss_curves(1, 0.8, grid)
        sc = table[:, 3]
        assert np.all(sc[grid >= 0.8] == 0.0)
        below = grid < 0.8
        # linear with slope -1 under the prior
        assert np.allclose(sc[below], 0.8 - grid[below], atol=1e-12)

    def test_negative_scenario_zero_below_prior(self):
        grid = np.arange(1, 100) / 100.0
        table = emit_loss_curves(0, 0.3, grid)
        sc = table[:, 3]
        assert np.all(sc[grid <= 0.3] == 0.0)
        assert np.allclose(sc[grid > 0.3], grid[grid > 0.3] - 0.3, atol=1e-12)

    def test_all_curves_finite_and_ce_convex_in_logit(self):
        z = np.linspace(-6, 6, 201)
        p = 1.0 / (1.0 + np.exp(-z))
        table = emit_loss_curves(1, 0.5, p)
        assert np.all(np.isfinite(table))
        ce = table[:, 1]
        assert np.all(np.diff(ce, 2) >= -1e-10)  # convex along the uniform z grid

    def test_grid_validation(self):
        with pytest.raises(LossInputError):
            emit_loss_curves(1, 0.8, np.array([]))
        with pytest.raises(LossInputError):
            emit_loss_curves(1, 0.8, np.array([0.0, 0.5]))

    def test_csv_format(self, tmp_path):
        grid = np.array([0.25, 0.5, 0.75])
        path = tmp_path / "curves.csv"
        write_loss_curves(path, emit_loss_curves(1, 0.8, grid))
        lines = path.read_text().splitlines()
        assert lines[0] == "y_hat,l_ce,l_kd,l_sc"
        assert len(lines) == 4
        cells = lines[1].split(",")
        assert cells[0] == "0.25"
        assert float(cells[3]) == pytest.approx(0.55, abs=1e-9)


@settings(max_examples=200)
@given(y=st.sampled_from([0.0, 1.0]), p=probs, t=probs, alpha=st.floats(0, 1))
def test_combined_matches_manual_blend(y, p, t, alpha):
    cfg = LossConfig("reloop", alpha=alpha)
    manual = alpha * sc_loss(y, p, t) + (1 - alpha) * ce_loss(y, p)
    assert combined_loss(cfg, y, p, t) == manual
