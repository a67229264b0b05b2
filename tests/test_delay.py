import math
from dataclasses import replace

import numpy as np
import pytest

from nomafbl import delay
from nomafbl.channel import SystemConfig, db_to_linear
from nomafbl.delay import (DelayPoint, delay_at_capacity,
                           delay_violation_curve, delay_violation_prob)
from nomafbl.eccalc import EvalControls, evaluate
from nomafbl.specfun import ConvergenceError
from nomafbl.sweep import figure_preset

FIG5 = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2, n=400, eps=1e-6,
            theta_t=0.01, theta_u=0.01)


def make_cfg(rho_db=20.0, **overrides):
    return SystemConfig(rho=db_to_linear(rho_db), **{**FIG5, **overrides})


class TestDelayViolationProb:
    def test_zero_arrival_saturates(self):
        assert delay_violation_prob(0.5, 0.0, 400.0, 0.7) == 0.7

    def test_zero_bound_saturates(self):
        assert delay_violation_prob(0.5, 3.0, 0.0, 0.4) == 0.4

    def test_strictly_decreasing(self):
        p0 = delay_violation_prob(0.01, 2.0, 200.0)
        assert delay_violation_prob(0.02, 2.0, 200.0) < p0
        assert delay_violation_prob(0.01, 2.0, 400.0) < p0
        assert delay_violation_prob(0.01, 4.0, 200.0) < p0

    def test_range(self):
        # positive and at most 1 wherever the exponent is representable;
        # beyond double range the value underflows cleanly to zero
        rng = np.random.default_rng(0)
        for _ in range(200):
            d_max = rng.uniform(0, 2000)
            arrival_rate = rng.uniform(0, 8)
            nonempty_prob = rng.uniform(0.01, 1.0)
            theta = rng.uniform(1e-4, 2.0)
            p = delay_violation_prob(theta, arrival_rate, d_max, nonempty_prob)
            exponent = theta * arrival_rate * d_max * math.log(2.0)
            assert 0.0 <= p <= 1.0
            if exponent < 700.0:
                assert p > 0.0

    def test_exponent_units(self):
        # exponent is theta * mu * D * ln2 with mu in bits per channel use
        expected = math.exp(-0.01 * 3.0 * 400.0 * math.log(2.0))
        assert delay_violation_prob(0.01, 3.0, 400.0) == pytest.approx(
            expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            delay_violation_prob(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            delay_violation_prob(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            delay_violation_prob(0.5, 1.0, -1.0)
        with pytest.raises(ValueError):
            delay_violation_prob(0.5, 1.0, 1.0, 0.0)


class TestDelayViolationCurve:
    def test_intermediate_point_between_floor_and_one(self):
        ctl = EvalControls()
        pts = delay_violation_curve(make_cfg(), "strong", [0.01], 400.0, ctl)
        assert 1e-6 < pts[0].prob < 1.0

    def test_floor_invariant_at_large_theta(self):
        # for theta = 10 the kernel expectation is dominated by the error
        # probability and the curve sits at eps^(d_max/n)
        ctl = EvalControls()
        floor = 1e-6
        for role in ("weak", "strong"):
            pts = delay_violation_curve(make_cfg(), role, [10.0], 400.0, ctl)
            assert 0.5 * floor <= pts[0].prob <= 2.0 * floor

    def test_monotone_and_floor_bounded(self):
        ctl = EvalControls()
        thetas = list(np.logspace(-4, 0, 12))
        for role in ("weak", "strong"):
            pts = delay_violation_curve(make_cfg(), role, thetas, 400.0, ctl)
            probs = [p.prob for p in pts]
            assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))
            assert all(p >= 0.9e-6 for p in probs)

    def test_strong_below_weak(self):
        ctl = EvalControls()
        thetas = list(np.logspace(-4, 0, 10))
        weak = delay_violation_curve(make_cfg(), "weak", thetas, 400.0, ctl)
        strong = delay_violation_curve(make_cfg(), "strong", thetas, 400.0,
                                       ctl)
        for w, s in zip(weak, strong):
            assert s.prob <= w.prob * (1 + 1e-9)

    def test_higher_snr_lowers_preflloor_portion(self):
        ctl = EvalControls()
        thetas = list(np.logspace(-4, -2, 6))   # pre-floor region
        lo = delay_violation_curve(make_cfg(rho_db=15.0), "strong", thetas,
                                   400.0, ctl)
        hi = delay_violation_curve(make_cfg(rho_db=25.0), "strong", thetas,
                                   400.0, ctl)
        for a, b in zip(lo, hi):
            assert b.prob < a.prob

    def test_grid_validation(self):
        ctl = EvalControls()
        with pytest.raises(ValueError):
            delay_violation_curve(make_cfg(), "weak", [0.02, 0.01], 400.0,
                                  ctl)
        with pytest.raises(ValueError):
            delay_violation_curve(make_cfg(), "weak", [0.0, 0.01], 400.0, ctl)

    def test_points_match_per_row_evaluate(self):
        # the grid goes through one evaluate_batch call, whose strong rows
        # share their split: on fig5's 20 dB theta grid each point is
        # repr-equal to its row made alone by evaluate
        spec = figure_preset("fig5")
        cfg = replace(spec.base, rho=db_to_linear(20.0))
        for role in ("weak", "strong"):
            pts = delay_violation_curve(cfg, role, spec.grid, spec.d_max,
                                        spec.controls)
            want = []
            for theta in spec.grid:
                ec = evaluate(replace(cfg, theta_t=theta, theta_u=theta),
                              role, "closed_form", spec.controls)
                want.append(DelayPoint(theta, delay_at_capacity(
                    theta, ec.value, spec.d_max), ec))
            assert repr(pts) == repr(want)

    def test_first_failed_row_raises(self, monkeypatch):
        # a row's failure reaches the caller, the first one on the grid
        ctl = EvalControls()
        ok = evaluate(make_cfg(), "weak", "closed_form", ctl)
        monkeypatch.setattr(delay, "evaluate_batch", lambda *args: [
            ok, ConvergenceError("first"), ValueError("second")])
        with pytest.raises(ConvergenceError, match="first"):
            delay_violation_curve(make_cfg(), "weak", [0.01, 0.02, 0.03],
                                  400.0, ctl)

    @pytest.mark.parametrize("role", ["weak", "strong"])
    def test_row_failure_is_raised(self, role):
        # eps = 0.9, theta = 1, -30 dB: the expanded kernel's mean is not
        # positive, for either user
        with pytest.raises(ConvergenceError, match="non-positive"):
            delay_violation_curve(make_cfg(rho_db=-30.0, eps=0.9), role,
                                  [0.01, 1.0], 400.0, EvalControls())
