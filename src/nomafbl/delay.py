"""Statistical delay analytics: queue-tail law and delay-violation bound.

For a queue whose length tail decays as Pr{Q > x} ~ exp(-theta * ln2 * x)
(x in bits; the configured exponent theta is per nat, hence the ln 2
bridge), the probability that the queueing delay of an arrival exceeds
D_max channel uses is approximately

    Pr{D > D_max} ~ Pr{Q > 0} * exp(-theta * mu * D_max * ln 2)

with mu the arrival rate in bits per channel use.  The effective capacity
is the largest such mu, so the curve generator pairs each theta with
mu = C_e(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .channel import SystemConfig
from .eccalc import EcResult, EvalControls, evaluate
from .fblrate import LN2


@dataclass(frozen=True)
class DelaySpec:
    """Inputs of the delay-violation bound.

    d_max          delay bound in channel uses
    arrival_rate   constant arrival rate mu in bits per channel use
    nonempty_prob  Pr{Q > 0}; defaults to the conservative upper bound 1
    """

    d_max: float
    arrival_rate: float
    nonempty_prob: float = 1.0

    def __post_init__(self):
        if self.d_max < 0.0:
            raise ValueError(f"d_max must be non-negative, got {self.d_max}")
        if not 0.0 < self.nonempty_prob <= 1.0:
            raise ValueError(
                f"nonempty_prob must lie in (0, 1], got {self.nonempty_prob}")
        if self.arrival_rate < 0.0:
            raise ValueError(
                f"arrival_rate must be non-negative, got {self.arrival_rate}")


def delay_violation_prob(theta: float, spec: DelaySpec) -> float:
    """Large-deviations approximation of Pr{delay > d_max}."""
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    exponent = theta * spec.arrival_rate * spec.d_max * LN2
    return spec.nonempty_prob * math.exp(-exponent)


@dataclass(frozen=True)
class DelayPoint:
    theta: float
    prob: float
    ec: EcResult


def delay_violation_curve(cfg: SystemConfig, role: str, thetas,
                          d_max: float,
                          ctl: EvalControls) -> list[DelayPoint]:
    """Delay-violation probability across a QoS-exponent grid.

    For each theta the arrival rate is the closed-form effective capacity
    at that theta (both users' exponents are swept together).
    """
    thetas = list(thetas)
    if any(th <= 0.0 for th in thetas):
        raise ValueError("theta grid must be strictly positive")
    if sorted(thetas) != thetas:
        raise ValueError("theta grid must be ascending")
    points = []
    for th in thetas:
        cfg_th = replace(cfg, theta_t=th, theta_u=th)
        ec = evaluate(cfg_th, role, "closed_form", ctl)
        prob = delay_violation_prob(
            th, DelaySpec(d_max=d_max, arrival_rate=max(ec.value, 0.0)))
        points.append(DelayPoint(theta=th, prob=prob, ec=ec))
    return points
