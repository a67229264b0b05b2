"""Statistical delay analytics: queue-tail law and delay-violation bound.

For a queue whose length tail decays as Pr{Q > x} ~ exp(-theta * ln2 * x)
(x in bits; the configured exponent theta is per nat, hence the ln 2
bridge), the probability that the queueing delay of an arrival exceeds
D_max channel uses is approximately

    Pr{D > D_max} ~ Pr{Q > 0} * exp(-theta * mu * D_max * ln 2)

with mu the arrival rate in bits per channel use.  Under FIFO service a bit
is late exactly when the backlog D_max later exceeds mu * D_max, so this is
the queue tail at that level, which `queuesim` measures exactly.  The
effective capacity is the largest such mu, so the curve generator pairs
each theta with mu = C_e(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .channel import SystemConfig
from .eccalc import EcResult, EvalControls, evaluate
from .fblrate import LN2


def delay_violation_prob(theta: float, arrival_rate: float, d_max: float,
                         nonempty_prob: float = 1.0) -> float:
    """Large-deviations approximation of Pr{delay > d_max}: a constant
    arrival rate mu in bits per channel use, d_max in channel uses and
    Pr{Q > 0} = nonempty_prob, by default its conservative upper bound 1."""
    if not 0.0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if not 0.0 <= arrival_rate < math.inf:
        raise ValueError(f"arrival_rate must be finite and non-negative, "
                         f"got {arrival_rate}")
    if not 0.0 <= d_max < math.inf:
        raise ValueError(f"d_max must be finite and non-negative, got {d_max}")
    if not 0.0 < nonempty_prob <= 1.0:
        raise ValueError(
            f"nonempty_prob must lie in (0, 1], got {nonempty_prob}")
    return nonempty_prob * math.exp(-theta * arrival_rate * d_max * LN2)


def delay_at_capacity(theta: float, ec: float, d_max: float) -> float:
    """Delay-violation bound at mu = max(ec, 0) with Pr{Q > 0} = 1, the
    delay column of a sweep for an effective capacity ec at theta."""
    return delay_violation_prob(theta, max(ec, 0.0), d_max)


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
        prob = delay_at_capacity(th, ec.value, d_max)
        points.append(DelayPoint(theta=th, prob=prob, ec=ec))
    return points
