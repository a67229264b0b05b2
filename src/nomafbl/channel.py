"""Rayleigh block-fading channel model with ordered gains for a user pool.

A base station serves V single-antenna users whose channel power gains are
independent unit-mean exponentials (Rayleigh fading, unit variance), sorted
ascending each fading block.  Two of them are paired for power-domain NOMA:
the weak user (order index t, larger power share) decodes against the strong
user's interference, while the strong user (order index u > t) applies
successive interference cancellation and sees interference-free SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .specfun import beta_fn

ROLES = ("weak", "strong")


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Scenario parameters; the single source of truth for every evaluator.

    V          total number of users in the pool
    t, u       order indices of the paired weak / strong user, 1 <= t < u <= V
    alpha_t    power-allocation coefficient of the weak user
    alpha_u    power-allocation coefficient of the strong user
    rho        transmit SNR, linear scale
    n          blocklength in channel uses
    eps        transmission error probability (eps = 1 degenerates all
               evaluators to zero capacity and is allowed for sanity checks)
    theta_t/u  delay QoS exponents of the two users
    eps_t/u    optional per-user error targets, defaulting to the common eps
    allow_power_backoff  permit alpha_t + alpha_u < 1 (power back-off studies)
    """

    V: int
    t: int
    u: int
    alpha_t: float
    alpha_u: float
    rho: float
    n: int
    eps: float
    theta_t: float
    theta_u: float
    eps_t: float | None = None
    eps_u: float | None = None
    allow_power_backoff: bool = False

    def __post_init__(self):
        if self.V < 1:
            raise ValueError(f"V must be positive, got {self.V}")
        if not 1 <= self.t < self.u <= self.V:
            raise ValueError(
                f"order indices must satisfy 1 <= t < u <= V, got t={self.t}, "
                f"u={self.u}, V={self.V}")
        if not (self.alpha_t > self.alpha_u > 0.0):
            raise ValueError(
                f"power coefficients must satisfy alpha_t > alpha_u > 0, got "
                f"({self.alpha_t}, {self.alpha_u})")
        alpha_sum = self.alpha_t + self.alpha_u
        if self.allow_power_backoff:
            if alpha_sum > 1.0 + 1e-12:
                raise ValueError(f"alpha_t + alpha_u = {alpha_sum} exceeds 1")
        elif abs(alpha_sum - 1.0) > 1e-12:
            raise ValueError(
                f"alpha_t + alpha_u must equal 1 (got {alpha_sum}); set "
                f"allow_power_backoff=True for sums below 1")
        if self.rho <= 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.n < 1:
            raise ValueError(f"blocklength n must be >= 1, got {self.n}")
        for name in ("eps", "eps_t", "eps_u"):
            val = getattr(self, name)
            if val is not None and not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {val}")
        if self.theta_t <= 0.0 or self.theta_u <= 0.0:
            raise ValueError("QoS exponents theta_t, theta_u must be positive")

    def order_index(self, role: str) -> int:
        _check_role(role)
        return self.t if role == "weak" else self.u

    def theta_for(self, role: str) -> float:
        _check_role(role)
        return self.theta_t if role == "weak" else self.theta_u

    def eps_for(self, role: str) -> float:
        _check_role(role)
        per_user = self.eps_t if role == "weak" else self.eps_u
        return self.eps if per_user is None else per_user


def _check_role(role: str):
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")


# ---------------------------------------------------------------------------
# Gain statistics
# ---------------------------------------------------------------------------

def _check_order(k: int, V: int):
    if not 1 <= k <= V:
        raise ValueError(f"order index k must lie in [1, {V}], got {k}")


def ordered_pdf(x, k: int, V: int):
    """Density of the k-th smallest of V iid unit-mean exponential gains."""
    _check_order(k, V)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("power gain must be non-negative")
    xi = 1.0 / beta_fn(k, V - k + 1)
    F = -np.expm1(-x)
    out = xi * np.exp(-x) * F ** (k - 1) * np.exp(-(V - k) * x)
    return float(out) if out.ndim == 0 else out


def ordered_cdf(x, k: int, V: int):
    """CDF of the k-th order statistic: F(X_(k)) ~ Beta(k, V - k + 1)."""
    _check_order(k, V)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("power gain must be non-negative")
    out = special.betainc(k, V - k + 1, -np.expm1(-x))
    return float(out) if out.ndim == 0 else out


def ordered_quantile(q: float, k: int, V: int) -> float:
    """Quantile of the k-th order statistic, by inverting its Beta law."""
    _check_order(k, V)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    return -math.log1p(-float(special.betaincinv(k, V - k + 1, q)))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_gains(cfg: SystemConfig, size: int, rng: np.random.Generator):
    """Draw `size` joint realizations of the paired ordered gains.

    Sorts V iid exponentials per draw, preserving the joint law of
    (x_t, x_u), and returns the two picked columns as views of the sorted
    draws (a copy would read the whole draw array once more per column).
    This is the only sampler of channel gains: Monte-Carlo and the queue
    simulator draw through it, each from its own generator.
    """
    draws = rng.standard_exponential((size, cfg.V))
    draws.sort(axis=1)
    return draws[:, cfg.t - 1], draws[:, cfg.u - 1]


# ---------------------------------------------------------------------------
# SINR maps
# ---------------------------------------------------------------------------

def sinr_weak(x_t, cfg: SystemConfig):
    """SINR of the weak user, which treats the strong user as interference.

    Strictly increasing in the gain and bounded above by alpha_t / alpha_u.
    """
    x_t = np.asarray(x_t, dtype=float)
    out = cfg.alpha_t * x_t / (cfg.alpha_u * x_t + 1.0 / cfg.rho)
    return float(out) if out.ndim == 0 else out


def snr_strong(x_u, cfg: SystemConfig):
    """Interference-free SNR of the strong user after SIC."""
    x_u = np.asarray(x_u, dtype=float)
    out = cfg.alpha_u * cfg.rho * x_u
    return float(out) if out.ndim == 0 else out


def gamma_for_role(x, cfg: SystemConfig, role: str):
    _check_role(role)
    return sinr_weak(x, cfg) if role == "weak" else snr_strong(x, cfg)
