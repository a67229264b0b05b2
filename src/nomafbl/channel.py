"""Rayleigh block-fading channel model with ordered gains for a user pool.

A base station serves V single-antenna users whose channel power gains are
independent unit-mean exponentials (Rayleigh fading, unit variance), ranked
ascending each fading block.  Two of them are paired for power-domain NOMA:
the weak user (order index t, larger power share) decodes against the strong
user's interference, while the strong user (order index u > t) applies
successive interference cancellation and sees interference-free SNR.
Sampling draws the ranked gains directly, without sorting the pool: both
paired gains jointly (sample_gains), or one user's gain alone
(sample_gain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .fblrate import LN2
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
    alpha_u    power-allocation coefficient of the strong user; the pair
               splits the full power, alpha_t + alpha_u = 1
    rho        transmit SNR, linear scale
    n          blocklength in channel uses
    eps        transmission error probability of both users, 0 < eps < 1
    theta_t/u  delay QoS exponents of the two users
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
        if abs(alpha_sum - 1.0) > 1e-12:
            raise ValueError(
                f"alpha_t + alpha_u must equal 1, got {alpha_sum}")
        if self.rho <= 0.0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.n < 1:
            raise ValueError(f"blocklength n must be >= 1, got {self.n}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.theta_t <= 0.0 or self.theta_u <= 0.0:
            raise ValueError("QoS exponents theta_t, theta_u must be positive")

    def order_index(self, role: str) -> int:
        _check_role(role)
        return self.t if role == "weak" else self.u

    def theta_for(self, role: str) -> float:
        _check_role(role)
        return self.theta_t if role == "weak" else self.theta_u


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

def _add_spacings(acc, row, V: int, start: int, stop: int,
                  rng: np.random.Generator):
    """Add the Renyi spacings E_i / (V - i), i = start..stop-1, to acc.

    Each spacing row is drawn into the reused buffer `row`, in the
    generator's order, and added in index order: bit for bit the rows
    start..stop-1 of a (stop, size) spacing matrix summed over its rows.
    """
    for i in range(start, stop):
        rng.standard_exponential(out=row)
        row /= V - i
        acc += row


def _mirror_order_gain(y):
    """Map y in place to x = -ln(1 - e^-y) and return it.

    The map is decreasing and carries a unit exponential to a unit
    exponential, so it takes the m-th smallest of V gains to the
    (V - m + 1)-th smallest.  Two branches keep it within 1e-15 relative
    from y = 1e-12 to 700 (Maechler 2012, "Accurately computing
    log(1 - exp(-|a|))"): -log(-expm1(-y)) up to ln 2 and -log1p(-exp(-y))
    above, where the first would lose the digits of e^-y to the rounding
    of 1 - e^-y (4 % off at y = 36).
    """
    large = y > LN2
    tail = y[large]
    np.negative(y, out=y)
    np.expm1(y, out=y)
    np.negative(y, out=y)
    np.log(y, out=y)
    np.negative(y, out=y)
    y[large] = -np.log1p(-np.exp(-tail))
    return y


def sample_gains(cfg: SystemConfig, size: int, rng: np.random.Generator):
    """Draw `size` joint realizations of the paired ordered gains.

    Uses Renyi's representation of exponential order statistics,
    X_(k) = sum_{i<=k} E_i / (V - i + 1) with E_i iid unit exponentials
    (Renyi 1953; David & Nagaraja, Order Statistics, sec. 2.5): it draws u
    exponentials per realization instead of V, sorts nothing, and keeps the
    joint law of (x_t, x_u).  Returns two fresh contiguous float64 arrays.
    Monte-Carlo draws through it, since it needs both gains of one draw;
    the queue simulator, which needs one user's gain, draws through
    sample_gain.

    The spacings are drawn one row of `size` at a time into one reused
    buffer (_add_spacings), rows 0..t-1 summed into x_t and rows t..u-1
    into the rest x_u - x_t: the draws and sums are bit for bit those of
    the (u, size) spacing matrix summed over its rows, and the peak is 24
    bytes per sample: the 16 of the output and one row.
    """
    x_t, x_u = np.zeros(size), np.zeros(size)
    row = np.empty(size)
    _add_spacings(x_t, row, cfg.V, 0, cfg.t, rng)
    _add_spacings(x_u, row, cfg.V, cfg.t, cfg.u, rng)
    x_u += x_t
    return x_t, x_u


def sample_gain(cfg: SystemConfig, role: str, size: int,
                rng: np.random.Generator):
    """Draw `size` realizations of one user's ordered gain X_(k), k the
    order index of `role`; returns one fresh contiguous float64 array.

    It draws min(k, m) exponentials per realization, m = V - k + 1.  From
    the bottom (k <= m) it sums Renyi's first k spacings, bit for bit as
    sample_gains makes x_t at t = k.  From the top it sums the first m
    into the m-th smallest gain Y and mirrors it, X_(k) = -ln(1 - e^-Y)
    (_mirror_order_gain).
    """
    k = cfg.order_index(role)
    m = cfg.V - k + 1
    x = np.zeros(size)
    _add_spacings(x, np.empty(size), cfg.V, 0, min(k, m), rng)
    return x if k <= m else _mirror_order_gain(x)


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
