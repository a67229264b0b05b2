"""Block-structured queue simulator validating the tail and delay laws.

Each fading block lasts n channel uses.  Per block the selected user's gain
is drawn alone (channel.sample_gain), the finite-blocklength rate r follows,
and the block delivers S = n * max(r, 0) bits with probability 1 - eps
(decoding failure keeps the data queued, mirroring retransmission).
Arrivals are fluid at the constant rate mu, i.e. A = mu * n bits per block,
and the backlog follows the reflected recursion W <- max(W + A - S, 0).

Delay accounting is fluid FIFO: departures are cumulative arrivals minus
backlog, so a bit arriving at tau waits longer than D exactly when
Q(tau + D) > mu * D, the backlog tail that the bound in `delay` approximates.
Q is linear within a block, so the violating share is the time it spends
above mu * D over [warmup * n + D, num_blocks * n + D), measured exactly.
Only blocks whose backlog exceeds mu * D at their start or end are
evaluated; no other block spends time above it.  Only the backlog crosses
from one fixed-size chunk to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig, gamma_for_role, sample_gain
from .fblrate import fbl_rate
from .specfun import InsufficientDataError

_BLOCK_CHUNK = 1 << 17
_FIT_MIN_HITS = 100     # raw exceedances a threshold needs to enter the fit
_FIT_MIN_POINTS = 5     # qualifying thresholds the fit needs


@dataclass(frozen=True)
class SimSpec:
    """One simulation run: scenario, loading, horizon and seed."""

    cfg: SystemConfig
    role: str
    arrival_rate: float
    num_blocks: int
    warmup_blocks: int = 0
    d_max: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.arrival_rate < math.inf:
            raise ValueError("arrival_rate must be finite and non-negative")
        if self.num_blocks <= self.warmup_blocks or self.warmup_blocks < 0:
            raise ValueError("need num_blocks > warmup_blocks >= 0")
        if not 0.0 <= self.d_max < math.inf:
            raise ValueError(
                f"d_max must be finite and non-negative, got {self.d_max}")
        if self.d_max > self.num_blocks * self.cfg.n:
            raise ValueError(
                f"d_max must not exceed the simulated horizon num_blocks * n "
                f"= {self.num_blocks * self.cfg.n} channel uses, got "
                f"{self.d_max}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class QueueStats:
    """Empirical tail and delay statistics of one run.

    thresholds / tail_prob / tail_hits   Pr{Q > x} histogram over log-spaced
                                         bit thresholds with raw hit counts
    delay_violation_freq                 share of arriving bits late by more
                                         than d_max: a bit arriving at tau is
                                         late iff Q(tau + d_max) > mu * d_max
    fitted_theta / fitted_theta_stderr   least-squares slope of -ln Pr{Q > x}
                                         against x (per bit), None when too
                                         few thresholds qualify
    mean_queue                           time-average backlog in bits
    blocks_counted                       post-warmup blocks in the statistics
    """

    thresholds: np.ndarray
    tail_prob: np.ndarray
    tail_hits: np.ndarray
    delay_violation_freq: float
    fitted_theta: float | None
    fitted_theta_stderr: float | None
    mean_queue: float
    blocks_counted: int


def simulate_workload(arrivals_per_block: float, services: np.ndarray,
                      initial: float = 0.0) -> np.ndarray:
    """Reflected backlog recursion W_k = max(W_{k-1} + A - S_k, 0).

    Vectorized through the running-minimum representation of the reflected
    random walk, in place on one new array and one scratch array; returns
    the backlog after each block and leaves `services` unchanged.  W_k tops
    the exact recursion from `initial` by at most |sum_{a<i<=k} e_i|, a the
    last block up to k with W_a = 0 (the walk's running minimum) or the
    start, and falls short by at most 2 sum_{i<=k} |e_i|, e_i the rounding
    of the walk's i-th partial sum (at most 2^-53 m max|A - S| over m
    blocks); W_k's own rounding keeps its order against any level.
    """
    walk = np.subtract(arrivals_per_block, services, dtype=float)
    np.cumsum(walk, out=walk)
    floor = np.minimum.accumulate(walk)
    np.negative(floor, out=floor)
    np.maximum(initial, floor, out=floor)
    walk += floor
    return walk


def _chunk_services(spec: SimSpec, count: int, chunk_index: int) -> np.ndarray:
    # gains and decoding failures use separate substreams so the service
    # trajectory of a given seed does not depend on the horizon length
    cfg = spec.cfg
    eps = cfg.eps
    gain_rng = np.random.default_rng([spec.seed, chunk_index, 0])
    fail_rng = np.random.default_rng([spec.seed, chunk_index, 1])
    gains = sample_gain(cfg.order_index(spec.role), cfg.V, count, gain_rng)
    rates = fbl_rate(gamma_for_role(gains, cfg, spec.role), cfg.n, eps)
    del gains
    # clamp, scale and zero the failed blocks in place: n * max(r, 0) * 1{ok}
    np.maximum(rates, 0.0, out=rates)
    rates *= cfg.n
    rates *= fail_rng.random(count) >= eps
    return rates


def _time_above(w_start, w_end, level, lo, hi, n):
    """Time within [lo, hi] of each n-use block where the backlog, linear
    from w_start to w_end, exceeds level; one length per block.

    The crossing is n times the share (level - w_start) / (w_end - w_start)
    of the rise, which is at least 1 where w_end <= level (the float
    subtraction is monotone), so a block whose backlog stays at or below
    level adds exactly 0."""
    rise = w_end - w_start
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.clip(n * ((level - w_start) / rise), lo, hi)
    return np.where(
        rise > 0.0, hi - cross,
        np.where(rise < 0.0, cross - lo,
                 np.where(w_start > level, hi - lo, 0.0)))


def _late_time(backlog, carry_w, carry_err, level, start, late_lo, late_hi,
               n, A, services):
    """Time the chunk's backlog spends above level within [late_lo, late_hi],
    and a bound on its last backlog's error, for the next chunk to carry.

    Block k of the chunk is block start + k of the run: it starts at
    (start + k) n and runs linearly from w[k] to w[k + 1], w being the
    backlog after the carried carry_w (within carry_err).  Only blocks that
    start or end above level are evaluated; every other adds exactly 0
    (_time_above).  Where one may top level only by the walk's rounding,
    each block's level rises by twice its backlogs' larger bound
    (simulate_workload, e_i exact by TwoSum, plus carry_err until the queue
    empties); the last bound is 0 for an empty queue, else that or a priori.
    The lengths sum at their places among zeros, as the sum over all blocks."""
    high = backlog > level
    above = np.empty_like(high)
    above[0] = carry_w > level
    above[1:] = high[:-1]
    above |= high
    blocks = np.flatnonzero(above)
    reach = (2.0 ** -52 * services.size ** 2 * max(A, np.max(services))
             if blocks.size or backlog[-1] > 0.0 else 0.0)
    last_err = reach / 2.0 + carry_err if backlog[-1] > 0.0 else 0.0
    if blocks.size == 0:
        return 0.0, last_err
    w_start = np.where(blocks > 0, backlog[blocks - 1], carry_w)
    w_end = backlog[blocks]
    if np.any(np.maximum(w_start, w_end) <= level + reach):
        steps = np.subtract(A, services[:blocks[-1] + 1], dtype=float)
        walk = np.cumsum(steps)
        prev = np.concatenate(([0.0], walk[:-1]))
        rise = walk - prev      # walk + e = prev + steps, exactly
        cum = np.zeros(walk.size + 1)       # cum[k + 1] = sum_{i<=k} |e_i|
        np.cumsum(np.abs((prev - (walk - rise)) + (steps - rise)), out=cum[1:])
        empty = np.append(-1, np.flatnonzero(backlog[:walk.size] == 0.0))
        k = np.concatenate((blocks - 1, blocks, [walk.size - 1]))
        a = empty[np.searchsorted(empty, k, side="right") - 1]  # -1: carried
        since = cum[k + 1] - cum[a + 1] + carry_err * (a < 0)
        last_err = float(since[-1]) if walk.size == backlog.size else last_err
        level = level + 2.0 * np.maximum(*np.split(since[:-1], 2))
    block_t = n * (start + blocks).astype(float)
    lengths = np.zeros(backlog.size)
    lengths[blocks] = _time_above(w_start, w_end, level,
                                  np.clip(late_lo - block_t, 0.0, n),
                                  np.clip(late_hi - block_t, 0.0, n), n)
    return float(np.sum(lengths)), last_err


def run_queue_sim(spec: SimSpec) -> QueueStats:
    """Simulate the block queue and collect tail / delay statistics.

    Streams in fixed chunks with deterministic per-chunk substreams, so a
    rerun with the same spec is bit-identical regardless of horizon.
    """
    cfg = spec.cfg
    n = cfg.n
    mu = spec.arrival_rate
    A = mu * n
    total = spec.num_blocks + int(spec.d_max // n) + 1
    # arrivals over [warmup * n, num_blocks * n) are late where the backlog
    # d_max later exceeds mu * d_max
    late_lo = spec.warmup_blocks * n + spec.d_max
    late_hi = spec.num_blocks * n + spec.d_max

    thresholds = (A if A > 0.0 else 1.0) * np.logspace(-2, 1.8, 26)
    hits = np.zeros(thresholds.size)
    sum_w = 0.0
    counted = spec.num_blocks - spec.warmup_blocks     # >= 1 by SimSpec
    late_time = 0.0

    carry_w = carry_err = 0.0
    for chunk_index, start in enumerate(range(0, total, _BLOCK_CHUNK)):
        m = min(_BLOCK_CHUNK, total - start)
        services = _chunk_services(spec, m, chunk_index)
        backlog = simulate_workload(A, services, initial=carry_w)

        # backlog statistics over post-warmup counted blocks
        lo = max(spec.warmup_blocks - start, 0)
        hi = min(spec.num_blocks - start, m)
        if hi > lo:
            window = backlog[lo:hi]
            hits += window.size - np.searchsorted(np.sort(window), thresholds,
                                                  side="right")
            sum_w += float(np.sum(window))

        late, carry_err = _late_time(backlog, carry_w, carry_err,
                                     mu * spec.d_max, start, late_lo,
                                     late_hi, n, A, services)
        late_time += late
        carry_w = float(backlog[-1])

    mean_queue = sum_w / counted
    tail_prob = hits / counted
    freq = late_time / (counted * n)

    try:
        slope, se = fit_tail_exponent(thresholds, tail_prob, hits)
    except InsufficientDataError:
        slope, se = None, None
    return QueueStats(thresholds=thresholds, tail_prob=tail_prob,
                      tail_hits=hits, delay_violation_freq=freq,
                      fitted_theta=slope, fitted_theta_stderr=se,
                      mean_queue=mean_queue, blocks_counted=counted)


def fit_tail_exponent(thresholds, probs, hits):
    """Least-squares slope of -ln Pr{Q > x} against x over qualifying bins.

    Only thresholds backed by at least _FIT_MIN_HITS raw exceedances enter
    the fit; fewer than _FIT_MIN_POINTS such thresholds raises
    InsufficientDataError.  Returns (slope, standard_error).
    """
    thresholds = np.asarray(thresholds, dtype=float)
    probs = np.asarray(probs, dtype=float)
    hits = np.asarray(hits, dtype=float)
    mask = (hits >= _FIT_MIN_HITS) & (probs > 0.0)
    if int(mask.sum()) < _FIT_MIN_POINTS:
        raise InsufficientDataError(
            f"only {int(mask.sum())} thresholds have >= {_FIT_MIN_HITS} "
            f"hits; need {_FIT_MIN_POINTS}")
    x = thresholds[mask]
    y = -np.log(probs[mask])
    x_bar = x.mean()
    y_bar = y.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    slope = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    resid = y - y_bar - slope * (x - x_bar)
    se = math.sqrt(float(np.sum(resid ** 2)) / (x.size - 2) / sxx)
    return slope, se
