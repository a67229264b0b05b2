"""Block-structured queue simulator validating the tail and delay laws.

Each fading block lasts n channel uses.  Per block the selected user's gain
is drawn jointly with its partner's, the finite-blocklength rate r follows,
and the block delivers S = n * max(r, 0) bits with probability 1 - eps
(decoding failure keeps the data queued, mirroring retransmission).
Arrivals are fluid at the constant rate mu, i.e. A = mu * n bits per block,
and the backlog follows the reflected recursion W <- max(W + A - S, 0).

Delay accounting is fluid FIFO: a bit arriving at time tau violates the
bound D if the cumulative deliveries by tau + D have not reached the bit's
own cumulative-arrival level.  With per-block-constant rates the condition
reduces to one linear inequality in the arrival offset per overlapped
block, so the violating bit fraction is measured exactly, and everything
streams in fixed-size chunks so long horizons stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig, gamma_for_role, sample_gains
from .fblrate import fbl_rate
from .specfun import InsufficientDataError

_BLOCK_CHUNK = 1 << 17


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
    fixed_gain: float | None = None

    def __post_init__(self):
        if self.arrival_rate < 0.0:
            raise ValueError("arrival_rate must be non-negative")
        if self.num_blocks <= self.warmup_blocks or self.warmup_blocks < 0:
            raise ValueError("need num_blocks > warmup_blocks >= 0")
        if self.d_max < 0.0:
            raise ValueError("d_max must be non-negative")
        if self.fixed_gain is not None and self.fixed_gain < 0.0:
            raise ValueError("fixed_gain must be non-negative")


@dataclass
class QueueStats:
    """Empirical tail and delay statistics of one run.

    thresholds / tail_prob / tail_hits   Pr{Q > x} histogram over log-spaced
                                         bit thresholds with raw hit counts
    delay_violation_freq                 fraction of arriving bits whose
                                         fluid FIFO sojourn exceeds d_max
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
    random walk; returns the backlog after each block.
    """
    increments = arrivals_per_block - np.asarray(services, dtype=float)
    walk = np.cumsum(increments)
    return walk + np.maximum(initial, -np.minimum.accumulate(walk))


def _chunk_services(spec: SimSpec, count: int, chunk_index: int) -> np.ndarray:
    # gains and decoding failures use separate substreams so the service
    # trajectory of a given seed does not depend on the horizon length
    cfg = spec.cfg
    eps = cfg.eps_for(spec.role)
    gain_rng = np.random.default_rng([spec.seed, chunk_index, 0])
    fail_rng = np.random.default_rng([spec.seed, chunk_index, 1])
    if spec.fixed_gain is None:
        x_t, x_u = sample_gains(cfg, count, gain_rng)
        gains = x_t if spec.role == "weak" else x_u
    else:
        gains = np.full(count, spec.fixed_gain)
    rates = np.maximum(fbl_rate(gamma_for_role(gains, cfg, spec.role),
                                cfg.n, eps), 0.0)
    delivered = fail_rng.random(count) >= eps
    return cfg.n * rates * delivered


def _segment_violation(mu, n, A, shift_blocks, extra, off_lo, off_hi,
                       start_backlog, deliveries):
    """Violating offset measure for one lookahead segment.

    A bit arriving at offset s of block k violates when

        mu*s > shift*A - W_start + ((s + extra)/n) * D_ahead

    where W_start is the backlog at the start of block k+shift and D_ahead
    that block's deliveries; both are passed pre-aligned to the arrivals.
    """
    if off_hi <= off_lo or start_backlog.size == 0:
        return 0.0
    slope = mu - deliveries / n
    const = start_backlog - shift_blocks * A - (extra / n) * deliveries
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -const / slope
    length = np.where(
        slope > 0.0,
        off_hi - np.clip(root, off_lo, off_hi),
        np.where(slope < 0.0,
                 np.clip(root, off_lo, off_hi) - off_lo,
                 np.where(const > 0.0, off_hi - off_lo, 0.0)))
    return float(np.sum(length))


def run_queue_sim(spec: SimSpec) -> QueueStats:
    """Simulate the block queue and collect tail / delay statistics.

    Streams in fixed chunks with deterministic per-chunk substreams, so a
    rerun with the same spec is bit-identical regardless of horizon.
    """
    cfg = spec.cfg
    n = cfg.n
    mu = spec.arrival_rate
    A = mu * n
    j, o = divmod(spec.d_max, n)
    j = int(j)
    lookahead = j + 1
    total = spec.num_blocks + lookahead

    if A > 0.0:
        thresholds = A * np.logspace(-2, 1.8, 26)
    else:
        thresholds = np.logspace(-2, 1.8, 26)
    hits = np.zeros(thresholds.size)
    sum_w = 0.0
    counted = 0
    viol_length = 0.0
    arrivals_counted = 0

    carry_w = 0.0
    # start-of-block backlog and deliveries for the trailing `lookahead`
    # blocks, so arrivals can look across chunk boundaries
    tail_start_w = np.empty(0)
    tail_deliv = np.empty(0)
    tail_base = 0            # global block index of tail_start_w[0]

    start = 0
    chunk_index = 0
    while start < total:
        m = min(_BLOCK_CHUNK, total - start)
        services = _chunk_services(spec, m, chunk_index)
        backlog = simulate_workload(A, services, initial=carry_w)
        start_w = np.empty(m)
        start_w[0] = carry_w
        start_w[1:] = backlog[:-1]
        deliveries = start_w + A - backlog

        # backlog statistics over post-warmup counted blocks
        lo = max(spec.warmup_blocks - start, 0)
        hi = min(spec.num_blocks - start, m)
        if hi > lo:
            window = backlog[lo:hi]
            hits += (window[None, :] > thresholds[:, None]).sum(axis=1)
            sum_w += float(np.sum(window))
            counted += window.size

        # delay accounting: arrival block k is evaluated in the chunk that
        # contains block k + j + 1
        if A > 0.0:
            ext_w = np.concatenate((tail_start_w, start_w))
            ext_d = np.concatenate((tail_deliv, deliveries))
            ext_base = tail_base if tail_start_w.size else start
            k_lo = max(start - j - 1, spec.warmup_blocks, 0)
            k_hi = min(start + m - j - 1, spec.num_blocks)
            if k_hi > k_lo:
                ks = np.arange(k_lo, k_hi)
                i1 = ks + j - ext_base          # index of block k + j
                viol_length += _segment_violation(
                    mu, n, A, j, o, 0.0, n - o, ext_w[i1], ext_d[i1])
                viol_length += _segment_violation(
                    mu, n, A, j + 1, o - n, n - o, float(n),
                    ext_w[i1 + 1], ext_d[i1 + 1])
                arrivals_counted += ks.size

        keep = min(lookahead + 1, m)
        tail_start_w = start_w[m - keep:].copy()
        tail_deliv = deliveries[m - keep:].copy()
        tail_base = start + m - keep
        carry_w = float(backlog[-1])
        start += m
        chunk_index += 1

    mean_queue = sum_w / counted if counted else 0.0
    tail_prob = hits / max(counted, 1)
    if arrivals_counted > 0:
        freq = viol_length * mu / (arrivals_counted * A)
    else:
        freq = 0.0

    try:
        slope, se = fit_tail_exponent(thresholds, tail_prob, hits)
    except InsufficientDataError:
        slope, se = None, None
    return QueueStats(thresholds=thresholds, tail_prob=tail_prob,
                      tail_hits=hits, delay_violation_freq=freq,
                      fitted_theta=slope, fitted_theta_stderr=se,
                      mean_queue=mean_queue, blocks_counted=counted)


def fit_tail_exponent(thresholds, probs, hits, min_hits: int = 100,
                      min_points: int = 5):
    """Least-squares slope of -ln Pr{Q > x} against x over qualifying bins.

    Only thresholds backed by at least `min_hits` raw exceedances enter the
    fit; fewer than `min_points` such thresholds raises
    InsufficientDataError.  Returns (slope, standard_error).
    """
    thresholds = np.asarray(thresholds, dtype=float)
    probs = np.asarray(probs, dtype=float)
    hits = np.asarray(hits, dtype=float)
    mask = (hits >= min_hits) & (probs > 0.0)
    if int(mask.sum()) < min_points:
        raise InsufficientDataError(
            f"only {int(mask.sum())} thresholds have >= {min_hits} hits; "
            f"need {min_points}")
    x = thresholds[mask]
    y = -np.log(probs[mask])
    x_bar = x.mean()
    y_bar = y.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    slope = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    resid = y - y_bar - slope * (x - x_bar)
    dof = max(x.size - 2, 1)
    se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return slope, se
