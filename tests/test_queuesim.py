import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nomafbl.channel import SystemConfig, db_to_linear, gamma_for_role
from nomafbl.delay import delay_violation_prob
from nomafbl.eccalc import EvalControls, ec_closed_strong
from nomafbl.fblrate import fbl_rate
from nomafbl.queuesim import (InsufficientDataError, SimSpec,
                              fit_tail_exponent, run_queue_sim,
                              simulate_workload)
from nomafbl import queuesim

FIG5 = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2, n=400, eps=1e-6,
            theta_t=0.01, theta_u=0.01)


def make_cfg(rho_db=20.0, **overrides):
    return SystemConfig(rho=db_to_linear(rho_db), **{**FIG5, **overrides})


def _check_against_scalar_recursion(initial):
    # integer-valued arrivals/services keep the recursion exact in
    # floating point, so conservation can be checked bit-for-bit; the
    # in-place recursion must also leave its services argument unchanged
    rng = np.random.default_rng(17)
    services = rng.integers(0, 12, size=500).astype(float)
    given = services.copy()
    A = 5.0
    w = simulate_workload(A, services, initial=initial)
    assert np.array_equal(services, given)
    q = initial
    for k, s in enumerate(services):
        q = max(q + A - s, 0.0)
        assert w[k] == q


class TestWorkloadRecursion:
    def test_flow_conservation_exact(self):
        _check_against_scalar_recursion(initial=0.0)

    def test_flow_conservation_exact_with_initial_backlog(self):
        _check_against_scalar_recursion(initial=37.0)

    def test_initial_backlog(self):
        w = simulate_workload(1.0, np.array([0.0, 5.0]), initial=10.0)
        assert w[0] == 11.0
        assert w[1] == 7.0


class TestTrivialQueues:
    def test_underloaded_deterministic(self, monkeypatch):
        # a frozen constant service (gain 1, every block decoded) above the
        # arrivals: the queue empties every block and nothing is ever late
        cfg = SystemConfig(V=2, t=1, u=2, alpha_t=0.8, alpha_u=0.2,
                           rho=100.0, n=400, eps=1e-300, theta_t=0.01,
                           theta_u=0.01)
        rate = fbl_rate(gamma_for_role(1.0, cfg, "strong"), 400, 1e-300)
        monkeypatch.setattr(queuesim, "_chunk_services",
                            lambda spec, count, chunk_index:
                            np.full(count, 400 * rate))
        spec = SimSpec(cfg=cfg, role="strong", arrival_rate=0.5 * rate,
                       num_blocks=4000, warmup_blocks=100, d_max=400.0,
                       seed=1)
        stats = run_queue_sim(spec)
        assert stats.delay_violation_freq == 0.0
        assert stats.mean_queue == 0.0
        assert np.all(stats.tail_prob == 0.0)
        assert stats.fitted_theta is None

    def test_zero_arrivals(self):
        spec = SimSpec(cfg=make_cfg(), role="strong", arrival_rate=0.0,
                       num_blocks=2000, warmup_blocks=0, d_max=400.0, seed=2)
        stats = run_queue_sim(spec)
        assert stats.mean_queue == 0.0
        assert stats.delay_violation_freq == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SimSpec(cfg=make_cfg(), role="strong", arrival_rate=-1.0,
                    num_blocks=10, warmup_blocks=0)
        with pytest.raises(ValueError):
            SimSpec(cfg=make_cfg(), role="strong", arrival_rate=1.0,
                    num_blocks=10, warmup_blocks=10)
        with pytest.raises(ValueError, match="seed"):
            SimSpec(cfg=make_cfg(), role="strong", arrival_rate=1.0,
                    num_blocks=10, seed=-1)

    def test_unknown_role_is_refused(self):
        spec = SimSpec(cfg=make_cfg(), role="both", arrival_rate=1.0,
                       num_blocks=10, warmup_blocks=0)
        with pytest.raises(ValueError, match="role must be one of"):
            run_queue_sim(spec)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_arrival_rate_is_refused(self, rate):
        with pytest.raises(ValueError):
            SimSpec(cfg=make_cfg(), role="strong", arrival_rate=rate,
                    num_blocks=10, warmup_blocks=0)


class TestReproducibility:
    def test_bit_identical_rerun(self):
        spec = SimSpec(cfg=make_cfg(), role="strong", arrival_rate=3.5,
                       num_blocks=200_000, warmup_blocks=1000, d_max=400.0,
                       seed=77)
        a = run_queue_sim(spec)
        b = run_queue_sim(spec)
        assert np.array_equal(a.tail_hits, b.tail_hits)
        assert a.delay_violation_freq == b.delay_violation_freq
        assert a.mean_queue == b.mean_queue
        assert a.fitted_theta == b.fitted_theta

    def test_bit_identical_rerun_with_late_bits(self):
        # a heavily loaded two-chunk run whose delay accounting has bits to
        # count, so the rerun compares a non-zero share
        spec = SimSpec(cfg=make_cfg(rho_db=10.0, eps=0.05), role="strong",
                       arrival_rate=1.0, num_blocks=200_000,
                       warmup_blocks=1000, d_max=400.0, seed=77)
        a = run_queue_sim(spec)
        b = run_queue_sim(spec)
        assert a.delay_violation_freq > 0.0
        assert a.delay_violation_freq == b.delay_violation_freq
        assert np.array_equal(a.tail_hits, b.tail_hits)
        assert a.mean_queue == b.mean_queue
        assert a.fitted_theta == b.fitted_theta

    def test_memory_is_a_few_chunk_arrays(self):
        # the spacings are drawn one row at a time and the rates and
        # services made in place: at most 8 chunk-sized float arrays are
        # alive at once, where a (u, chunk) spacing matrix made it u + 4
        cfg = make_cfg()
        mu = 0.95 * ec_closed_strong(cfg, EvalControls()).value
        spec = SimSpec(cfg=cfg, role="strong", arrival_rate=mu,
                       num_blocks=2 * queuesim._BLOCK_CHUNK + 5,
                       d_max=400.0, seed=5)
        tracemalloc.start()
        try:
            run_queue_sim(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * queuesim._BLOCK_CHUNK

    @pytest.mark.parametrize("d_max", [125.0, 530.5])
    def test_chunking_invariance_of_delay_accounting(self, d_max):
        # with a frozen service sequence, the streaming delay accounting
        # must not depend on the chunk size
        spec = SimSpec(cfg=make_cfg(rho_db=10.0, eps=0.05), role="strong",
                       arrival_rate=1.0, num_blocks=3000, warmup_blocks=50,
                       d_max=d_max, seed=4)
        frozen = queuesim._chunk_services(spec, 3002, 0)
        original_fn = queuesim._chunk_services
        original_chunk = queuesim._BLOCK_CHUNK

        def serve(spec_, count, chunk_index):
            # every chunk but the last holds _BLOCK_CHUNK blocks
            start = chunk_index * queuesim._BLOCK_CHUNK
            return frozen[start:start + count].copy()

        try:
            queuesim._chunk_services = serve
            ref = run_queue_sim(spec)
            results = []
            for chunk in (257, 1024, 2999):
                queuesim._BLOCK_CHUNK = chunk
                results.append(run_queue_sim(spec).delay_violation_freq)
        finally:
            queuesim._chunk_services = original_fn
            queuesim._BLOCK_CHUNK = original_chunk
        for freq in results:
            assert freq == pytest.approx(ref.delay_violation_freq, rel=1e-12)

    @pytest.mark.parametrize("d_max", [0.0, 73.0, 400.0, 530.5])
    def test_delay_accounting_matches_dense_reference(self, d_max):
        # brute-force fluid FIFO check on a short heavily loaded run; the
        # bounds cover d_max = 0, d_max < n, d_max = n and d_max > n
        spec = SimSpec(cfg=make_cfg(rho_db=10.0, eps=0.05), role="strong",
                       arrival_rate=1.0, num_blocks=1500, warmup_blocks=50,
                       d_max=d_max, seed=5)
        stats = run_queue_sim(spec)
        assert stats.delay_violation_freq == pytest.approx(
            _dense_late_share(spec), abs=1e-4)

    @pytest.mark.parametrize("mu, d_max", [(1.0, 0.0), (1.0, 73.0),
                                           (1.0, 400.0), (1.0, 530.5),
                                           (1.7, 400.0)])
    def test_delay_accounting_matches_all_blocks(self, mu, d_max,
                                                 monkeypatch):
        # heavily loaded runs over six chunks.  At mu = 1 the backlog crosses
        # mu * d_max many times, and at d_max = 73 and 400 block 510 starts
        # a chunk above that level and ends below it; at mu = 1.7 the queue
        # is overloaded and most blocks are above it.  Evaluating only the
        # blocks that reach the level must give the share of every block
        spec = SimSpec(cfg=make_cfg(rho_db=10.0, eps=0.05), role="strong",
                       arrival_rate=mu, num_blocks=1500, warmup_blocks=50,
                       d_max=d_max, seed=5)
        services = queuesim._chunk_services(spec, 1502, 0)
        stats = _run_frozen(spec, services, 255, monkeypatch)
        assert stats.delay_violation_freq > 0.0
        assert stats.delay_violation_freq == _all_blocks_late_share(
            spec, services, 255)

    def test_block_ending_at_the_level_is_counted(self, monkeypatch):
        # n = 400, mu = 1: the backlog climbs from 0 to 1.75 in every fifth
        # block.  At d_max = 1.75 it ends exactly at mu * d_max and never
        # exceeds it, so the share is exactly 0 (the crossing, once taken
        # as 1.75 / (1.75 / 400), rounded to just below 400 and added
        # 5.7e-14 channel uses per block).  With d_max one ulp lower the
        # block ends above the level and must be counted
        services = np.tile([400.0, 400.0, 400.0, 400.0 - 1.75, 400.0 + 1.75],
                           601)
        shares = []
        for d_max in (1.75, np.nextafter(1.75, 0.0)):
            spec = SimSpec(cfg=make_cfg(), role="strong", arrival_rate=1.0,
                           num_blocks=3000, warmup_blocks=30, d_max=d_max,
                           seed=0)
            stats = _run_frozen(spec, services, 256, monkeypatch)
            assert stats.delay_violation_freq == _all_blocks_late_share(
                spec, services, 256)
            shares.append(stats.delay_violation_freq)
        assert shares[0] == 0.0
        assert shares[1] > 0.0

    @pytest.mark.parametrize("chunk", [256, 4096])
    def test_backlog_touching_the_level_is_not_late(self, chunk,
                                                   monkeypatch):
        # the walk falls by 1e5..2e5 bits a block, and each failed block
        # lifts the empty queue to A = mu n = mu d_max exactly, as the
        # sequential recursion gives it; the cumulative sum made it up to
        # 9.9e-9 bits more, which read as late (1.3e-14 and 5.0e-14 of the
        # time).  Block 2047 ends a 256-block chunk, so the carried backlog
        # touches the level too
        services = np.random.default_rng(3).uniform(1e5, 2e5, 3000)
        services[1500::100] = 0.0
        services[2047] = 0.0
        spec = SimSpec(cfg=make_cfg(), role="strong", arrival_rate=4.0 / 3.0,
                       num_blocks=2990, warmup_blocks=10, d_max=400.0, seed=0)
        level, w = spec.arrival_rate * spec.d_max, 0.0
        touches = 0
        for served in services:
            w = max(w + spec.arrival_rate * spec.cfg.n - served, 0.0)
            assert w <= level
            touches += w == level
        assert touches == 16
        stats = _run_frozen(spec, services, chunk, monkeypatch)
        assert stats.delay_violation_freq == 0.0

    def test_bound_runs_from_where_the_queue_emptied(self):
        # the walk climbs to 1e11 bits over 100 failed blocks, where its
        # partial sums round by up to 7.6e-6 bits each, then one huge
        # service empties the queue; after that the backlog grows by 0.25
        # bits a block near 0 and its last block ends 1e-6 bits above the
        # level.  A bound over the whole chunk (about 1e-3 bits) left that
        # block out; the one since the queue emptied is about 1e-12 bits
        n, A = 400, 1e9 + 0.1
        services = np.concatenate([[A], np.zeros(100), [101 * A + 1000.0],
                                   np.full(50, A - 0.25)])
        backlog = simulate_workload(A, services)
        exact = sum(Fraction(A) - Fraction(s) for s in services[102:])
        step = Fraction(A) - Fraction(services[-1])
        level = float(exact - Fraction(1, 10 ** 6))
        last = services.size - 1
        late, _ = queuesim._late_time(backlog, 0.0, 0.0, level, 0, last * n,
                                      (last + 1) * n, n, A, services)
        assert late == pytest.approx(
            n * float((exact - Fraction(level)) / step), rel=1e-6)

    def test_delay_window_starts_d_max_after_warmup(self, monkeypatch):
        # 40 counted blocks of an overloaded queue with d_max = 3.8 blocks:
        # its backlog crosses mu * d_max within d_max of the end of warmup,
        # so counting the backlog from there instead of d_max later would
        # add 0.057 to the share.  The services are those of seed 29 with
        # the strong gain taken from a joint draw of the pair, which make
        # that crossing; the dense reference reads the same sequence
        spec = SimSpec(cfg=make_cfg(rho_db=10.0, eps=0.05), role="strong",
                       arrival_rate=1.7, num_blocks=90, warmup_blocks=50,
                       d_max=1530.5, seed=29)
        horizon = spec.num_blocks + int(spec.d_max // spec.cfg.n) + 1
        services = _joint_draw_services(spec, horizon, 0)
        share = _run_frozen(spec, services, queuesim._BLOCK_CHUNK,
                            monkeypatch).delay_violation_freq
        assert 0.0 < share < 1.0
        assert share == pytest.approx(_dense_late_share(spec), abs=1e-4)

    @pytest.mark.parametrize("chunk_index", [0, 1])
    @pytest.mark.parametrize("count", [1, 7, 3002])
    def test_weak_services_equal_joint_draw(self, count, chunk_index):
        # the weak user is drawn from the bottom end, the first t spacings
        # of the joint draw's stream: its services are bit for bit those
        # made from the joint draw's x_t
        spec = SimSpec(cfg=make_cfg(rho_db=10.0, eps=0.05), role="weak",
                       arrival_rate=0.5, num_blocks=10, seed=8)
        assert np.array_equal(
            queuesim._chunk_services(spec, count, chunk_index),
            _joint_draw_services(spec, count, chunk_index))


def _joint_draw_services(spec, count, chunk_index):
    """A chunk's services with the user's gain taken from a joint draw of
    the pair, on the simulator's gain and failure substreams.

    The joint draw is Renyi's: the first u spacings E_i / (V - i), drawn
    row by row, rows 0..t-1 summed into x_t and rows t..u-1 into x_u - x_t,
    as the pair sampler that Monte-Carlo once drew through."""
    cfg = spec.cfg
    eps = cfg.eps
    rng = np.random.default_rng([spec.seed, chunk_index, 0])
    x_t, rest = np.zeros(count), np.zeros(count)
    for i in range(cfg.u):
        spacing = rng.standard_exponential(count) / (cfg.V - i)
        if i < cfg.t:
            x_t += spacing
        else:
            rest += spacing
    gains = x_t if spec.role == "weak" else rest + x_t
    rates = fbl_rate(gamma_for_role(gains, cfg, spec.role), cfg.n, eps)
    ok = np.random.default_rng([spec.seed, chunk_index, 1]).random(count)
    return cfg.n * np.maximum(rates, 0.0) * (ok >= eps)


def _run_frozen(spec, services, chunk, monkeypatch):
    """run_queue_sim on a given service sequence, in chunks of chunk blocks."""
    def serve(spec_, count, chunk_index):
        start = chunk_index * chunk
        return services[start:start + count].copy()

    monkeypatch.setattr(queuesim, "_chunk_services", serve)
    monkeypatch.setattr(queuesim, "_BLOCK_CHUNK", chunk)
    return run_queue_sim(spec)


def _all_blocks_late_share(spec, services, chunk):
    """Late share of a run in chunks of chunk blocks, with the time above
    mu * d_max evaluated and summed over every block of each chunk."""
    n = spec.cfg.n
    mu = spec.arrival_rate
    level = mu * spec.d_max
    late_lo = spec.warmup_blocks * n + spec.d_max
    late_hi = spec.num_blocks * n + spec.d_max
    services = services[:spec.num_blocks + int(spec.d_max // n) + 1]
    carry_w = 0.0
    late_time = 0.0
    for start in range(0, services.size, chunk):
        backlog = simulate_workload(mu * n, services[start:start + chunk],
                                    initial=carry_w)
        w_start = np.concatenate(([carry_w], backlog[:-1]))
        block_t = n * np.arange(start, start + backlog.size, dtype=float)
        lo = np.clip(late_lo - block_t, 0.0, n)
        hi = np.clip(late_hi - block_t, 0.0, n)
        rise = backlog - w_start
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.clip(n * ((level - w_start) / rise), lo, hi)
        length = np.where(
            rise > 0.0, hi - cross,
            np.where(rise < 0.0, cross - lo,
                     np.where(w_start > level, hi - lo, 0.0)))
        late_time += float(np.sum(length))
        carry_w = float(backlog[-1])
    return late_time / ((spec.num_blocks - spec.warmup_blocks) * n)


def _dense_late_share(spec):
    """Brute-force fluid FIFO share of bits arriving in the counted blocks
    that leave more than d_max later, from the simulator's service draw."""
    n = spec.cfg.n
    mu = spec.arrival_rate
    A = mu * n
    # the simulator's horizon, d_max // n + 1 blocks beyond the counted
    # window, drawn as one chunk
    horizon = spec.num_blocks + int(spec.d_max // n) + 1
    services = queuesim._chunk_services(spec, horizon, 0)
    N = services.size
    W = np.zeros(N + 1)
    D = np.zeros(N)
    for k in range(N):
        W[k + 1] = max(W[k] + A - services[k], 0.0)
        D[k] = W[k] + A - W[k + 1]
    cum = np.concatenate(([0.0], np.cumsum(D)))
    # midpoint sampling of arrival offsets; resolution bounds the gap
    # to the exact sub-interval computation
    n_off = 20_000
    offsets = (np.arange(n_off) + 0.5) / n_off * n
    viol = 0.0
    for k in range(spec.warmup_blocks, spec.num_blocks):
        levels = k * A + mu * offsets
        times = k * n + offsets + spec.d_max
        m = (times // n).astype(int)
        cds = cum[m] + (times - m * n) / n * D[m]
        viol += np.mean(levels > cds)
    return viol / (spec.num_blocks - spec.warmup_blocks)


class TestTailFit:
    def test_exact_exponential(self):
        x = np.linspace(10.0, 500.0, 12)
        probs = np.exp(-0.02 * x)
        slope, se = fit_tail_exponent(x, probs, np.full_like(x, 10_000.0))
        assert slope == pytest.approx(0.02, abs=1e-6)
        assert se < 1e-6

    def test_noisy_tail(self):
        rng = np.random.default_rng(9)
        x = np.linspace(10.0, 800.0, 15)
        probs = np.exp(-0.013 * x) * (1.0 + rng.uniform(-0.1, 0.1, x.size))
        slope, _ = fit_tail_exponent(x, probs, np.full_like(x, 1000.0))
        assert slope == pytest.approx(0.013, rel=0.05)

    def test_all_zero_tail(self):
        x = np.linspace(1.0, 10.0, 8)
        with pytest.raises(InsufficientDataError):
            fit_tail_exponent(x, np.zeros_like(x), np.zeros_like(x))

    def test_too_few_qualifying_points(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        probs = np.exp(-x)
        hits = np.array([500.0, 400.0, 300.0, 50.0, 20.0, 5.0])
        with pytest.raises(InsufficientDataError):
            fit_tail_exponent(x, probs, hits)


class TestAgainstAnalytics:
    def test_tail_exponent_and_delay_frequency(self):
        # arrival rate pinned to the capacity at theta = 0.005: the queue
        # tail exponent per bit should be theta * ln2, and the measured
        # delay-violation frequency should sit within one order of magnitude
        # of the tail-law bound evaluated with the measured non-empty
        # probability
        theta = 0.005
        cfg = make_cfg(theta_t=theta, theta_u=theta)
        ctl = EvalControls(seed=5)
        mu = ec_closed_strong(cfg, ctl).value
        spec = SimSpec(cfg=cfg, role="strong", arrival_rate=mu,
                       num_blocks=2_000_000, warmup_blocks=20_000,
                       d_max=400.0, seed=31)
        stats = run_queue_sim(spec)
        target = theta * math.log(2.0)
        assert stats.fitted_theta is not None
        assert abs(stats.fitted_theta - target) <= 0.25 * target

        nonempty = float(stats.tail_prob[0])
        analytic = delay_violation_prob(theta, mu, 400.0, nonempty)
        assert stats.delay_violation_freq > 0.0
        ratio = stats.delay_violation_freq / analytic
        assert 0.1 <= ratio <= 10.0
