import ast
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import nomafbl
from nomafbl.channel import (SystemConfig, _mirror_order_gain, db_to_linear,
                             gain_for_gamma, gamma_for_role, ordered_cdf,
                             ordered_mixture, ordered_pdf, ordered_quantile,
                             sample_gain)

POOL = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2, rho=100.0, n=300,
            eps=1e-5, theta_t=0.01, theta_u=0.01)


def make_cfg(**overrides):
    params = {**POOL, **overrides}
    return SystemConfig(**params)


class TestSystemConfig:
    def test_valid(self):
        cfg = make_cfg()
        assert cfg.order_index("weak") == 2
        assert cfg.order_index("strong") == 8

    def test_order_constraint(self):
        with pytest.raises(ValueError):
            make_cfg(t=8, u=2)
        with pytest.raises(ValueError):
            make_cfg(t=2, u=2)
        with pytest.raises(ValueError):
            make_cfg(V=1, t=1, u=1)  # single user cannot form a pair

    def test_power_coefficients(self):
        with pytest.raises(ValueError):
            make_cfg(alpha_t=0.2, alpha_u=0.8)
        with pytest.raises(ValueError):
            make_cfg(alpha_t=0.7, alpha_u=0.2)  # sum < 1
        with pytest.raises(ValueError):
            make_cfg(alpha_t=0.9, alpha_u=0.2)  # sum > 1

    def test_scalar_ranges(self):
        with pytest.raises(ValueError):
            make_cfg(rho=0.0)
        with pytest.raises(ValueError):
            make_cfg(n=0)
        with pytest.raises(ValueError):
            make_cfg(eps=0.0)
        with pytest.raises(ValueError):
            make_cfg(eps=1.2)
        with pytest.raises(ValueError):
            make_cfg(eps=1.0)  # every decoding fails: no kernel accepts it
        with pytest.raises(ValueError):
            make_cfg(theta_t=0.0)


class TestGainStatistics:
    # a pool of one user: the order statistic is the unordered exponential
    def test_unordered_examples(self):
        assert (ordered_pdf(0.0, 1, 1), ordered_cdf(0.0, 1, 1)) == (1.0, 0.0)
        assert ordered_pdf(math.log(2.0), 1, 1) == pytest.approx(0.5,
                                                                 rel=1e-14)
        assert ordered_cdf(math.log(2.0), 1, 1) == pytest.approx(0.5,
                                                                 rel=1e-14)

    def test_unordered_normalization(self):
        val, _ = integrate.quad(lambda x: ordered_pdf(x, 1, 1), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_single_user_reduces_to_unordered(self):
        for x in np.linspace(0.0, 8.0, 30):
            assert ordered_pdf(x, 1, 1) == pytest.approx(math.exp(-x),
                                                         rel=1e-13)

    def test_maximum_mean_is_harmonic_number(self):
        h10 = sum(1.0 / j for j in range(1, 11))
        val, _ = integrate.quad(lambda x: x * ordered_pdf(x, 10, 10), 0,
                                np.inf, limit=200)
        assert val == pytest.approx(h10, abs=1e-8)

    def test_order_statistic_identity(self):
        # sum_k f_(k)(x) = V f(x) at 50 grid points
        xs = np.linspace(0.01, 6.0, 50)
        total = sum(ordered_pdf(xs, k, 10) for k in range(1, 11))
        assert np.allclose(total, 10.0 * np.exp(-xs), rtol=1e-9)

    def test_cdf_matches_pdf_integral(self):
        for x in (0.2, 0.9, 2.5):
            by_quad, _ = integrate.quad(lambda y: ordered_pdf(y, 8, 10), 0, x)
            assert ordered_cdf(x, 8, 10) == pytest.approx(by_quad, abs=1e-10)

    def test_quantile_round_trip(self):
        for q in (0.01, 0.5, 0.999999):
            x = ordered_quantile(q, 8, 10)
            assert ordered_cdf(x, 8, 10) == pytest.approx(q, rel=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(V=st.integers(1, 20), k_frac=st.floats(0.0, 1.0),
           q=st.floats(1e-12, 1.0 - 1e-9))
    def test_quantile_round_trip_property(self, V, k_frac, q):
        k = 1 + min(int(k_frac * V), V - 1)
        x = ordered_quantile(q, k, V)
        assert ordered_cdf(x, k, V) == pytest.approx(q, rel=1e-11)

    @pytest.mark.parametrize("V,k", [(1, 1), (2, 1), (2, 2), (10, 2),
                                     (10, 8), (40, 13), (40, 40)])
    def test_mixture_is_the_density(self, V, k):
        # sum_r w_r e^(-lambda_r x) / B against the product form, within
        # the rounding of the signed sum: eps times sum_r |w_r| e^(-lambda_r
        # x) / B, each term weighted by the k roundings of the sum plus the
        # lambda_r x that its exponent's rounding is amplified by, and as
        # much for the product form (measured at most half this bound)
        b_fn, rates, weights = ordered_mixture(k, V)
        assert b_fn == pytest.approx(math.factorial(k - 1)
                                     * math.factorial(V - k)
                                     / math.factorial(V), rel=1e-13)
        assert len(rates) == len(weights) == k
        xs = np.concatenate(([0.0], np.logspace(-6.0, 1.0, 300)))
        exponents = np.outer(rates, xs)
        terms = np.array(weights)[:, None] * np.exp(-exponents) / b_fn
        pdf = ordered_pdf(xs, k, V)
        bound = np.finfo(float).eps * (
            (np.abs(terms) * (k + exponents)).sum(axis=0)
            + pdf * (k + V * xs))
        assert np.all(np.abs(terms.sum(axis=0) - pdf) <= bound)

    def test_mixture_refuses_a_bad_order(self):
        for k, V in ((0, 10), (11, 10)):
            with pytest.raises(ValueError, match="order index"):
                ordered_mixture(k, V)

    def test_domain(self):
        with pytest.raises(ValueError):
            ordered_pdf(1.0, 0, 10)
        with pytest.raises(ValueError):
            ordered_pdf(1.0, 11, 10)
        with pytest.raises(ValueError):
            ordered_pdf(-1.0, 2, 10)


def sorted_reference(V, k, size, rng):
    """The sampler before Renyi's representation: sort V exponentials and
    take the k-th smallest."""
    draws = rng.standard_exponential((size, V))
    draws.sort(axis=1)
    return draws[:, k - 1].copy()


def joint_reference(V, t, u, size, rng):
    """The joint pair sampler that Monte-Carlo drew both gains through
    before it drew each user alone: Renyi's first u spacings drawn row by
    row, x_t the sum of rows 0..t-1 and x_u that of rows t..u-1 plus x_t."""
    x_t, rest = np.zeros(size), np.zeros(size)
    for i in range(u):
        spacing = rng.standard_exponential(size) / (V - i)
        if i < t:
            x_t += spacing
        else:
            rest += spacing
    return x_t, rest + x_t


# (V, t, u): the fig3 pool, both extreme ranks, the smallest pool, a big one
SAMPLER_POOLS = [(10, 2, 8), (10, 1, 10), (2, 1, 2), (40, 13, 40)]


class TestSampling:
    @pytest.mark.parametrize("V,t,u", SAMPLER_POOLS)
    def test_law_matches_sorted_reference(self, V, t, u):
        for k in (t, u):
            ours = sample_gain(k, V, 100_000, np.random.default_rng(21))
            ref = sorted_reference(V, k, 100_000, np.random.default_rng(22))
            assert stats.ks_2samp(ours, ref).statistic < 0.01

    def test_stream_is_pinned(self):
        # the weak user of the fig3 pool, from the bottom end: the x_t of
        # joint_reference, so any change to these values changes
        # every weak-user Monte-Carlo row and queue statistic
        x_t = sample_gain(2, 10, 4, np.random.default_rng(2026))
        np.testing.assert_allclose(
            x_t, [0.12352186570911598, 0.245271757584105,
                  0.18564433865330712, 0.07069869762363307], rtol=1e-14)

    @pytest.mark.parametrize("seed", [0, 41, 2026])
    @pytest.mark.parametrize("size", [1, 7, 65_539])
    @pytest.mark.parametrize("V,t,u", [(10, 2, 8), (2, 1, 2), (5, 1, 5),
                                       (40, 3, 39)])
    def test_equals_spacing_matrix(self, V, t, u, size, seed):
        # each user's row-by-row draw is its min(k, m) spacing rows of the
        # spacing matrix summed over its rows, mirrored from the top end,
        # bit for bit: same generator order, same addition order.  numpy's
        # axis-0 sum adds rows in order, except over one column, where it
        # sums pairwise from 8 rows on; that case is summed here in order,
        # as the sampler does
        def row_sum(rows):
            return (rows.sum(axis=0) if size > 1
                    else np.add.accumulate(rows)[-1])

        for k in (t, u):
            m = V - k + 1
            x = sample_gain(k, V, size, np.random.default_rng(seed))
            rows = min(k, m)
            spacings = np.random.default_rng(seed).standard_exponential(
                (rows, size))
            spacings /= (V - np.arange(rows, dtype=float))[:, None]
            ref = row_sum(spacings)
            if k > m:
                ref = _mirror_order_gain(ref)
            assert np.array_equal(x, ref)

    def test_memory_is_two_and_a_half_sample_arrays(self):
        # numpy reports its data buffers to tracemalloc: the output and one
        # reused spacing row, plus the mirror map's share of the top end
        # (measured 2.00 sample arrays at k = 2 and 2.29 at k = 8 of 10)
        size = 65_536
        for k in (2, 8):
            rng = np.random.default_rng(3)
            tracemalloc.start()
            try:
                sample_gain(k, 10, size, rng)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * 8 * size

    def test_order_index_is_checked(self):
        for k, V in ((0, 10), (11, 10), (1, 0)):
            with pytest.raises(ValueError):
                sample_gain(k, V, 10, np.random.default_rng(0))


# every order index of five pool sizes
EVERY_ORDER = [(V, k) for V in (1, 2, 5, 10, 40) for k in range(1, V + 1)]


class TestMarginalSampling:
    @pytest.mark.parametrize("V,k", EVERY_ORDER)
    def test_law_matches_ordered_cdf(self, V, k):
        x = sample_gain(k, V, 100_000, np.random.default_rng(31))
        res = stats.kstest(x, lambda g: ordered_cdf(g, k, V))
        assert res.statistic < 0.01

    @pytest.mark.parametrize("V,k", [(V, k) for V, k in EVERY_ORDER
                                     if 1 < V and k <= V - k + 1])
    @pytest.mark.parametrize("size", [1, 7, 65_539])
    def test_bottom_end_equals_joint_sampler(self, V, k, size):
        # the bottom end draws the x_t of joint_reference at t = k
        # from the same generator, so weak Monte-Carlo and queue streams
        # did not move when Monte-Carlo stopped drawing pairs
        x = sample_gain(k, V, size, np.random.default_rng(32))
        x_t, _ = joint_reference(V, k, V, size, np.random.default_rng(32))
        assert np.array_equal(x, x_t)

    @pytest.mark.parametrize("V,k", EVERY_ORDER)
    def test_draws_min_k_m_spacing_rows(self, V, k):
        rng, twin = np.random.default_rng(33), np.random.default_rng(33)
        x = sample_gain(k, V, 1000, rng)
        twin.standard_exponential((min(k, V - k + 1), 1000))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert x.dtype == np.float64 and x.shape == (1000,)
        assert x.flags.c_contiguous and x.flags.owndata

    def test_stream_is_pinned(self):
        # the strong user of the fig3 pool, from the top end: any change to
        # these values changes every strong-user Monte-Carlo row and queue
        # statistic
        x = sample_gain(8, 10, 4, np.random.default_rng(2026))
        np.testing.assert_allclose(
            x, [1.554049427525515, 1.2830916013219729,
                1.1162498321105543, 1.0732525934493833], rtol=1e-14)

    def test_mirror_map_is_accurate(self):
        # -ln(1 - e^-y) against 50 digits, across both branches and at ln 2
        ys = np.concatenate((np.logspace(-12, math.log10(700.0), 2001),
                             np.nextafter(math.log(2.0), [0.0, 1.0]),
                             [math.log(2.0)]))
        x = _mirror_order_gain(ys.copy())
        with mpmath.workdps(50):
            ref = np.array([float(-mpmath.log1p(-mpmath.exp(-mpmath.mpf(y))))
                            for y in ys])
        assert np.all(np.abs(x - ref) <= 1e-15 * ref)


class TestSinrMaps:
    def test_weak_examples(self):
        cfg = make_cfg(rho=10.0)
        assert gamma_for_role(0.0, cfg, "weak") == 0.0
        assert gamma_for_role(1.0, cfg, "weak") == pytest.approx(0.8 / 0.3,
                                                                 rel=1e-12)

    def test_weak_ceiling_and_monotonicity(self):
        cfg = make_cfg()
        ceiling = cfg.alpha_t / cfg.alpha_u
        xs = np.sort(np.random.default_rng(3).uniform(0, 50.0, 300))
        vals = gamma_for_role(xs, cfg, "weak")
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals <= ceiling)
        assert gamma_for_role(1e12, cfg, "weak") == pytest.approx(ceiling,
                                                                  rel=1e-9)

    def test_strong_examples(self):
        cfg = make_cfg()
        assert gamma_for_role(0.0, cfg, "strong") == 0.0
        assert gamma_for_role(1.0, make_cfg(rho=100.0),
                              "strong") == pytest.approx(20.0)

    def test_strong_linearity_in_rho(self):
        for x in (0.3, 1.7, 4.0):
            v1 = gamma_for_role(x, make_cfg(rho=50.0), "strong")
            v2 = gamma_for_role(x, make_cfg(rho=100.0), "strong")
            assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_role_dispatch(self):
        cfg = make_cfg()
        xs = np.array([0.5, 1.0])
        assert gamma_for_role(1.0, cfg, "weak") == 0.8 / (0.2 + 1.0 / 100.0)
        assert gamma_for_role(1.0, cfg, "strong") == 0.2 * 100.0
        assert gamma_for_role(xs, cfg, "strong").shape == (2,)
        for bad in (gamma_for_role, gain_for_gamma):
            with pytest.raises(ValueError, match="role"):
                bad(1.0, cfg, "medium")

    @pytest.mark.parametrize("role", ["weak", "strong"])
    @pytest.mark.parametrize("rho_db", [0.0, 20.0, 40.0])
    def test_gain_for_gamma_inverts_the_map(self, role, rho_db):
        # near its ceiling the weak SINR is flat in the gain, so its inverse
        # amplifies gamma's rounding by the condition 1 + alpha_u rho x
        cfg = make_cfg(rho=db_to_linear(rho_db))
        for x in np.logspace(-6.0, 3.0, 91):
            back = gain_for_gamma(gamma_for_role(x, cfg, role), cfg, role)
            cond = 1.0 + cfg.alpha_u * cfg.rho * x if role == "weak" else 1.0
            assert abs(back - x) <= 8 * np.finfo(float).eps * cond * x

    def test_weak_inverse_is_inf_at_and_above_the_ceiling(self):
        cfg = make_cfg()
        ceiling = cfg.alpha_t / cfg.alpha_u
        for gamma in (ceiling, np.nextafter(ceiling, 10.0), 5.0, 1e9):
            assert gain_for_gamma(gamma, cfg, "weak") == math.inf
        below = np.nextafter(ceiling, 0.0)
        assert math.isfinite(gain_for_gamma(below, cfg, "weak"))
        assert gain_for_gamma(1e9, cfg, "strong") == pytest.approx(5e7)

    def test_db_conversion(self):
        assert db_to_linear(20.0) == pytest.approx(100.0)


def _package_imports(source: str) -> set[str]:
    """The nomafbl modules a module's source imports, by name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("nomafbl.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level and module.split(".")[0] != "nomafbl":
                continue
            if not node.level:
                module = module.partition(".")[2]
            names |= ({module.split(".")[0]} if module
                      else {a.name for a in node.names})
    return names


class TestLayering:
    CORE = {"specfun", "fblrate", "channel"}
    # each module above the core may import only the layers below it
    BELOW = {"eccalc": CORE, "queuesim": CORE,
             "delay": CORE | {"eccalc", "queuesim"}}
    BELOW["sweep"] = BELOW["delay"] | {"delay"}
    BELOW["cli"] = BELOW["sweep"] | {"sweep"}

    def test_helper_reads_every_import_form(self):
        source = ("import numpy\nimport nomafbl.eccalc\n"
                  "from . import sweep\nfrom .delay import x\n"
                  "from nomafbl import cli\nfrom nomafbl.queuesim import y\n"
                  "from scipy import special\n")
        assert _package_imports(source) == {"eccalc", "sweep", "delay",
                                            "cli", "queuesim"}

    @pytest.mark.parametrize("module", sorted(CORE))
    def test_core_modules_import_only_each_other(self, module):
        # the special functions, the rate kernel and the channel law sit
        # below the evaluators: none of them imports eccalc or anything above
        path = Path(nomafbl.__file__).parent / f"{module}.py"
        assert _package_imports(path.read_text()) <= self.CORE - {module}

    def test_every_module_has_a_layer(self):
        modules = {p.stem for p in Path(nomafbl.__file__).parent.glob("*.py")}
        assert modules - {"__init__", "__main__"} == self.CORE | set(self.BELOW)

    @pytest.mark.parametrize("module", sorted(BELOW))
    def test_upper_modules_import_only_lower_layers(self, module):
        # core -> {eccalc, queuesim} -> delay -> sweep -> cli: a back-edge
        # or an import across the eccalc/queuesim pair fails here
        path = Path(nomafbl.__file__).parent / f"{module}.py"
        assert _package_imports(path.read_text()) <= self.BELOW[module]
