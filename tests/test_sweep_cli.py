import argparse
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import nomafbl.eccalc
import nomafbl.sweep
from nomafbl.channel import SystemConfig, db_to_linear
from nomafbl.cli import _build_parser, main
from nomafbl.delay import delay_violation_prob
from nomafbl.eccalc import EvalControls, ec_monte_carlo, mc_gain_draws
from nomafbl.queuesim import SimSpec
from nomafbl.sweep import (CSV_HEADER, SweepSpec, figure_preset,
                           load_sweep_config, pool_config, read_rows,
                           run_sweep, validate_report, write_plot_script)


BASE = SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                    rho=db_to_linear(20.0), n=300, eps=1e-5,
                    theta_t=0.01, theta_u=0.01)


def small_spec(tmp_path, **overrides):
    params = dict(base=BASE, axis="rho_db", grid=(0.0, 20.0),
                  roles=("strong",), methods=("closed_form",),
                  controls=EvalControls(mc_samples=5000, seed=1),
                  output_path=str(tmp_path / "out.csv"), scenario_id="t")
    params.update(overrides)
    return SweepSpec(**params)


class TestPresets:
    def test_fig3_parameters(self):
        spec = figure_preset("fig3")
        assert spec.axis == "rho_db"
        assert spec.grid == tuple(float(v) for v in range(0, 41, 2))
        assert spec.roles == ("weak", "strong")
        assert spec.methods == ("closed_form", "monte_carlo")
        assert spec.base.theta_t == spec.base.theta_u == 0.01
        assert spec.base.n == 300
        assert spec.base.eps == 1e-5
        assert spec.base.V == 10 and spec.base.t == 2 and spec.base.u == 8
        assert spec.base.alpha_t == 0.8 and spec.base.alpha_u == 0.2
        assert spec.d_max is None

    def test_fig4_parameters(self):
        spec = figure_preset("fig4")
        assert spec.axis == "theta"
        assert len(spec.grid) == 30
        assert spec.grid[0] == pytest.approx(1e-4)
        assert spec.grid[-1] == pytest.approx(1.0)
        assert spec.base.n == 400 and spec.base.eps == 1e-6
        assert spec.rho_db_variants == (15.0, 20.0)

    @pytest.mark.parametrize("name, role", [("fig5", "strong"),
                                            ("fig6", "weak")])
    def test_delay_presets(self, name, role):
        spec = figure_preset(name)
        assert spec.axis == "theta"
        assert spec.roles == (role,)
        assert spec.d_max == 400.0
        assert spec.base.n == 400 and spec.base.eps == 1e-6
        assert spec.rho_db_variants == (15.0, 20.0, 25.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            figure_preset("fig7")


class TestSweepSpecValidation:
    def test_empty_grid(self, tmp_path):
        with pytest.raises(ValueError):
            small_spec(tmp_path, grid=())

    def test_descending_grid(self, tmp_path):
        with pytest.raises(ValueError):
            small_spec(tmp_path, grid=(20.0, 0.0))

    def test_bad_role_method_axis(self, tmp_path):
        with pytest.raises(ValueError):
            small_spec(tmp_path, roles=("medium",))
        with pytest.raises(ValueError):
            small_spec(tmp_path, methods=("dice",))
        with pytest.raises(ValueError):
            small_spec(tmp_path, axis="snr")

    def test_snr_axis_takes_no_variants(self, tmp_path):
        # the axis overwrote each variant's SNR, so both variants wrote the
        # same rows under different scenario ids
        with pytest.raises(ValueError, match="theta axis"):
            small_spec(tmp_path, rho_db_variants=(0.0, 40.0))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("field, make", [
        ("rho", lambda tmp: replace(BASE, rho=math.nan)),
        ("rho", lambda tmp: replace(BASE, rho=math.inf)),
        ("theta_t", lambda tmp: replace(BASE, theta_t=math.inf)),
        ("theta_u", lambda tmp: replace(BASE, theta_u=math.nan)),
        ("d_max", lambda tmp: SimSpec(cfg=BASE, role="strong",
                                      arrival_rate=1.0, num_blocks=10,
                                      d_max=math.inf)),
        ("d_max", lambda tmp: SimSpec(cfg=BASE, role="strong",
                                      arrival_rate=1.0, num_blocks=10,
                                      d_max=math.nan)),
        ("theta", lambda tmp: delay_violation_prob(math.nan, 1.0, 400.0)),
        ("arrival_rate",
         lambda tmp: delay_violation_prob(1.0, math.inf, 400.0)),
        ("d_max", lambda tmp: delay_violation_prob(1.0, 1.0, math.nan)),
        ("grid", lambda tmp: small_spec(tmp, axis="theta",
                                        grid=(0.01, math.inf))),
        ("grid", lambda tmp: small_spec(tmp, grid=(math.nan,))),
        ("rho_db_variants",
         lambda tmp: small_spec(tmp, axis="theta", grid=(0.01,),
                                rho_db_variants=(10.0, math.nan))),
        ("d_max", lambda tmp: small_spec(tmp, d_max=-5.0)),
        ("d_max", lambda tmp: small_spec(tmp, d_max=math.inf)),
        ("d_max", lambda tmp: SimSpec(cfg=BASE, role="strong",
                                      arrival_rate=1.0, num_blocks=10,
                                      d_max=10 * BASE.n + 0.5)),
    ], ids=["rho_nan", "rho_inf", "theta_t_inf", "theta_u_nan",
            "sim_d_max_inf", "sim_d_max_nan", "delay_theta_nan",
            "delay_rate_inf", "delay_d_max_nan", "grid_inf", "grid_nan",
            "variants_nan", "sweep_d_max_negative", "sweep_d_max_inf",
            "sim_d_max_beyond_horizon"])
    def test_refused_naming_its_field(self, field, make, tmp_path):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            make(tmp_path)


class TestRunSweep:
    def test_rows_and_round_trip(self, tmp_path):
        spec = small_spec(tmp_path, roles=("weak", "strong"),
                          methods=("closed_form", "monte_carlo"))
        rows = run_sweep(spec)
        assert len(rows) == 2 * 2 * 2
        assert read_rows(spec.output_path) == rows

    def test_header_is_pinned(self, tmp_path):
        spec = small_spec(tmp_path)
        run_sweep(spec)
        with open(spec.output_path) as fh:
            assert fh.readline().strip() == CSV_HEADER

    def test_deterministic_output(self, tmp_path):
        spec_a = small_spec(tmp_path, methods=("monte_carlo",),
                            output_path=str(tmp_path / "a.csv"))
        spec_b = small_spec(tmp_path, methods=("monte_carlo",),
                            output_path=str(tmp_path / "b.csv"))
        run_sweep(spec_a)
        run_sweep(spec_b)
        assert Path(spec_a.output_path).read_bytes() == \
            Path(spec_b.output_path).read_bytes()

    def test_unconverged_row_flagged(self, tmp_path):
        # at alpha_t = 0.96, theta n = 22.8 keeps the weak series' ratio
        # bound >= 1 through the term budget, below the endpoint series'
        # theta n = 24; the row records the fallback value with
        # converged = false
        base = SystemConfig(V=10, t=2, u=8, alpha_t=0.96, alpha_u=0.04,
                            rho=db_to_linear(20.0), n=400, eps=1e-6,
                            theta_t=1.0, theta_u=1.0)
        spec = small_spec(tmp_path, base=base, axis="theta",
                          grid=(0.001, 0.057), roles=("weak",))
        rows = run_sweep(spec)
        assert rows[0].converged
        assert not rows[1].converged
        assert rows[1].ec_bits_per_cu is not None

    def test_non_positive_kernel_mean_fails_both_rows_alike(self, tmp_path):
        # at eps = 0.9, theta = 1, -30 dB the expanded kernel's mean is not
        # positive for either user: each row is a failed evaluation, with
        # no capacity and converged = false
        base = SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                            rho=db_to_linear(-30.0), n=400, eps=0.9,
                            theta_t=1.0, theta_u=1.0)
        spec = small_spec(tmp_path, base=base, axis="theta", grid=(1.0,),
                          roles=("weak", "strong"))
        weak, strong = run_sweep(spec)
        for row in (weak, strong):
            assert row.ec_bits_per_cu is None and not row.converged
        lines = Path(spec.output_path).read_text().splitlines()[1:]
        assert lines[0].replace(",weak,", ",strong,") == lines[1]

    def test_failed_rows_leave_the_rest_of_their_batch(self, tmp_path):
        # one theta grid per user is one batch: its theta = 1 rows fail as
        # above, and its theta = 0.01 rows keep the values they have alone
        base = SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                            rho=db_to_linear(-30.0), n=400, eps=0.9,
                            theta_t=1.0, theta_u=1.0)
        spec = small_spec(tmp_path, base=base, axis="theta",
                          grid=(0.01, 1.0), roles=("weak", "strong"))
        rows = run_sweep(spec)
        for row in rows[2:]:
            assert row.ec_bits_per_cu is None and not row.converged
        lines = Path(spec.output_path).read_text().splitlines()[1:]
        assert lines[2].replace(",weak,", ",strong,") == lines[3]
        cfg = replace(base, theta_t=0.01, theta_u=0.01)
        for row in rows[:2]:
            alone = nomafbl.eccalc.evaluate(cfg, row.role, "closed_form",
                                            spec.controls)
            assert (row.ec_bits_per_cu, row.series_terms, row.converged) \
                == (alone.value, alone.series_terms, alone.converged)

    def test_delay_column(self, tmp_path):
        spec = small_spec(tmp_path, axis="theta", grid=(0.01,),
                          d_max=400.0)
        rows = run_sweep(spec)
        mu = rows[0].ec_bits_per_cu
        expected = math.exp(-0.01 * mu * 400.0 * math.log(2.0))
        assert rows[0].delay_violation_prob == pytest.approx(expected,
                                                             rel=1e-12)

    def test_variant_expansion(self, tmp_path):
        spec = small_spec(tmp_path, axis="theta", grid=(0.01, 0.1),
                          rho_db_variants=(10.0, 20.0))
        rows = run_sweep(spec)
        assert {r.scenario_id for r in rows} == {"t_rho10db", "t_rho20db"}


class TestGainReuse:
    # crosses a chunk boundary, with a partial last chunk
    CTL = EvalControls(mc_samples=(1 << 16) + 777, seed=5)

    @staticmethod
    def assert_mc_rows_standalone(spec, rows):
        """Every MC row equals ec_monte_carlo run alone on its point."""
        expected = []
        for variant in spec.rho_db_variants or (None,):
            base = spec.base if variant is None else \
                replace(spec.base, rho=db_to_linear(variant))
            for value in spec.grid:
                cfg = (replace(base, rho=db_to_linear(value))
                       if spec.axis == "rho_db"
                       else replace(base, theta_t=value, theta_u=value))
                for role in spec.roles:
                    res = ec_monte_carlo(cfg, role, spec.controls)
                    expected.append((res.value, res.std_error))
        assert [(r.ec_bits_per_cu, r.std_error) for r in rows
                if r.method == "monte_carlo"] == expected

    def test_snr_sweep_rows_equal_standalone(self, tmp_path):
        spec = small_spec(tmp_path, grid=(0.0, 20.0, 40.0),
                          roles=("weak", "strong"),
                          methods=("closed_form", "monte_carlo"),
                          controls=self.CTL)
        self.assert_mc_rows_standalone(spec, run_sweep(spec))

    def test_theta_sweep_variants_equal_standalone(self, tmp_path):
        spec = small_spec(tmp_path, axis="theta", grid=(0.001, 0.01, 0.1),
                          roles=("weak", "strong"), methods=("monte_carlo",),
                          controls=self.CTL, rho_db_variants=(10.0, 20.0))
        rows = run_sweep(spec)
        assert len(rows) == 2 * 3 * 2
        self.assert_mc_rows_standalone(spec, rows)

    def test_validate_equals_standalone(self):
        report = validate_report(BASE, self.CTL)
        for role in ("weak", "strong"):
            alone = ec_monte_carlo(BASE, role, self.CTL)
            res = report.evaluations[f"{role}/monte_carlo"]
            assert res.value == alone.value
            assert res.std_error == alone.std_error

    def test_one_draw_per_chunk(self, tmp_path, count_draws):
        calls = count_draws
        spec = figure_preset("fig3", output_path=str(tmp_path / "fig3.csv"),
                             mc_samples=200_000)
        rows = run_sweep(spec)
        # 21 Monte-Carlo rows per user share the 4 chunks of its one draw
        assert sum(r.method == "monte_carlo" for r in rows) == 42
        chunks = [1 << 16] * 3 + [200_000 - 3 * (1 << 16)]
        assert calls == [(2, m) for m in chunks] + [(8, m) for m in chunks]

    def test_validate_cli_draws_once_for_every_snr(self, count_draws, capsys):
        # one draw per user serves the three --rho-db reports, which print
        # what a report drawing its own gains prints
        calls = count_draws
        main(["validate", "--rho-db", "10", "20", "30", "--mc-samples",
              "5000"])
        assert calls == [(2, 5000), (8, 5000)]
        ctl = EvalControls(mc_samples=5000)
        alone = [validate_report(pool_config(300, 1e-5, 0.01, rho_db),
                                 ctl).render() for rho_db in (10, 20, 30)]
        printed = capsys.readouterr().out
        assert printed == "".join(f"=== rho = {rho_db} dB ===\n{text}\n"
                                  for rho_db, text in zip((10, 20, 30), alone))

    def test_shared_columns_are_read_only_copies(self):
        for k in (BASE.t, BASE.u):
            draws = mc_gain_draws(k, BASE.V, self.CTL.seed,
                                  self.CTL.mc_samples)
            assert [x.size for x in draws] == [1 << 16, 777]
            for x in draws:
                # owns its data: no view into a larger draw array
                assert x.base is None and x.flags.c_contiguous
                with pytest.raises(ValueError):
                    x[0] = 1.0


class TestConfigFile:
    def test_parse_and_run(self, tmp_path):
        out = tmp_path / "demo.csv"
        cfg_file = tmp_path / "sweeps.cfg"
        cfg_file.write_text(
            "[sweep:demo]\n"
            "axis = rho_db\n"
            "grid = 0,10\n"
            "roles = strong\n"
            "methods = closed_form\n"
            f"output = {out}\n"
            "n = 300\n"
            "eps = 1e-5\n"
            "theta = 0.01\n")
        specs = load_sweep_config(str(cfg_file))
        assert len(specs) == 1
        assert specs[0].scenario_id == "demo"
        assert specs[0].grid == (0.0, 10.0)
        rows = run_sweep(specs[0])
        assert len(rows) == 2

    def test_grid_syntaxes(self, tmp_path):
        cfg_file = tmp_path / "sweeps.cfg"
        cfg_file.write_text(
            "[sweep:a]\naxis = theta\ngrid = log:1e-3:1:7\n"
            "output = x.csv\n"
            "[sweep:b]\naxis = rho_db\ngrid = lin:0:40:5\n"
            "output = y.csv\n")
        specs = load_sweep_config(str(cfg_file))
        assert len(specs[0].grid) == 7
        assert specs[0].grid[0] == pytest.approx(1e-3)
        assert specs[1].grid == (0.0, 10.0, 20.0, 30.0, 40.0)

    def test_missing_required_key(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[sweep:x]\naxis = rho_db\ngrid = 0,10\n")
        with pytest.raises(ValueError):
            load_sweep_config(str(cfg_file))

    def test_keys_are_case_insensitive(self, tmp_path):
        # configparser lower-cases names; V = 20 once ran a 10-user pool
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("[sweep:x]\naxis = rho_db\ngrid = 0,10\n"
                            "output = x.csv\nV = 20\nu = 15\nSEED = 7\n")
        spec, = load_sweep_config(str(cfg_file))
        assert (spec.base.V, spec.base.u, spec.controls.seed) == (20, 15, 7)

    def test_unknown_key_is_an_error(self, tmp_path):
        # misspelled keys once ran silently at the default 200k samples
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("[sweep:x]\naxis = rho_db\ngrid = 0,10\n"
                            "output = x.csv\nmc_sample = 1000\nsede = 5\n")
        with pytest.raises(ValueError, match="'mc_sample', 'sede'"):
            load_sweep_config(str(cfg_file))
        assert main(["sweep", str(cfg_file)]) == 2

    def test_snr_axis_with_variants_is_an_error(self, tmp_path):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("[sweep:x]\naxis = rho_db\ngrid = 0,10\n"
                            "output = x.csv\nrho_db_variants = 0,40\n")
        with pytest.raises(ValueError, match="theta axis"):
            load_sweep_config(str(cfg_file))
        assert main(["sweep", str(cfg_file)]) == 2

    @pytest.mark.parametrize("line", [
        "grid = lin:0:1", "grid = log:0:1:5", "n = 3.5", "eps = abc",
        "d_max = four", "rho_db_variants = 10,x"])
    def test_unparsable_value_names_its_key(self, line, tmp_path, capsys):
        key, text = line.split(" = ")
        grid = "" if key == "grid" else "grid = 0.1,0.2\n"
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(f"[sweep:x]\naxis = theta\n{grid}"
                            f"output = x.csv\n{line}\n")
        assert main(["sweep", str(cfg_file)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: [sweep:x] cannot parse {key} = {text!r}: ")

    def test_key_given_twice_is_a_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text("[sweep:x]\naxis = theta\ngrid = 0.1\n"
                            "grid = 0.2\noutput = x.csv\n")
        assert main(["sweep", str(cfg_file)]) == 2
        assert "option 'grid' in section 'sweep:x' already exists" \
            in capsys.readouterr().err

    def test_unknown_section(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[other]\nkey = 1\n")
        with pytest.raises(ValueError):
            load_sweep_config(str(cfg_file))


class TestValidateReport:
    def test_reference_point_passes(self):
        cfg = SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                           rho=db_to_linear(20.0), n=300, eps=1e-5,
                           theta_t=0.01, theta_u=0.01)
        report = validate_report(cfg, EvalControls(mc_samples=60_000, seed=2))
        assert report.passed, report.render()
        assert len(report.evaluations) == 8

    def test_forced_truncation_flagged(self):
        cfg = SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                           rho=db_to_linear(20.0), n=300, eps=1e-5,
                           theta_t=0.01, theta_u=0.01)
        report = validate_report(
            cfg, EvalControls(mc_samples=5000, seed=2, series_max_terms=2))
        assert not report.passed
        gate = [g for g in report.gates if "converged" in g.name][0]
        assert not gate.passed

    def test_strong_fallback_fails_its_converged_gate(self, monkeypatch):
        # a strong closed form whose sum is refused falls back to the very
        # quadrature it is compared with, so only its flag can show it
        strong_moments = nomafbl.eccalc._strong_moments
        monkeypatch.setattr(
            nomafbl.eccalc, "_strong_moments",
            lambda *a: (strong_moments(*a)[0], math.inf, None, True, ""))
        report = validate_report(BASE, EvalControls(mc_samples=5000, seed=2))
        gates = {g.name: g.passed for g in report.gates}
        assert gates["strong closed vs approx-kernel quadrature"]
        assert not gates["strong closed form converged"]
        assert gates["weak closed form converged"]
        assert not report.passed


class TestCli:
    def test_figure_runs_and_is_deterministic(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["figure", "fig3", "--mc-samples", "4000", "--seed", "9"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @staticmethod
    def plot_blocks(script):
        """The data blocks of a plot script, name -> point count, and its
        plot lines."""
        lines = Path(script).read_text().splitlines()
        blocks = {line.split()[0]: lines.index("EOD", i) - i - 1
                  for i, line in enumerate(lines) if line.endswith("<< EOD")}
        return blocks, [line for line in lines if line.startswith("plot ")]

    def check_plot_script(self, tmp_path, name, series, points):
        # one data block and one plot clause per (scenario, role, method)
        out = tmp_path / "f.csv"
        assert main(["figure", name, "--mc-samples", "2000",
                     "--out", str(out), "--plot-script"]) == 0
        blocks, plots = self.plot_blocks(tmp_path / "f.gp")
        assert list(blocks.values()) == [points] * series
        assert len(plots) == 1
        assert [f"{b} using 1:2" in plots[0] for b in blocks] == \
            [True] * series
        assert plots[0].count(" title ") == series

    def test_plot_script(self, tmp_path):
        # two users by two methods over 21 SNRs
        self.check_plot_script(tmp_path, "fig3", 4, 21)

    def test_plot_script_splits_snr_variants(self, tmp_path):
        # three SNR variants over 30 thetas
        self.check_plot_script(tmp_path, "fig5", 3, 30)

    def test_sweep_config_error_exit_code(self, tmp_path):
        assert main(["sweep", str(tmp_path / "missing.cfg")]) == 2

    def test_sweep_runs(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(
            "[sweep:s]\naxis = rho_db\ngrid = 10,20\nroles = strong\n"
            f"methods = closed_form\noutput = {out}\n")
        assert main(["sweep", str(cfg_file)]) == 0
        assert out.exists()

    def test_validate_exit_codes(self):
        assert main(["validate", "--mc-samples", "40000"]) == 0
        # a two-term series budget forces the weak closed form to truncate
        assert main(["validate", "--mc-samples", "5000",
                     "--series-max-terms", "2"]) == 1

    @pytest.mark.parametrize("command", [
        ["figure", "fig3", "--mc-samples", "100"],
        ["validate", "--mc-samples", "100"],
        ["queue-sim", "--blocks", "2000", "--warmup", "10"]])
    def test_negative_seed_is_a_config_error(self, command, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--seed", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: seed must be non-negative, got -1\n"

    def test_negative_seed_in_a_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(
            "[sweep:s]\naxis = rho_db\ngrid = 10\nmethods = monte_carlo\n"
            f"output = {tmp_path / 'o.csv'}\nseed = -4\n")
        assert main(["sweep", str(cfg_file)]) == 2
        assert capsys.readouterr().err == \
            "error: seed must be non-negative, got -4\n"

    def test_queue_sim_smoke(self):
        assert main(["queue-sim", "--blocks", "50000", "--warmup", "500"]) == 0

    def test_queue_sim_refuses_a_nan_arrival_rate(self):
        assert main(["queue-sim", "--mu", "nan", "--blocks", "2000",
                     "--warmup", "10"]) == 2

    @pytest.mark.parametrize("args, config, message", [
        (["validate", "--rho-db", "nan"], None, "rho must be"),
        (["validate", "--theta", "inf"], None, "theta_t must be"),
        (["queue-sim", "--d-max", "inf", "--blocks", "2000", "--warmup",
          "10"], None, "d_max must be"),
        (["sweep"], "axis = rho_db\ngrid = 10\ntheta = nan\n",
         "theta_t must be"),
        (["sweep"], "axis = theta\ngrid = 0.01,inf\n",
         "sweep grid values must be finite"),
    ], ids=["rho_db_nan", "theta_inf", "d_max_inf", "config_theta_nan",
            "config_grid_inf"])
    def test_non_finite_input_is_a_config_error(self, args, config, message,
                                                 tmp_path, capsys):
        out = tmp_path / "o.csv"
        if config is not None:
            cfg_file = tmp_path / "s.cfg"
            cfg_file.write_text(f"[sweep:s]\n{config}output = {out}\n")
            args = args + [str(cfg_file)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("rho_db_variants = 10,nan", "rho_db_variants must be finite"),
        ("d_max = -5", "d_max must be finite and non-negative")])
    def test_bad_sweep_value_is_refused_before_any_row(
            self, line, message, tmp_path, capsys, monkeypatch):
        # both were once refused only after rows had been evaluated
        calls = []
        for entry in ("evaluate", "evaluate_batch"):
            monkeypatch.setattr(nomafbl.sweep, entry,
                                lambda *args: calls.append(args))
        out = tmp_path / "o.csv"
        cfg_file = tmp_path / "s.cfg"
        cfg_file.write_text(f"[sweep:s]\naxis = theta\ngrid = 0.01\n"
                            f"output = {out}\n{line}\n")
        assert main(["sweep", str(cfg_file)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists() and calls == []

    def test_queue_sim_refuses_d_max_beyond_its_horizon(self, capsys):
        # 1e300 channel uses asked for about 2.5e297 blocks beyond the run
        assert main(["queue-sim", "--d-max", "1e300", "--blocks", "2000",
                     "--warmup", "10"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: d_max must not exceed the simulated horizon")

    def test_queue_sim_refuses_a_failed_capacity(self, capsys):
        # the strong user's kernel mean is not positive here, so there is
        # no capacity to load the queue with
        assert main(["queue-sim", "--role", "strong", "--eps", "0.9",
                     "--theta", "1", "--rho-db", "-30", "--blocks", "2000",
                     "--warmup", "10"]) == 2
        assert "kernel expectation is non-positive" in capsys.readouterr().err

    def test_queue_sim_at_a_given_rate_needs_no_capacity(self, capsys):
        # the closed form fails here (see above), but --mu does not need it
        assert main(["queue-sim", "--mu", "1", "--eps", "0.9", "--theta",
                     "1", "--rho-db", "-30", "--blocks", "2000",
                     "--warmup", "10"]) == 0
        out = capsys.readouterr().out
        assert "arrival rate mu = 1.000000" in out
        assert "effective capacity" not in out

    def test_plot_script_helper(self, tmp_path):
        # a CSV without rows gives a script without data or plot
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(CSV_HEADER + "\n")
        script = write_plot_script(str(csv_path))
        assert script.endswith(".gp")
        assert self.plot_blocks(script) == ({}, [])
        # a quote in a scenario id is doubled, gnuplot's escape inside '...'
        csv_path.write_text(
            CSV_HEADER + "\nit's,rho_db,10.0,strong,closed_form,1.5,0.0,,3,"
            "true\n")
        blocks, plots = self.plot_blocks(write_plot_script(str(csv_path)))
        assert blocks == {"$s0": 1}
        assert plots == ["plot $s0 using 1:2 with linespoints "
                         "title 'it''s strong closed_form'"]

    def test_module_entry_point(self, capsys):
        # python -m nomafbl runs the same command line; stderr carries the
        # CPU time, so only stdout is compared
        args = ["queue-sim", "--blocks", "20000", "--warmup", "100"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "nomafbl", *args],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0
        assert main(args) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_readme_library_block_runs(self):
        # the README's "Library entry points" block runs as written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library entry points", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})

    def test_readme_synopsis_names_every_flag(self):
        # the README's "Command line" block lists each subcommand once, with
        # exactly its flags; an indented line continues the one above
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```")[1]
        usage = re.sub(r"\n\s+", " ", block.strip()).splitlines()
        documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                      for line in usage}
        assert len(documented) == len(usage)
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert documented == {
            name: {opt for act in p._actions for opt in act.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in sub.choices.items()}
