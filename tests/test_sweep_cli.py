import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nomafbl.eccalc
from nomafbl.channel import SystemConfig, db_to_linear
from nomafbl.cli import main
from nomafbl.eccalc import EvalControls, ec_monte_carlo, mc_gain_draws
from nomafbl.sweep import (CSV_HEADER, SweepSpec, figure_preset,
                           load_sweep_config, read_rows, run_sweep,
                           validate_report, write_plot_script)


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
        # theta = 1 drives the weak-user series out of double range; the
        # row records the fallback value with converged = false
        base = SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                            rho=db_to_linear(20.0), n=400, eps=1e-6,
                            theta_t=1.0, theta_u=1.0)
        spec = small_spec(tmp_path, base=base, axis="theta",
                          grid=(0.01, 1.0), roles=("weak",))
        rows = run_sweep(spec)
        assert rows[0].converged
        assert not rows[1].converged
        assert rows[1].ec_bits_per_cu is not None

    def test_delay_column(self, tmp_path):
        spec = small_spec(tmp_path, axis="theta", grid=(0.01,),
                          d_max=400.0)
        rows = run_sweep(spec)
        mu = rows[0].ec_bits_per_cu
        expected = math.exp(-0.01 * mu * 400.0 * math.log(2.0))
        assert rows[0].delay_violation_prob == pytest.approx(expected,
                                                             rel=1e-12)

    def test_variant_expansion(self, tmp_path):
        spec = small_spec(tmp_path, rho_db_variants=(10.0, 20.0))
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

    def test_one_draw_per_chunk(self, tmp_path, monkeypatch):
        calls = []
        sample_gains = nomafbl.eccalc.sample_gains

        def counting(*args, **kwargs):
            calls.append(args[1])
            return sample_gains(*args, **kwargs)

        monkeypatch.setattr(nomafbl.eccalc, "sample_gains", counting)
        spec = figure_preset("fig3", output_path=str(tmp_path / "fig3.csv"),
                             mc_samples=200_000)
        rows = run_sweep(spec)
        # 42 Monte-Carlo rows share the 4 chunks of one draw
        assert sum(r.method == "monte_carlo" for r in rows) == 42
        assert calls == [1 << 16] * 3 + [200_000 - 3 * (1 << 16)]

    def test_shared_columns_are_read_only_copies(self):
        draws = mc_gain_draws(BASE, self.CTL)
        assert [c.size for c, _ in draws] == [1 << 16, 777]
        for pair in draws:
            for col in pair:
                # owns its data: no view holds the V-column sorted draws
                assert col.base is None and col.flags.c_contiguous
                with pytest.raises(ValueError):
                    col[0] = 1.0
        assert np.all(draws[0][0] <= draws[0][1])


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

    def test_degenerate_eps_trivially_passes(self):
        cfg = SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                           rho=db_to_linear(20.0), n=300, eps=1.0,
                           theta_t=0.01, theta_u=0.01)
        report = validate_report(cfg, EvalControls(mc_samples=1000, seed=2))
        assert report.passed
        assert all(r.value == 0.0 for r in report.evaluations.values())

    def test_forced_truncation_flagged(self):
        cfg = SystemConfig(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2,
                           rho=db_to_linear(20.0), n=300, eps=1e-5,
                           theta_t=0.01, theta_u=0.01)
        report = validate_report(
            cfg, EvalControls(mc_samples=5000, seed=2, series_max_terms=2))
        assert not report.passed
        gate = [g for g in report.gates if "converged" in g.name][0]
        assert not gate.passed


class TestCli:
    def test_figure_runs_and_is_deterministic(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["figure", "fig3", "--mc-samples", "4000", "--seed", "9"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_plot_script(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figure", "fig3", "--mc-samples", "2000",
                     "--out", str(out), "--plot-script"]) == 0
        assert (tmp_path / "f.gp").exists()

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

    def test_queue_sim_smoke(self):
        assert main(["queue-sim", "--blocks", "50000", "--warmup", "500"]) == 0

    def test_plot_script_helper(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(CSV_HEADER + "\n")
        script = write_plot_script(str(csv_path))
        assert script.endswith(".gp")
