"""The four benchmark workloads, their output checks and their reference points.

Each workload is built from an imported ``nomafbl`` package and a seed, runs
one *pass* through the same library entry points the command line uses
(``figure_preset`` + ``run_sweep``, ``validate_report``, ``run_queue_sim``),
turns a pass's output into bytes for the repeat check, and checks one pass
against the frozen exact-kernel reference.

The timed region of a pass looks every entry point up on its module at call
time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

LN2 = math.log(2.0)

# Weak/strong pair of the study: 2nd and 8th of 10 ordered users, split 0.8/0.2.
POOL = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2)

# `validate` defaults of the command line, at three SNRs.
TRIANGLE_RHO_DB = (10.0, 20.0, 30.0)
TRIANGLE_POINT = dict(n=300, eps=1e-5, theta=0.01)
MC_SAMPLES = 200_000

# Acceptance criterion 8 operating point, at a tenth of its 40M-block horizon.
QUEUE_POINT = dict(rho_db=20.0, n=400, eps=1e-6, theta=0.01)
QUEUE_MU_FRAC = 0.95
QUEUE_BLOCKS = 4_000_000
QUEUE_WARMUP = 10_000
QUEUE_D_MAX = 400.0
QUEUE_FIT_FLOOR = 0.75     # fitted tail exponent >= 0.75 * theta * ln 2

MC_GATE_SE = 4.0           # a Monte-Carlo value further than this many SE fails


def point_key(role: str, rho_db: float, n: int, eps: float,
              theta: float) -> str:
    """Reference-table key of one (user, operating point)."""
    return (f"{role}|rho_db={rho_db:g}|n={n}|eps={eps:g}|"
            f"theta={theta:.12g}")


def pool_config(lib, rho_db: float, n: int, eps: float, theta: float):
    return lib.SystemConfig(rho=lib.db_to_linear(rho_db), n=n, eps=eps,
                            theta_t=theta, theta_u=theta, **POOL)


@dataclass
class CheckResult:
    """Outcome of checking one pass against the reference.

    attempted / failed   operations checked and operations that failed
    cf_errors            |closed form - reference| in bits/cu, per closed row
    cf_converged         the converged flag of each closed-form result
    problems             one line per failure, for the log
    """

    attempted: int = 0
    failed: int = 0
    cf_errors: list = field(default_factory=list)
    cf_converged: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.problems.append(msg)


def _check_value(chk: CheckResult, label: str, method: str, value, se,
                 converged, ref: dict, key: str) -> None:
    """Apply the failure rules and accuracy bookkeeping to one result."""
    chk.attempted += 1
    if value is None or not math.isfinite(value):
        chk.fail(f"{label}: non-finite or failed evaluation")
        return
    point = ref.get(key)
    if point is None:
        chk.fail(f"{label}: no reference point {key}")
        return
    gap = abs(value - point["ec_bits"])
    if method == "closed_form":
        chk.cf_errors.append(gap)
        chk.cf_converged.append(bool(converged))
    elif method == "monte_carlo" and not gap <= MC_GATE_SE * se:
        chk.fail(f"{label}: Monte-Carlo {value!r} is {gap:.3e} from the "
                 f"reference {point['ec_bits']!r} (gate {MC_GATE_SE:g} SE "
                 f"= {MC_GATE_SE * se:.3e})")


# ---------------------------------------------------------------------------
# Sweeps: snr_mc and qos_closed
# ---------------------------------------------------------------------------

def point_params(role: str, rho_db: float, n: int, eps: float,
                 theta: float) -> dict:
    """Everything the reference generator needs to evaluate one point."""
    return dict(key=point_key(role, rho_db, n, eps, theta), role=role,
                rho_db=rho_db, n=n, eps=eps, theta=theta, **POOL)


def sweep_points(spec):
    """(axis value, role, method, point) of every row, in run_sweep's order."""
    base = spec.base
    out = []
    for variant in spec.rho_db_variants or (None,):
        for value in spec.grid:
            if spec.axis == "rho_db":
                rho_db, theta = value, base.theta_t
            else:
                rho_db, theta = variant, value
            for role in spec.roles:
                point = point_params(role, rho_db, base.n, base.eps, theta)
                out += [(value, role, method, point)
                        for method in spec.methods]
    return out


class SweepWorkload:
    def __init__(self, lib, presets, seed: int, out_dir: Path):
        self.lib = lib
        self.specs = [lib.figure_preset(p, output_path=str(out_dir / f"{p}.csv"),
                                        seed=seed, mc_samples=MC_SAMPLES)
                      for p in presets]
        self.results_per_pass = sum(len(sweep_points(s)) for s in self.specs)

    def run(self):
        return [self.lib.sweep.run_sweep(spec) for spec in self.specs]

    def serialize(self, out) -> bytes:
        return b"".join(Path(s.output_path).read_bytes() for s in self.specs)

    def check(self, out, ref: dict) -> CheckResult:
        chk = CheckResult()
        for spec, rows in zip(self.specs, out):
            expected = sweep_points(spec)
            if len(rows) != len(expected):
                chk.attempted += len(expected)
                chk.failed += len(expected)
                chk.problems.append(f"{spec.scenario_id}: {len(rows)} rows, "
                                    f"expected {len(expected)}")
                continue
            for row, (value, role, method, point) in zip(rows, expected):
                label = (f"{row.scenario_id} {row.axis_name}={row.axis_value!r}"
                         f" {row.role} {row.method}")
                if (row.axis_value, row.role, row.method) != (value, role,
                                                               method):
                    chk.attempted += 1
                    chk.fail(f"{label}: out of order, expected {value!r} "
                             f"{role} {method}")
                    continue
                _check_value(chk, label, method, row.ec_bits_per_cu,
                             row.std_error, row.converged, ref, point["key"])
        return chk

    def reference_points(self):
        return [point for spec in self.specs
                for *_, point in sweep_points(spec)]


# ---------------------------------------------------------------------------
# triangle: validate_report at 10, 20 and 30 dB
# ---------------------------------------------------------------------------

class TriangleWorkload:
    def __init__(self, lib, seed: int, out_dir: Path):
        self.lib = lib
        p = TRIANGLE_POINT
        self.ctl = lib.EvalControls(mc_samples=MC_SAMPLES, seed=seed)
        self.cfgs = [(rho_db, pool_config(lib, rho_db, p["n"], p["eps"],
                                          p["theta"]))
                     for rho_db in TRIANGLE_RHO_DB]
        self.results_per_pass = 8 * len(self.cfgs)

    def run(self):
        return [self.lib.sweep.validate_report(cfg, self.ctl)
                for _, cfg in self.cfgs]

    def serialize(self, reports) -> bytes:
        lines = []
        for rep in reports:
            lines += [f"{k} {res!r}" for k, res in rep.evaluations.items()]
            lines += [f"{g.name} {g.passed} {g.detail}" for g in rep.gates]
        return "\n".join(lines).encode()

    def check(self, reports, ref: dict) -> CheckResult:
        chk = CheckResult()
        p = TRIANGLE_POINT
        for (rho_db, _), rep in zip(self.cfgs, reports):
            for label, res in rep.evaluations.items():
                role, method = label.split("/")
                key = point_key(role, rho_db, p["n"], p["eps"], p["theta"])
                _check_value(chk, f"{rho_db:g} dB {label}", method, res.value,
                             res.std_error, res.converged, ref, key)
            for gate in rep.gates:
                chk.attempted += 1
                if not gate.passed:
                    chk.fail(f"{rho_db:g} dB gate {gate.name}: {gate.detail}")
        return chk

    def reference_points(self):
        p = TRIANGLE_POINT
        return [point_params(role, rho_db, p["n"], p["eps"], p["theta"])
                for rho_db, _ in self.cfgs for role in ("weak", "strong")]


# ---------------------------------------------------------------------------
# queue: run_queue_sim for the strong user at criterion-8 settings
# ---------------------------------------------------------------------------

class QueueWorkload:
    def __init__(self, lib, seed: int, out_dir: Path):
        self.lib = lib
        q = QUEUE_POINT
        self.cfg = pool_config(lib, q["rho_db"], q["n"], q["eps"], q["theta"])
        # the arrival rate is an input, so its closed form is set-up work
        self.closed = lib.ec_closed_strong(self.cfg, lib.EvalControls(seed=seed))
        self.spec = lib.SimSpec(cfg=self.cfg, role="strong",
                                arrival_rate=QUEUE_MU_FRAC * self.closed.value,
                                num_blocks=QUEUE_BLOCKS,
                                warmup_blocks=QUEUE_WARMUP, d_max=QUEUE_D_MAX,
                                seed=seed)
        self.results_per_pass = 1

    def run(self):
        return self.lib.queuesim.run_queue_sim(self.spec)

    def serialize(self, stats) -> bytes:
        return "\n".join([
            repr(stats.thresholds.tolist()), repr(stats.tail_prob.tolist()),
            repr(stats.tail_hits.tolist()), repr(stats.delay_violation_freq),
            repr(stats.fitted_theta), repr(stats.fitted_theta_stderr),
            repr(stats.mean_queue), repr(stats.blocks_counted),
        ]).encode()

    def check(self, stats, ref: dict) -> CheckResult:
        chk = CheckResult()
        q = QUEUE_POINT
        _check_value(chk, "queue arrival-rate closed form", "closed_form",
                     self.closed.value, 0.0, self.closed.converged, ref,
                     point_key("strong", q["rho_db"], q["n"], q["eps"],
                               q["theta"]))
        chk.attempted += 1
        floor = QUEUE_FIT_FLOOR * q["theta"] * LN2
        if stats.fitted_theta is None or not stats.fitted_theta >= floor:
            chk.fail(f"queue: fitted tail exponent {stats.fitted_theta!r} "
                     f"missing or below {floor:.6g}")
        return chk

    def reference_points(self):
        return [point_params("strong", **QUEUE_POINT)]


WORKLOADS = {
    "snr_mc": lambda lib, seed, out: SweepWorkload(lib, ("fig3",), seed, out),
    "qos_closed": lambda lib, seed, out: SweepWorkload(
        lib, ("fig4", "fig5", "fig6"), seed, out),
    "triangle": TriangleWorkload,
    "queue": QueueWorkload,
}
