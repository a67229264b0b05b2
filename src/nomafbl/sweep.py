"""Experiment runner: parameter sweeps, figure presets, validation reports.

Sweeps walk one axis (transmit SNR in dB, or a common QoS exponent), run
each requested evaluator for each requested user, and write the rows to CSV
with a fixed header.  Presets encode the standard operating points used
throughout the numerical study: a 10-user pool with the 2nd and 8th ordered
users paired at power split 0.8/0.2.  Everything is deterministic given the
controls seed.
"""

from __future__ import annotations

import configparser
import csv
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .channel import ROLES, SystemConfig, db_to_linear
from .delay import delay_at_capacity
from .eccalc import (METHODS, EcResult, EvalControls, ec_quadrature, evaluate,
                     evaluate_batch)

CSV_HEADER = ("scenario_id,axis_name,axis_value,role,method,ec_bits_per_cu,"
              "std_error,delay_violation_prob,series_terms,converged")

AXES = ("rho_db", "theta")

FIGURE_NAMES = ("fig3", "fig4", "fig5", "fig6")

# The user pool of every preset and the fig3 operating point, which are
# also the defaults of config files and of the command line.
POOL = dict(V=10, t=2, u=8, alpha_t=0.8, alpha_u=0.2)
FIG3_POINT = dict(n=300, eps=1e-5, theta=0.01, rho_db=20.0)
# The fig4-fig6 operating point and delay bound, also the queue-sim defaults
QOS_POINT = dict(n=400, eps=1e-6, theta=0.01)
QOS_D_MAX = 400.0


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: base scenario, axis grid, evaluators and output location.

    rho_db_variants replicates the whole sweep at several transmit SNRs
    (used by the QoS-exponent presets whose reference curves come in SNR
    families); each variant gets its own scenario id suffix.
    """

    base: SystemConfig
    axis: str
    grid: tuple[float, ...]
    roles: tuple[str, ...]
    methods: tuple[str, ...]
    controls: EvalControls
    output_path: str
    scenario_id: str = "sweep"
    d_max: float | None = None
    rho_db_variants: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.grid:
            raise ValueError("sweep grid must not be empty")
        if not all(map(math.isfinite, self.grid)):
            raise ValueError(f"sweep grid values must be finite, got "
                             f"{self.grid}")
        if list(self.grid) != sorted(self.grid):
            raise ValueError("sweep grid must be ascending")
        if not self.roles or any(r not in ROLES for r in self.roles):
            raise ValueError(f"roles must be a non-empty subset of {ROLES}")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValueError(f"methods must be a non-empty subset of {METHODS}")
        if not all(map(math.isfinite, self.rho_db_variants or ())):
            raise ValueError(f"rho_db_variants must be finite, got "
                             f"{self.rho_db_variants}")
        if self.d_max is not None and not 0.0 <= self.d_max < math.inf:
            raise ValueError(f"d_max must be finite and non-negative, got "
                             f"{self.d_max}")
        if self.axis == "rho_db" and self.rho_db_variants:
            raise ValueError("rho_db_variants need a theta axis: the rho_db "
                             "axis sets the SNR of every row itself")


@dataclass(frozen=True)
class ResultRow:
    scenario_id: str
    axis_name: str
    axis_value: float
    role: str
    method: str
    ec_bits_per_cu: float | None
    std_error: float
    delay_violation_prob: float | None
    series_terms: int | None
    converged: bool


def _apply_axis(base: SystemConfig, axis: str, value: float) -> SystemConfig:
    if axis == "rho_db":
        return replace(base, rho=db_to_linear(value))
    return replace(base, theta_t=value, theta_u=value)


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate every grid x role x method combination and write the CSV.

    Each (variant, role, method) grid is one evaluate_batch call, whose
    strong closed forms share their float split along a theta axis; the
    rows are written grid value by grid value.  Evaluator failures are
    recorded in their row with converged = False instead of aborting the
    sweep.
    """
    rows: list[ResultRow] = []
    variants = spec.rho_db_variants or (None,)
    for variant in variants:
        if variant is None:
            base = spec.base
            scen = spec.scenario_id
        else:
            base = replace(spec.base, rho=db_to_linear(variant))
            scen = f"{spec.scenario_id}_rho{variant:g}db"
        cfgs = [_apply_axis(base, spec.axis, value) for value in spec.grid]
        results = {(role, method): evaluate_batch(cfgs, role, method,
                                                  spec.controls)
                   for role in spec.roles for method in spec.methods}
        for i, (value, cfg) in enumerate(zip(spec.grid, cfgs)):
            for role in spec.roles:
                for method in spec.methods:
                    rows.append(_one_row(scen, spec, cfg, value, role, method,
                                         results[role, method][i]))
    write_rows(spec.output_path, rows)
    return rows


def _one_row(scenario, spec, cfg, value, role, method, res) -> ResultRow:
    if isinstance(res, Exception):
        res = EcResult(value=math.nan, method=method, converged=False,
                       note=str(res))
    ec = res.value if math.isfinite(res.value) else None
    dvp = None
    if spec.d_max is not None and ec is not None:
        dvp = delay_at_capacity(cfg.theta_for(role), ec, spec.d_max)
    return ResultRow(scenario_id=scenario, axis_name=spec.axis,
                     axis_value=value, role=role, method=method,
                     ec_bits_per_cu=ec, std_error=res.std_error,
                     delay_violation_prob=dvp, series_terms=res.series_terms,
                     converged=res.converged)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def write_rows(path: str, rows: list[ResultRow]) -> None:
    # csv writes None as "" and a float by its repr; only the flag needs help
    columns = CSV_HEADER.split(",")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for r in rows:
            writer.writerow([getattr(r, c) for c in columns[:-1]]
                            + [str(r.converged).lower()])


def read_rows(path: str) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER.split(","):
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        for rec in reader:
            rows.append(ResultRow(
                scenario_id=rec[0], axis_name=rec[1],
                axis_value=float(rec[2]), role=rec[3], method=rec[4],
                ec_bits_per_cu=float(rec[5]) if rec[5] else None,
                std_error=float(rec[6]),
                delay_violation_prob=float(rec[7]) if rec[7] else None,
                series_terms=int(rec[8]) if rec[8] else None,
                converged=rec[9] == "true",
            ))
    return rows


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def pool_config(n: int, eps: float, theta: float,
                rho_db: float) -> SystemConfig:
    """The preset pool at one operating point (both users share theta)."""
    return SystemConfig(n=n, eps=eps, theta_t=theta, theta_u=theta,
                        rho=db_to_linear(rho_db), **POOL)


_THETA_GRID = tuple(float(v) for v in np.logspace(-4, 0, 30))
_SNR_GRID = tuple(float(v) for v in range(0, 41, 2))


def figure_preset(name: str, output_path: str | None = None,
                  seed: int = EvalControls.seed,
                  mc_samples: int = EvalControls.mc_samples) -> SweepSpec:
    """Fully-populated sweep for one of the four reference figures.

    fig3: capacity vs transmit SNR (0..40 dB), theta 0.01, n 300, eps 1e-5,
          both users, closed form cross-checked by Monte-Carlo.
    fig4: capacity vs QoS exponent (1e-4..1), n 400, eps 1e-6, both users,
          at 15 and 20 dB.
    fig5/fig6: delay-violation probability vs QoS exponent for the strong /
          weak user, d_max 400, at 15, 20 and 25 dB.
    """
    ctl = EvalControls(mc_samples=mc_samples, seed=seed)
    out = output_path or f"{name}.csv"
    qos_base = pool_config(**QOS_POINT, rho_db=15.0)
    if name == "fig3":
        return SweepSpec(base=pool_config(**FIG3_POINT),
                         axis="rho_db", grid=_SNR_GRID,
                         roles=("weak", "strong"),
                         methods=("closed_form", "monte_carlo"),
                         controls=ctl, output_path=out, scenario_id="fig3")
    if name == "fig4":
        return SweepSpec(base=qos_base,
                         axis="theta", grid=_THETA_GRID,
                         roles=("weak", "strong"), methods=("closed_form",),
                         controls=ctl, output_path=out, scenario_id="fig4",
                         rho_db_variants=(15.0, 20.0))
    if name in ("fig5", "fig6"):
        role = "strong" if name == "fig5" else "weak"
        return SweepSpec(base=qos_base,
                         axis="theta", grid=_THETA_GRID, roles=(role,),
                         methods=("closed_form",), controls=ctl,
                         output_path=out, scenario_id=name, d_max=QOS_D_MAX,
                         rho_db_variants=(15.0, 20.0, 25.0))
    raise ValueError(f"unknown preset {name!r}; expected one of {FIGURE_NAMES}")


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

# configparser lower-cases key names, so these are lower-case too
_CFG_DEFAULTS = {**{k.lower(): v for k, v in POOL.items()}, **FIG3_POINT,
                 "roles": "weak,strong", "methods": "closed_form",
                 **asdict(EvalControls())}
_CFG_REQUIRED = ("axis", "grid", "output")
_CFG_KEYS = {*_CFG_DEFAULTS, *_CFG_REQUIRED, "d_max", "rho_db_variants"}


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: comma list, 'lin:start:stop:count' or 'log:start:stop:count'."""
    text = text.strip()
    if text.startswith(("lin:", "log:")):
        kind, a, b, count = text.split(":")
        a, b, count = float(a), float(b), int(count)
        if kind == "lin":
            values = np.linspace(a, b, count)
        else:
            values = np.logspace(math.log10(a), math.log10(b), count)
        return tuple(float(v) for v in values)
    return _parse_floats(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def load_sweep_config(path: str) -> list[SweepSpec]:
    """Parse a line-oriented key = value sweep description.

    One [sweep:<id>] section per sweep; every key has a default and can be
    overridden per section.  Required keys: axis, grid, output.  Keys are
    case-insensitive, and a key the loader does not know is an error.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:   # e.g. a key given twice
        raise ValueError(f"cannot parse sweep config {path!r}: {exc}") from exc
    if not read:
        raise ValueError(f"cannot read sweep config {path!r}")
    specs = []
    for section in parser.sections():
        if not section.startswith("sweep:"):
            raise ValueError(f"unexpected section [{section}]; use [sweep:<id>]")
        given = dict(parser.items(section))
        unknown = sorted(set(given) - _CFG_KEYS)
        if unknown:
            raise ValueError(f"[{section}] has unknown key(s) "
                             + ", ".join(map(repr, unknown)))
        for key in _CFG_REQUIRED:
            if key not in given:
                raise ValueError(f"[{section}] is missing required key {key!r}")
        get = {**_CFG_DEFAULTS, **given}.__getitem__

        def parse(key, how):    # a value that fails to parse names its key
            try:
                return how(get(key))
            except ValueError as exc:
                raise ValueError(f"[{section}] cannot parse {key} = "
                                 f"{get(key)!r}: {exc}") from exc

        def cast(defaults):     # each key parsed as the type of its default
            return {k: parse(k.lower(), type(v)) for k, v in defaults.items()}

        base = replace(pool_config(**cast(FIG3_POINT)), **cast(POOL))
        ctl = EvalControls(**cast(asdict(EvalControls())))
        d_max = parse("d_max", float) if "d_max" in given else None
        variants = (parse("rho_db_variants", _parse_floats)
                    if "rho_db_variants" in given else None)
        specs.append(SweepSpec(
            base=base, axis=get("axis"), grid=parse("grid", _parse_grid),
            roles=tuple(r.strip() for r in get("roles").split(",")),
            methods=tuple(m.strip() for m in get("methods").split(",")),
            controls=ctl, output_path=get("output"),
            scenario_id=section.split(":", 1)[1], d_max=d_max,
            rho_db_variants=variants))
    if not specs:
        raise ValueError(f"no [sweep:<id>] sections found in {path!r}")
    return specs


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------

@dataclass
class GateResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    evaluations: dict = field(default_factory=dict)
    gates: list[GateResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates)

    def render(self) -> str:
        lines = ["method triangle evaluations:"]
        for key, res in self.evaluations.items():
            se = f" +- {res.std_error:.3e}" if res.std_error else ""
            flag = "" if res.converged else "  [unconverged]"
            lines.append(f"  {key:28s} {res.value: .9f}{se}{flag}")
        lines.append("gates:")
        for g in self.gates:
            lines.append(f"  [{'PASS' if g.passed else 'FAIL'}] {g.name}: {g.detail}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def validate_report(cfg: SystemConfig, ctl: EvalControls) -> ValidationReport:
    """Run the closed / quadrature / Monte-Carlo triangle for both users.

    Each user gets the same three gates, which localize failures: the
    closed form within 1e-6 relative of the quadrature of the expanded
    kernel checks the series algebra; the closed form's convergence flag
    catches a truncated series and a fallback to that same quadrature,
    which the first gate cannot see; and Monte-Carlo within 4 standard
    errors of the quadrature of the exact kernel checks sampling.
    """
    report = ValidationReport()
    for role in ROLES:
        closed = evaluate(cfg, role, "closed_form", ctl)
        quad_approx = ec_quadrature(cfg, role, ctl, kernel_variant="approx")
        quad_exact = ec_quadrature(cfg, role, ctl, kernel_variant="exact")
        mc = evaluate(cfg, role, "monte_carlo", ctl)
        report.evaluations[f"{role}/closed_form"] = closed
        report.evaluations[f"{role}/quadrature_approx"] = quad_approx
        report.evaluations[f"{role}/quadrature_exact"] = quad_exact
        report.evaluations[f"{role}/monte_carlo"] = mc

        denom = max(abs(quad_approx.value), 1e-300)
        rel = abs(closed.value - quad_approx.value) / denom
        report.gates.append(GateResult(
            f"{role} closed vs approx-kernel quadrature",
            rel <= 1e-6, f"relative gap {rel:.3e} (gate 1e-6)"))
        report.gates.append(GateResult(
            f"{role} closed form converged", closed.converged,
            f"series_terms={closed.series_terms}, "
            f"converged={closed.converged}"))
        mc_gap = abs(quad_exact.value - mc.value)
        gate = 4.0 * max(mc.std_error, 1e-15)
        report.gates.append(GateResult(
            f"{role} Monte-Carlo vs exact-kernel quadrature",
            mc_gap <= gate, f"gap {mc_gap:.3e} (gate 4 s.e. = {gate:.3e})"))
    return report


def write_plot_script(csv_path: str) -> str:
    """Emit a gnuplot script drawing one line per (scenario_id, role,
    method) series of a sweep CSV, each from its own data block, next to
    it with the suffix .gp; returns the script's path."""
    script_path = str(Path(csv_path).with_suffix(".gp"))
    series: dict[tuple[str, str, str], list[str]] = {}
    for r in read_rows(csv_path):
        if r.ec_bits_per_cu is not None:
            series.setdefault((r.scenario_id, r.role, r.method), []).append(
                f"{r.axis_value!r} {r.ec_bits_per_cu!r}")
    lines = ["set xlabel 'axis value'",
             "set ylabel 'effective capacity [bits/channel use]'"]
    for i, points in enumerate(series.values()):
        lines += [f"$s{i} << EOD", *points, "EOD"]
    # gnuplot writes a ' inside a '...' string as ''
    titles = [" ".join(key).replace("'", "''") for key in series]
    if series:
        lines.append("plot " + ", ".join(
            f"$s{i} using 1:2 with linespoints title '{title}'"
            for i, title in enumerate(titles)))
    with open(script_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return script_path
