"""Generate the frozen exact-kernel reference the benchmark checks against.

    python3 bench/make_reference.py        # from the repository root

For every closed-form and Monte-Carlo point of the benchmark workloads it
computes the effective capacity with the library's exact-kernel quadrature
oracle (``ec_quadrature``) at ``quad_rel_tol = 1e-11``.  Each point is
cross-checked by an independent integrator: a composite Simpson rule on a
dense uniform grid in log-gain, over an integrand written here from the
model formulas (ordered-exponential density, normal-approximation kernel,
scipy's ``ndtri`` for the inverse Q-function) rather than taken from the
library.  Points where the two disagree by more than ``XCHECK_TOL`` are
listed under ``meta.disagreements``; they are kept, not dropped.

The output records the git revision it came from.  The benchmark only reads
it, so a later change to the oracle cannot move its own yardstick.
"""

from __future__ import annotations

import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import special

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
QUAD_REL_TOL = 1e-11
XCHECK_TOL = 1e-8          # relative gap in the kernel mean E[k]
GRID_LO, GRID_HI = math.log(1e-15), math.log(60.0)   # log-gain range
GRID_INTERVALS = 1 << 21
CHUNK = 1 << 18


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def xcheck_mean(p: dict) -> float:
    """E[kernel] by Simpson's rule in u = ln(gain), independent of nomafbl."""
    V, k = p["V"], p["t"] if p["role"] == "weak" else p["u"]
    rho = 10.0 ** (p["rho_db"] / 10.0)
    theta, n, eps = p["theta"], p["n"], p["eps"]
    beta = theta * math.sqrt(n) * -special.ndtri(eps)
    log_norm = (math.lgamma(V + 1) - math.lgamma(k) - math.lgamma(V - k + 1))
    h = (GRID_HI - GRID_LO) / GRID_INTERVALS
    total = 0.0
    for lo in range(0, GRID_INTERVALS + 1, CHUNK):
        i = np.arange(lo, min(lo + CHUNK, GRID_INTERVALS + 1))
        x = np.exp(GRID_LO + i * h)
        if p["role"] == "strong":
            g = p["alpha_u"] * rho * x
        else:
            g = p["alpha_t"] * x / (p["alpha_u"] * x + 1.0 / rho)
        delta = np.sqrt(g * (g + 2.0)) / (1.0 + g)
        kern = eps + (1.0 - eps) * np.exp(-theta * n * np.log1p(g)
                                          + beta * delta)
        log_pdf = (log_norm + (k - 1) * np.log(-np.expm1(-x))
                   - (V - k + 1) * x)
        w = np.where(i % 2 == 1, 4.0, 2.0)
        w[(i == 0) | (i == GRID_INTERVALS)] = 1.0
        total += math.fsum(w * kern * np.exp(log_pdf) * x)
    return total * h / 3.0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import nomafbl as lib

    points = {}
    for name, make in WORKLOADS.items():
        for p in make(lib, 1234, BENCH_DIR / "out").reference_points():
            points.setdefault(p["key"], dict(p, workloads=[]))
            if name not in points[p["key"]]["workloads"]:
                points[p["key"]]["workloads"].append(name)

    ctl = lib.EvalControls(quad_rel_tol=QUAD_REL_TOL)
    quad_s = xcheck_s = 0.0
    disagreements = []
    for p in points.values():
        cfg = lib.SystemConfig(V=p["V"], t=p["t"], u=p["u"],
                               alpha_t=p["alpha_t"], alpha_u=p["alpha_u"],
                               rho=lib.db_to_linear(p["rho_db"]), n=p["n"],
                               eps=p["eps"], theta_t=p["theta"],
                               theta_u=p["theta"])
        t0 = time.perf_counter()
        res = lib.ec_quadrature(cfg, p["role"], ctl, kernel_variant="exact")
        t1 = time.perf_counter()
        x_mean = xcheck_mean(p)
        quad_s += t1 - t0
        xcheck_s += time.perf_counter() - t1
        scale = p["theta"] * p["n"] * math.log(2.0)
        mean = math.exp(-res.value * scale)
        p.update(ec_bits=res.value, quad_err_bits=res.tail_bound,
                 xcheck_ec_bits=-math.log(x_mean) / scale,
                 xcheck_rel_diff=abs(x_mean - mean) / mean)
        if not p["xcheck_rel_diff"] <= XCHECK_TOL:
            disagreements.append(p["key"])

    meta = dict(
        generator="bench/make_reference.py", revision=_git("rev-parse", "HEAD"),
        src_modified=bool(_git("status", "--porcelain", "--", "src")),
        oracle="nomafbl ec_quadrature, exact kernel",
        quad_rel_tol=QUAD_REL_TOL,
        xcheck=(f"composite Simpson in ln(gain) on [{math.exp(GRID_LO):g}, "
                f"{math.exp(GRID_HI):g}], {GRID_INTERVALS} intervals, "
                "integrand from the model formulas"),
        xcheck_tol=XCHECK_TOL,
        max_xcheck_rel_diff=max(p["xcheck_rel_diff"] for p in points.values()),
        disagreements=disagreements, n_points=len(points),
        python=platform.python_version(), numpy=np.__version__,
        scipy=scipy.__version__, quad_seconds=round(quad_s, 1),
        xcheck_seconds=round(xcheck_s, 1))
    out = BENCH_DIR / "reference.json"
    out.write_text(json.dumps({"meta": meta, "points": list(points.values())},
                              indent=1) + "\n")
    print(f"{len(points)} points (oracle {quad_s:.1f} s, cross-check "
          f"{xcheck_s:.1f} s) -> {out}; max cross-check "
          f"gap {meta['max_xcheck_rel_diff']:.2e} relative, "
          f"{len(disagreements)} above {XCHECK_TOL:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
