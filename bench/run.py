"""Layered benchmark of nomafbl: one workload, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  A run sets the workload up several times (the median is
``setup_s``), runs one untimed warm-up pass whose output is checked against
the frozen exact-kernel reference in ``reference.json``, then repeats the
pass for S seconds and checks that every repeat is byte-identical to the
first.  Timings are CPU seconds scaled to a reference machine speed, which
a fixed kernel (``yardstick.py``) timed between the passes measures.

--trace 0  prints the end-to-end metrics, taken with tracing off.
--trace 1  alternates untraced and traced passes and prints the per-layer
           metrics; spans of the first traced pass go to
           bench/out/<workload>/trace.jsonl.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# Pin the BLAS / OpenMP pools before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yardstick import REF_KERNEL_S, kernel_cpu_s  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"      # metric names and units

SETUP_ROUNDS = 5           # the yardstick runs before and after each round
SETUP_PER_ROUND = 5
MIN_TIMED_PASSES = 3
KERNEL_EVERY_S = 1.0       # CPU seconds of passes between two yardstick runs
SELF_SUM_TOL = 0.01        # span self times must sum to the pass wall time

# Stands in for an accuracy metric that has no closed-form result to measure.
NO_RESULT = 1e300


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_library():
    """Import nomafbl afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules
                 if m == "nomafbl" or m.startswith("nomafbl.")]:
        del sys.modules[name]
    lib = importlib.import_module("nomafbl")
    if Path(lib.__file__).resolve().parent != SRC / "nomafbl":
        raise SetupError(f"imported nomafbl from {lib.__file__}, not {SRC}")
    return lib


def load_metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def load_reference() -> tuple[dict, dict]:
    data = json.loads(REFERENCE.read_text())
    return {p["key"]: p for p in data["points"]}, data["meta"]


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, ref_meta: dict) -> dict:
    import scipy
    return dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, nproc=len(os.sched_getaffinity(0)),
                python=platform.python_version(), numpy=np.__version__,
                scipy=scipy.__version__, revision=git_revision(),
                reference_revision=ref_meta.get("revision"))


def run_pass(wl):
    """One pass: (output, wall seconds, CPU seconds of this process)."""
    c0, t0 = time.process_time(), time.perf_counter()
    out = wl.run()
    return out, time.perf_counter() - t0, time.process_time() - c0


def layer_metrics(units, summaries, counters, traced_wall, traced_cpu,
                  untraced_cpu):
    """Per-layer values per pass: medians over the traced passes."""
    def per_pass(fn):
        return statistics.median(fn(s, c, dt) for s, c, dt
                                 in zip(summaries, counters, traced_wall))

    def span(s, name, key):
        return s[name][key] if name in s else 0

    def ratio(a, b):
        return a / b if b else 0.0

    evaluate_ms = np.concatenate(
        [s["eccalc.evaluate"]["durations"] for s in summaries
         if "eccalc.evaluate" in s] or [np.empty(0)]) * 1e3
    overhead = statistics.median(traced_cpu) / statistics.median(untraced_cpu)

    def evaluate_pct(q):
        if not evaluate_ms.size:
            return 0.0
        return float(np.percentile(evaluate_ms, q, method="inverted_cdf"))

    special = {
        "eccalc.weak_fallback_frac": lambda s, c, dt: ratio(
            c["eccalc.weak_fallbacks"], span(s, "eccalc.ec_closed_weak",
                                             "calls")),
        "eccalc.weak_series_terms_mean": lambda s, c, dt: ratio(
            c["eccalc.weak_series_terms"], c["eccalc.weak_series_results"]),
        "eccalc.evaluate.ms_p50": lambda s, c, dt: evaluate_pct(50),
        "eccalc.evaluate.ms_p95": lambda s, c, dt: evaluate_pct(95),
        "sweep.run_sweep.below_frac": lambda s, c, dt: (
            span(s, "sweep.run_sweep", "s")
            - span(s, "sweep.run_sweep", "self_s")) / dt,
        "trace.spans": lambda s, c, dt: sum(
            v["calls"] for k, v in s.items() if k != "<roots>"),
        "trace.overhead_frac": lambda s, c, dt: overhead - 1.0,
        "trace.unattributed_frac": lambda s, c, dt: (
            1.0 - s["<roots>"]["s"] / dt),
    }
    metrics = {}
    for name, unit in units.items():
        layer, what = name.rsplit(".", 1)
        if name in special:
            fn = special[name]
        elif what in ("calls", "s", "self_s"):
            def fn(s, c, dt, layer=layer, what=what):
                return span(s, layer, what)
        else:
            def fn(s, c, dt, name=name):
                return c[name]
        metrics[name] = {"value": float(per_pass(fn)), "unit": unit}
    return metrics, evaluate_ms.size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nomafbl" / "__init__.py").is_file():
        raise SetupError(f"no library source at {SRC / 'nomafbl'}")
    for path in (REFERENCE, SPEC):
        if not path.is_file():
            raise SetupError(f"missing {path}")
    sys.path.insert(0, str(SRC))
    e2e_units, layer_units = load_metric_units()
    reference, ref_meta = load_reference()
    out_dir = BENCH_DIR / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    kernel_cpu_s()                          # warm the yardstick up
    setup_kernel = [kernel_cpu_s()]
    setup_cpu = []             # one list of CPU seconds per round
    for _ in range(SETUP_ROUNDS):
        setup_cpu.append([])
        for _ in range(SETUP_PER_ROUND):
            c0 = time.process_time()
            lib = load_library()
            wl = WORKLOADS[args.workload](lib, args.seed, out_dir)
            setup_cpu[-1].append(time.process_time() - c0)
        setup_kernel.append(kernel_cpu_s())

    out0, warm_wall, _ = run_pass(wl)
    first = wl.serialize(out0)
    chk = wl.check(out0, reference)
    passes = 1
    mismatched = 0
    span_checks = span_failures = 0
    # (wall, cpu) seconds of each timed pass
    timed = {False: [], True: []}
    # yardstick CPU seconds, and for each untraced pass the index of the
    # yardstick run before it; one more yardstick run follows the last pass
    kernel, kernel_before = [], []
    since_kernel = math.inf
    summaries, counters = [], []
    kept = None
    tracer = Tracer() if args.trace else None

    def repeat(traced: bool) -> None:
        nonlocal passes, mismatched, kept, span_checks, span_failures
        nonlocal since_kernel
        if traced:
            tracer.clear()
            tracer.install()
            try:
                out, wall, cpu = run_pass(wl)
            finally:
                tracer.uninstall()
        elif args.trace:
            out, wall, cpu = run_pass(wl)
        else:
            if since_kernel >= KERNEL_EVERY_S:
                kernel.append(kernel_cpu_s())
                since_kernel = 0.0
            kernel_before.append(len(kernel) - 1)
            out, wall, cpu = run_pass(wl)
            since_kernel += cpu
        passes += 1
        timed[traced].append((wall, cpu))
        if wl.serialize(out) != first:
            mismatched += 1
            chk.problems.append(f"pass {passes} (traced={traced}) differs "
                                "from the first pass")
        if not traced:
            return
        sp = tracer.spans()
        summ = tracer.summary(sp)
        summaries.append(summ)
        counters.append(defaultdict(float, tracer.counters))
        if kept is None:
            kept = (sp, sp["start"].min() if sp["start"].size else 0.0)
        span_checks += 1
        if abs(summ["<roots>"]["self_s"] - wall) > SELF_SUM_TOL * wall:
            span_failures += 1
            chk.problems.append(
                f"pass {passes}: span self times sum to "
                f"{summ['<roots>']['self_s']:.6f} s of {wall:.6f} s")

    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(timed[False]) < MIN_TIMED_PASSES):
        repeat(False)
        if args.trace:
            repeat(True)
    measured = time.perf_counter() - start
    if not args.trace:
        kernel.append(kernel_cpu_s())

    attempted = chk.attempted * passes + span_checks
    failed = (chk.failed * (passes - mismatched) + chk.attempted * mismatched
              + span_failures)
    env = environment(args, ref_meta)
    pass_cpu = statistics.median(cpu for _, cpu in timed[False])
    report = dict(env=env, passes=passes, warmup_wall_s=warm_wall,
                  timed_passes={("traced" if k else "untraced"): v
                                for k, v in timed.items()},
                  measured_s=measured, setup_cpu_s=setup_cpu,
                  setup_kernel_cpu_s=setup_kernel, pass_kernel_cpu_s=kernel,
                  pass_kernel_before=kernel_before,
                  results_per_pass=wl.results_per_pass,
                  attempted=attempted, failed=failed,
                  problems=chk.problems[:50])

    lines = [f"# env {json.dumps(env)}",
             f"# {args.workload}: {passes} passes ({len(timed[False])} "
             f"untraced, {len(timed[True])} traced, 1 warm-up) in "
             f"{measured:.1f} s; {wl.results_per_pass} results per pass; "
             f"median pass {pass_cpu:.4f} CPU s"]
    if args.trace:
        metrics, n_eval = layer_metrics(
            layer_units, summaries, counters,
            [w for w, _ in timed[True]], [c for _, c in timed[True]],
            [c for _, c in timed[False]])
        lines.append(f"# evaluate latency percentiles over {n_eval} calls")
        dump = out_dir / "trace.jsonl"
        tracer.dump_jsonl(str(dump), *kept)
        lines.append(f"# spans of the first traced pass -> {dump}")
    else:
        # scale each pass by the yardstick runs on either side of it
        pass_ref = statistics.median(
            cpu * REF_KERNEL_S / statistics.fmean(kernel[i:i + 2])
            for i, (_, cpu) in zip(kernel_before, timed[False]))
        setup_ref = statistics.median(
            cpu * REF_KERNEL_S / statistics.fmean(setup_kernel[i:i + 2])
            for i, cpus in enumerate(setup_cpu) for cpu in cpus)
        lines.append(f"# yardstick median {statistics.median(kernel):.4f} "
                     f"CPU s (reference {REF_KERNEL_S} s); median pass "
                     f"{pass_ref:.4f} reference s")
        cf = chk.cf_errors
        values = {
            "setup_s": setup_ref,
            "rows_per_s": wl.results_per_pass / pass_ref,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "converged_frac": (sum(chk.cf_converged) / len(chk.cf_converged)
                               if chk.cf_converged else NO_RESULT),
            "ec_err_max_bits": max(cf) if cf else NO_RESULT,
            "ec_err_mean_bits": math.fsum(cf) / len(cf) if cf else NO_RESULT,
        }
        metrics = {k: {"value": float(values[k]), "unit": unit}
                   for k, unit in e2e_units.items()}
        # printed for reading; failures are counted in failed/attempted
        info = {"failed_frac": (failed / attempted, "frac"),
                "unconverged_frac": (1.0 - values["converged_frac"], "frac"),
                "rows_per_cpu_s": (wl.results_per_pass / pass_cpu, "1/s")}
        if args.workload == "queue":
            info["blocks_per_s"] = (wl.spec.num_blocks / pass_ref, "1/s")
        for k, (v, unit) in info.items():
            lines.append(f"# {k:<22s} {v:.6g} {unit}")
            report[k] = v
    lines += [f"  {k:<36s} {m['value']:.6g} {m['unit']}"
              for k, m in metrics.items()]
    lines += [f"# problem: {p}" for p in chk.problems[:10]]
    report["metrics"] = metrics
    (out_dir / f"result_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
