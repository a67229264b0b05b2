"""Machine-speed yardstick for the benchmark's timings.

On a shared VM, other tenants of the host slow a single-threaded process by
up to half, for seconds to minutes at a time, and CPU time stretches with
them: the same pass of the same code took 2.4 s and 4.0 s of CPU a few
minutes apart.  ``kernel_cpu_s`` times a fixed piece of work that touches
neither ``nomafbl`` nor the workload: numpy draws, row sorts and
reductions, the array work the library's passes spend much of their time
in.  The runner times the kernel around the passes and scales each pass by
``REF_KERNEL_S / kernel time``, so a timing reads in *reference seconds*:
CPU seconds at the speed at which the kernel takes ``REF_KERNEL_S``.

On the VM the benchmark was built on, pass times followed this kernel with
a correlation of up to 0.97 while the machine's speed moved.  Kernels of
pure-Python arithmetic or of scalar ``scipy.integrate.quad`` calls tracked
them worse, even for the workloads that are mostly such calls.

The kernel is frozen: changing it, or ``REF_KERNEL_S``, changes the unit of
every timing the benchmark reports.
"""

from __future__ import annotations

import time

import numpy as np

# Median CPU time of the kernel on the 2-core x86-64 VM the benchmark was
# built on (Xeon under KVM, Python 3.11.7, numpy 2.4.6).
REF_KERNEL_S = 0.18

# Two shapes: long rows, and (blocks, V) gain matrices like those the
# library's samplers draw and sort.  Each alone tracked some workloads worse
# than the two together.  The arrays are at most 1.3 MB, so the yardstick
# adds about 4 MB to the process's peak resident set (peak_rss_mb).
_ROW_ROUNDS, _ROW_SHAPE = 64, (8, 1 << 14)
_GAIN_ROUNDS, _GAIN_SHAPE = 32, (1 << 14, 10)


def _draw_sort(rng, rounds: int, shape) -> float:
    acc = 0.0
    for _ in range(rounds):
        a = rng.standard_exponential(shape)
        a.sort(axis=1)
        acc += float(np.log1p(a).sum())
    return acc


def kernel_cpu_s() -> float:
    """CPU seconds this process takes to run the fixed kernel once."""
    c0 = time.process_time()
    rng = np.random.default_rng(11)
    _draw_sort(rng, _ROW_ROUNDS, _ROW_SHAPE)
    _draw_sort(rng, _GAIN_ROUNDS, _GAIN_SHAPE)
    return time.process_time() - c0
