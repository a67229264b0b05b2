"""Out-of-library call tracer for the benchmark's traced mode.

``Tracer.install`` wraps every public function of the library's layer
modules at every name it is looked up under: the defining module and each
``from .x import`` binding in the package (``nomafbl.eccalc.tricomi_u``,
``nomafbl.sweep.evaluate``, ...).  ``scipy.integrate.quad`` as seen from
``nomafbl.eccalc`` is wrapped too, to count quadratures and their integrand
evaluations.  ``uninstall`` puts every original back.

Each call records one span: name, start, end and parent (the span open
when it started), kept in flat in-memory arrays.  A span's self time is its
duration minus its children's, so self times sum exactly to the duration
of the root spans.  Counts that a span cannot show (array elements, quad
evaluations, samples, bytes) are added up by per-function hooks.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "channel", "fblrate", "eccalc", "delay", "queuesim",
          "sweep")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_elements(counters, name, args, kwargs, out):
    counters[f"{name}.elements"] += int(np.size(args[0]))


def _count_quad(counters, name, args, kwargs, out):
    if len(out) > 2 and isinstance(out[2], dict):
        counters[f"{name}.neval"] += out[2]["neval"]


def _count_mc(counters, name, args, kwargs, out):
    counters["eccalc.mc.samples"] += _arg(args, kwargs, 2, "ctl").mc_samples


def _count_weak(counters, name, args, kwargs, out):
    # the closed form flags a fallback only through its note
    if not out.converged and "quadrature" in out.note:
        counters["eccalc.weak_fallbacks"] += 1
    if out.series_terms is not None:
        counters["eccalc.weak_series_terms"] += out.series_terms
        counters["eccalc.weak_series_results"] += 1


def _count_bytes(counters, name, args, kwargs, out):
    counters[f"{name}.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "fblrate.ec_kernel": _count_elements,
    "fblrate.fbl_rate": _count_elements,
    "eccalc.quad": _count_quad,
    "eccalc.ec_monte_carlo": _count_mc,
    "eccalc.ec_closed_weak": _count_weak,
    "sweep.write_rows": _count_bytes,
}


class _ModuleProxy:
    """Stand-in for a module object with some attributes overridden."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        stack, counters, hook = self._stack, self.counters, HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_start[idx] = t0
                s_end[idx] = t1
            if hook is not None:
                hook(counters, name, args, kwargs, out)
            return out

        return traced

    def install(self, package: str = "nomafbl") -> None:
        """Wrap the public functions of every layer module of `package`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        eccalc = sys.modules[f"{package}.eccalc"]
        integrate = eccalc.integrate
        self._patch(eccalc, "integrate", _ModuleProxy(
            integrate, quad=self._wrap(integrate.quad, "eccalc.quad")))

    def _patch(self, mod, attr, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    # -- results -----------------------------------------------------------

    def clear(self) -> None:
        """Drop recorded spans and counts (the wrappers stay valid)."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot clear while spans are open")
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end):
            del arr[:]
        self.counters.clear()

    def spans(self) -> dict:
        """The recorded spans as numpy arrays, with self time per span."""
        name = np.frombuffer(self.span_name, dtype=np.int_).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int_).copy()
        start = np.frombuffer(self.span_start, dtype=float).copy()
        end = np.frombuffer(self.span_end, dtype=float).copy()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.size)
        return dict(name=name, parent=parent, start=start, end=end, dur=dur,
                    self=dur - covered)

    def summary(self, sp: dict) -> dict:
        """Per span name in `spans()`: calls, inclusive and self seconds."""
        out = {}
        for nid, name in enumerate(self.names):
            mask = sp["name"] == nid
            calls = int(mask.sum())
            out[name] = dict(calls=calls, s=float(sp["dur"][mask].sum()),
                             self_s=float(sp["self"][mask].sum()),
                             durations=sp["dur"][mask])
        roots = sp["parent"] < 0
        out["<roots>"] = dict(calls=int(roots.sum()),
                              s=float(sp["dur"][roots].sum()),
                              self_s=float(sp["self"].sum()),
                              durations=sp["dur"][roots])
        return out

    def dump_jsonl(self, path: str, sp: dict, origin: float) -> None:
        """Write spans from `spans()` as JSON lines, times from `origin`."""
        with open(path, "w") as fh:
            for i in range(sp["name"].size):
                fh.write(json.dumps({
                    "id": i, "name": self.names[sp["name"][i]],
                    "parent": int(sp["parent"][i]),
                    "start": sp["start"][i] - origin,
                    "end": sp["end"][i] - origin,
                    "self": sp["self"][i]}) + "\n")

