"""Span tracing installed from outside the library.

``Tracer.install`` replaces functions at the names their callers look them
up under (``barrierwaves.cli.build_table``, ``barrierwaves.greens.wofz``,
...), fetching each module through ``sys.modules``: the package re-exports
some functions under their module's name (``barrierwaves.greens`` is the
*function* ``greens``), so attribute access on the package would patch the
wrong object.  ``uninstall`` puts every original back.

Each wrapper records a span -- name, start, end, parent span and request
id -- on a stack kept per thread, because ``field`` computes its rows in a
thread pool worker even with one thread.  A span's self time is its
duration minus the time of its child spans.  Per-name totals (calls,
errors and self time) and work counts are kept for every span;
individual span records are kept for all but the hottest leaves
(``summation.add``, ``operator.coeff_bound``), which would otherwise add
hundreds of thousands of records per request.

A wrap target that does not exist is recorded in ``missing`` and skipped,
so metrics that depend on it can be reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


class _Stat:
    __slots__ = ("calls", "errors", "self_time")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_time = 0.0


class _ThreadState:
    def __init__(self):
        self.stack = []                      # [span index or None, child time]
        self.stats = defaultdict(_Stat)
        self.counters = defaultdict(float)   # summed work counts
        self.maxima = {}
        self.spans = []                      # (request, name, start, end, parent)
        self.adds = 0                        # compensated adds so far


# -- hooks: (tracer, state, args, kwargs, result, adds_before) -> None --------

def _count_arg_points(name):
    def hook(tr, st, args, kwargs, result, mark):
        st.counters[name] += np.size(args[0])
    return hook


def _count_result_values(name):
    def hook(tr, st, args, kwargs, result, mark):
        st.counters[name] += np.size(result)
    return hook


def _count_reflected(tr, st, args, kwargs, result, mark):
    P, w = args[0], args[1]
    shape = np.broadcast(np.asarray(P), np.asarray(w)).shape
    grow = np.broadcast_to(np.asarray(w).real < 0.0, shape)
    st.counters["greens.erfcx_points"] += grow.size
    st.counters["greens.reflected_points"] += int(np.count_nonzero(grow))


def _record_sample(tr, st, args, kwargs, result, mark):
    st.counters["evolve.rho_max_sum"] += result.rho_max
    st.counters["evolve.samples"] += 1
    st.maxima["evolve.est_error"] = max(st.maxima.get("evolve.est_error", 0.0),
                                        result.est_error)


def _record_table(tr, st, args, kwargs, result, mark):
    st.counters["operator.table_order_sum"] += result.N
    st.counters["operator.tables"] += 1


def _record_apply(tr, st, args, kwargs, result, mark):
    table = args[0]
    if table.N == tr.n_cap:
        st.counters["summation.capped_applies"] += 1
        st.counters["summation.capped_apply_adds"] += st.adds - mark


def _count_add(tr, st, args, kwargs, result, mark):
    st.adds += 1


def _csv_bytes(tr, st, args, kwargs, result, mark):
    st.counters["cli.write_csv.bytes"] += os.path.getsize(args[2])


#: (module, attribute, span name, hook) for every wrapped function
TARGETS = [
    ("barrierwaves.greens", "wofz", "complexfn.wofz", _count_arg_points("complexfn.wofz.points")),
    ("barrierwaves.greens", "_stable_scaled_erfcx", "greens.stable_scaled_erfcx", _count_reflected),
    ("barrierwaves.evolve", "_kernel_grid", "greens.kernel_grid",
     _count_result_values("greens.kernel_grid.values")),
    ("barrierwaves.operator", "_kernel_grid", "greens.kernel_grid",
     _count_result_values("greens.kernel_grid.values")),
    ("barrierwaves.evolve", "eval_datum", "evolve.eval_datum",
     _count_result_values("evolve.eval_datum.points")),
    ("barrierwaves.cli", "psi_fresnel", "evolve.psi_fresnel", _record_sample),
    ("barrierwaves.cli", "truncation_order", "operator.truncation_order", None),
    ("barrierwaves.superosc", "truncation_order", "operator.truncation_order", None),
    ("barrierwaves.cli", "build_table", "operator.build_table", _record_table),
    ("barrierwaves.superosc", "build_table", "operator.build_table", _record_table),
    ("barrierwaves.operator", "_log_majorant_terms", "operator.log_majorant_terms", None),
    ("barrierwaves.operator", "coeff_bound", "operator.coeff_bound", None),
    ("barrierwaves.cli", "apply_plane_wave", "operator.apply_plane_wave", _record_apply),
    ("barrierwaves.superosc", "apply_plane_wave", "operator.apply_plane_wave", _record_apply),
    ("barrierwaves.cli", "apply_taylor", "operator.apply_taylor", None),
    ("barrierwaves.cli", "supershift_experiment", "superosc.supershift_experiment", None),
    ("barrierwaves.superosc", "a1_distance", "superosc.a1_distance", None),
    ("barrierwaves.cli", "parse_config", "cli.parse_config", None),
    ("barrierwaves.cli", "write_csv", "cli.write_csv", _csv_bytes),
]

#: classes whose ``add`` method is traced, by the names callers construct them under
SUM_TARGETS = [
    ("barrierwaves.operator", "CompensatedSum"),
    ("barrierwaves.superosc", "CompensatedSum"),
]

#: leaves too hot to keep one record per call; totals are still kept
AGGREGATE_ONLY = {"summation.add", "operator.coeff_bound"}


class Tracer:
    """Per-thread span stacks plus the patches that feed them."""

    def __init__(self, n_cap: int = 60):
        self.n_cap = n_cap
        self.request = None
        self.missing = []
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def wrap(self, name, fn, hook=None):
        tracer = self
        keep = name not in AGGREGATE_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1][0] if st.stack else None
            index = None
            if keep:
                index = len(st.spans)
                st.spans.append(None)
            frame = [index, 0.0]
            st.stack.append(frame)
            mark = st.adds
            stat = st.stats[name]
            failed = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                st.stack.pop()
                duration = end - start
                stat.calls += 1
                stat.errors += failed
                stat.self_time += duration - frame[1]
                if keep:
                    st.spans[index] = (tracer.request, name, start, end, parent)
                if st.stack:
                    st.stack[-1][1] += duration
            if hook is not None:
                # hook time is bookkeeping: hide it from the parent's self time
                h0 = perf_counter()
                hook(tracer, st, args, kwargs, result, mark)
                if st.stack:
                    st.stack[-1][1] += perf_counter() - h0
            return result

        return wrapper

    def _module(self, modname):
        try:
            return importlib.import_module(modname)
        except ImportError:
            return None

    def install(self) -> None:
        """Patch every target that exists; record the rest in ``missing``."""
        self.missing = []
        for modname, attr, name, hook in TARGETS:
            mod = self._module(modname)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._patches.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, hook))
        traced = {}
        for modname, attr in SUM_TARGETS:
            mod = self._module(modname)
            base = getattr(mod, attr, None) if mod is not None else None
            if base is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if base not in traced:
                traced[base] = type(f"Traced{base.__name__}", (base,), {
                    "__slots__": (),
                    "add": self.wrap("summation.add", base.add, _count_add),
                })
            self._patches.append((mod, attr, base))
            setattr(mod, attr, traced[base])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def totals(self):
        """Merge every thread's stats: ({name: _Stat}, counters, maxima)."""
        stats = defaultdict(_Stat)
        counters = defaultdict(float)
        maxima = {}
        for st in self._states:
            for name, s in st.stats.items():
                agg = stats[name]
                agg.calls += s.calls
                agg.errors += s.errors
                agg.self_time += s.self_time
            for key, v in st.counters.items():
                counters[key] += v
            for key, v in st.maxima.items():
                maxima[key] = max(maxima.get(key, v), v)
        return stats, counters, maxima

    def spans(self):
        """Every kept span as (thread, request, name, start, end, parent index)."""
        out = []
        for thread, st in enumerate(self._states):
            for span in st.spans:
                if span is not None:
                    out.append((thread, *span))
        return out
