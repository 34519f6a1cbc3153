"""In-memory span tracer wrapped around the package's public functions.

The spans are recorded from outside the package.  While a tracer is
installed, every module-level name in ``enkfcontrol`` and its submodules
that is bound to a traced function is rebound to a wrapper; the original
bindings are restored on exit.  Rebinding by identity catches both
``module.fn`` lookups and names imported with ``from .module import fn``.

A span is (trace id, name, start, end, parent).  Spans stay in memory until
``write`` dumps them.  ``Simulator.rhs`` is only counted: it runs several
times per RK4 step and a span per call would dominate the trace.
"""

from __future__ import annotations

import gzip
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function) pairs that get a span named "<module>.<function>".
SPANNED = (
    ("enkf", "step_linear"),
    ("dmdc", "collect_snapshots"),
    ("dmdc", "fit_dmdc"),
    ("dmdc", "to_continuous"),
    ("dmdc", "reduce_state"),
    ("pde", "rk4_step"),
    ("controller", "robust_control"),
    ("controller", "minimize_hamiltonian"),
    ("controller", "robust_term"),
    ("controller", "estimate_b"),
    ("harness", "simulate_closed_loop"),
    ("harness", "build_law"),
    ("bundles", "save_gain"),
    ("bundles", "load_gain"),
    ("bundles", "save_reduced_model"),
    ("bundles", "load_reduced_model"),
    ("results", "emit_results"),
    ("config", "render_config"),
)
RHS = "pde.rhs"
EMITTED_BYTES = "results.emit_results.bytes"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [trace_id, name, start, end, parent index]
        self.counts: Counter = Counter()  # (trace_id, phase, name) -> calls
        self.trace_id = 0
        self.phase = ""
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        self.counts[(self.trace_id, self.phase, name)] += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.trace_id, name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, trace_id: int, phase: str):
        """A span opened by the benchmark itself, e.g. around one CLI verb."""
        self.trace_id, self.phase = trace_id, phase
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _spanned(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "results.emit_results":
                self.counts[(self.trace_id, self.phase, EMITTED_BYTES)] += sum(
                    os.path.getsize(path) for path in result
                )
            return result

        return traced

    def _counted(self, fn):
        def counted(sim, *args, **kwargs):
            self.counts[(self.trace_id, self.phase, RHS)] += 1
            return fn(sim, *args, **kwargs)

        return counted

    @contextmanager
    def installed(self, package: str = "enkfcontrol"):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        patches = []  # (owner, attribute, original)
        try:
            for mod_name, fn_name in SPANNED:
                original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
                wrapper = self._spanned(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            pending = [sys.modules[f"{package}.pde"].Simulator]
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                if "rhs" in vars(cls):
                    patches.append((cls, "rhs", vars(cls)["rhs"]))
                    setattr(cls, "rhs", self._counted(vars(cls)["rhs"]))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def layer_stats(self, trace_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        child_s: dict[int, float] = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[0] == trace_id]
        for _, (_, _, start, end, parent) in mine:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, (_, name, start, end, _) in mine:
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[i]
        return stats

    def count(self, trace_id: int, name: str, phase: str | None = None) -> int:
        return sum(
            n for (tid, ph, nm), n in self.counts.items()
            if tid == trace_id and nm == name and (phase is None or ph == phase)
        )

    def write(self, path) -> None:
        """Dump every span as gzipped CSV, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("trace_id,span,parent,name,start_s,end_s\n")
            for i, (tid, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{tid},{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
