"""Outside-in tracing of spectral_walk's public functions.

A traced pass swaps every public module-level function of every
``spectral_walk.*`` module for a timing wrapper, in each module that
binds it: ``dynamics.symmetrize`` (called by the provenance check) and
``cli.quantum_amplitude`` are replaced as well as the defining module's
own name.  A span's self time is its duration minus the time of the
spans it caused.  Counts of work are read from the call arguments at the
same boundaries, so the program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
import weakref

import numpy as np


class TraceError(RuntimeError):
    """The tracer could not wrap every public function."""


class _Stat:
    __slots__ = ("calls", "self_ns", "errors")

    def __init__(self):
        self.calls = self.self_ns = self.errors = 0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _nodes(measure) -> int:
    quad = 0 if measure.quad_points is None else len(measure.quad_points)
    return len(measure.points) + quad


def _layer_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Spans and counters over the public functions of one imported
    ``spectral_walk`` package; install before a traced pass, uninstall
    after it."""

    def __init__(self, package: types.ModuleType):
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{package.__name__}.{info.name}")
        prefix = package.__name__ + "."
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if m is not None and (name == package.__name__ or name.startswith(prefix))]
        originals = {}
        for mod in self.modules:
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__ and val.__name__ == attr):
                    originals[val] = _layer_name(val)
        self.layers = sorted({name.partition(".")[0] for name in originals.values()})
        self.stats = {name: _Stat() for name in originals.values()}
        hooks = {
            "spectral.eigendecompose": self._on_eigendecompose,
            "dynamics.classical_transition": self._on_classical,
            "dynamics.quantum_amplitude": self._on_quantum,
            "dynamics.series_csv": self._on_csv,
            "return_analysis.modified_measure": self._on_modified,
            "return_analysis.classify_return": self._on_classify,
            "return_analysis.return_probability_scan": self._on_scan,
            "bessel.bessel_j1": self._on_bessel,
        }
        self._stack: list[list[int]] = []
        self._wrappers = {fn: self._wrap(fn, self.stats[name], hooks.get(name))
                          for fn, name in originals.items()}
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.reset()

    # -- spans ---------------------------------------------------------
    def _wrap(self, fn, stat: _Stat, hook):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                stat.errors += 1
                raise
            finally:
                span = clock() - start
                stack.pop()
                stat.calls += 1
                stat.self_ns += span - frame[0]
                if stack:
                    stack[-1][0] += span
                else:
                    self.root_ns += span
                if hook is not None:
                    hook(args, kwargs, result)
        return traced

    def install(self) -> None:
        """Wrap every binding of every public function; raise TraceError
        if any module still holds an unwrapped original afterwards."""
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in self._wrappers:
                    setattr(mod, attr, self._wrappers[val])
                    self._patched.append((mod, attr, val))
        escaped = [f"{mod.__name__}.{attr}" for mod in self.modules
                   for attr, val in vars(mod).items()
                   if isinstance(val, types.FunctionType) and val in self._wrappers]
        if escaped:
            self.uninstall()
            raise TraceError(f"unwrapped public functions remain: {escaped}")

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- counters ------------------------------------------------------
    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = stat.self_ns = stat.errors = 0
        self.root_ns = 0
        self.counts = dict.fromkeys((
            "spectral.eigendecompose.sites", "spectral.table_mb_max",
            "dynamics.kernel_terms", "dynamics.series_csv.bytes",
            "return_analysis.classify_return.atoms",
            "return_analysis.return_probability_scan.samples",
            "bessel.bessel_j1.points"), 0)
        self._tables: dict[int, list] = {}
        self._rows_stored = self._rows_read = 0

    def _retire(self, key: int) -> None:
        rec = self._tables.pop(key, None)
        if rec is not None:
            self._rows_stored += rec[0]
            self._rows_read += len(rec[1])

    def _read_rows(self, measure, *rows) -> None:
        rec = self._tables.get(id(measure))
        if rec is not None:
            rec[1].update(rows)

    def _on_eigendecompose(self, args, kwargs, measure) -> None:
        n = _arg(args, kwargs, 0, "j_op").size
        self.counts["spectral.eigendecompose.sites"] += n
        self.counts["spectral.table_mb_max"] = max(self.counts["spectral.table_mb_max"],
                                                  n * n * 8 / 1e6)
        if measure is not None and measure.weighted_chi is not None:
            self._tables[id(measure)] = [measure.weighted_chi.shape[0], set()]
            weakref.finalize(measure, self._retire, id(measure))

    def _on_classical(self, args, kwargs, result) -> None:
        measure = _arg(args, kwargs, 0, "measure")
        self.counts["dynamics.kernel_terms"] += \
            np.size(_arg(args, kwargs, 4, "times")) * _nodes(measure)
        self._read_rows(measure, _arg(args, kwargs, 2, "i"), _arg(args, kwargs, 3, "j"))

    def _on_quantum(self, args, kwargs, result) -> None:
        measure = _arg(args, kwargs, 0, "measure")
        self.counts["dynamics.kernel_terms"] += \
            np.size(_arg(args, kwargs, 3, "times")) * _nodes(measure)
        self._read_rows(measure, _arg(args, kwargs, 1, "i"), _arg(args, kwargs, 2, "j"))

    def _on_csv(self, args, kwargs, text) -> None:
        if text is not None:
            self.counts["dynamics.series_csv.bytes"] += len(text)

    def _on_modified(self, args, kwargs, result) -> None:
        self._read_rows(_arg(args, kwargs, 0, "measure"), _arg(args, kwargs, 2, "i"))

    def _on_classify(self, args, kwargs, result) -> None:
        self.counts["return_analysis.classify_return.atoms"] += \
            len(_arg(args, kwargs, 0, "measure").points)

    def _on_scan(self, args, kwargs, result) -> None:
        self.counts["return_analysis.return_probability_scan.samples"] += \
            len(_arg(args, kwargs, 0, "series").times)

    def _on_bessel(self, args, kwargs, result) -> None:
        self.counts["bessel.bessel_j1.points"] += np.size(_arg(args, kwargs, 0, "t"))

    # -- report --------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-function calls, self time and errors, per-layer self
        time, and the work counters, for the pass since :meth:`reset`."""
        for key in list(self._tables):
            self._retire(key)
        out = dict(self.counts)
        layer_ns = dict.fromkeys(self.layers, 0)
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_ms"] = stat.self_ns / 1e6
            out[f"{name}.errors"] = stat.errors
            layer_ns[name.partition(".")[0]] += stat.self_ns
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_ms"] = ns / 1e6
        out["spectral.table_rows_used_frac"] = (
            self._rows_read / self._rows_stored if self._rows_stored else 0.0)
        transitions = out["dynamics.classical_transition.calls"]
        out["jacobi_core.symmetrize.per_transition"] = (
            out["jacobi_core.symmetrize.calls"] / transitions if transitions else 0.0)
        out["trace.root_ms"] = self.root_ns / 1e6
        return out
