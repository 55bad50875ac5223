"""Benchmark of spectral-walk: one workload per process, closed loop.

    python3 bench/run.py --workload {corpus,long-grid,big-chain} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  A single client runs one op at a time
against the package in ``src/``, with SPECTRAL_WALK_THREADS and the BLAS
thread count pinned to 1.  Set-up (package import, input construction
and a warm-up op per op kind) is repeated SETUP_REPEATS times from a
fresh import; numpy and scipy are imported before its clock starts.
Timed passes over the workload's fixed op list then run until
``--seconds`` is spent, with ``gc.collect()`` between passes.  Every
op's output from the last untraced pass is compared with an oracle
outside the timed region.

End-to-end metrics (``--trace 0``): every op's time is scaled by a
calibration kernel timed right before it (see hostspeed), which removes
the host's speed drift; ``wall_s`` is the median over passes of the
pass total, ``op_p50_ms`` and ``op_p90_ms`` are the median and 90th
percentile over ops of each op's median over passes, ``setup_s`` is the
median set-up, and ``peak_rss_mb`` is the process's ``ru_maxrss`` with
glibc's mmap threshold fixed.  The share of failed ops (``fail_frac``) is
printed with them and reported as ``failed`` out of ``attempted``; ops of
the stiff-chain family may fail without making ``correct`` false.  With
``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics of BENCHMARK.json.  The last line of standard
output is the JSON result; failures are logged on standard error with
their op and entry.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED_ENV = {"SPECTRAL_WALK_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
M_MMAP_THRESHOLD = -3   # mallopt parameter number in glibc's malloc.h
MMAP_THRESHOLD = 4 << 20
MIN_PASSES = 3        # untraced run
MIN_PAIRS = 1         # traced run: untraced + traced pass


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "long-grid", "big-chain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _read_first(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.readline().strip()
    except OSError:
        return None


def _host_counters() -> dict:
    """Steal ticks and 1-minute load average of the host, when readable."""
    cpu = _read_first("/proc/stat")
    load = _read_first("/proc/loadavg")
    fields = cpu.split() if cpu else []
    return {"steal_ticks": int(fields[8]) if len(fields) > 8 else None,
            "loadavg_1m": float(load.split()[0]) if load else None}


def _diagnostics(start: dict, end: dict) -> dict:
    import numpy
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    delta = {k: (end[k] - start[k] if None not in (start[k], end[k]) else None) for k in start}
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ[k] for k in PINNED_ENV},
        "steal_ticks_delta": delta["steal_ticks"],
        "loadavg_1m_start": start["loadavg_1m"],
        "loadavg_1m_delta": delta["loadavg_1m"],
    }


def _fix_mmap_threshold() -> bool:
    """Have glibc serve every allocation of MMAP_THRESHOLD bytes or more
    by mmap, returned to the system on free.  By default the threshold
    rises with the sizes freed, so peak RSS would depend on the order of
    earlier allocations rather than on the arrays alive at the peak."""
    name = ctypes.util.find_library("c")
    if name is None:
        return False
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1


def _forget_package() -> None:
    for name in [n for n in sys.modules if n == "spectral_walk" or n.startswith("spectral_walk.")]:
        del sys.modules[name]


def _set_up(build, seed: int, workdir: str, lapack: bool):
    """Import the package afresh, build the inputs and warm up with the
    smallest op of each kind.  Returns (seconds, calibration, package,
    ops), the calibration taken just before."""
    import hostspeed

    _forget_package()
    gc.collect()
    calibration = statistics.median(hostspeed.calibrate(lapack) for _ in range(3))
    start = time.perf_counter()
    sw = importlib.import_module("spectral_walk")
    ops = build(sw, seed, workdir)
    cheapest = {}
    for op in ops:
        if op.kind not in cheapest or op.size < cheapest[op.kind].size:
            cheapest[op.kind] = op
    for op in cheapest.values():
        op.run()
    return time.perf_counter() - start, calibration, sw, ops


def _run_pass(ops, lapack: bool):
    """One pass over the op list: per-op seconds, the calibration taken
    before each op, and the outputs (an exception an op raised is its
    output)."""
    import hostspeed

    gc.collect()
    times, calibrations, outputs = [], [], []
    for op in ops:
        calibrations.append(hostspeed.calibrate(lapack))
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # recorded and counted as a failed op
            out = exc
        times.append(time.perf_counter() - start)
        outputs.append(out)
    return times, calibrations, outputs


def _check(workload: str, ops, outputs) -> tuple[int, bool]:
    """Oracle-check every op.  Returns (failed ops, correct), where
    correct is False when an op outside the stiff-chain family failed."""
    failed, correct = 0, True
    for op, out in zip(ops, outputs):
        misses = op.misses(out)
        failed += bool(misses)
        correct &= op.stiff or not misses
        tag = "stiff-chain defect" if op.stiff else "UNEXPECTED"
        for miss in misses:
            print(f"FAIL [{workload}] {op.label}: {miss} ({tag})", file=sys.stderr)
    return failed, correct


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "spectral_walk" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'spectral_walk'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads BLAS
    mmap_fixed = _fix_mmap_threshold()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (outside the set-up clock)
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    import hostspeed
    import workloads
    from tracer import Tracer, TraceError

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    host_start = _host_counters()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        build = workloads.WORKLOADS[args.workload]
        lapack = args.workload in workloads.LAPACK_CALIBRATED
        reference = hostspeed.reference_s(lapack)
        setups, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            seconds, calibration, sw, ops = _set_up(build, args.seed, workdir, lapack)
            setups.append(seconds)
            setup_scaled.append(seconds * reference / calibration)
        if Path(sw.__file__).resolve().parent != SRC / "spectral_walk":
            print(f"error: imported spectral_walk from {sw.__file__}, not {SRC}", file=sys.stderr)
            return 2

        passes, traced_passes, traced, raw_walls = [], [], [], []
        tracer = Tracer(sw) if args.trace else None
        clock = time.perf_counter()
        while True:
            times, calibrations, outputs = _run_pass(ops, lapack)
            passes.append(hostspeed.normalize(times, calibrations, lapack))
            raw_walls.append(sum(times))
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    times, calibrations, _ = _run_pass(ops, lapack)
                finally:
                    tracer.uninstall()
                traced_passes.append(hostspeed.normalize(times, calibrations, lapack))
                snap = tracer.snapshot()
                scale = reference / statistics.median(calibrations)
                snap = {k: v * scale if k.endswith("_ms") else v for k, v in snap.items()}
                snap["trace.coverage"] = snap["trace.root_ms"] / (1e3 * sum(times) * scale)
                snap["cli.files_written"] = sum(
                    len(os.listdir(op.outdir)) for op in ops
                    if op.outdir and os.path.isdir(op.outdir))
                traced.append(snap)
            elapsed = time.perf_counter() - clock
            step = elapsed / len(passes)
            done = len(passes) >= (MIN_PAIRS if tracer else MIN_PASSES)
            if done and elapsed + step > args.seconds:
                break
        check_start = time.perf_counter()
        failed, correct = _check(args.workload, ops, outputs)
        check_s = time.perf_counter() - check_start
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_op = [statistics.median(col) for col in zip(*passes)]
    end_to_end = {
        "wall_s": statistics.median(sum(p) for p in passes),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p90_ms": 1e3 * statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    diagnostics = _diagnostics(host_start, _host_counters())
    diagnostics["raw_pass_walls_s"] = [round(w, 4) for w in raw_walls]
    diagnostics["raw_setups_s"] = [round(t, 4) for t in setups]
    diagnostics["check_s"] = round(check_s, 3)
    diagnostics["mmap_threshold_fixed"] = mmap_fixed
    print("# diagnostics " + json.dumps(diagnostics))
    print(f"# {args.workload}: seed {args.seed}, {len(ops)} ops, {len(passes)} untraced "
          f"passes, {len(traced)} traced passes, set-up x{SETUP_REPEATS}; times scaled "
          f"to a host where the calibration kernel takes {reference * 1e3:.2f} ms")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in end_to_end.items():
        print(f"#   {name:<12} {value:.6g} {units[name]}")
    print(f"#   {'fail_frac':<12} {failed / len(ops):.6g} 1  ({failed}/{len(ops)} ops)")

    if tracer is None:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        metrics = {}
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead":
                value = statistics.median(sum(p) for p in traced_passes) / end_to_end["wall_s"]
            elif unit == "ms" or name == "trace.coverage":
                value = statistics.median(s[name] for s in traced)
            else:
                value = traced[0][name]
                if any(s[name] != value for s in traced[1:]):
                    print(f"warning: {name} differs between traced passes", file=sys.stderr)
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
