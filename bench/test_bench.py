"""Tests of the benchmark itself: python3 -m pytest bench -q

The full traced runs take a few minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# counters that depend only on the inputs, never on the clock
DETERMINISTIC_SUFFIXES = (".calls", ".sites", ".atoms", ".points", ".samples", ".bytes",
                          ".errors")
DETERMINISTIC_NAMES = ("dynamics.kernel_terms", "cli.files_written", "spectral.table_mb_max",
                       "spectral.table_rows_used_frac", "jacobi_core.symmetrize.per_transition")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counters_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = _result(_bench(*args)), _result(_bench(*args))
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    deterministic = [name for name in first["metrics"]
                     if name.endswith(DETERMINISTIC_SUFFIXES) or name in DETERMINISTIC_NAMES]
    assert set(DETERMINISTIC_NAMES) <= set(deterministic)
    for name in deterministic:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_untraced_run_prints_end_to_end_metrics():
    result = _result(_bench("--workload", "corpus", "--seed", "3", "--seconds", "1"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    # the graded chains keep the stiff-chain defect visible
    assert result["correct"] and result["failed"] > 0


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import spectral_walk as sw
    import spectral_walk.cli
    import spectral_walk.dynamics
    from tracer import Tracer

    original = spectral_walk.dynamics.symmetrize
    tracer = Tracer(sw)
    tracer.install()
    try:
        assert spectral_walk.dynamics.symmetrize is not original
        assert spectral_walk.dynamics.symmetrize.__wrapped__ is original
        assert spectral_walk.cli.quantum_amplitude.__wrapped__ is sw.dynamics.quantum_amplitude.__wrapped__
        _, measure = sw.uniform_chain(n=7)
        sw.quantum_amplitude(measure, 0, 3, [0.0, 1.0])
    finally:
        tracer.uninstall()
    assert spectral_walk.dynamics.symmetrize is original
    snap = tracer.snapshot()
    assert snap["spectral.eigendecompose.calls"] == 1
    assert snap["dynamics.quantum_amplitude.calls"] == 1
    assert snap["dynamics.kernel_terms"] == 2 * 8
    assert snap["spectral.table_rows_used_frac"] == 2 / 8
    assert snap["trace.root_ms"] == pytest.approx(
        sum(v for k, v in snap.items() if k.count(".") == 2 and k.endswith(".self_ms")))
