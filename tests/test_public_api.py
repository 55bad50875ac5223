"""The package's public surface, as the benchmark's per-layer metrics
and the package namespace expose it."""

from __future__ import annotations

import importlib
import json
import types
from pathlib import Path

import spectral_walk

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions():
    # a metric <module>.<function>.<x> is read from the traced function of
    # that name; deleting or renaming it breaks the traced benchmark run
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = {tuple(name.split(".")[:2]) for name in names if name.count(".") == 2}
    assert functions
    for module_name, function_name in sorted(functions):
        module = importlib.import_module(f"spectral_walk.{module_name}")
        fn = getattr(module, function_name, None)
        assert isinstance(fn, types.FunctionType), f"{module_name}.{function_name}"
        assert not function_name.startswith("_")
        assert fn.__module__ == module.__name__, f"{module_name}.{function_name}"


def test_package_namespace_is_pinned():
    assert sorted(spectral_walk.__all__) == sorted([
        "SpectralWalkError", "DomainError", "UsageError", "NumericError",
        "ConfigurationError",
        "BirthDeathRates", "GeneratorMatrix", "JacobiOperator", "PiCoefficients",
        "symmetrize", "pi_coefficients", "generator",
        "SpectralMeasure", "eigendecompose", "chi_table",
        "ProbabilitySeries", "AmplitudeSeries", "classical_transition",
        "quantum_amplitude", "oracle_expm", "bessel_j1",
        "series_csv", "series_filename",
        "ReturnVerdict", "characteristic", "modified_measure", "detect_lattice",
        "classify_return", "return_probability_scan",
        "EllipticContext", "FamilyBuild",
        "meixner_chain", "stieltjes_carlitz_chain", "uniform_chain",
        "pst_demo_chain", "elliptic_context", "jacobi_cn_dn", "fitted_omega",
        "family_schemas", "build_from_spec",
    ])
    for name in spectral_walk.__all__:
        assert hasattr(spectral_walk, name), name
