"""Birth-death processes and continuous-time quantum walks, both driven
by the spectral measure of one symmetric tridiagonal operator.

The pipeline: rates -> symmetrize -> eigendecompose (or a closed-form
family measure) -> classical probabilities / quantum amplitudes ->
return classification.
"""

from .errors import (ConfigurationError, DomainError, NumericError,
                     SpectralWalkError, UsageError)
from .jacobi_core import (BirthDeathRates, GeneratorMatrix, JacobiOperator,
                          PiCoefficients, generator, pi_coefficients, symmetrize)
from .spectral import SpectralMeasure, eigendecompose
from .bessel import bessel_j1
from .dynamics import (AmplitudeSeries, ProbabilitySeries, classical_transition,
                       oracle_expm, quantum_amplitude, series_csv, series_filename)
from .return_analysis import (ReturnVerdict, characteristic, classify_return,
                              detect_lattice, modified_measure,
                              return_probability_scan)
from .elliptic import EllipticContext, elliptic_context, jacobi_cn_dn
from .chain_families import (FamilyBuild, build_from_spec, family_schemas,
                             fitted_omega, meixner_chain, pst_demo_chain,
                             stieltjes_carlitz_chain, uniform_chain)

__version__ = "0.1.0"

__all__ = [
    "SpectralWalkError", "DomainError", "UsageError", "NumericError",
    "ConfigurationError",
    "BirthDeathRates", "GeneratorMatrix", "JacobiOperator", "PiCoefficients",
    "symmetrize", "pi_coefficients", "generator",
    "SpectralMeasure", "eigendecompose",
    "ProbabilitySeries", "AmplitudeSeries", "classical_transition",
    "quantum_amplitude", "oracle_expm", "bessel_j1",
    "series_csv", "series_filename",
    "ReturnVerdict", "characteristic",
    "modified_measure", "detect_lattice", "classify_return",
    "return_probability_scan",
    "EllipticContext", "FamilyBuild",
    "meixner_chain", "stieltjes_carlitz_chain", "uniform_chain",
    "pst_demo_chain", "elliptic_context", "jacobi_cn_dn", "fitted_omega",
    "family_schemas", "build_from_spec",
]
