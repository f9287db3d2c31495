"""Weighted-shift difference operators for two-sided fractional diffusion.

The package discretizes left- and right-sided fractional derivatives of
order between 1 and 2 with weighted combinations of shifted first-order
difference operators (second-order two-shift weights and third-order
three-shift weights), assembles the resulting Toeplitz-structured
operators, certifies their definiteness through generating functions, and
solves 1D and 2D diffusion problems with systems set up once per run
(dense LU, or a Gohberg–Semencul Toeplitz inverse for constant 1D
coefficients).  A command-line front end regenerates the reference convergence
tables; see the README for usage.

Module map:

- :mod:`wsgdiff.weights`   — the scheme table ``SHIFTS``, every weight
  sequence as one weighted-shifted sum, sign/monotonicity properties;
- :mod:`wsgdiff.operators` — one Toeplitz layout for every scheme, stencil
  application, boundary columns, FFT matvec;
- :mod:`wsgdiff.spectral`  — one generating-function formula, sign scans,
  negative-definiteness certification;
- :mod:`wsgdiff.problems`  — benchmark catalog, norms, convergence rates;
- :mod:`wsgdiff.solve1d`   — steady third-order solve, the theta-weighted
  stepper, the one time loop ``march`` and the ``Solution`` record;
- :mod:`wsgdiff.solve2d`   — splitting stepper factories, each set up once
  per run (one factored ADI scheme under three names, and LOD);
- :mod:`wsgdiff.cli`       — the ``wsgdiff`` command.
"""

__version__ = "0.1.0"

from .errors import ParameterError, SolverError
from .weights import (
    GL,
    P1Q0,
    P1QM1,
    PQR,
    SCHEME_TAGS,
    PropertyCheck,
    PropertyReport,
    WeightSequence,
    grunwald_coefficients,
    shifted_pair_lambdas,
    shifted_pair_weights,
    verify_weight_properties,
    wsgd2_weights,
    wsgd3_lambdas,
    wsgd3_weights,
)
from .operators import (
    GridFunction1D,
    ToeplitzOperator,
    apply_left_wsgd,
    apply_right_wsgd,
    assemble_shifted_pair_matrix,
    assemble_wsgd_matrix,
    boundary_columns,
    operator_weights,
    toeplitz_matvec_fft,
)
from .spectral import (
    CertificationResult,
    GeneratingFunctionScan,
    certify_negative_definite,
    generating_function,
    rayleigh_bound_check,
    scan_sign,
)
from .problems import (
    ErrorRecord,
    ExampleId,
    Problem1D,
    Problem2D,
    attach_rates,
    convergence_rate,
    l2_norm,
    make_example,
    max_norm,
)
from .solve1d import (
    Solution,
    SolverConfig1D,
    assemble_cn_system,
    cn_wsgd_run,
    steady_solve_3wsgd,
)
from .solve2d import (
    SPLITTINGS,
    SolverConfig2D,
    build_directional_operators,
    lod_stepper,
    pr_adi_stepper,
    run_2d,
)

__all__ = [
    "__version__",
    "ParameterError",
    "SolverError",
    "GL",
    "P1Q0",
    "P1QM1",
    "PQR",
    "SCHEME_TAGS",
    "PropertyCheck",
    "PropertyReport",
    "WeightSequence",
    "grunwald_coefficients",
    "shifted_pair_lambdas",
    "shifted_pair_weights",
    "verify_weight_properties",
    "wsgd2_weights",
    "wsgd3_lambdas",
    "wsgd3_weights",
    "GridFunction1D",
    "ToeplitzOperator",
    "apply_left_wsgd",
    "apply_right_wsgd",
    "assemble_shifted_pair_matrix",
    "assemble_wsgd_matrix",
    "boundary_columns",
    "operator_weights",
    "toeplitz_matvec_fft",
    "CertificationResult",
    "GeneratingFunctionScan",
    "certify_negative_definite",
    "generating_function",
    "rayleigh_bound_check",
    "scan_sign",
    "ErrorRecord",
    "ExampleId",
    "Problem1D",
    "Problem2D",
    "attach_rates",
    "convergence_rate",
    "l2_norm",
    "make_example",
    "max_norm",
    "Solution",
    "SolverConfig1D",
    "assemble_cn_system",
    "cn_wsgd_run",
    "steady_solve_3wsgd",
    "SPLITTINGS",
    "SolverConfig2D",
    "build_directional_operators",
    "lod_stepper",
    "pr_adi_stepper",
    "run_2d",
]
