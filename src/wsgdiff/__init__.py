"""Weighted-shift difference operators for two-sided fractional diffusion.

The package discretizes left- and right-sided fractional derivatives of
order between 1 and 2 with weighted combinations of shifted first-order
difference operators (second-order two-shift weights and third-order
three-shift weights), assembles the resulting Toeplitz-structured
operators, certifies their definiteness through generating functions, and
solves 1D and 2D diffusion problems with systems set up once per run
(dense LU, a Gohberg–Semencul Toeplitz inverse for constant 1D
coefficients, or the eigenbasis of symmetric 2D operators for a source
that is a time factor times a space function).  A
command-line front end regenerates the reference convergence tables; see
the README for usage.

Module map:

- :mod:`wsgdiff.errors`    — the two exception types, the count and real checks;
- :mod:`wsgdiff.weights`   — the scheme table ``SHIFTS``, every weight
  sequence as one weighted-shifted sum, sign/monotonicity properties;
- :mod:`wsgdiff.operators` — one Toeplitz layout for every scheme, stencil
  application, boundary columns;
- :mod:`wsgdiff.spectral`  — one generating-function formula, sign scans,
  negative-definiteness certification;
- :mod:`wsgdiff.problems`  — benchmark catalog, the 1D and 2D source record
  ``SeparableSource(time, space)``, norms, convergence rates;
- :mod:`wsgdiff.solve1d`   — steady third-order solve, the theta-weighted
  stepper, the one time loop ``march`` over a stepper's generator of blocks
  of levels, and the ``Solution`` record;
- :mod:`wsgdiff.solve2d`   — one block-stepper factory per splitting, set up
  once per run (one factored ADI scheme under three names, and LOD), and
  the elementwise eigenbasis steps of symmetric problems with a separable
  source;
- :mod:`wsgdiff.cli`       — the ``wsgdiff`` command.
"""

__version__ = "0.1.0"

from . import errors, weights, operators, spectral, problems, solve1d, solve2d
from .errors import *
from .weights import *
from .operators import *
from .spectral import *
from .problems import *
from .solve1d import *
from .solve2d import *

__all__ = [
    "__version__",
    *errors.__all__,
    *weights.__all__,
    *operators.__all__,
    *spectral.__all__,
    *problems.__all__,
    *solve1d.__all__,
    *solve2d.__all__,
]
