"""Fast multi-soliton signal synthesis via discrete inverse scattering.

Pipeline: design a bandlimited radiation pair (u, b), attach bound
states as outside-circle roots, assemble the scattering polynomials
(a, b), and peel off the D time-domain samples in O(D log^2 D).  The
forward transform, root finding, and closed-form large-D predictions
verify the construction.  Names not exported here stay importable from
their own modules.
"""

from .asymptotics import asymptotic_reflection, filter_amplitude, predict
from .forward import (
    find_eigenvalues,
    forward_fast,
    norming_constants,
    reflection_coefficient,
)
from .inverse import Signal, invert_fast
from .specfact import FilterSpec, make_ub
from .synthesis import ScatteringPair, SpectrumSpec, synthesize_ab, z_to_lambda
from .verify import validate_pair

__version__ = "0.1.0"

__all__ = [
    "FilterSpec",
    "ScatteringPair",
    "Signal",
    "SpectrumSpec",
    "asymptotic_reflection",
    "filter_amplitude",
    "find_eigenvalues",
    "forward_fast",
    "invert_fast",
    "make_ub",
    "norming_constants",
    "predict",
    "reflection_coefficient",
    "synthesize_ab",
    "validate_pair",
    "z_to_lambda",
]
