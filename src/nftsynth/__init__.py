"""Fast multi-soliton signal synthesis via discrete inverse scattering.

Pipeline: design a bandlimited radiation pair (u, b), attach bound
states as outside-circle roots, assemble the scattering polynomials
(a, b), and peel off the D time-domain samples in O(D log^2 D).  The
forward transform, root finding, and closed-form large-D predictions
verify the construction.
"""

from .asymptotics import (
    AsymptoticPrediction,
    asymptotic_reflection,
    filter_amplitude,
    predict,
    semi_asymptotic_norming,
    sine_integral,
)
from .forward import (
    NftSpectrum,
    compute_spectrum,
    continuous_oracle,
    dilate_spectrum,
    find_eigenvalues,
    forward_fast,
    forward_sequential,
    forward_step,
    norming_constants,
    reflection_coefficient,
    shift_spectrum,
)
from .inverse import (
    Signal,
    energy_identity_residual,
    invert_fast,
    invert_sequential,
    recover_sample,
)
from .poly import (
    circle_samples,
    coeffs_from_circle,
    poly_eval,
    poly_mul,
)
from .specfact import FactorPair, FilterSpec, design_lowpass, make_ub, spectral_factor
from .synthesis import (
    ScatteringPair,
    SpectrumSpec,
    blaschke_eval,
    lambda_to_z,
    pair_from_coeffs,
    synthesize_ab,
    validate_pair,
    z_to_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction",
    "FactorPair",
    "FilterSpec",
    "NftSpectrum",
    "ScatteringPair",
    "Signal",
    "SpectrumSpec",
    "asymptotic_reflection",
    "blaschke_eval",
    "circle_samples",
    "coeffs_from_circle",
    "compute_spectrum",
    "continuous_oracle",
    "design_lowpass",
    "dilate_spectrum",
    "energy_identity_residual",
    "filter_amplitude",
    "find_eigenvalues",
    "forward_fast",
    "forward_sequential",
    "forward_step",
    "invert_fast",
    "invert_sequential",
    "lambda_to_z",
    "make_ub",
    "norming_constants",
    "pair_from_coeffs",
    "poly_eval",
    "poly_mul",
    "predict",
    "recover_sample",
    "reflection_coefficient",
    "semi_asymptotic_norming",
    "shift_spectrum",
    "sine_integral",
    "spectral_factor",
    "synthesize_ab",
    "validate_pair",
    "z_to_lambda",
]
