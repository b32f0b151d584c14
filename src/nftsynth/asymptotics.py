"""Large-D predictions: limiting filter shape, reflection, norming constants.

These are the closed-form targets the discrete pipeline is verified
against: the limiting filter magnitude |Psi(omega)| built from the sine
integral, the limiting reflection power delta^2 |Psi|^2 / (1 - delta^2
|Psi|^2), and the semi-asymptotic norming-constant predictions that use
the finite-D factors b, u at the bound-state points.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .poly import poly_eval
from .specfact import FilterSpec, make_ub
from .synthesis import SpectrumSpec, lambda_to_z


@dataclass
class AsymptoticPrediction:
    norming_predictions: np.ndarray


def sine_integral(s):
    """Si(s) = integral of sin(t)/t from 0 to s (odd, -> +-pi/2)."""
    return sici(s)[0]


def filter_amplitude(omega, omega_c):
    """Limiting filter magnitude |Psi(omega)| = |Si(omega+omega_c) - Si(omega-omega_c)|/pi."""
    return np.abs(sine_integral(omega + omega_c) - sine_integral(omega - omega_c)) / np.pi


def asymptotic_reflection(omega, delta, omega_c):
    """Limiting reflection power delta^2 |Psi|^2 / (1 - delta^2 |Psi|^2)."""
    p = (delta * filter_amplitude(omega, omega_c)) ** 2
    if np.any(p >= 1.0):
        raise ValueError("delta^2 |Psi|^2 >= 1: prediction leaves its domain")
    return p / (1.0 - p)


def semi_asymptotic_norming(b, u, lambdas, eps):
    """Predicted norming constants for all the eigenvalues lambdas.

    -(b(z_k)/u(z_k)) * (lam_k - conj(lam_k))
        * prod_{i != k} -(lam_k - conj(lam_i)) / (lam_k - lam_i)

    where z_k = lambda_to_z(lam_k, eps).  The product couples the
    mirrored eigenvalues in the numerator and the plain differences in
    the denominator; tests check this beats the reciprocal arrangement.
    """
    lams = np.asarray(lambdas, dtype=complex)
    bv, uv = poly_eval(np.stack([b, u]), [lambda_to_z(l, eps) for l in lams])
    diff = lams[:, None] - lams
    np.fill_diagonal(diff, -1.0)  # so the pairwise factor i = k is lam_k - conj(lam_k)
    if np.any(diff == 0):
        k, i = np.argwhere(diff == 0)[0]
        raise ZeroDivisionError(f"coincident eigenvalues at indices {k}, {i}")
    return -(bv / uv) * np.prod(-(lams[:, None] - np.conj(lams)) / diff, axis=1)


def predict(spec: SpectrumSpec) -> AsymptoticPrediction:
    """Norming-constant predictions for a synthesis target's eigenvalues."""
    fp = make_ub(FilterSpec(spec.D, spec.delta, spec.omega_c))
    return AsymptoticPrediction(semi_asymptotic_norming(fp.b, fp.u, spec.lambdas, spec.eps))
