"""Large-D predictions: limiting filter shape, reflection, norming constants.

These are the closed-form targets the discrete pipeline is verified
against: the limiting filter magnitude |Psi(omega)| built from the sine
integral, the limiting reflection power delta^2 |Psi|^2 / (1 - delta^2
|Psi|^2), and the semi-asymptotic norming-constant predictions that use
the finite-D factors b, u at the bound-state points.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import sici

from .poly import poly_eval
from .specfact import FilterSpec, make_ub
from .synthesis import SpectrumSpec, lambda_to_z


@dataclass
class AsymptoticPrediction:
    reflection_magnitude: Callable[[np.ndarray], np.ndarray]  # omega -> |qhat|^2
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


def semi_asymptotic_norming(b, u, lambdas, k, eps):
    """Predicted norming constant for eigenvalue lambdas[k].

    -(b(z_k)/u(z_k)) * (lam_k - conj(lam_k))
        * prod_{i != k} -(lam_k - conj(lam_i)) / (lam_k - lam_i)

    where z_k = lambda_to_z(lam_k, eps).  The product couples the
    mirrored eigenvalues in the numerator and the plain differences in
    the denominator; tests check this beats the reciprocal arrangement.
    """
    lams = np.asarray(lambdas, dtype=complex)
    lk = lams[k]
    zk = lambda_to_z(lk, eps)
    pred = -(poly_eval(b, zk) / poly_eval(u, zk)) * (lk - np.conj(lk))
    for i, li in enumerate(lams):
        if i == k:
            continue
        if lk == li:
            raise ZeroDivisionError(f"coincident eigenvalues at indices {k}, {i}")
        pred *= -(lk - np.conj(li)) / (lk - li)
    return pred


def predict(spec: SpectrumSpec) -> AsymptoticPrediction:
    """Bundle both predictions for a synthesis target."""
    fp = make_ub(FilterSpec(spec.D, spec.delta, spec.omega_c))
    lams = np.asarray(spec.lambdas, dtype=complex)
    norming = np.array(
        [semi_asymptotic_norming(fp.b, fp.u, lams, k, spec.eps) for k in range(len(lams))],
        dtype=complex,
    )
    return AsymptoticPrediction(
        reflection_magnitude=lambda w: asymptotic_reflection(w, spec.delta, spec.omega_c),
        norming_predictions=norming,
    )
