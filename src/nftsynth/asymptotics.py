"""Large-D predictions: limiting filter shape, reflection, norming constants.

These are the closed-form targets the discrete pipeline is verified
against: the limiting filter magnitude |Psi(omega)| built from the sine
integral, the limiting reflection power delta^2 |Psi|^2 / (1 - delta^2
|Psi|^2), and the semi-asymptotic norming-constant predictions that use
the finite-D factors b, u at the bound-state points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .poly import poly_eval
from .specfact import make_ub
from .synthesis import SpectrumSpec, lambda_to_z

SERIES_MAX = 4.0        # Si by its power series for |s| up to here
LAGUERRE_SPLIT = 30.0   # 48-point quadrature of f, g up to here, 8-point beyond
SI_FLAT = 1e150         # Si = +-pi/2 in double precision beyond (and s^2 stays finite)
SI_BLOCK = 4096         # points per pass, so the temporaries stay in cache

# Si(x) = sum_n (-1)^n x^(2n+1) / ((2n+1) (2n+1)!), to 1e-17 at x = 4
_SERIES_POWERS = 2.0 * np.arange(16) + 1.0
_SERIES = np.array([(-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(16)])


@dataclass
class AsymptoticPrediction:
    norming_predictions: np.ndarray


def _laguerre_rule(n):
    """(nodes^2, [weights; weights * nodes]) of the n-point Gauss-Laguerre rule.

    By Golub-Welsch, from the eigenvectors of the Jacobi matrix: the weights
    have absolute error ~1e-16, where numpy's laggauss weights are off by
    up to 1e-12 relative, which puts Si off by 6e-15 near SERIES_MAX.
    """
    k = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(k, -1))
    weights = vectors[0] ** 2
    return nodes * nodes, np.stack([weights, weights * nodes])


# (lo, hi, rule for lo < x <= hi)
_LAGUERRE = ((SERIES_MAX, LAGUERRE_SPLIT, _laguerre_rule(48)),
             (LAGUERRE_SPLIT, SI_FLAT, _laguerre_rule(8)))


def _si_nonnegative(x):
    """Si at the points of a 1-D x >= 0; nan gives nan, and beyond SI_FLAT
    (inf too) the limit pi/2 stands.

    Beyond SERIES_MAX, Si = pi/2 - f cos x - g sin x with the auxiliary
    functions f(x) = int_0^inf x e^-s / (x^2 + s^2) ds and
    g(x) = int_0^inf s e^-s / (x^2 + s^2) ds, whose integrands are smooth
    against the Laguerre weight e^-s, so Gauss-Laguerre quadrature converges
    fast, and the faster the larger x.
    """
    si = np.full_like(x, np.pi / 2)
    near = ~(x > SERIES_MAX)  # nan too, which the series keeps
    t = x[near]
    si[near] = np.power.outer(t, _SERIES_POWERS) @ _SERIES
    for lo, hi, (nodes2, weights) in _LAGUERRE:
        sel = (x > lo) & (x <= hi)
        if sel.any():
            t = x[sel]
            r = nodes2[:, None] + t * t  # points along the fast axis
            f, g = weights @ np.reciprocal(r, out=r)
            f *= t
            # cos and sin from h = tan(t/2): numpy's x86-64 builds vectorize
            # float64 tan but not cos and sin (3 against 33 ns a point, AVX-512)
            h = np.tan(0.5 * t)
            hh = h * h
            si[sel] -= (f * (1.0 - hh) + 2.0 * h * g) / (1.0 + hh)
    return si


def sine_integral(s):
    """Si(s) = integral of sin(t)/t from 0 to s (odd, -> +-pi/2).

    A scalar gives a float, an array an array of its shape.  Up to |s| =
    SERIES_MAX the power series; beyond, Si = pi/2 - f cos - g sin with the
    auxiliary functions f, g from Gauss-Laguerre quadrature; from SI_FLAT on
    +-pi/2.  Within 3e-15 of mpmath's Si.
    """
    s = np.asarray(s, dtype=float)
    x = np.abs(s).ravel()
    si = np.empty_like(x)
    for i in range(0, x.size, SI_BLOCK):
        si[i:i + SI_BLOCK] = _si_nonnegative(x[i:i + SI_BLOCK])
    out = np.copysign(si.reshape(s.shape), s)
    return float(out) if out.ndim == 0 else out


def filter_amplitude(omega, omega_c):
    """Limiting filter magnitude |Psi(omega)| = |Si(omega+omega_c) - Si(omega-omega_c)|/pi."""
    upper, lower = sine_integral(np.add.outer([omega_c, -omega_c], omega))
    return np.abs(upper - lower) / np.pi


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
    fp = make_ub(spec.filter)
    return AsymptoticPrediction(semi_asymptotic_norming(fp.b, fp.u, spec.lambdas, spec.eps))
