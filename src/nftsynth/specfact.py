"""Truncated-sinc low-pass design and minimum-phase spectral factorization.

This is the radiation-shaping half of the synthesis pipeline: it
produces the length-D polynomials u(z) and b(z) with
|u(xi)|^2 + |b(xi)|^2 = 1 on the unit circle, where |b|^2 tracks the
scaled low-pass response delta^2 |psi|^2.
"""

from dataclasses import dataclass, field

import numpy as np

from .poly import circle_samples

OVERSAMPLE = 8          # factorization grid = OVERSAMPLE * degree
LOG_FLOOR = 1e-20       # keeps log(S) finite where the stopband dips to 0
NEWTON_PASSES = 2       # cheap polish of the cepstral factor


@dataclass
class FilterSpec:
    D: int
    delta: float
    omega_c: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta={self.delta} out of range (0, 1)")
        if self.omega_c <= 0:
            raise ValueError("omega_c must be positive")
        if self.D < 2 or self.D & (self.D - 1):
            raise ValueError(f"D={self.D} is not a power of two >= 2")


@dataclass
class FactorPair:
    u: np.ndarray
    b: np.ndarray
    residual: float = field(default=float("nan"))


def design_lowpass(D, omega_c=10.0):
    """Length-D truncated ideal low-pass, cut-off omega_c.

    psi[i] = c * sinc(c * (i - (D-1)/2)) with c = 2*omega_c/(D*pi) and
    the normalized sinc sin(pi x)/(pi x).  Real and symmetric.
    """
    c = 2.0 * omega_c / (D * np.pi)
    i = np.arange(D)
    return c * np.sinc(c * (i - (D - 1) / 2.0))


def _causal_project(spec_vals):
    """One-sided (causal) part of a spectrum, half-weighting DC/Nyquist.

    For a real even input this returns spec/2 + i*(Hilbert transform)/2,
    so exp() of the projection of log S is the minimum-phase root of S.
    """
    M = len(spec_vals)
    g = np.fft.ifft(spec_vals)
    h = np.zeros(M, dtype=complex)
    h[0] = g[0] / 2
    h[1 : M // 2] = g[1 : M // 2]
    h[M // 2] = g[M // 2] / 2
    return np.fft.fft(h)


def spectral_factor(power_samples, degree):
    """Minimum-phase m(z), length `degree`, with |m|^2 ~ power_samples.

    Cepstral construction (exp of the causal projection of log S) plus a
    couple of multiplicative corrections m <- m * (1 + P+[S/|m|^2 - 1])
    that pull the truncated coefficient vector back toward the grid
    values.  The grid must oversample the degree or the cepstrum aliases.
    """
    S = np.asarray(power_samples, dtype=float)
    M = len(S)
    if np.any(S < 0):
        raise ValueError("power spectrum has negative samples")
    if not np.any(S > 0):
        raise ValueError("power spectrum is identically zero")
    if M < OVERSAMPLE * degree:
        raise ValueError(f"grid {M} undersamples degree {degree} (need >= {OVERSAMPLE}x)")

    m = np.exp(_causal_project(np.log(S + LOG_FLOOR)))
    m = np.fft.fft(np.fft.ifft(m)[:degree], M)
    for _ in range(NEWTON_PASSES):
        E = S / np.abs(m) ** 2 - 1.0
        m = m * (1.0 + _causal_project(E))
        m = np.fft.fft(np.fft.ifft(m)[:degree], M)
    return np.fft.ifft(m)[:degree].copy()


def make_ub(spec: FilterSpec) -> FactorPair:
    """Factor the low-pass power response into the unit-circle pair (u, b).

    b is the minimum-phase factor of delta^2 |psi|^2.  u is then the
    minimum-phase factor of 1 - |b|^2 -- factoring against the *realized*
    b spectrum rather than the ideal one is what pushes the pair residual
    |u|^2 + |b|^2 - 1 down to rounding level even where the b
    factorization itself is limited by its stopband zeros.
    """
    psi = design_lowpass(spec.D, spec.omega_c)
    M = OVERSAMPLE * spec.D
    p2 = np.abs(circle_samples(psi, M)) ** 2

    # 1 - delta^2 |psi|^2 must stay positive.  The truncated sinc itself
    # overshoots |psi| = 1 (DC gain ~1.056, ripple peak ~1.10 for
    # omega_c = 10), so the meaningful precondition is on delta*|psi|.
    peak = int(np.argmax(p2))
    if spec.delta**2 * p2[peak] >= 1.0:
        raise ValueError(
            f"delta*|psi| >= 1 at omega ~ {_grid_omega(peak, M, spec.D):.3f}: "
            f"1 - delta^2 |psi|^2 is not positive"
        )

    b = spectral_factor(spec.delta**2 * p2, spec.D)
    Su = 1.0 - np.abs(circle_samples(b, M)) ** 2
    u = spectral_factor(Su, spec.D)
    return FactorPair(u=u, b=b, residual=pair_residual(u, b, 16 * spec.D))


def _grid_omega(m, M, D):
    """Map index m on the M-point circle grid to omega in the base strip."""
    ang = 2.0 * np.pi * m / M
    if ang > np.pi:
        ang -= 2.0 * np.pi
    return -ang * D / 2.0


def pair_residual(u, b, M):
    """max over the M-point circle grid of | |u|^2 + |b|^2 - 1 |."""
    su = np.abs(circle_samples(u, M)) ** 2
    sb = np.abs(circle_samples(b, M)) ** 2
    return float(np.max(np.abs(su + sb - 1.0)))
