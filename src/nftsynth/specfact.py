"""Truncated-sinc low-pass design and minimum-phase spectral factorization.

This is the radiation-shaping half of the synthesis pipeline: it
produces the length-D polynomials u(z) and b(z) with
|u(xi)|^2 + |b(xi)|^2 = 1 on the unit circle, where |b|^2 tracks the
scaled low-pass response delta^2 |psi|^2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly import grid_omega

OVERSAMPLE = 8              # factorization grid = OVERSAMPLE * degree
LOG_FLOOR = 1e-20           # keeps log(S) finite where the stopband dips to 0
FLOOR_MARGIN = 1e4          # make_ub refuses max delta^2 |psi|^2 < FLOOR_MARGIN * LOG_FLOOR (scan)
NEWTON_PASSES = 2           # cheap polish of the cepstral factor
PAIR_RESIDUAL_LIMIT = 1e-7  # make_ub refuses a pair further than this from |u|^2 + |b|^2 = 1


@dataclass(frozen=True)
class FilterSpec:
    D: int
    delta: float
    omega_c: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta={self.delta} out of range (0, 1)")
        if not 0.0 < self.omega_c < np.inf:
            raise ValueError(f"omega_c={self.omega_c} must be positive and finite")
        if not isinstance(self.D, (int, np.integer)) or self.D < 2 or self.D & (self.D - 1):
            raise ValueError(f"D={self.D} is not an integer power of two >= 2")


@dataclass(frozen=True)
class FactorPair:
    u: np.ndarray
    b: np.ndarray


def design_lowpass(D, omega_c=10.0):
    """Length-D truncated ideal low-pass, cut-off omega_c.

    psi[i] = c * sinc(c * (i - (D-1)/2)) with c = 2*omega_c/(D*pi) and
    the normalized sinc sin(pi x)/(pi x).  Real and symmetric.
    """
    c = 2.0 * omega_c / (D * np.pi)
    i = np.arange(D)
    return c * np.sinc(c * (i - (D - 1) / 2.0))


def _causal_project(half, M):
    """One-sided (causal) part of an even spectrum, half-weighting DC/Nyquist.

    `half` holds samples 0..M//2 of a real even spectrum on the M-point
    grid, whose cepstrum is then real and even.  Returns the same half of
    spec/2 + i*(Hilbert transform)/2; the full spectrum is Hermitian, so
    exp() of the projection of log S is the real minimum-phase root of S.
    """
    g = np.fft.irfft(half, M)
    g[0] /= 2
    g[M // 2] /= 2
    return np.fft.rfft(g[: M // 2 + 1], M)


def spectral_factor(half, degree):
    """Real minimum-phase m(z), length `degree`, with |m|^2 ~ S: returns
    (coefficients, power), power = np.abs(np.fft.rfft(coefficients, M))**2.

    `half` holds an even S on samples 0..M/2 of the M-point circle grid,
    M = 2 (len(half) - 1), as np.abs(np.fft.rfft(x, M))**2 gives it.
    Cepstral construction (exp of the causal projection of log S) plus
    corrections m <- m * (1 + P+[S/|m|^2 - 1]) that pull the truncated
    coefficients back toward the grid values, until the misfit
    max|S/|m|^2 - 1| is at the rounding of a length-M transform, log2(M)
    ulps, where a correction could only round, or the passes run out; the
    power is the |m|^2 of that last misfit.  make_ub
    establishes S >= 0, not zero to rounding (LOG_FLOOR stands in for its
    zeros), and M >= OVERSAMPLE * degree, without which the cepstrum aliases.
    """
    M = 2 * (len(half) - 1)
    m = np.exp(_causal_project(np.log(half + LOG_FLOOR), M))
    c = np.fft.irfft(m, M)[:degree]
    for n in range(NEWTON_PASSES + 1):
        m = np.fft.rfft(c, M)
        E = half / np.abs(m) ** 2 - 1.0
        if n == NEWTON_PASSES or np.abs(E).max() <= np.log2(M) * np.finfo(float).eps:
            return c.copy(), np.abs(m) ** 2
        c = np.fft.irfft(m * (1.0 + _causal_project(E, M)), M)[:degree]


@lru_cache(maxsize=1)
def make_ub(spec: FilterSpec) -> FactorPair:
    """Factor the low-pass power response into the unit-circle pair (u, b).

    b is the minimum-phase factor of delta^2 |psi|^2.  u is then the
    minimum-phase factor of 1 - |b|^2 -- factoring against the *realized*
    b spectrum rather than the ideal one is what pushes the pair residual
    |u|^2 + |b|^2 - 1 down to rounding level even where the b
    factorization itself is limited by its stopband zeros.  A contrast
    that saturates, or comes so close that no such pair is found, is
    refused with a ValueError naming the omega where it happens; one so
    small that LOG_FLOOR would set b is refused naming delta, unless the
    filter itself is zero to rounding, which is refused naming omega_c and D.
    Both power responses are rfft half spectra on the OVERSAMPLE * D grid.

    The pair depends on the filter alone, never on the eigenvalues, so
    the last filter's pair is kept: a transmitter that varies only the
    eigenvalues, and predict() after synthesize_ab(), factor nothing.
    The cached u and b are read-only.  A refusal is not cached.
    """
    psi = design_lowpass(spec.D, spec.omega_c)
    M = OVERSAMPLE * spec.D
    Spsi = np.abs(np.fft.rfft(psi, M)) ** 2
    # omega_c = m pi D puts every tap of psi on a zero of the sinc: delta is not at fault
    if Spsi.max() < FLOOR_MARGIN * LOG_FLOOR:
        raise ValueError(
            f"the filter is zero to rounding at omega_c={spec.omega_c:.6g}, D={spec.D}: "
            f"max |psi|^2 = {Spsi.max():.1e} < {FLOOR_MARGIN * LOG_FLOOR:.0e}")
    Sb = spec.delta**2 * Spsi
    peak = int(np.argmax(Sb))
    # Below this the floor, not delta, sets b: at D=512, omega_c=10 the peak
    # of |b| is 2% above delta*|psi| at delta=1e-9 and 23x at 1e-12.
    if Sb[peak] < FLOOR_MARGIN * LOG_FLOOR:
        raise ValueError(
            f"delta={spec.delta:.3g} is too small: max delta^2 |psi|^2 = {Sb[peak]:.1e} < "
            f"{FLOOR_MARGIN * LOG_FLOOR:.0e}, where LOG_FLOOR rather than delta would set b"
        )

    # 1 - delta^2 |psi|^2 must stay positive.  The truncated sinc itself
    # overshoots |psi| = 1 (DC gain ~1.056, ripple peak ~1.10 for
    # omega_c = 10), so the meaningful precondition is on delta*|psi|.
    if Sb[peak] >= 1.0:
        raise ValueError(
            f"delta*|psi| >= 1 at omega ~ {grid_omega(peak, M, spec.D):.3f}: "
            f"1 - delta^2 |psi|^2 is not positive"
        )

    # Near that bound, the degree-D factors can still miss: b may overshoot
    # |b| = 1, or u may not follow a 1 - |b|^2 that nearly vanishes, and
    # there is no unit-circle pair.  The factors' own spectra tell: the
    # residual |u|^2 + |b|^2 - 1 is a real trigonometric polynomial of
    # degree D - 1, so its maximum on the circle is at most its M-point
    # grid maximum over cos(pi (D-1) / M), tight for a tone between samples.
    b, power_b = spectral_factor(Sb, spec.D)
    Su = 1.0 - power_b
    low = int(np.argmin(Su))
    if Su[low] <= 0.0:
        raise ValueError(f"|b| >= 1 at omega ~ {grid_omega(low, M, spec.D):.3f}: "
                         "the factor of delta^2 |psi|^2 overshoots")
    u, power_u = spectral_factor(Su, spec.D)
    residual = np.abs(power_u - Su).max() / np.cos(np.pi * (spec.D - 1) / M)
    if residual > PAIR_RESIDUAL_LIMIT:
        raise ValueError(
            f"pair residual {residual:.1e} > {PAIR_RESIDUAL_LIMIT}: 1 - |b|^2 dips to "
            f"{Su[low]:.1e} at omega ~ {grid_omega(low, M, spec.D):.3f}, too close to 0 "
            f"for the degree-{spec.D} factor u"
        )
    u.flags.writeable = False
    b.flags.writeable = False
    return FactorPair(u=u, b=b)

