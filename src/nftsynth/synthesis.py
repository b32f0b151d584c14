"""Scattering-pair synthesis: prescribed eigenvalues -> valid (a, b).

The spectral parameter lambda lives in a horizontal strip of the upper
half-plane; z = exp(-2*i*lambda*eps) maps eigenvalues to points outside
the unit circle.  a(z) is built as (minimum-phase radiation factor u)
times (Blaschke product with the prescribed roots), sampled on an
oversampled circle grid and truncated back to D coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .poly import circle_samples, coeffs_from_circle
from .specfact import FilterSpec, make_ub, pair_residual

SYNTH_GRID_FACTOR = 4        # a_ideal sampled on a 4D-point circle grid
TAIL_ENERGY_LIMIT = 1e-4     # reject truncations worse than this
PAIR_TOL = 1e-6              # validate_pair: a0 real to this, unimodular to this
ROOT_INNER = 1.0 + 1e-6      # annulus for genuine eigenvalue roots
ROOT_OUTER = float(np.exp(np.pi))


@dataclass
class SpectrumSpec:
    lambdas: list
    delta: float
    D: int
    omega_c: float = 10.0

    def __post_init__(self):
        self.lambdas = [complex(l) for l in self.lambdas]
        FilterSpec(self.D, self.delta, self.omega_c)  # reuse validation
        eps = 1.0 / self.D
        strip = np.pi / (2 * eps)
        lo, hi = np.log([ROOT_INNER, ROOT_OUTER]) / (2 * eps)  # as |z| = exp(2 eps Im lambda)
        for l in self.lambdas:
            if not np.isfinite(l):
                raise ValueError(f"eigenvalue {l} is not finite")
            if abs(l.real) > strip:
                raise ValueError(f"Re({l}) outside the strip [-{strip}, {strip}]")
            if not lo < l.imag < hi:
                raise ValueError(
                    f"eigenvalue {l} maps outside {ROOT_INNER:.7g} < |z| < {ROOT_OUTER:.7g}, the "
                    f"annulus where find_eigenvalues certifies bound states: at D={self.D}, "
                    f"Im lambda must lie in ({lo:.3g}, {hi:.4g})")
        if len(set(self.lambdas)) != len(self.lambdas):
            raise ValueError("eigenvalues must be pairwise distinct")

    @property
    def eps(self):
        return 1.0 / self.D


@dataclass
class ScatteringPair:
    a: np.ndarray
    b: np.ndarray
    truncation_tail_energy: float = 0.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex)

    @property
    def D(self):
        return len(self.a)

    @property
    def unimodularity_residual(self):
        """max | |a|^2 + |b|^2 - 1 | on the unit circle, from a and b as they are."""
        return pair_residual(self.a, self.b)


def lambda_to_z(lam, eps):
    """z = exp(-2*i*lambda*eps); upper half-plane -> outside unit circle."""
    lam = complex(lam)
    strip = np.pi / (2 * eps)
    if abs(lam.real) > strip * (1 + 1e-12):
        raise ValueError(f"Re(lambda)={lam.real} outside [-{strip}, {strip}]")
    return complex(np.exp(-2j * lam * eps))


def z_to_lambda(z, eps):
    """Principal-branch inverse of lambda_to_z."""
    z = complex(z)
    if z == 0:
        raise ValueError("z = 0 has no preimage")
    return complex(np.log(z) / (-2j * eps))


def blaschke_eval(z, roots):
    """Product of (z - z_k)/(1 - z * conj(z_k)); unit modulus on |z| = 1."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for zk in roots:
        zk = complex(zk)
        denom = 1.0 - z * np.conj(zk)
        if np.any(np.abs(denom) < 1e-300):
            raise ZeroDivisionError(f"evaluation at a pole 1/conj({zk})")
        out = out * (z - zk) / denom
    return out if out.ndim else complex(out)


def synthesize_ab(spec: SpectrumSpec) -> ScatteringPair:
    """Build the scattering pair for a SpectrumSpec.

    Pipeline: design the low-pass, factor into (u, b), sample
    a_ideal = u * (Blaschke with roots z(lambda_k)) on a 4D-point circle
    grid, truncate to D coefficients, and rotate the global phase so the
    constant coefficient of a is real positive.  The rotation applies to
    both a and b: they are components of one scattering solution, and
    rotating only a would silently conjugate the bound-state norming
    constants whenever the Blaschke factor is negative at infinity.
    """
    pair_ub = make_ub(FilterSpec(spec.D, spec.delta, spec.omega_c))
    eps = spec.eps
    zk = [lambda_to_z(l, eps) for l in spec.lambdas]

    M = SYNTH_GRID_FACTOR * spec.D
    grid = np.exp(2j * np.pi * np.arange(M) / M)
    a_ideal = circle_samples(pair_ub.u, M) * blaschke_eval(grid, zk)
    p, tail = coeffs_from_circle(a_ideal, spec.D)
    if not tail <= TAIL_ENERGY_LIMIT:
        raise ValueError(
            f"truncation tail energy {tail:.2e} > {TAIL_ENERGY_LIMIT}: "
            f"D={spec.D} too small for the prescribed spectrum"
        )

    phase = np.exp(-1j * np.angle(p[0]))
    a = phase * p
    b = phase * pair_ub.b
    return ScatteringPair(a=a, b=b, truncation_tail_energy=tail)


def validate_pair(pair: ScatteringPair):
    """Check the two validity conditions; returns a small report dict."""
    a0 = pair.a[0]
    res = pair.unimodularity_residual
    a0_ok = a0.real >= 0 and abs(a0.imag) <= PAIR_TOL * max(1.0, abs(a0))
    return {
        "a0": complex(a0),
        "a0_real_nonneg": bool(a0_ok),
        "unimodularity_residual": res,
        "tol": PAIR_TOL,
        "ok": bool(a0_ok and res <= PAIR_TOL),
    }
