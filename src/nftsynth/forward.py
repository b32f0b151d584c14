"""Forward discrete scattering: samples -> (a, b), reflection, eigenvalues.

The one-sample update (normalized by 1/sqrt(1+|Q|^2), the z^{1/2} scalar
tracked as a counter) is

    a <- (a + Q z^{-1} b)/theta,    b <- (-conj(Q) a + z^{-1} b)/theta

starting from (a, b) = (1, 0).  After D steps a and b are degree-(D-1)
polynomials in z^{-1} and |a|^2 + |b|^2 = 1 holds exactly on the circle.

`forward_sequential` runs the updates on fixed-size coefficient arrays,
O(D^2).  `forward_fast` is `inverse.transfer_matrix` of the samples: the
D one-sample matrices multiplied in a balanced tree, one batched FFT
product per level, O(D log^2 D); (a, b) is its first column.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .inverse import Signal, transfer_matrix
from .poly import poly_dz, poly_eval
from .synthesis import (
    ROOT_INNER,
    ROOT_OUTER,
    ScatteringPair,
    lambda_to_z,
    pair_from_coeffs,
    z_to_lambda,
)

REFLECTION_GRID_FACTOR = 4
POLE_TOL = 1e-12
ROOT_RESIDUAL_TOL = 1e-6
MULTIPLE_ROOT_TOL = 1e-12
MAX_ROOTFIND_DEGREE = 4096


@dataclass
class NftSpectrum:
    """Reflection samples plus the discrete (bound-state) part."""

    omega: np.ndarray
    reflection: np.ndarray
    pole_mask: np.ndarray
    eigen_z: np.ndarray
    eigen_lambda: np.ndarray
    norming: np.ndarray
    eps: float | None = None


def forward_step(a, b, Q):
    """One scattering step; arrays grow by one coefficient."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    th = np.sqrt(1.0 + abs(Q) ** 2)
    zb = np.concatenate([[0.0], b])
    ap = np.concatenate([a, [0.0]])
    return (ap + Q * zb) / th, (-np.conj(Q) * ap + zb) / th


def forward_sequential(signal: Signal) -> ScatteringPair:
    q = np.asarray(signal.samples, dtype=complex)
    D = len(q)
    a = np.zeros(D, dtype=complex)
    b = np.zeros(D, dtype=complex)
    zb = np.zeros(D, dtype=complex)
    sa = np.zeros(D, dtype=complex)
    a[0] = 1.0
    for Q in q:
        th = np.sqrt(1.0 + abs(Q) ** 2)
        zb[0] = 0.0
        zb[1:] = b[: D - 1]
        np.multiply(zb, Q / th, out=sa)
        sa += a / th
        np.multiply(a, -np.conj(Q) / th, out=b)
        b += zb / th
        a, sa = sa, a
    return pair_from_coeffs(a, b)


def forward_fast(signal: Signal) -> ScatteringPair:
    q = np.asarray(signal.samples, dtype=complex)
    D = len(q)
    if D < 1 or D & (D - 1):
        raise ValueError(f"D={D} is not a power of two")
    F = transfer_matrix(q)
    # initial state is [1; 0]: (a, b) is the first column
    return pair_from_coeffs(F[0, 0, :D], F[1, 0, :D])


def reflection_coefficient(pair, omega=None):
    """Q-hat(omega) = b/a on the circle.

    With no grid given, evaluates on 4D equispaced points (one FFT);
    points where |a| < 1e-12 are flagged as poles and returned as NaN
    rather than divided through.
    """
    a = np.asarray(pair.a, dtype=complex)
    b = np.asarray(pair.b, dtype=complex)
    D = len(a)
    eps = 1.0 / D
    band = np.pi / (2.0 * eps)
    if omega is None:
        M = REFLECTION_GRID_FACTOR * D
        av = np.fft.fft(a, M)
        bv = np.fft.fft(b, M)
        # fft bin k sits at z = e^{2 pi i k / M}; z = e^{-2 i omega eps}
        phi = 2.0 * np.pi * np.arange(M) / M
        phi[phi > np.pi] -= 2.0 * np.pi
        omega = -phi / (2.0 * eps)
        order = np.argsort(omega)
        omega, av, bv = omega[order], av[order], bv[order]
    else:
        omega = np.asarray(omega, dtype=float)
        if np.any(np.abs(omega) > band * (1 + 1e-12)):
            raise ValueError("omega grid extends outside [-pi/(2 eps), pi/(2 eps)]")
        zs = np.exp(-2j * omega * eps)
        av = poly_eval(a, zs)
        bv = poly_eval(b, zs)
    poles = np.abs(av) < POLE_TOL
    vals = np.full_like(av, np.nan + 0j)
    np.divide(bv, av, out=vals, where=~poles)
    return omega, vals, poles


def find_eigenvalues(a):
    """Roots of a(z) outside the unit circle, via the companion matrix.

    Keeps only roots in the annulus 1 + 1e-6 < |z| < e^pi; roots found
    outside it are overwhelmingly numerical artifacts of the truncated
    polynomial rather than bound states.  Ordered by the eigenvalue they
    map to (imaginary part, then real part) so repeated runs and the
    norming-constant bookkeeping line up deterministically.
    """
    a = np.asarray(a, dtype=complex)
    if len(a) > MAX_ROOTFIND_DEGREE:
        raise ValueError(
            f"degree {len(a) - 1} exceeds companion-matrix limit "
            f"{MAX_ROOTFIND_DEGREE - 1}; use the known synthesis roots instead"
        )
    coeffs = np.trim_zeros(a, "b")
    if len(coeffs) < 2:
        return np.array([], dtype=complex)
    # a(z) = sum a_j z^{-j}; roots of z^{deg} a(z), highest power first
    roots = np.roots(coeffs)
    mags = np.abs(roots)
    keep = (mags > ROOT_INNER) & (mags < ROOT_OUTER)
    roots = roots[keep]
    if len(roots) == 0:
        return roots
    eps = 1.0 / len(a)
    lams = np.array([z_to_lambda(z, eps) for z in roots])
    return roots[np.lexsort((lams.real, lams.imag))]


def norming_constants(pair, eigen_z):
    """Residue-style norming constants at simple roots of a.

    Q_k = -b(z_k) / (2 i eps z_k) / a'(z_k), requiring each z_k to be a
    root to 1e-6 and a'(z_k) to be comfortably nonzero.
    """
    a = np.asarray(pair.a, dtype=complex)
    b = np.asarray(pair.b, dtype=complex)
    eps = 1.0 / len(a)
    da = poly_dz(a)
    out = np.empty(len(eigen_z), dtype=complex)
    for k, z in enumerate(np.asarray(eigen_z, dtype=complex)):
        if abs(poly_eval(a, z)) > ROOT_RESIDUAL_TOL:
            raise ValueError(f"z={z} is not a root of a (residual > 1e-6)")
        dval = da.at(z)
        if abs(dval) < MULTIPLE_ROOT_TOL:
            raise ValueError(f"multiple root at z={z}: derivative of a vanishes")
        out[k] = -poly_eval(b, z) / (2j * eps * z) / dval
    return out


def continuous_oracle(q, lam, rtol=1e-11, atol=1e-12):
    """Integrate the continuous scattering ODE for one spectral point.

    phi' = [[-i lam, q(t)], [-conj(q(t)), i lam]] phi on [-1, 0] with
    phi(-1) = [e^{i lam}, 0]; returns (alpha, beta) = phi(0).  Test-only
    reference for the D -> infinity limit.
    """
    lam = complex(lam)

    def rhs(t, y):
        qt = q(t)
        return [-1j * lam * y[0] + qt * y[1], -np.conj(qt) * y[0] + 1j * lam * y[1]]

    y0 = np.array([np.exp(1j * lam), 0.0], dtype=complex)
    sol = solve_ivp(rhs, (-1.0, 0.0), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"scattering ODE integration failed: {sol.message}")
    return complex(sol.y[0, -1]), complex(sol.y[1, -1])


def shift_spectrum(spectrum: NftSpectrum, t0: float) -> NftSpectrum:
    """Time shift by t0: linear phase on the reflection, e^{-2 i lam t0} on norming."""
    return NftSpectrum(
        omega=spectrum.omega.copy(),
        reflection=spectrum.reflection * np.exp(-2j * spectrum.omega * t0),
        pole_mask=spectrum.pole_mask.copy(),
        eigen_z=spectrum.eigen_z.copy(),
        eigen_lambda=spectrum.eigen_lambda.copy(),
        norming=spectrum.norming * np.exp(-2j * spectrum.eigen_lambda * t0),
        eps=spectrum.eps,
    )


def dilate_spectrum(spectrum: NftSpectrum, eta: float) -> NftSpectrum:
    """Dilation: eigenvalues scale as lam -> eta*lam (eta != 0)."""
    if eta == 0:
        raise ValueError("dilation factor must be nonzero")
    lam = spectrum.eigen_lambda * eta
    if spectrum.eps is not None:
        z = np.array([lambda_to_z(v, spectrum.eps) for v in lam], dtype=complex)
    else:
        z = spectrum.eigen_z.copy()
    return NftSpectrum(
        omega=spectrum.omega * eta,
        reflection=spectrum.reflection.copy(),
        pole_mask=spectrum.pole_mask.copy(),
        eigen_z=z,
        eigen_lambda=lam,
        norming=spectrum.norming.copy(),
        eps=spectrum.eps,
    )


def compute_spectrum(pair, omega=None) -> NftSpectrum:
    """Full discrete spectrum of a pair: reflection + bound states."""
    om, vals, poles = reflection_coefficient(pair, omega)
    eps = 1.0 / pair.D
    zs = find_eigenvalues(pair.a)
    lams = np.array([z_to_lambda(z, eps) for z in zs], dtype=complex)
    norm = norming_constants(pair, zs) if len(zs) else np.array([], dtype=complex)
    return NftSpectrum(
        omega=om, reflection=vals, pole_mask=poles,
        eigen_z=zs, eigen_lambda=lams, norming=norm, eps=eps,
    )
