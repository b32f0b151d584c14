"""Polynomials in z^{-1} as plain complex arrays.

A causal polynomial p(z) = sum_i c[i] * z^{-i} is represented by its
coefficient array c.  Everything downstream (scattering pairs, transfer
matrices, filters) is built on the handful of operations here.
"""

import numpy as np

# Below this output length, direct convolution beats FFT multiply.
_FFT_CUTOFF = 128


def as_coeffs(p):
    """Coerce to a 1-D complex coefficient array (constant term first)."""
    c = np.atleast_1d(np.asarray(p, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient array must be 1-D and non-empty")
    return c


def poly_mul(p, q):
    """Product of two causal polynomials; output length len(p)+len(q)-1.

    Small products use direct convolution; larger ones go through a
    power-of-two FFT, which is what keeps the divide-and-conquer
    algorithms at their advertised complexity.
    """
    p = as_coeffs(p)
    q = as_coeffs(q)
    n = len(p) + len(q) - 1
    if n <= _FFT_CUTOFF:
        return np.convolve(p, q)
    m = 1 << (n - 1).bit_length()
    out = np.fft.ifft(np.fft.fft(p, m) * np.fft.fft(q, m))
    return out[:n]


def poly_mat_mul(X, Y):
    """Batched X @ Y for stacks of 2x2 polynomial matrices.

    X and Y have shape (..., 2, 2, L) with the coefficients of each entry
    along the last axis; the result has length Lx + Ly - 1 there.  One
    FFT per operand, a 2x2 contraction per frequency, one inverse FFT, so
    a whole tree level of matrix products is a single call.
    """
    n = X.shape[-1] + Y.shape[-1] - 1
    m = 1 << (n - 1).bit_length()
    prod = np.einsum("...ijk,...jlk->...ilk", np.fft.fft(X, m), np.fft.fft(Y, m))
    return np.fft.ifft(prod)[..., :n]


def poly_eval(p, z0):
    """Horner evaluation of sum c[i] z^{-i} at z0 (scalar or array)."""
    p = as_coeffs(p)
    z0 = np.asarray(z0, dtype=complex)
    if np.any(z0 == 0) and len(p) > 1:
        raise ZeroDivisionError("evaluation at z=0 with negative powers")
    w = 1.0 / z0
    out = np.full_like(z0, p[-1])
    for c in p[-2::-1]:
        out = out * w + c
    return out if out.ndim else complex(out)


def circle_samples(p, M):
    """Values p(e^{2*pi*i*m/M}) for m = 0..M-1.

    For p in z^{-1} this is exactly the forward FFT of the (zero-padded)
    coefficients, since e^{-2*pi*i*m*k/M} = (e^{2*pi*i*m/M})^{-k}.
    """
    p = as_coeffs(p)
    if M < len(p):
        raise ValueError(f"grid size {M} aliases a length-{len(p)} polynomial")
    return np.fft.fft(p, M)


def coeffs_from_circle(samples, keep):
    """Inverse of circle_samples, truncated to `keep` coefficients.

    Returns (coeffs, tail_energy) where tail_energy is the summed |c|^2
    of the discarded coefficients -- the truncation error estimate that
    callers are expected to check, not ignore.
    """
    samples = np.asarray(samples, dtype=complex)
    if keep > len(samples):
        raise ValueError("cannot keep more coefficients than samples")
    c = np.fft.ifft(samples)
    tail = float(np.sum(np.abs(c[keep:]) ** 2))
    return c[:keep].copy(), tail

