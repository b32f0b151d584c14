"""Polynomials in z^{-1} as plain complex arrays.

A causal polynomial p(z) = sum_i c[i] * z^{-i} is represented by its
coefficient array c.  Everything downstream (scattering pairs, transfer
matrices, filters) is built on the handful of operations here.
"""

import numpy as np

# Below this output length, direct convolution beats FFT multiply.
_FFT_CUTOFF = 128
# power_sums holds this many powers of its points at once
EVAL_BLOCK = 1 << 20


def as_coeffs(p):
    """Coerce to a 1-D complex coefficient array (constant term first)."""
    c = np.atleast_1d(np.asarray(p, dtype=complex))
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficient array must be 1-D and non-empty")
    return c


def poly_mul(p, q):
    """Product of two causal polynomials; output length len(p)+len(q)-1.

    Small products use direct convolution; larger ones go through a
    power-of-two FFT.  No library path calls it: both fast transforms
    multiply with `inverse._para_mul`.  It stays, with _FFT_CUTOFF and the
    `inverse.poly_mul` import, because the benchmark's tracer in perfbench/
    wraps `inverse.poly_mul` and reads `_FFT_CUTOFF`; removing them takes a
    change of that tracer, measured before and after.
    """
    p = as_coeffs(p)
    q = as_coeffs(q)
    n = len(p) + len(q) - 1
    if n <= _FFT_CUTOFF:
        return np.convolve(p, q)
    m = 1 << (n - 1).bit_length()
    out = np.fft.ifft(np.fft.fft(p, m) * np.fft.fft(q, m))
    return out[:n]


def power_sums(C, w):
    """sum_j C[r, j] w^j for each row r of C and point of w (1-D), shape (len(C), len(w)).

    In the precision of w: a running product gives the powers, EVAL_BLOCK
    of them at a time, and one matmul per block applies every row.
    """
    C = C.astype(w.dtype, copy=False)
    out = np.empty((len(w), len(C)), dtype=w.dtype)
    rows = max(1, EVAL_BLOCK // C.shape[1])
    for i in range(0, len(w), rows):
        V = np.empty((len(w[i:i + rows]), C.shape[1]), dtype=w.dtype)
        V[:, 0] = 1.0
        V[:, 1:] = w[i:i + rows, None]
        out[i:i + rows] = np.cumprod(V, axis=1, out=V) @ C.T
    return out.T


def poly_eval(p, z0):
    """Values of sum c[i] z^{-i} at z0 (scalar or array): power_sums at w = 1/z0.

    p is one coefficient array or a stack of them (one polynomial per
    row); the result has shape p.shape[:-1] + z0.shape.
    """
    c = np.asarray(p, dtype=complex)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise ValueError("coefficients must be a non-empty 1-D array or a stack of them")
    z0 = np.asarray(z0, dtype=complex)
    if np.any(z0 == 0) and c.shape[-1] > 1:
        raise ZeroDivisionError("evaluation at z=0 with negative powers")
    w = 1.0 / z0.ravel() if c.shape[-1] > 1 else z0.ravel()  # a constant needs no powers
    out = power_sums(np.atleast_2d(c), w).reshape(c.shape[:-1] + z0.shape)
    return complex(out) if out.ndim == 0 else out


def circle_samples(p, M):
    """Values p(e^{2*pi*i*m/M}) for m = 0..M-1.

    For p in z^{-1} this is exactly the forward FFT of the (zero-padded)
    coefficients, since e^{-2*pi*i*m*k/M} = (e^{2*pi*i*m/M})^{-k}.
    """
    p = as_coeffs(p)
    if M < len(p):
        raise ValueError(f"grid size {M} aliases a length-{len(p)} polynomial")
    return np.fft.fft(p, M)


def grid_omega(m, M, D):
    """omega at index m (scalar or array) of the M-point circle grid.

    Grid point m is z = e^{2*pi*i*m/M} (circle_samples), and a D-sample
    signal has z = e^{-2*i*omega/D}; the angle is taken in (-pi, pi].
    """
    ang = 2.0 * np.pi * np.asarray(m) / M
    ang = ang - 2.0 * np.pi * (ang > np.pi)
    return -ang * D / 2.0


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

