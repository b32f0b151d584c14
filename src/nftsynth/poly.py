"""Polynomials in z^{-1} as plain complex arrays.

A causal polynomial p(z) = sum_i c[i] * z^{-i} is represented by its
coefficient array c.  The module holds what two modules share: values
off the FFT grid (`poly_eval`, on the `power_sums` kernel) and the omega
of a circle-grid index (`grid_omega`).
"""

import numpy as np

# No library code reads it: perfbench/'s tracer costs its `inverse.poly_mul` calls with it.
_FFT_CUTOFF = 128
# power_sums holds this many powers of its points at once
EVAL_BLOCK = 1 << 20


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


def grid_omega(m, M, D):
    """omega at index m (scalar or array) of the M-point circle grid.

    Grid point m is z = e^{2*pi*i*m/M}, where np.fft.fft(c, M)[m] is the
    value of the polynomial c in z^{-1}, since e^{-2*pi*i*m*k/M} =
    (e^{2*pi*i*m/M})^{-k}.  A D-sample signal has z = e^{-2*i*omega/D};
    the angle is taken in (-pi, pi].
    """
    ang = 2.0 * np.pi * np.asarray(m) / M
    ang = ang - 2.0 * np.pi * (ang > np.pi)
    return -ang * D / 2.0
