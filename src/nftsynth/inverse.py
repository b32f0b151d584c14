"""Layer peeling: recover the D samples from a scattering pair.

Two implementations of the same map.  `invert_sequential` peels one
sample at a time, O(D^2); it is the normative reference.  `invert_fast`
splits the pair in half, peels the newer half, transfers the older half
through that half's inverse matrix, and recurses -- O(D log^2 D).  Both
read each sample from the constant coefficients as Q = -conj(b0)/conj(a0).

One step matrix serves both transforms.  `step_matrices` defines the
one-sample forward matrix, in ascending powers of z^{-1},

    F(Q) = (1/theta) * [[1, Q z^{-1}], [-conj(Q), z^{-1}]],    det F = z^{-1},

and `transfer_matrix` multiplies a block of them in a balanced tree, one
batched `poly_mat_mul` per level; `forward_fast` is that product.  The
one-step inverse matrix (1/theta) * [[1, -Q], [z*conj(Q), z]] is exactly
z * adj(F(Q)), so the inverse of a block of n samples is z^n * adj(F)
coefficient-wise and the recursion needs no inverse matrices of its own.
Each step also carries a scalar z^{-1/2}; it multiplies a and b
identically and cancels in every recovery ratio, so it is tracked as an
integer count of half powers, never materialized in coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .poly import cyclic_mat_mul, poly_mat_mul
from .poly import poly_mul  # noqa: F401  (benchmark tracers patch inverse.poly_mul)
from .synthesis import ScatteringPair, validate_pair

LEAF_SIZE = 512         # below this, peel sequentially inside the recursion (measured sweep)
SINGULAR_A0 = 1e-14


@dataclass
class Signal:
    samples: np.ndarray
    eps: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)

    @property
    def D(self):
        return len(self.samples)

    @property
    def t(self):
        """Sample times: t[n] = -1 + (n+1)*eps - eps/2 (midpoints)."""
        return -1.0 + (np.arange(1, self.D + 1) - 0.5) * self.eps


def recover_sample(a, b):
    """Q = -conj(b0)/conj(a0) from the constant (z^0) coefficients."""
    a0 = complex(a[0])
    if abs(a0) < SINGULAR_A0:
        raise ZeroDivisionError("constant coefficient of a vanished: invalid pair")
    return -np.conj(complex(b[0])) / np.conj(a0)


def _pair_arrays(pair, check):
    if isinstance(pair, ScatteringPair):
        if check:
            rep = validate_pair(pair)
            if not rep["ok"]:
                raise ValueError(f"pair fails validation: {rep}")
        return np.asarray(pair.a, dtype=complex), np.asarray(pair.b, dtype=complex)
    a, b = pair
    return np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)


def invert_sequential(pair, check=True) -> Signal:
    """O(D^2) normative reference: the recursion written out plainly.

    Scalar arithmetic on purpose -- this is the obviously-correct
    baseline the fast version is checked against, and its cost per
    sample is proportional to the remaining window at every size
    (no vectorization floor hiding the quadratic growth).
    """
    a, b = _pair_arrays(pair, check)
    D = len(a)
    A = [complex(v) for v in a]
    B = [complex(v) for v in b]
    out = np.empty(D, dtype=complex)
    for n in range(D, 1, -1):
        a0 = A[0]
        if abs(a0) < SINGULAR_A0:
            raise ZeroDivisionError(f"singular recovery at step {n}")
        Q = -B[0].conjugate() / a0.conjugate()
        out[n - 1] = Q
        ith = 1.0 / math.sqrt(1.0 + Q.real * Q.real + Q.imag * Q.imag)
        c = Q * ith
        qc = Q.conjugate() * ith
        newA = [ai * ith - c * bi for ai, bi in zip(A, B)]
        del newA[n - 1 :]
        newB = [qc * ai + ith * bi for ai, bi in zip(A[1:n], B[1:n])]
        A, B = newA, newB
    out[0] = recover_sample(A, B)
    return Signal(samples=out, eps=1.0 / D)


def step_matrices(q):
    """One-sample forward matrices F(q[k]) stacked as an (n, 2, 2, 2) array.

    The last axis holds ascending powers of z^{-1}:
    F(Q) = (1/theta) * [[1, Q z^{-1}], [-conj(Q), z^{-1}]].
    """
    q = np.asarray(q, dtype=complex)
    ith = 1.0 / np.sqrt(1.0 + np.abs(q) ** 2)
    M = np.zeros((len(q), 2, 2, 2), dtype=complex)
    M[:, 0, 0, 0] = ith
    M[:, 0, 1, 1] = q * ith
    M[:, 1, 0, 0] = -np.conj(q) * ith
    M[:, 1, 1, 1] = ith
    return M


def transfer_matrix(q):
    """F(q[n-1]) @ ... @ F(q[0]) as a (2, 2, n+1) array; n a power of two.

    Balanced tree, one batched product per level (later samples on the left).
    """
    M = step_matrices(q)
    while len(M) > 1:
        M = poly_mat_mul(M[1::2], M[0::2])
    return M[0]


def _peel(V):
    """Peel a window V = [A; B], shape (2, 1, n), one sample at a time.

    Returns the n samples (newest first) and the window's forward matrix.
    One peel step is [A'; B'] = (1/theta) [A - Q B; conj(Q) z A + z B]
    with the vanished top coefficient dropped.  In a two-row buffer, row r
    shifted by s is buf[r, s:s + n], so the step is one matmul of
    [[1, -Q]] and [[conj(Q), 1]] (times 1/theta) with the shifts 0 and 1.
    The buffers keep length n + 1 instead of shrinking: the k-th sample
    reads coefficient 0, which depends only on coefficients 0..k of the
    window, so the stale values above n - k are never read.
    """
    n = V.shape[-1]
    buf = np.zeros((2, 2, n + 1), dtype=complex)      # two buffers, swapped each step
    buf[0, :, :n] = V[:, 0]
    shifted = sliding_window_view(buf, n, axis=-1).transpose(0, 2, 1, 3)   # [buffer, s, r]
    out = buf[:, :, None, :n]
    c = np.empty((2, 1, 2), dtype=complex)
    qs = np.empty(n, dtype=complex)
    for k in range(n):
        cur = k & 1
        a0 = buf.item(cur, 0, 0)
        if abs(a0) < SINGULAR_A0:
            raise ZeroDivisionError("constant coefficient of a vanished: invalid pair")
        Q = -(buf.item(cur, 1, 0) / a0).conjugate()
        qs[k] = Q
        ith = 1.0 / math.sqrt(1.0 + Q.real * Q.real + Q.imag * Q.imag)
        c[0, 0, 0] = c[1, 0, 1] = ith
        c[0, 0, 1] = -Q * ith
        c[1, 0, 0] = Q.conjugate() * ith
        np.matmul(c, shifted[cur], out=out[1 - cur])
    return qs, transfer_matrix(qs[::-1])


def invert_fast(pair, check=True, leaf_size=LEAF_SIZE):
    """O(D log^2 D) inversion; returns (Signal, transfer_matrix(samples)).

    Node contract: the input V = [A; B], shape (2, 1, n), holds the first
    n coefficients of the pair after peeling everything newer.  The newer
    half of the window determines its own samples (the constant
    coefficients of the peeled iterates do not depend on the older half),
    so the recursion peels V[..., :h] first.  The older half's window is
    then coefficients h..2h-1 of adj(F_hi) @ V, i.e. the first h
    coefficients of V pushed through that half's inverse z^h adj(F_hi).
    The full product has length 3h, so a cyclic product of length 2h
    gives that middle slice exactly: the wrapped coefficients 2h..3h-1
    land on 0..h-1, which are discarded.  Each node returns its samples
    (newest first) and the forward matrix of its block, F_hi @ F_lo.
    A leaf peels its window one sample at a time and builds its F with
    one `transfer_matrix` call.
    """
    a, b = _pair_arrays(pair, check)
    D = len(a)
    if D < 1 or D & (D - 1):
        raise ValueError(f"D={D} is not a power of two")

    def node(V):
        n = V.shape[-1]
        if n <= leaf_size:
            return _peel(V)
        h = n // 2
        qs_hi, F_hi = node(V[..., :h])
        adj = np.array([[F_hi[1, 1], -F_hi[0, 1]], [-F_hi[1, 0], F_hi[0, 0]]])
        qs_lo, F_lo = node(cyclic_mat_mul(adj, V, n)[..., h:])
        return np.concatenate([qs_hi, qs_lo]), poly_mat_mul(F_hi, F_lo)

    qs, F = node(np.stack([a, b])[:, None, :])
    return Signal(samples=qs[::-1], eps=1.0 / D), F


def energy_identity_residual(signal: Signal, a0) -> float:
    """| prod(1 + |Q|^2) * a0^2 - 1 |: the peel's energy bookkeeping check."""
    prod = float(np.prod(1.0 + np.abs(signal.samples) ** 2))
    return abs(prod * float(np.real(a0)) ** 2 - 1.0)
