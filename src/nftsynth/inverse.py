"""Layer peeling: recover the D samples from a scattering pair.

Two implementations of the same map.  `invert_sequential` peels one
sample at a time, O(D^2); it is the normative reference.  `invert_fast`
splits the pair in half, peels the newer half, transfers the older half
through that half's inverse matrix, and recurses -- O(D log^2 D).  Both
read each sample from the constant coefficients as Q = -conj(b0)/conj(a0).

One step matrix serves both transforms.  `step_matrices` defines the
one-sample forward matrix, in ascending powers of z^{-1},

    F(Q) = (1/theta) * [[1, Q z^{-1}], [-conj(Q), z^{-1}]],    det F = z^{-1},

and `transfer_matrix` multiplies a block of them.  Every product of n step
matrices has the para-conjugate form

    F = [[a, -z^{-n} b*], [b, z^{-n} a*]],    p*(z) = conj(p(1/conj z)),

so its second column is its first, [a; b], with the n+1 coefficients
reversed and conjugated (`_para`).  Both fast transforms therefore carry
first columns only: `_first_column` steps blocks of BLOCK samples at once,
then multiplies the blocks in a balanced tree, one batched `poly_mat_mul`
of a full left factor and a column per level; `forward_fast` reads (a, b)
from it.  The one-step inverse matrix (1/theta) * [[1, -Q], [z*conj(Q), z]]
is exactly z * adj(F(Q)), so the inverse of a block of n samples is
z^n * adj(F) coefficient-wise and the recursion needs no inverse matrices
of its own.
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
BLOCK = 8               # _first_column steps blocks of this many samples at once (measured sweep)
CHUNK = 64              # _peel shrinks its matmul every this many steps (measured sweep)
SINGULAR_A0 = 1e-14


@dataclass
class Signal:
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)

    @property
    def D(self):
        return len(self.samples)

    @property
    def eps(self):
        return 1.0 / self.D

    @property
    def t(self):
        """Sample times: t[n] = -1 + (n+1)*eps - eps/2 (midpoints)."""
        return -1.0 + (np.arange(1, self.D + 1) - 0.5) * self.eps


def _pair_arrays(pair, check):
    """(a, b) of a ScatteringPair or an (a, b) tuple, refused with check if
    validate_pair fails.  An empty pair has no a0 to check; invert_fast
    refuses its length."""
    if not isinstance(pair, ScatteringPair):
        pair = ScatteringPair(*pair)
    if check and pair.D:
        rep = validate_pair(pair)
        if not rep["ok"]:
            raise ValueError(f"pair fails validation: {rep}")
    return pair.a, pair.b


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
    for n in range(D, 0, -1):
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
    return Signal(samples=out)


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


def _para(C):
    """The full matrices [[a, -z^{-n} b*], [b, z^{-n} a*]] of first columns C = [a; b].

    C has shape (..., 2, n+1); z^{-n} p* reverses and conjugates p's n+1
    coefficients.  The result has shape (..., 2, 2, n+1).
    """
    a, b = C[..., 0, :], C[..., 1, :]
    ra, rb = np.conj(a[..., ::-1]), np.conj(b[..., ::-1])
    return np.stack([np.stack([a, -rb], axis=-2), np.stack([b, ra], axis=-2)], axis=-3)


def _first_column(q):
    """First column [a; b] of transfer_matrix(q), shape (2, n+1); n a power of two.

    Blocks of BLOCK samples step [1; 0] forward all at once,
    a <- f00 a + f01 z^{-1} b and b <- f10 a + f11 z^{-1} b with the
    coefficients of step_matrices; then a balanced tree multiplies the
    blocks, later ones on the left, the left factor rebuilt by _para.
    """
    M = step_matrices(q)
    n = len(M)
    block = min(BLOCK, n)
    f00, f01, f10, f11 = (M[:, i, j, j].reshape(-1, block)[..., None]
                          for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    C = np.zeros((n // block, 2, block + 1), dtype=complex)
    C[:, 0, 0] = 1.0
    for j in range(block):
        a, b = C[:, 0, :j + 1].copy(), C[:, 1, :j + 1].copy()
        C[:, 0, :j + 1] = f00[:, j] * a
        C[:, 1, :j + 1] = f10[:, j] * a
        C[:, 0, 1:j + 2] += f01[:, j] * b
        C[:, 1, 1:j + 2] += f11[:, j] * b
    while len(C) > 1:
        C = poly_mat_mul(_para(C[1::2]), C[0::2, :, None, :])[..., 0, :]
    return C[0]


def transfer_matrix(q):
    """F(q[n-1]) @ ... @ F(q[0]) as a (2, 2, n+1) array; n a power of two.

    Built from its first column (`_first_column`) by the para-conjugate
    symmetry of every product of step matrices.
    """
    return _para(_first_column(q))


def _peel(V):
    """Peel a window V = [A; B], shape (2, 1, n), one sample at a time.

    Returns the n samples (newest first) and the first column of the
    window's forward matrix.  One peel step is
    [A'; B'] = (1/theta) [A - Q B; conj(Q) z A + z B] with the vanished top
    coefficient dropped.  In a two-row buffer, row r shifted by s is
    buf[r, s:s + w], so the step is one matmul of [[1, -Q]] and
    [[conj(Q), 1]] (times 1/theta) with the shifts 0 and 1.  After k steps
    the window holds n - k live coefficients.  The matmul covers the live
    window as of the first step of its CHUNK, n - k0, so it shrinks every
    CHUNK steps; every coefficient it writes goes through the same
    arithmetic as over the whole buffer.  The coefficients above n - k - 1
    it leaves stale are never read: the k-th sample reads coefficient 0,
    which depends only on coefficients 0..k of the window.
    """
    n = V.shape[-1]
    buf = np.zeros((2, 2, n + 1), dtype=complex)      # two buffers, swapped each step
    buf[0, :, :n] = V[:, 0]
    shifted = sliding_window_view(buf, n, axis=-1).transpose(0, 2, 1, 3)   # [buffer, s, r]
    out = buf[:, :, None, :n]
    c = np.empty((2, 1, 2), dtype=complex)
    qs = np.empty(n, dtype=complex)
    for k0 in range(0, n, CHUNK):
        w = n - k0
        live, dest = shifted[..., :w], out[..., :w]
        for k in range(k0, min(k0 + CHUNK, n)):
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
            np.matmul(c, live[cur], out=dest[1 - cur])
    return qs, _first_column(qs[::-1])


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
    (newest first) and the first column C = [a; b] of its block's forward
    matrix; adj(F_hi) = [[z^{-h} a*, z^{-h} b*], [-b, a]] and F_hi come
    from C_hi, and the node's column is F_hi @ C_lo.  A leaf peels its
    window one sample at a time and builds its column with one
    `_first_column` call.
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
        qs_hi, C_hi = node(V[..., :h])
        F_hi = _para(C_hi)
        adj = np.array([[F_hi[1, 1], -F_hi[0, 1]], [-F_hi[1, 0], F_hi[0, 0]]])
        qs_lo, C_lo = node(cyclic_mat_mul(adj, V, n)[..., h:])
        return np.concatenate([qs_hi, qs_lo]), poly_mat_mul(F_hi, C_lo[:, None, :])[:, 0]

    qs, C = node(np.stack([a, b])[:, None, :])
    return Signal(samples=qs[::-1]), _para(C)


def energy_identity_residual(signal: Signal, a0) -> float:
    """| prod(1 + |Q|^2) * a0^2 - 1 |: the peel's energy bookkeeping check."""
    prod = float(np.prod(1.0 + np.abs(signal.samples) ** 2))
    return abs(prod * float(np.real(a0)) ** 2 - 1.0)
