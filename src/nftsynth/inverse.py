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
coefficient-wise and peeling needs no matrices of its own.  Each step also
carries a scalar z^{-1/2}; it multiplies a and b identically and cancels
in every recovery ratio, so it is tracked as an integer count of half
powers, never materialized in coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .poly import Laurent, poly_mat_mul, poly_mul
from .synthesis import ScatteringPair, validate_pair

LEAF_SIZE = 64          # below this, peel sequentially inside the recursion
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


@dataclass
class TransferMatrix:
    """z^D adj(F) entries (ascending powers of z) + z^{-1/2} count."""

    t11: Laurent
    t12: Laurent
    t21: Laurent
    t22: Laurent
    half_powers: int


def recover_sample(a, b):
    """Q = -conj(b0)/conj(a0) from the constant (z^0) coefficients."""
    a0 = complex(a[0])
    if abs(a0) < SINGULAR_A0:
        raise ZeroDivisionError("constant coefficient of a vanished: invalid pair")
    return -np.conj(complex(b[0])) / np.conj(a0)


def step_inverse(a, b, Q):
    """One normalized peel step; drops the vanished top coefficient.

    a' = (a - Q*b)/theta, b' = (z*conj(Q)*a + z*b)/theta with the z and
    the z^{-1/2} scalar absorbed into the coefficient reindexing.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = len(a)
    if n == 1:
        return np.ones(0, dtype=complex), np.ones(0, dtype=complex)
    th = np.sqrt(1.0 + abs(Q) ** 2)
    a2 = (a[: n - 1] - Q * b[: n - 1]) / th
    b2 = (np.conj(Q) * a[1:n] + b[1:n]) / th
    return a2, b2


def _pair_arrays(pair, check):
    if isinstance(pair, ScatteringPair):
        if check:
            rep = validate_pair(pair, tol=1e-4)
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


def invert_fast(pair, check=True, leaf_size=LEAF_SIZE):
    """O(D log^2 D) inversion; returns (Signal, TransferMatrix).

    Node contract: the inputs are the first n coefficients of the pair
    after peeling everything newer.  The newer half of the window
    determines its own samples (the constant coefficients of the peeled
    iterates do not depend on the older half), so the recursion peels
    A[:h], B[:h] first, pushes the full window through that half's
    inverse z^h adj(F_hi), and recurses on the first h coefficients of
    the result.  Each node returns its samples (newest first) and the
    forward matrix of its block, F_hi @ F_lo.
    """
    a, b = _pair_arrays(pair, check)
    D = len(a)
    if D < 1 or D & (D - 1):
        raise ValueError(f"D={D} is not a power of two")

    def node(A, B):
        n = len(A)
        if n <= leaf_size:
            qs = np.empty(n, dtype=complex)
            for k in range(n):
                qs[k] = recover_sample(A, B)
                A, B = step_inverse(A, B, qs[k])
            return qs, transfer_matrix(qs[::-1])
        h = n // 2
        qs_hi, F_hi = node(A[:h], B[:h])
        # the z^{-j} coefficient of z^h adj(F_hi) @ [A; B] is the z^{-(j+h)}
        # one of adj(F_hi) @ [A; B]; keep j < h
        A2 = poly_mul(F_hi[1, 1], A)[h:n] - poly_mul(F_hi[0, 1], B)[h:n]
        B2 = poly_mul(F_hi[0, 0], B)[h:n] - poly_mul(F_hi[1, 0], A)[h:n]
        qs_lo, F_lo = node(A2, B2)
        return np.concatenate([qs_hi, qs_lo]), poly_mat_mul(F_hi, F_lo)

    qs, F = node(a, b)
    # inverse of the whole block: z^D adj(F), ascending powers of z
    tm = TransferMatrix(
        t11=Laurent(F[1, 1, ::-1], 0),
        t12=Laurent(-F[0, 1, ::-1], 0),
        t21=Laurent(-F[1, 0, ::-1], 0),
        t22=Laurent(F[0, 0, ::-1], 0),
        half_powers=D,
    )
    return Signal(samples=qs[::-1], eps=1.0 / D), tm


def energy_identity_residual(signal: Signal, a0) -> float:
    """| prod(1 + |Q|^2) * a0^2 - 1 |: the peel's energy bookkeeping check."""
    prod = float(np.prod(1.0 + np.abs(signal.samples) ** 2))
    return abs(prod * float(np.real(a0)) ** 2 - 1.0)
