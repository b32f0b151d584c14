"""Reference implementations the tests check the package against.

None of these runs in the package: each is a slow or independent route
to a quantity the fast code computes.

- `invert_scalar` is layer peeling in scalar arithmetic, one sample at a
  time, O(D^2): the reference both inversions are checked against.
- `forward_step` applies the one-sample forward step matrix of the
  `nftsynth.inverse` module docstring to a column, with its 1/theta;
  `forward_sequential` applies it once per sample, O(D^2).
- `para` rebuilds the full para-conjugate matrix from a first column
  [a; b], and `adjoint_column` the first column of its adjoint;
  `transfer_matrix` is the forward matrix of a block of samples, `para`
  of the package's first column `_first_column`.
- `continuous_oracle` integrates the continuous scattering ODE, the
  D -> infinity limit (scipy.integrate).
- `rect_pair` is the exact pair of a rectangle q_n = Q, from F(Q)^D by
  repeated squaring on the circle grid in long double, O(D log D).
"""

import cmath

import numpy as np

from nftsynth.inverse import SINGULAR_A0, Signal, _first_column, _pair_arrays
from nftsynth.synthesis import ScatteringPair


def invert_scalar(pair, check=True) -> Signal:
    """O(D^2) normative reference: the recursion written out plainly.

    Scalar arithmetic on purpose -- this is the obviously-correct
    baseline the fast version is checked against, and its cost per
    sample is proportional to the remaining window at every size
    (no vectorization floor hiding the quadratic growth).

    Each step reads Q = -conj(B0/A0) and takes the window [A; B] through
    the step unnormalized, A' = A - Q B and B'[j] = conj(Q) A[j+1] + B[j+1]:
    theta times the normalized step of the `nftsynth.inverse` module
    docstring.  Q is a ratio
    of the two rows' constant coefficients, so a common scale of the rows
    changes no sample.  The scale stays bounded.  A0' = A0 + |B0|^2/conj(A0)
    = theta^2 A0, so |A0| only grows, and after k steps the rows are
    theta_1...theta_k times the normalized window, whose coefficients are at
    most 1 for a valid pair.  By the energy identity the product over all D
    steps is 1/|a0| <= 1/SINGULAR_A0, so nothing overflows.  A is left one
    coefficient longer than B; the next step's zip stops at B's end.  A
    NaN or inf in the pair is refused on entry, as by both inversions
    (`_pair_arrays`); a sample that is not finite raises FloatingPointError.
    """
    a, b = _pair_arrays(pair, check)
    D = len(a)
    A = a.tolist()
    B = b.tolist()
    out = np.empty(D, dtype=complex)
    for n in range(D, 0, -1):
        a0 = A[0]
        if abs(a0) < SINGULAR_A0:
            raise ZeroDivisionError(f"singular recovery at step {n}")
        Q = -(B[0] / a0).conjugate()
        if not cmath.isfinite(Q):
            raise FloatingPointError(f"sample q[{n - 1}] = {Q} is not finite: invalid pair")
        out[n - 1] = Q
        qc = Q.conjugate()
        A, B = ([ai - Q * bi for ai, bi in zip(A, B)],
                [qc * ai + bi for ai, bi in zip(A[1:], B[1:])])
    return Signal(samples=out)


def forward_step(a, b, Q):
    """One scattering step; arrays grow by one coefficient."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    th = np.sqrt(1.0 + abs(Q) ** 2)
    zb = np.concatenate([[0.0], b])
    ap = np.concatenate([a, [0.0]])
    return (ap + Q * zb) / th, (-np.conj(Q) * ap + zb) / th


def forward_sequential(signal: Signal) -> ScatteringPair:
    a, b = [1.0], [0.0]
    for k, Q in enumerate(signal.samples):
        if not np.isfinite(Q):
            raise FloatingPointError(f"sample q[{k}] = {Q} is not finite")
        a, b = forward_step(a, b, Q)
    # b's top coefficient stays 0, so a's does too: D coefficients remain
    return ScatteringPair(a[:-1], b[:-1])


def para(C):
    """The full matrices [[a, -z^{-n} b*], [b, z^{-n} a*]] of first columns C = [a; b].

    C has shape (..., 2, n); z^{-n} p* has p's n coefficients reversed and
    conjugated at z^{-1}..z^{-n}, so the result has shape (..., 2, 2, n+1),
    the first column padded with a zero at z^{-n}.
    """
    C = np.concatenate([C, np.zeros(C.shape[:-1] + (1,))], axis=-1)
    F = np.empty(C.shape[:-1] + C.shape[-2:], dtype=complex)
    F[..., 0, :] = C
    np.conj(C[..., ::-1, ::-1], out=F[..., 1, :])    # [b; a] reversed and conjugated
    F[..., 0, 1, :] *= -1
    return F


def adjoint_column(C):
    """[z^{-n} a*; -b], the first column of adj(para(C)), shape (..., 2, n+1)."""
    F = para(C)
    return np.stack([F[..., 1, 1, :], -F[..., 1, 0, :]], axis=-2)


def transfer_matrix(q):
    """F(q[n-1]) @ ... @ F(q[0]) as a (2, 2, n+1) array; n a power of two.

    Built from its first column (`_first_column`) by the para-conjugate
    symmetry of every product of step matrices.
    """
    return para(_first_column(q))


def continuous_oracle(q, lam):
    """Integrate the continuous scattering ODE for one spectral point.

    phi' = [[-i lam, q(t)], [-conj(q(t)), i lam]] phi on [-1, 0] with
    phi(-1) = [e^{i lam}, 0]; returns (alpha, beta) = phi(0).  Reference
    for the D -> infinity limit.
    """
    # imported here: only the tests that integrate the ODE pay for scipy
    from scipy.integrate import solve_ivp

    lam = complex(lam)

    def rhs(t, y):
        qt = q(t)
        return [-1j * lam * y[0] + qt * y[1], -np.conj(qt) * y[0] + 1j * lam * y[1]]

    y0 = np.array([np.exp(1j * lam), 0.0], dtype=complex)
    sol = solve_ivp(rhs, (-1.0, 0.0), y0, method="DOP853", rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"scattering ODE integration failed: {sol.message}")
    return complex(sol.y[0, -1]), complex(sol.y[1, -1])


def rect_pair(Q, D):
    """((a, b), tail): the pair of the rectangle q_n = Q (n = 0 ... D-1), D a power of two.

    The pair is the first column of F(Q)^D, F(Q) the step matrix of the
    `nftsynth.inverse` module docstring.  Its four entries are evaluated at
    the 2D points z_m = e^{2 pi i m/2D}, where np.fft.fft(c)[m] is c's
    value (`poly.grid_omega`), and squared log2 D times there; one inverse
    FFT of the first column gives its coefficients in z^{-1}.  Everything
    runs in long double, the grid angles too: with the double's pi the
    pair residual reads 1.9e-12 at D = 2^16, against 7.1e-15.  The column
    has degree D - 1 in z^{-1} (F(Q) [1; 0] is constant), so the 2D-point
    grid holds it without aliasing, and tail, the largest coefficient past
    D - 1, is the oracle's own rounding.
    """
    if D & (D - 1):
        raise ValueError(f"D={D} is not a power of two")
    pi = np.arccos(np.longdouble(-1))
    ang = pi * np.arange(2 * D, dtype=np.longdouble) / D
    zinv = np.cos(ang) - 1j * np.sin(ang)
    Q = np.clongdouble(Q)
    theta = np.sqrt(1 + abs(Q) ** 2)
    p, q = np.full_like(zinv, 1 / theta), Q * zinv / theta
    r, s = np.full_like(zinv, -np.conj(Q) / theta), zinv / theta
    for _ in range(D.bit_length() - 1):
        p, q, r, s = p * p + q * r, q * (p + s), r * (p + s), s * s + q * r
    a, b = np.fft.ifft(p), np.fft.ifft(r)
    tail = float(max(abs(a[D:]).max(), abs(b[D:]).max()))
    return (a[:D].astype(complex), b[:D].astype(complex)), tail
