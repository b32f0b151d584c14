"""Layer peeling: recover the D samples from a scattering pair.

Two implementations of the same map: `invert_fast`, a tree of
O(D log^2 D) whose leaves are `_peel`, and `invert_sequential`, the
whole pair peeled as one leaf, O(D^2), the tests' oracle for the tree
(`test_fast_matches_sequential_and_roundtrips`); no command runs it.

One step matrix serves both transforms: the one-sample forward matrix,
in ascending powers of z^{-1} and with theta = sqrt(1 + |Q|^2),

    F(Q) = (1/theta) * [[1, Q z^{-1}], [-conj(Q), z^{-1}]],    det F = z^{-1},

and the forward matrix of a block of n samples is the product
F(q[n-1]) ... F(q[0]) (`test_transfer_matrix_matches_direct_product`).
Each step also carries a scalar z^{-1/2}; it is dropped, since it
multiplies a and b alike and cancels in every ratio.  Every product of
n step matrices has the para-conjugate form

    F = para([a; b]) = [[a, -z^{-n} b*], [b, z^{-n} a*]],    p*(z) = conj(p(1/conj z)),

so its second column is its first, [a; b] (n coefficients each),
reversed and conjugated into z^{-1}..z^{-n}, and both fast transforms
carry first columns only (`test_invert_fast_matrix_is_forward_product`,
`test_transfer_matrix_det_is_z_to_the_minus_D`).  So do the inverses,
by one identity:

    adj(para([a; b])) = [[z^{-n} a*, z^{-n} b*], [-b, a]] = para([z^{-n} a*; -b]).

The adjoint column [z^{-n} a*; -b] is the first column of adj(F).  The
one-step inverse (1/theta) * [[1, -Q], [z*conj(Q), z]] is z * adj(F(Q)),
so z^n * adj(F) undoes a block of n samples.

One FFT of a column gives all four entries of its para-conjugate form:
z^{-n} p* has the coefficients conj(p[n-k]), so at length 2n its spectrum
is w^{jn} conj(P_j) = (-1)^j conj(P_j), with P = FFT(p) and w = e^{-2 pi i/2n},
and the adjoint column's spectra are [(-1)^j conj(A); -B] (`_adjoint`,
`test_para_spectra_from_one_fft`).  So `_para_mul` is the one product of
both transforms (`test_para_mul_matches_convolve`).

One two-row step, on the rows R0, R1 of one buffer,

    R0'[j] = R0[j] - Q R1[j],
    R1'[j] = conj(Q) R0[j+1] + R1[j+1],

is theta * z * adj(F(Q)) applied to the column [R0; R1], slot j holding
the coefficient of z^{-j} (z shifts by one slot).  On a window [A; B] of
the pair it is theta times the inverse step: the peel.  Started from
[z^{-n}; 0] (R0[n] = 1), n steps taken newest first leave prod(theta) *
adj(F) [1; 0], prod(theta) times the adjoint column, which `_column`
reads (`test_peel_returns_samples_and_column`).  `_peel` and
`_first_column` run it.
"""

from dataclasses import dataclass

import numpy as np
from numpy import convolve as poly_mul  # noqa: F401  (no caller; perfbench/ patches inverse.poly_mul)

from .synthesis import ScatteringPair
from .verify import validate_pair
from .verify import energy_identity_residual  # noqa: F401  (perfbench/ calls it here)

LEAF_SIZE = 256         # below this, peel sequentially inside the recursion (measured sweep)
BLOCK = 32              # _first_column steps blocks of this many samples at once (measured sweep)
CHUNK = 64              # _peel slides its matmul every this many steps (measured sweep)
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
    """(a, b) of a ScatteringPair or an (a, b) tuple, checked on entry by
    both inversions: ValueError if check and validate_pair fails, then
    FloatingPointError naming the first non-finite coefficient, then
    ZeroDivisionError if |a0| < SINGULAR_A0.  An empty pair has no a0 to
    check; invert_fast refuses its length.

    One a0 check is enough: a step maps A0 to A0 - Q B0 = theta^2 A0, so
    |A0| never falls (`test_a0_check_on_entry_is_enough`), and after k
    steps the rows are theta_1...theta_k times the normalized window,
    whose coefficients are at most 1 for a valid pair; by the energy
    identity the product over all D steps is 1/|a0| <= 1/SINGULAR_A0, so
    `_peel`'s rows stay far from overflow."""
    if not isinstance(pair, ScatteringPair):
        pair = ScatteringPair(*pair)
    if check and pair.D:
        rep = validate_pair(pair)
        if not rep["ok"]:
            raise ValueError(f"pair fails validation: {rep}")
    a, b = _finite(pair.a, "coefficient a"), _finite(pair.b, "coefficient b")
    if pair.D and abs(a[0]) < SINGULAR_A0:
        raise ZeroDivisionError(f"singular recovery: |a0| = {abs(a[0]):.3g} < {SINGULAR_A0:g}")
    return a, b


def _finite(x, name):
    """x, or FloatingPointError naming its first non-finite entry,
    "name[i] = v is not finite": the check of the pair's coefficients on
    entry and of the samples on exit of both inversions, and of
    forward_fast's samples on entry.  The exit check is needed because the
    peel's ratio B0/A0 is Python's complex division, which raises no flag
    and can give NaN for finite operands near the largest double
    (`test_far_pair_peels_to_finite_samples_or_raises`)."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise FloatingPointError(f"{name}[{bad[0]}] = {x.item(bad[0])} is not finite")
    return x


def _para_mul(P, L):
    """para(X) @ Y cyclically at length 2h, for stacks of columns X (h coefficients) and Y.

    P and L are their FFTs at length 2h, shape (..., 2, 2h); L is
    overwritten.  P gives all four entries of para(X) (module docstring),
    so the product costs one inverse FFT.  It multiplies two blocks' forms
    in `_first_column`'s tree and in every `invert_fast` node, and takes
    the node's older window through adj(F).  Returns shape (..., 2, 2h).
    The tree's products, of two columns of h steps, have degree below 2h
    and do not wrap.  The window step's product, of an adjoint column and
    2h coefficients, wraps onto 0..h-1; only h..2h-1 are read.
    """
    A, B = P[..., 0, :], P[..., 1, :]
    c, d = L[..., 0, :], L[..., 1, :]
    d[..., 1::2] *= -1
    return np.fft.ifft(np.stack([A * c - B.conj() * d, B * c + A.conj() * d], axis=-2))


def _adjoint(P):
    """Spectra of the adjoint column [z^{-h} a*; -b] from P, the FFT of [a; b] at length 2h."""
    Pa = np.stack([np.conj(P[0]), -P[1]])
    Pa[0, 1::2] *= -1
    return Pa


def _shifted(buf):
    """A view of buf (contiguous, shape (..., 2, L)) whose [..., s, r, :] is
    row r shifted by s, buf[..., r, s:s + L - 1]: the two-row step's
    matmul operand.  Built as an ndarray over buf's memory, since numpy's
    sliding_window_view makes the same view at ~25 times the cost."""
    *lead, rows, L = buf.shape
    *st, sr, sw = buf.strides
    return np.ndarray((*lead, 2, rows, L - 1), buf.dtype, buffer=buf, strides=(*st, sw, sr, sw))


def _column(R, q):
    """[a; b] = [conj(R0[n:0:-1]); -R1[:n]] / prod(theta), shape (..., 2, n), from
    accumulator rows R of shape (..., 2, n+1) that hold prod(theta) times the
    adjoint column of the samples q, shape (..., n).

    `_peel` and `_first_column` step unnormalized, and the column, a block
    of F, is divided here once per block, where a 1/theta in every step
    would round |q|^2 away step after step
    (`test_weak_signal_matrix_matches_transfer_matrix`).  prod(theta)
    comes in two parts.  The samples with |q| >= 1 give prod(hypot(1, |q|)),
    which squares no large |q| and rounds each factor to an ulp, where the
    exp of a large logarithm would not (`test_peel_high_energy`).  Those
    with |q| < 1 give exp(sum log1p(|q|^2) / 2), which keeps a weak |q|^2
    that hypot(1, |q|) rounds away, theta - 1 below half an ulp
    (`test_fast_weak_signal_a0_against_mpmath`)."""
    C = np.empty_like(R[..., :-1])
    np.conj(R[..., 0, :0:-1], out=C[..., 0, :])
    np.negative(R[..., 1, :-1], out=C[..., 1, :])
    r = np.abs(q)
    weak = np.where(r < 1.0, r, 0.0)
    C /= np.prod(np.hypot(1.0, r - weak), axis=-1)[..., None, None]
    C /= np.exp(0.5 * np.log1p(weak * weak).sum(axis=-1))[..., None, None]
    return C


def _first_column(q):
    """First column [a; b] of the forward matrix F(q[n-1]) ... F(q[0]), shape (2, n);
    n a power of two.

    Blocks of BLOCK samples run the accumulator half of the two-row step
    (module docstring) all at once: one batched matmul of [[1, -Q]] and
    [[conj(Q), 1]] per sample position, each block taking its samples
    newest first, from the column [z^{-block}; 0], unnormalized
    (`_column`).  Over a block of an arbitrary signal prod(theta) has no
    bound: if the rows or that product overflow, FloatingPointError is
    raised (errstate over and invalid raise).  Then a balanced tree
    multiplies the blocks, later ones on the left (`_para_mul`), from one
    FFT of every column per level.
    """
    q = np.asarray(q, dtype=complex)
    n = len(q)
    block = min(BLOCK, n)
    qk = q.reshape(-1, block)[:, ::-1].T                # (block, blocks): step k, newest first
    c = np.empty(qk.shape + (2, 1, 2), dtype=complex)
    c[..., 0, 0, 0] = c[..., 1, 0, 1] = 1.0
    c[..., 0, 0, 1] = -qk
    c[..., 1, 0, 0] = np.conj(qk)
    buf = np.zeros((2, qk.shape[1], 2, block + 2), dtype=complex)   # two buffers, swapped each step
    buf[0, :, 0, block] = 1.0
    shifted = _shifted(buf)
    out = buf[:, :, :, None, :block + 1]
    with np.errstate(over="raise", invalid="raise"):
        for k in range(block):
            np.matmul(c[k], shifted[k & 1], out=out[1 - (k & 1)])
        C = _column(buf[block & 1, ..., :block + 1], q.reshape(-1, block))
    while len(C) > 1:
        S = np.fft.fft(C, 2 * C.shape[-1])
        C = _para_mul(S[1::2], S[0::2])
    return C[0]


def _peel(V):
    """Peel a window V = [A; B], shape (2, n): its n samples (newest first)
    and the first column of their forward matrix, shape (2, n).

    The two-row steps (module docstring) run on a contiguous double buffer
    of shape (2, 2, L = 2n + 2) laid out as [accumulator, n + 1 slots |
    window, n slots | one zero slot].  Step k reads Q = -conj(B0/A0), B0
    and A0 the window's constant coefficients at slot n + 1, from buffer
    k & 1 and writes buffer 1 - (k & 1): one matmul of [[1, -Q]] and
    [[conj(Q), 1]] with the shifts 0 and 1, which peels the window and
    accumulates the peeled steps' adjoint column at once.  Q is a ratio,
    which no common scale of the window changes, so the step drops the
    step matrix's 1/theta (`_column`).  In a two-row buffer, row r
    shifted by s is buf[r, s:s + w].  R1[n] reads the window's constant
    coefficients, conj(Q) A0 + B0, which vanish by the choice of Q; the
    step leaves their rounding residue there, so it is reset to 0.

    After k steps the accumulator is live from slot n - k and the window
    holds n - k live coefficients.  The matmul's views are made once per
    CHUNK of steps and cover slots n - k1 (k1 the step that ends the
    chunk) to the window's live end at the chunk's first step.  Every
    coefficient it writes goes through the same arithmetic as over the
    whole buffer; the zeros below n - k stay zero.  The window
    coefficients it leaves stale are never read: the k-th sample reads
    coefficient 0, which depends only on coefficients 0..k of the window.

    The loop holds only the step: it reads r = B0/A0 = -conj(Q), writes
    conj(r) = -Q and -r = conj(Q) into the matrix, and negates the
    conjugated samples once at the end.  Rows or a prod(theta) that
    overflow raise FloatingPointError (errstate over and invalid raise)
    rather than hold inf or NaN.  If the tree rounded the window's A0 to 0,
    which only a pair far from valid can do, the ratio's ZeroDivisionError
    names that cause (`test_tree_window_a0_rounded_to_zero_raises`).
    """
    n = V.shape[-1]
    L = 2 * n + 2
    buf = np.zeros((2, 2, L), dtype=complex)           # two buffers, swapped each step
    buf[0, 0, n] = 1.0
    buf[0, :, n + 1:-1] = V
    flat = buf.reshape(-1)
    shifted = _shifted(buf)                            # [buffer, s, r]
    out = buf[:, :, None, :L - 1]
    c = np.ones((2, 1, 2), dtype=complex)
    cf = c.reshape(-1)
    # reading buffer b: flat indices of its A0 and B0, and of R1[n] in the buffer it writes
    at = [(2 * L * b + n + 1, 2 * L * b + L + n + 1, 2 * L * (1 - b) + L + n) for b in (0, 1)]
    qs = np.empty(n, dtype=complex)
    with np.errstate(over="raise", invalid="raise"):
        try:
            for k0 in range(0, n, CHUNK):
                k1 = min(k0 + CHUNK, n)
                span = slice(n - k1, L - 1 - k0)
                steps = [(shifted[b, ..., span], out[1 - b, ..., span], *at[b]) for b in (0, 1)]
                for k in range(k0, k1):
                    src, dst, ia, ib, ir = steps[k & 1]
                    r = flat.item(ib) / flat.item(ia)   # B0/A0 = -conj(Q)
                    qs[k] = r
                    cf[1] = r.conjugate()
                    cf[2] = -r
                    np.matmul(c, src, out=dst)
                    flat[ir] = 0.0
        except ZeroDivisionError:
            raise ZeroDivisionError("singular recovery: a window's A0 rounded to 0, "
                                    "which only a pair far from valid can do (check=True refuses it)") from None
        qs = -qs.conj()
        return qs, _column(buf[n & 1, :, :n + 1], qs)


def invert_sequential(pair, check=True) -> Signal:
    """O(D^2) layer peeling: the whole pair peeled as one `_peel` leaf, with
    no tree above it, one matmul per sample.  It checks the pair on entry
    (`_pair_arrays`) and its samples on exit (`_finite`) as invert_fast does."""
    a, b = _pair_arrays(pair, check)
    qs, _ = _peel(np.stack([a, b]))
    return Signal(samples=_finite(qs[::-1], "sample q"))


def invert_fast(pair, check=True):
    """O(D log^2 D) inversion; returns (Signal, C), C = [a; b] the first column
    of the samples' forward matrix, shape (2, D).

    Node contract: the input V = [A; B], shape (2, n), holds the first
    n coefficients of the pair after peeling everything newer.  The newer
    half of the window determines its own samples (the constant
    coefficients of the peeled iterates do not depend on the older half),
    so the recursion peels V[:, :h] first.  The older half's window is
    then coefficients h..2h-1 of adj(F_hi) @ V, i.e. the first h
    coefficients of V pushed through that half's inverse z^h adj(F_hi):
    a `_para_mul` by the adjoint column of C_hi (`_adjoint`).  Each node
    returns its samples (newest first) and the first column C = [a; b]
    of its block's forward matrix, F_hi @ C_lo, another `_para_mul`.  One
    FFT of C_hi serves both products, so a node runs ten length-2h
    transforms of one row: C_hi, V and C_lo forward, two rows each, and
    the two products back.  A leaf (`_peel`) peels its window one sample
    at a time and accumulates its column in the same matmul.  The whole
    tree runs under errstate(over="raise", invalid="raise"), so an
    overflow or a NaN from numpy's arithmetic raises FloatingPointError.
    """
    a, b = _pair_arrays(pair, check)
    D = len(a)
    if D < 1 or D & (D - 1):
        raise ValueError(f"D={D} is not a power of two")

    def node(V):
        n = V.shape[-1]
        if n <= LEAF_SIZE:
            return _peel(V)
        h = n // 2
        qs_hi, C_hi = node(V[:, :h])
        P = np.fft.fft(C_hi, n)
        qs_lo, C_lo = node(_para_mul(_adjoint(P), np.fft.fft(V))[:, h:n])
        return np.concatenate([qs_hi, qs_lo]), _para_mul(P, np.fft.fft(C_lo, n))

    with np.errstate(over="raise", invalid="raise"):
        qs, C = node(np.stack([a, b]))
    return Signal(samples=_finite(qs[::-1], "sample q")), C

