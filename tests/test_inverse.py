import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nftsynth import inverse
from nftsynth.forward import forward_fast
from nftsynth.inverse import (
    BLOCK,
    CHUNK,
    LEAF_SIZE,
    SINGULAR_A0,
    Signal,
    _adjoint,
    _para_mul,
    _peel,
    energy_identity_residual,
    invert_fast,
    invert_sequential,
)
from nftsynth.synthesis import ScatteringPair, SpectrumSpec, synthesize_ab

from oracles import (
    adjoint_column,
    forward_sequential,
    forward_step,
    invert_scalar,
    para,
    rect_pair,
    transfer_matrix,
)


def random_signal(rng, D, scale=None):
    """Signal with amplitude kept small enough that a0 stays well away from 0."""
    if scale is None:
        scale = min(0.5, 2.0 / np.sqrt(D))
    samples = scale * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
    return Signal(samples=samples)


def test_signal_time_grid():
    sig = Signal(samples=np.zeros(4))
    assert sig.D == 4
    assert np.allclose(sig.t, [-0.875, -0.625, -0.375, -0.125])


def test_one_sample_roundtrip():
    """One peel step undoes one forward step: a D=1 signal comes back from its pair."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        Q = complex(rng.standard_normal(), rng.standard_normal())
        pair = forward_sequential(Signal(samples=[Q]))
        assert invert_sequential(pair).samples[0] == pytest.approx(Q, abs=1e-13)
        fast, C = invert_fast(pair)
        assert fast.samples[0] == pytest.approx(Q, abs=1e-13)
        np.testing.assert_allclose(para(C), transfer_matrix([Q]), rtol=0, atol=1e-15)


def test_single_coefficient_pair():
    """A D=1 pair peels to exactly one sample, read from its constant coefficients."""
    s = 1.0 / np.sqrt(2.0)
    for a0, b0, Q in ((1.0, 0.0, 0.0), (s, -s, 1.0), (s, 1j * s, 1j)):
        pair = (np.array([a0]), np.array([b0]))
        seq = invert_sequential(pair)
        fast, C = invert_fast(pair)
        assert seq.D == fast.D == 1
        assert seq.samples[0] == pytest.approx(Q, abs=1e-15)
        assert fast.samples[0] == pytest.approx(Q, abs=1e-15)
        assert para(C).shape == (2, 2, 2)


@pytest.mark.parametrize("invert", [invert_sequential, lambda p: invert_fast(p)[0]])
def test_trivial_pair_gives_zero_signal(invert):
    D = 8
    a = np.zeros(D, dtype=complex)
    a[0] = 1.0
    sig = invert(ScatteringPair(a, np.zeros(D, dtype=complex)))
    assert np.allclose(sig.samples, 0.0)
    assert sig.eps == pytest.approx(1.0 / D)


def test_sequential_empty_and_one_sample_pairs():
    """invert_sequential returns a Signal of D samples at D = 0 and D = 1,
    as the scalar reference does: none for the empty pair, and for one
    coefficient the sample read from it, bit for bit."""
    rng = np.random.default_rng(13)
    empty = np.zeros(0, dtype=complex)
    pairs = [(empty, empty)]
    pairs += [forward_sequential(Signal(samples=[complex(*rng.standard_normal(2))]))
              for _ in range(5)]
    for pair in pairs:
        got = invert_sequential(pair)
        assert isinstance(got, Signal)
        assert got.samples.dtype == complex
        np.testing.assert_array_equal(got.samples, invert_scalar(pair).samples)
    assert invert_sequential((empty, empty)).D == 0


def test_two_sample_roundtrip():
    sig = Signal(samples=np.array([0.3, -0.2j]))
    pair = forward_sequential(sig)
    back = invert_sequential(pair)
    assert np.allclose(back.samples, sig.samples, atol=1e-12)


def test_prefix_determines_newest_samples():
    """The j newest samples only read the first j+1 coefficients.

    Peeling a truncated coefficient window must reproduce the same
    samples as peeling the full pair -- this is what lets the fast
    version recurse on half windows.
    """
    rng = np.random.default_rng(11)
    D = 16
    pair = forward_sequential(random_signal(rng, D))
    full = invert_sequential(pair).samples
    for m in range(1, D + 1):
        cut = invert_sequential((pair.a[:m], pair.b[:m]), check=False)
        np.testing.assert_allclose(cut.samples, full[D - m:], rtol=0, atol=1e-13)


def _mp_peel(a, b):
    """Layer peeling in 30 digits (mpmath), with the step matrix's 1/theta:
    the textbook recursion, an oracle independent of both inversions."""
    with mpmath.workdps(30):
        A = [mpmath.mpc(complex(v)) for v in a]
        B = [mpmath.mpc(complex(v)) for v in b]
        out = []
        while A:
            Q = -mpmath.conj(B[0] / A[0])
            out.append(complex(Q))
            ith = 1 / mpmath.sqrt(1 + abs(Q) ** 2)
            A, B = ([(x - Q * y) * ith for x, y in zip(A[:-1], B)],
                    [(mpmath.conj(Q) * x + y) * ith for x, y in zip(A[1:], B[1:])])
    return np.array(out[::-1])


def test_sequential_matches_high_precision_peel():
    """Both O(D^2) peels, the scalar reference and invert_sequential, not
    only against the fast path: within 1e-13 of
    max|q| of a 30-digit peel, on a synthesized two-eigenvalue pair and on
    the pair of a weak random signal with three spikes of modulus up to 3,
    placed in the newer half, where peeling recovers the signal."""
    two = synthesize_ab(SpectrumSpec(lambdas=[12.5j, 3 + 25j], delta=0.01, D=64, omega_c=10.0))
    rng = np.random.default_rng(7)
    q = 0.05 * (rng.standard_normal(128) + 1j * rng.standard_normal(128))
    q[[70, 100, 120]] = [3.0, 2.1j, -1.2]
    spiky = forward_fast(Signal(samples=q))
    for pair in (two, spiky):
        exact = _mp_peel(pair.a, pair.b)
        for invert in (invert_scalar, invert_sequential):
            got = invert(pair, check=False).samples
            assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()
    np.testing.assert_allclose(exact, q, rtol=0, atol=1e-13 * 3.0)


FOUR_SOLITONS = [12.5j, 3 + 25j, -2 + 37.5j, 50j]


def _row_peel_dev(pair):
    """max |q - q_scalar| between the row peel invert_sequential and the
    scalar oracle invert_scalar on one pair, and the oracle's max |q|."""
    oracle = invert_scalar(pair, check=False).samples
    got = invert_sequential(pair, check=False).samples
    return np.abs(got - oracle).max(), np.abs(oracle).max()


@pytest.mark.parametrize("D", [1, 2, 16, 256, 1024, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 1])
def test_row_peel_matches_scalar_oracle(D):
    """The row peel invert_sequential against the scalar oracle
    invert_scalar on exact pairs of weak random signals: within 1e-13 of
    max |q|.  The signal is padded at its old end with zeros to a power of
    two for forward_fast, which leaves the first D coefficients of the
    pair those of the signal, so D may end a CHUNK part-way."""
    rng = np.random.default_rng(4000 + D)
    scale = min(0.5, 1.0 / np.sqrt(D))
    q = scale * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
    pad = np.zeros((1 << (D - 1).bit_length()) - D)
    full = forward_fast(Signal(samples=np.concatenate([pad, q])))
    dev, peak = _row_peel_dev(ScatteringPair(full.a[:D], full.b[:D]))
    assert dev <= 1e-13 * peak


def test_row_peel_matches_scalar_oracle_four_solitons():
    pair = synthesize_ab(SpectrumSpec(lambdas=FOUR_SOLITONS, delta=0.01, D=512, omega_c=10.0))
    dev, peak = _row_peel_dev(pair)
    assert dev <= 1e-13 * peak


FAR = 1e308 * (1 + 1j)   # B0/A0 = FAR/FAR is NaN in Python's complex division


@pytest.mark.parametrize("a0, j, bj, error, message",
                         [(1.0, 2, np.nan, FloatingPointError, r"coefficient b\[2\] = \(nan\+0j\) is not finite"),
                          (FAR, 0, FAR, FloatingPointError, "invalid value encountered in divide"),
                          (FAR, 7, FAR, FloatingPointError, "invalid value encountered in divide"),
                          (0.0, 2, 0.0, ZeroDivisionError, r"singular recovery: \|a0\| = 0 <"),
                          (1.0, 2, 1e200, FloatingPointError, "overflow")],
                         ids=["nan-coefficient", "nan-first-step", "nan-last-step",
                              "singular-a0", "overflow"])
def test_row_peel_refuses_invalid_pair(a0, j, bj, error, message):
    """As the scalar oracle does, the row peel invert_sequential refuses a
    non-finite coefficient and a vanishing a0 on entry and raises where its
    rows overflow.  A finite pair makes a NaN where the step's ratio
    B0/A0 = FAR/FAR is NaN, a division that raises no flag: with a0 = b[0]
    = FAR at the first step, and with a0 = b[7] = FAR at the last, after
    seven steps that only shift b.  That NaN reaches `_column`'s division
    by prod(theta), which raises under the peel's errstate.  With
    check=False invert_fast, whose one leaf here is invert_sequential's
    whole peel, raises the same error with the same text; with check=True
    both inversions refuse every such pair by validation first."""
    a = np.zeros(8, dtype=complex)
    a[0] = a0
    b = np.zeros(8, dtype=complex)
    b[j] = bj
    pair = ScatteringPair(a, b)
    with pytest.raises(error, match=message):
        invert_sequential(pair, check=False)
    assert _error_text(invert_fast, pair) == _error_text(invert_sequential, pair)
    with pytest.raises(ValueError, match="pair fails validation"):
        invert_sequential(pair)
    with pytest.raises(ValueError, match="pair fails validation"):
        invert_fast(pair)


@pytest.mark.parametrize("D", [1, 2, 4, 8, 16, 32, 64, 128])
def test_fast_matches_sequential_and_roundtrips(D):
    rng = np.random.default_rng(100 + D)
    for _ in range(3):
        sig = random_signal(rng, D)
        pair = forward_sequential(sig)
        seq = invert_scalar(pair)
        fast, _ = invert_fast(pair)
        assert np.allclose(fast.samples, seq.samples, atol=1e-12)
        assert np.allclose(seq.samples, sig.samples, atol=1e-10)
        assert fast.eps == pytest.approx(1.0 / D)


@pytest.mark.parametrize("D", [1 << k for k in range(13)])
def test_mirror_identity(D):
    """The pair of the mirrored signal conj(q[::-1]) is (a, conj(b[::-1])),
    (a, b) the pair of q, so invert_fast of it returns the mirror: an
    oracle that needs no O(D^2) reference.  On exact pairs of weak random
    signals, |q| ~ 0.5/sqrt(D), at D = 1 ... 4096, past LEAF_SIZE too; the
    largest deviation over 20 seeds per D read 3.2e-16."""
    for seed in range(3):
        rng = np.random.default_rng([D, seed])
        q = 0.5 / np.sqrt(D) * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
        pair = forward_fast(Signal(samples=q))
        mirror, _ = invert_fast((pair.a, np.conj(pair.b[::-1])))
        assert np.abs(mirror.samples - np.conj(q[::-1])).max() <= 1e-15


@pytest.mark.parametrize("D", [512, 1 << 16])
def test_chirp_identity(D):
    """A chirp e^{i phi n} on the samples q_n (n = 0 ... D-1) rotates the pair:
    forward_fast(q e^{i phi n}) = (a_j e^{i phi j}, b_j e^{i phi (j - (D-1))}),
    and invert_fast of that rotated pair returns q e^{i phi n}.  Checked on
    the 4-soliton signal, phi = 0.37, up to D = 2^16, where no O(D^2)
    oracle reaches; it sees an index or sign convention that forward_fast's
    tree or invert_fast's windows get wrong, such as _first_column taking
    each block's samples oldest first (its `[:, ::-1]` dropped).

    Bounds, eps the double's machine epsilon.  forward_fast: 2 eps log2(D)^2
    on both coefficients.  An FFT product's rounding grows like log2 of its
    length (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 24.1), over the tree's log2(D) levels, relative to
    |(a, b)|_2 = 1 (Parseval on |a|^2 + |b|^2 = 1); one such error per
    transform, two transforms.
    Measured 2.8e-16 (a) and 3.7e-15 (b) at D = 512 against 3.6e-14;
    4.8e-15 and 3.0e-15 at 2^16 against 1.1e-13.  invert_fast: eps D max|q|.
    Each of the peel's D steps adds rounding of order eps to the window,
    and its steps, unitary up to scale, pass what is there on without
    growth.  Measured 3.4e-14 max|q| at D = 512 against 1.1e-13, and
    1.8e-12 max|q| at 2^16 against 1.5e-11."""
    eps = np.finfo(float).eps
    pair = synthesize_ab(SpectrumSpec(lambdas=FOUR_SOLITONS, delta=0.01, D=D, omega_c=10.0))
    q = invert_fast(pair, check=False)[0].samples
    plain = forward_fast(Signal(samples=q))
    chirp = np.exp(0.37j * np.arange(D))
    a, b = plain.a * chirp, plain.b * chirp * np.exp(-0.37j * (D - 1))
    rotated = forward_fast(Signal(samples=q * chirp))
    bound = 2 * eps * np.log2(D) ** 2
    assert np.abs(rotated.a - a).max() <= bound
    assert np.abs(rotated.b - b).max() <= bound
    back, _ = invert_fast((a, b), check=False)
    assert np.abs(back.samples - q * chirp).max() <= eps * D * np.abs(q).max()


RECTANGLES = pytest.mark.parametrize("area, D", [(1.0, 1 << 10), (1.0, 1 << 16), (5 * np.pi, 1 << 16)],
                                     ids=["1-1024", "1-65536", "5pi-65536"])


@RECTANGLES
def test_forward_fast_against_rectangle(area, D):
    """forward_fast of the rectangle q_n = Q = area/D against its exact pair
    (`oracles.rect_pair`, long double), coefficient by coefficient.

    Bound: 4 eps log2(D)^2 + tail, eps the double's machine epsilon and
    tail the oracle's largest coefficient past D - 1 (its own rounding,
    <= 1.1e-16 here).  Every column has 2-norm 1 (Parseval on
    |a|^2 + |b|^2 = 1) and every step is unitary on the circle, so no tree
    level grows an earlier level's error; each level adds the rounding of
    one FFT product, three transforms of about 2 sqrt(2) eps per butterfly
    stage in 2-norm (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 24.1), so at most about 8 eps log2(n) at length n, and
    the sum over the log2(D) levels is about 4 eps log2(D)^2.  Measured
    1.2e-15 against 8.9e-14 at (area, D) = (1, 2^10); 5.6e-14 and 1.2e-13
    against 2.3e-13 at (1, 2^16) and (5 pi, 2^16)."""
    Q = area / D
    (a, b), tail = rect_pair(Q, D)
    pair = forward_fast(Signal(samples=np.full(D, complex(Q))))
    bound = 4 * np.finfo(float).eps * np.log2(D) ** 2 + tail
    assert np.abs(pair.a - a).max() <= bound
    assert np.abs(pair.b - b).max() <= bound


@RECTANGLES
def test_invert_fast_of_rectangle_pair(area, D):
    """invert_fast of the rectangle's exact pair (`oracles.rect_pair`)
    returns q_n = Q = area/D, relative to Q.

    Bound: eps D e^area, eps the double's machine epsilon.  eps D is the
    chirp identity's bound for a peel whose steps pass each step's rounding
    on without growth (test_chirp_identity); e^area bounds how much the D
    steps can grow it, since a two-row step R0' = R0 - Q R1,
    R1' = conj(Q) R0 + R1 (shifted) grows the rows' largest coefficient by
    at most 1 + |Q|, and prod (1 + |Q|) <= e^{sum |Q|} = e^area.  Above
    area 2 pi the readings do grow like e^area, but 1e-4 to 1e-5 times
    below it.  Measured 2.5e-15 against 6.2e-13 at (area, D) = (1, 2^10),
    2.7e-14 against 3.9e-11 at (1, 2^16) and 4.9e-10 against 9.6e-5 at
    (5 pi, 2^16); the peel breaks down from about 12 pi."""
    Q = area / D
    pair, _ = rect_pair(Q, D)
    q = invert_fast(pair, check=False)[0].samples
    assert np.abs(q - Q).max() / Q <= np.finfo(float).eps * D * np.exp(area)


@st.composite
def spiky_signals(draw):
    """(signal, leaf_size): D = 2^k for k = 0..11, leaf_size in 1..D.

    A random background of energy up to ~1 (as in random_signal) carries
    up to three spikes of modulus up to 3.
    """
    D = 1 << draw(st.integers(0, 11))
    leaf_size = draw(st.integers(1, D))
    level = draw(st.floats(0.0, 0.7))
    amp = draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = min(0.5, level / np.sqrt(D)) * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
    spikes = rng.integers(0, D, size=draw(st.integers(0, 3)))
    q[spikes] = amp * np.exp(2j * np.pi * rng.uniform(size=len(spikes)))
    return Signal(samples=q), leaf_size


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spiky_signals())
def test_fast_inverse_properties(case):
    """invert_fast == invert_scalar, F = para(C) == transfer_matrix(samples), det F = z^{-D}.

    Layer peeling is ill-conditioned for some strong signals: a spike of
    modulus ~3 behind a few hundred background samples can leave the
    sequential reference 1e-3 away from the signal it inverts, and any two
    roundings then disagree as much.  Sample agreement is asserted where
    the reference recovers the signal to 1e-11; F and det F on every draw.
    """
    sig, leaf_size = case
    D = sig.D
    pair = forward_sequential(sig)
    seq = invert_scalar(pair)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inverse, "LEAF_SIZE", leaf_size)
        fast, C = invert_fast(pair)
    F = para(C)
    np.testing.assert_allclose(F, transfer_matrix(fast.samples), rtol=0, atol=1e-14)
    column = transfer_matrix(sig.samples)[:, 0, :D]
    np.testing.assert_allclose(column[0], pair.a, rtol=0, atol=1e-12)
    np.testing.assert_allclose(column[1], pair.b, rtol=0, atol=1e-12)
    det = np.convolve(F[0, 0], F[1, 1]) - np.convolve(F[0, 1], F[1, 0])
    expected = np.zeros(2 * D + 1, dtype=complex)
    expected[D] = 1.0
    np.testing.assert_allclose(det, expected, rtol=0, atol=1e-10)
    assume(np.abs(seq.samples - sig.samples).max() <= 1e-11)
    np.testing.assert_allclose(fast.samples, seq.samples, rtol=0, atol=1e-10)


@pytest.mark.parametrize("D", [256, 1024, 2048])
def test_weak_signal_matrix_matches_transfer_matrix(D):
    """para of invert_fast's column == transfer_matrix of its samples on weak signals,
    |q| ~ 1e-8..1e-2.  Both leaves step unnormalized and divide once by
    prod(theta); a 1/theta in every block step rounds |Q|^2 away step
    after step, and transfer_matrix then drifts by up to ~1e-13 at D = 2048."""
    for s in (1e-8, 1e-7, 1e-6, 1e-4, 1e-2):
        rng = np.random.default_rng([D, round(-np.log10(s))])
        q = s * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
        sig, C = invert_fast(forward_fast(Signal(samples=q)))
        np.testing.assert_allclose(para(C), transfer_matrix(sig.samples), rtol=0, atol=1e-14)


def test_transfer_matrix_matches_direct_product():
    """transfer_matrix(q) == F(q[n-1]) @ ... @ F(q[0]), multiplied out one step at a time.

    Each F(Q) is forward_step applied to [1; 0] and [0; 1], its two
    columns.  The O(n^2) oracle convolves every entry (np.convolve), so
    both columns are checked independently of the tree, the blocks and the
    para-conjugate rebuild of the second column; |q| reaches 3.  Up to
    4 * BLOCK samples, so that both the batched block step and the tree
    above it run.
    """
    rng = np.random.default_rng(29)
    for n in sorted({1, 2, 4, 8, 16, 32, 64, 4 * BLOCK}):
        for scale in (0.1, 1.0, 3.0):
            q = scale * rng.uniform(size=n) * np.exp(2j * np.pi * rng.uniform(size=n))
            P = np.zeros((2, 2, 1), dtype=complex)
            P[0, 0, 0] = P[1, 1, 0] = 1.0
            for Q in q:
                (a1, b1), (a2, b2) = forward_step([1.0], [0.0], Q), forward_step([0.0], [1.0], Q)
                S = np.array([[a1, a2], [b1, b2]])
                P =np.array([[sum(np.convolve(S[i, k], P[k, j]) for k in range(2))
                               for j in range(2)] for i in range(2)])
            np.testing.assert_allclose(transfer_matrix(q), P, rtol=0,
                                       atol=1e-13 * np.abs(P).max())


def _spiky_pair(n, spikes):
    """(q, a, b): n samples of background energy ~1 carrying `spikes` spikes of
    modulus up to 3, and the first n coefficients of their pair, from
    forward_fast of q padded at its old end with zeros to a power of two."""
    rng = np.random.default_rng([n, spikes])
    q = random_signal(rng, n, scale=min(0.5, 0.7 / np.sqrt(n))).samples
    at = rng.integers(0, n, size=spikes)
    q[at] = 3.0 * rng.uniform(size=spikes) * np.exp(2j * np.pi * rng.uniform(size=spikes))
    pad = np.zeros((1 << (n - 1).bit_length()) - n)
    pair = forward_fast(Signal(samples=np.concatenate([pad, q])))
    return q, pair.a[:n], pair.b[:n]


@pytest.mark.parametrize("n", [1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, LEAF_SIZE, 512])
def test_peel_returns_samples_and_column(n):
    """_peel of a pair returns its samples and the column transfer_matrix(samples)[:, 0].

    n need not be a power of two: zero samples before the signal leave
    the first column [1; 0] of their steps as it is, so forward_fast and
    transfer_matrix of the signal padded at its old end with zeros give
    the pair and the column (zero from coefficient n on).  A background of
    energy ~1 (as in spiky_signals) carries 0-3 spikes of modulus up to 3.
    The column, n coefficients, is checked on every draw against the
    samples _peel returns.  Layer peeling is ill-conditioned for some
    spiky signals (see test_fast_inverse_properties), so the samples are
    checked against the signal where the sequential reference recovers it
    to 1e-11, and on every draw without spikes.
    """
    pad = np.zeros((1 << (n - 1).bit_length()) - n)
    for spikes in range(4):
        q, a, b = _spiky_pair(n, spikes)
        qs, column = _peel(np.stack([a, b]))
        expected = transfer_matrix(np.concatenate([pad, qs[::-1]]))[:, 0]
        got = np.zeros_like(expected)
        got[:, :n] = column
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.abs(expected).max())
        seq = invert_scalar((a, b), check=False).samples
        if spikes == 0 or np.abs(seq - q).max() <= 1e-11:
            np.testing.assert_allclose(qs[::-1], q, rtol=0, atol=1e-10)


def _high_energy_pair():
    """forward_fast of a weak D=512 signal whose sixteen newest samples have
    modulus 3, and the signal: prod(theta) = 1/|a0| ~ 1e8.  Peeled first,
    the strong samples amplify little rounding, and the reference recovers
    the signal to ~3e-6; strong samples peeled later amplify it past 1."""
    rng = np.random.default_rng(41)
    q = 0.01 * (rng.standard_normal(512) + 1j * rng.standard_normal(512))
    q[-16:] = 3.0 * np.exp(2j * np.pi * rng.uniform(size=16))
    return forward_fast(Signal(samples=q)), q


def test_peel_high_energy(monkeypatch):
    """The unnormalized leaf divides its column once by prod(theta) ~ 1e8.

    The samples against invert_scalar, relative to their largest,
    within the amplified rounding both peels share; the column against
    transfer_matrix of them at 1e-14 relative.  Also through the tree,
    with 64-sample leaves."""
    pair, q = _high_energy_pair()
    assert np.prod(np.hypot(1.0, np.abs(q))) >= 1e8
    seq = invert_scalar(pair).samples
    np.testing.assert_allclose(seq, q, rtol=0, atol=1e-5)
    qs, column = _peel(np.stack([pair.a, pair.b]))
    assert np.abs(qs[::-1] - seq).max() <= 1e-12 * np.abs(seq).max()
    expected = transfer_matrix(qs[::-1])[:, 0, :-1]
    np.testing.assert_allclose(column, expected, rtol=0, atol=1e-14 * np.abs(expected).max())
    monkeypatch.setattr(inverse, "LEAF_SIZE", 64)
    fast, C = invert_fast(pair)
    F = para(C)
    assert np.abs(fast.samples - seq).max() <= 1e-12 * np.abs(seq).max()
    np.testing.assert_allclose(F, transfer_matrix(fast.samples), rtol=0, atol=1e-14 * np.abs(F).max())


def test_peel_refuses_singular_and_overflowing_windows(monkeypatch):
    """A vanishing a0 raises ZeroDivisionError from both inversions, which
    check it on entry (the leaf no longer does); a window whose
    unnormalized rows or prod(theta) overflow raises FloatingPointError,
    never returning inf or NaN."""
    pair, _ = _high_energy_pair()
    a = pair.a.copy()
    a[0] = 0.5 * SINGULAR_A0
    with pytest.raises(ZeroDivisionError):
        invert_sequential((a, pair.b), check=False)
    monkeypatch.setattr(inverse, "LEAF_SIZE", 64)
    with pytest.raises(ZeroDivisionError):
        invert_fast((a, pair.b), check=False)
    monkeypatch.setattr(inverse, "LEAF_SIZE", 4)
    one = np.zeros(8, dtype=complex)
    one[0] = 1.0
    for a0, b in ((1.0, np.full(8, 1e200)),          # A - Q B overflows in the step
                  (SINGULAR_A0, np.full(8, 1e300))):  # Q = -conj(B0/A0) overflows
        a = one * a0
        with pytest.raises(FloatingPointError):
            _peel(np.stack([a, b]))
        with pytest.raises(FloatingPointError):
            invert_fast((a, b), check=False)


def mat_convolve(X, Y):
    """X @ Y for (..., 2, 2, Lx) and (..., 2, k, Ly) stacks, entry by entry with np.convolve."""
    lead = np.broadcast_shapes(X.shape[:-3], Y.shape[:-3])
    X = np.broadcast_to(X, lead + X.shape[-3:])
    Y = np.broadcast_to(Y, lead + Y.shape[-3:])
    out = np.zeros(lead + (2, Y.shape[-2], X.shape[-1] + Y.shape[-1] - 1), dtype=complex)
    for idx in np.ndindex(out.shape[:-1]):
        *b, i, l = idx
        for j in range(2):
            out[idx] += np.convolve(X[(*b, i, j)], Y[(*b, j, l)])
    return out


def random_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("h", [1 << k for k in range(9)])
def test_para_spectra_from_one_fft(h):
    """At length 2h, z^{-h} p* transforms to (-1)^j conj(P_j): one FFT of a
    stack of columns C gives the spectra of all four entries of para(C)."""
    C = random_stack(np.random.default_rng(h), (3, 2, h))
    S = np.fft.fft(C, 2 * h)
    A, B = S[:, 0], S[:, 1]
    sign = (-1.0) ** np.arange(2 * h)
    built = np.stack([np.stack([A, -sign * B.conj()], 1), np.stack([B, sign * A.conj()], 1)], 1)
    expected = np.fft.fft(para(C), 2 * h)
    np.testing.assert_allclose(built, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("h", [1, 2, 3, 8, 64, 256])
def test_para_mul_matches_convolve(h):
    """_para_mul == para(X) @ Y, multiplied out with np.convolve.

    X and Y are random columns of h coefficients, as every column of h
    steps is, so the product has degree below 2h and needs nothing past
    the length-2h transform.  h = 3 is not a power of two."""
    rng = np.random.default_rng(h)
    for lead in ((), (3,), (2, 3)):
        X = random_stack(rng, lead + (2, h))
        Y = random_stack(rng, lead + (2, h))
        ref = mat_convolve(para(X), Y[..., None, :])[..., 0, :]
        out = _para_mul(np.fft.fft(X, 2 * h), np.fft.fft(Y, 2 * h))
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("h", [1, 2, 8, 64, 256])
def test_older_window_middle_product(h):
    """invert_fast's window step, _para_mul(_adjoint(P), FFT(V)), gives
    coefficients h..2h-1 of adj(para(C)) @ V exactly.

    The linear product has length 3h; at length 2h its coefficients
    2h..3h-1 wrap onto 0..h-1 and nothing lands on h..2h-1.
    adj([[p, q], [r, s]]) = [[s, -q], [-r, p]], and _adjoint(P) is the
    spectrum of the adjoint column, whose form is adj(para(C)).
    """
    rng = np.random.default_rng(h)
    C = random_stack(rng, (2, h))
    V = random_stack(rng, (2, 2 * h))
    F = para(C)
    adj = np.array([[F[1, 1], -F[0, 1]], [-F[1, 0], F[0, 0]]])
    ref = mat_convolve(adj, V[:, None, :])[:, 0, h:2 * h]
    Pa = _adjoint(np.fft.fft(C, 2 * h))
    expected = np.fft.fft(adjoint_column(C), 2 * h)
    assert np.abs(Pa - expected).max() <= 1e-13 * np.abs(expected).max()
    out = _para_mul(Pa, np.fft.fft(V))[:, h:2 * h]
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_leaf_size_invariance(monkeypatch):
    rng = np.random.default_rng(7)
    pair = forward_sequential(random_signal(rng, 64))
    ref, _ = invert_fast(pair)
    for leaf in (2, 8, 32, 64):
        monkeypatch.setattr(inverse, "LEAF_SIZE", leaf)
        alt, _ = invert_fast(pair)
        assert np.allclose(alt.samples, ref.samples, atol=1e-12)


def test_energy_identity():
    rng = np.random.default_rng(23)
    for D in (16, 64, 256):
        sig = random_signal(rng, D)
        pair = forward_sequential(sig)
        assert energy_identity_residual(sig, pair.a[0]) <= 1e-8


def test_transfer_matrix_det_is_z_to_the_minus_D(monkeypatch):
    """det F = z^{-D} for the forward matrix F = para(C) of invert_fast's column C,
    checked on coefficients.

    Evaluating the determinant pointwise off the circle is hopeless at
    large D (the two products cancel to ~machine_eps * |z|^{2D}), so the
    check is coefficient-wise.  With 32-sample leaves, D=16 is one leaf and
    D=256 runs the recursion.
    """
    rng = np.random.default_rng(3)
    monkeypatch.setattr(inverse, "LEAF_SIZE", 32)
    for D in (16, 256):
        _, C = invert_fast(forward_sequential(random_signal(rng, D)))
        F = para(C)
        assert F.shape == (2, 2, D + 1)
        det = np.convolve(F[0, 0], F[1, 1]) - np.convolve(F[0, 1], F[1, 0])
        expected = np.zeros(2 * D + 1, dtype=complex)
        expected[D] = 1.0
        assert np.allclose(det, expected, atol=1e-10)


def test_invert_fast_matrix_is_forward_product(monkeypatch):
    """para(C), C the column invert_fast returns, is the forward product of
    the samples it recovers.

    Each column is built with forward_step, the O(D) per step reference,
    from the recovered samples in time order; F also equals the tree
    product transfer_matrix of those samples.  Both checked coefficient-wise,
    with 32-sample leaves so that F comes out of the recursion.
    """
    rng = np.random.default_rng(17)
    D = 256
    monkeypatch.setattr(inverse, "LEAF_SIZE", 32)
    sig, C = invert_fast(forward_sequential(random_signal(rng, D)))
    F = para(C)
    for col, (top, bottom) in enumerate((([1.0], [0.0]), ([0.0], [1.0]))):
        for Q in sig.samples:
            top, bottom = forward_step(top, bottom, Q)
        np.testing.assert_allclose(F[0, col], top, rtol=0, atol=1e-12)
        np.testing.assert_allclose(F[1, col], bottom, rtol=0, atol=1e-12)
    np.testing.assert_allclose(F, transfer_matrix(sig.samples), rtol=0, atol=1e-14)


def test_singular_pair_raises():
    unimodular = (np.array([0.0, 1.0]), np.zeros(2))   # unimodular but a0 = 0
    last = (np.array([1e-15]), np.array([0.5]))        # D = 1: the last sample's a0 vanishes
    for pair in (unimodular, last):
        with pytest.raises(ZeroDivisionError):
            invert_sequential(pair, check=False)
        with pytest.raises(ZeroDivisionError):
            invert_fast(pair, check=False)


def test_non_finite_pair_raises():
    """A NaN in the pair raises FloatingPointError from both inversions,
    never a signal of NaNs.  With a = 1 and b[2] = NaN, both inversions
    name the coefficient by one check on entry, before any step."""
    a = np.zeros(8, dtype=complex)
    a[0] = 1.0
    b = np.zeros(8, dtype=complex)
    b[2] = np.nan
    message = r"coefficient b\[2\] = \(nan\+0j\) is not finite"
    with pytest.raises(FloatingPointError, match=message):
        invert_sequential((a, b), check=False)
    with pytest.raises(FloatingPointError, match=message):
        invert_fast((a, b), check=False)


def _error_text(invert, pair):
    with pytest.raises((ZeroDivisionError, FloatingPointError)) as err:
        invert(pair, check=False)
    return err.type, str(err.value)


@pytest.mark.parametrize("leaf", [LEAF_SIZE, 64, 4])
def test_fast_and_sequential_name_the_same_failure(monkeypatch, leaf):
    """Both inversions check the pair on entry, so they raise the same
    text: on a D=512 pair with a0 = 0 (a guard inside each leaf would
    count a leaf-local step, 256 against 512), and for a NaN or inf at
    a[j] or b[j], named as that coefficient wherever it lies, also past
    the first leaf, where the tree's FFTs would spread a NaN over the
    window they transform.  With check=True validation refuses first."""
    monkeypatch.setattr(inverse, "LEAF_SIZE", leaf)
    a = np.zeros(512, dtype=complex)
    b = np.zeros(512, dtype=complex)
    b[3] = 0.5
    error = _error_text(invert_sequential, (a, b))
    assert error == (ZeroDivisionError, "singular recovery: |a0| = 0 < 1e-14")
    assert _error_text(invert_fast, (a, b)) == error
    for value in (np.nan, np.inf):
        for row in ("a", "b"):
            for j in sorted({0, 1, 2, 255, 300, 511, leaf - 1}):
                a = np.zeros(512, dtype=complex)
                a[0] = 1.0
                b = np.zeros(512, dtype=complex)
                (a if row == "a" else b)[j] = value
                error = _error_text(invert_sequential, (a, b))
                assert error == (FloatingPointError, f"coefficient {row}[{j}] = {complex(value)} is not finite")
                assert _error_text(invert_fast, (a, b)) == error
    for invert in (invert_sequential, invert_fast):
        with pytest.raises(ValueError, match="pair fails validation"):
            invert((a, b))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.floats(SINGULAR_A0, 10.0), st.floats(0.0, 2 * np.pi),
       st.data())
def test_a0_check_on_entry_is_enough(D, r0, phase, data):
    """The invariant behind checking a0 once: a step maps A0 to theta^2 A0,
    so |A0| never falls.  On pairs with |a0| >= SINGULAR_A0 and arbitrary
    a[1:] and b, the scalar oracle, which still guards every step, never
    raises ZeroDivisionError."""
    coef = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    a = np.array([r0 * np.exp(1j * phase)] + data.draw(st.lists(coef, min_size=D - 1, max_size=D - 1)))
    b = np.array(data.draw(st.lists(coef, min_size=D, max_size=D)), dtype=complex)
    assume(abs(a[0]) >= SINGULAR_A0)
    assert invert_scalar((a, b), check=False).D == D


def _log_uniform(lo):
    """Complex numbers of modulus 10**e, e over lo...308.2, with random phases."""
    return st.builds(lambda e, phase: 10.0 ** e * complex(np.exp(1j * phase)),
                     st.floats(lo, 308.2), st.floats(0.0, 2 * np.pi))


FAR_COEFFICIENT = st.one_of(st.just(0j), _log_uniform(-20.0))


@st.composite
def far_from_valid_pairs(draw):
    """Finite pairs of D <= 64 coefficients far from any valid pair: moduli
    log-uniform over 1e-20...1.6e308 with random phases, or 0, and
    |a0| >= SINGULAR_A0."""
    D = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    a0 = draw(_log_uniform(np.log10(SINGULAR_A0)))
    a = np.array([a0] + draw(st.lists(FAR_COEFFICIENT, min_size=D - 1, max_size=D - 1)), dtype=complex)
    b = np.array(draw(st.lists(FAR_COEFFICIENT, min_size=D, max_size=D)), dtype=complex)
    return a, b


@pytest.mark.parametrize("leaf", [4, 64])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(pair=far_from_valid_pairs())
@example(pair=(np.array([1e308 * (1 + 1j)]), np.array([1e308 * (1 + 1j)])))
def test_far_pair_peels_to_finite_samples_or_raises(leaf, pair):
    """On a finite pair, however far from valid, each inversion returns
    finite samples or raises FloatingPointError or ZeroDivisionError,
    nothing else.  The example's ratio B0/A0 is NaN with no flag raised
    (Python's complex division overflows in its denominator), so only
    the check of the samples on exit refuses it."""
    assume(abs(pair[0][0]) >= SINGULAR_A0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inverse, "LEAF_SIZE", leaf)
        for invert in (invert_sequential, lambda p, check: invert_fast(p, check=check)[0]):
            try:
                q = invert(pair, check=False).samples
            except (FloatingPointError, ZeroDivisionError):
                continue
            assert np.isfinite(q).all()


def test_tree_window_a0_rounded_to_zero_raises(monkeypatch):
    """On a pair far from valid the tree can round an older window's A0 to
    0: with a = 1 + 1e300 z^-4, b = 0 and leaves of 4, the root's FFTs
    lose a0 = 1 against 1e300.  invert_fast names that cause rather than
    let Python's bare complex division by zero escape; invert_sequential,
    which has no tree, peels the pair to zeros; check=True refuses it."""
    monkeypatch.setattr(inverse, "LEAF_SIZE", 4)
    a = np.zeros(8, dtype=complex)
    a[0], a[4] = 1.0, 1e300
    b = np.zeros(8, dtype=complex)
    assert np.all(invert_sequential((a, b), check=False).samples == 0)
    with pytest.raises(ZeroDivisionError, match="a window's A0 rounded to 0.*check=True refuses it"):
        invert_fast((a, b), check=False)
    with pytest.raises(ValueError, match="pair fails validation"):
        invert_fast((a, b))


def test_fast_rejects_non_power_of_two():
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    b = np.zeros(3, dtype=complex)
    with pytest.raises(ValueError, match="power of two"):
        invert_fast((a, b))
    empty = np.zeros(0, dtype=complex)
    with pytest.raises(ValueError, match="power of two"):
        invert_fast((empty, empty))


def test_invalid_pair_rejected_when_checking():
    D = 4
    a, b = 0.5 * np.ones(D, dtype=complex), np.zeros(D, dtype=complex)
    fast = lambda p, **kw: invert_fast(p, **kw)[0]
    for invert in (invert_sequential, fast):
        for bad in (ScatteringPair(a, b), (a, b)):     # a pair or a bare tuple alike
            with pytest.raises(ValueError, match="validation"):
                invert(bad)
            got = invert(bad, check=False)             # opt-out still computes
            assert got.D == D


def _c_calls(fn, *args):
    """C-function calls made by fn(*args), counted by sys.setprofile."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "c_call"

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("D", [256, 1024])
def test_peel_c_calls_per_sample(D):
    """The C-call ledger of both inversions on the 4-soliton spec: the peel
    loop reads A0 and B0 and conjugates their ratio, three C calls per
    sample (a ufunc call is not one), so a whole call stays at most 3.25
    per sample (a per-step a0 guard adds two, 5.05-5.18).  A count, not a
    time: it does not move from run to run."""
    pair = synthesize_ab(SpectrumSpec(lambdas=[12.5j, 25j, 37.5j, 50j], delta=0.01, D=D, omega_c=10.0))
    for invert in (invert_sequential, invert_fast):
        assert _c_calls(invert, pair, False) / D <= 3.25


@pytest.mark.parametrize("D", [256, 512, 1024, 2048, 4096, 8192, 16384])
def test_fft_ledger(monkeypatch, D):
    """The FFT ledger of the two fast transforms on the bench's one-soliton
    spec (20i): invert_fast runs five transforms at each of its
    D/LEAF_SIZE - 1 nodes (C_hi, V and C_lo forward, two products back),
    forward_fast one forward and one inverse transform per tree level
    above its blocks of BLOCK samples.  A count, not a time."""
    pair = synthesize_ab(SpectrumSpec(lambdas=[20j], delta=0.01, D=D, omega_c=10.0))
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _t=transform, **kw: calls.append(1) or _t(*args, **kw))
    signal, _ = invert_fast(pair, check=False)
    inverse_calls = len(calls)
    forward_fast(signal)
    assert inverse_calls == 5 * (D // LEAF_SIZE - 1)
    assert len(calls) - inverse_calls == 2 * int(np.log2(D // BLOCK))


def test_fft_work_is_log_squared(monkeypatch):
    """The FFT work of invert_fast and forward_fast, sum rows * n * log2 n
    over their transforms, on one weak random signal's exact pair, stays
    below 8 D log2^2 D from D = 2^9 to 2^16: an inverse node of n samples
    makes ten length-n row transforms, a forward tree level six of length
    2m per 2m samples, so the ratio climbs toward 5 + 3 = 8 from below
    (3.33 at 2^9, 6.74 at 2^16).  A count, not a time."""
    rng = np.random.default_rng(5)
    work = []

    def counted(transform):
        def call(x, n=None, axis=-1, **kw):
            x = np.asarray(x)
            m = x.shape[axis] if n is None else n
            work.append(x.size // x.shape[axis] * m * np.log2(m))
            return transform(x, n, axis, **kw)
        return call

    for k in range(9, 17):
        D = 1 << k
        pair = forward_fast(random_signal(rng, D))
        with monkeypatch.context() as mp:
            for name in ("fft", "ifft"):
                mp.setattr(np.fft, name, counted(getattr(np.fft, name)))
            signal, _C = invert_fast(pair, check=False)
            forward_fast(signal)
        assert sum(work) / (D * k * k) < 8.0
        work.clear()


def test_cost_scaling_smoke():
    """Per-sample cost: the scalar reference grows ~linearly with D, fast stays flat-ish.

    Wide margins -- the definitive measurement lives in the acceptance
    tests; this only guards against the complexity regressing outright.
    """
    rng = np.random.default_rng(42)
    times = {}
    for D in (64, 1024):
        pair = forward_sequential(random_signal(rng, D))
        args = np.asarray(pair.a), np.asarray(pair.b)
        for name, fn in (("seq", invert_scalar), ("fast", invert_fast)):
            fn(args)                                    # warmup
            reps = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn(args)
                reps.append(time.perf_counter() - t0)
            times[name, D] = np.median(reps) / D
    assert times["seq", 1024] / times["seq", 64] >= 3.0
    assert times["fast", 1024] < times["seq", 1024]
