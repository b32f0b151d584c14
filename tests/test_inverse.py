import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nftsynth.forward import forward_sequential, forward_step
from nftsynth.inverse import (
    Signal,
    energy_identity_residual,
    invert_fast,
    invert_sequential,
    recover_sample,
    transfer_matrix,
)
from nftsynth.poly import poly_mul
from nftsynth.synthesis import pair_from_coeffs


def random_signal(rng, D, scale=None):
    """Signal with amplitude kept small enough that a0 stays well away from 0."""
    if scale is None:
        scale = min(0.5, 2.0 / np.sqrt(D))
    samples = scale * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
    return Signal(samples=samples, eps=1.0 / D)


def test_signal_time_grid():
    sig = Signal(samples=np.zeros(4), eps=0.25)
    assert sig.D == 4
    assert np.allclose(sig.t, [-0.875, -0.625, -0.375, -0.125])


def test_recover_sample_hand_values():
    s = 1.0 / np.sqrt(2.0)
    assert recover_sample([s], [-s]) == pytest.approx(1.0)
    assert recover_sample([s], [1j * s]) == pytest.approx(1j)
    assert recover_sample([1.0], [0.0]) == 0.0
    with pytest.raises(ZeroDivisionError):
        recover_sample([1e-15], [0.5])


def test_one_sample_roundtrip():
    """One peel step undoes one forward step: a D=1 signal comes back from its pair."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        Q = complex(rng.standard_normal(), rng.standard_normal())
        pair = forward_sequential(Signal(samples=[Q], eps=1.0))
        assert invert_sequential(pair).samples[0] == pytest.approx(Q, abs=1e-13)
        fast, F = invert_fast(pair)
        assert fast.samples[0] == pytest.approx(Q, abs=1e-13)
        np.testing.assert_allclose(F, transfer_matrix([Q]), rtol=0, atol=1e-15)


def test_single_coefficient_pair():
    """A D=1 pair peels to exactly one sample, read from its constant coefficients."""
    s = 1.0 / np.sqrt(2.0)
    for a0, b0, Q in ((1.0, 0.0, 0.0), (s, -s, 1.0), (s, 1j * s, 1j)):
        pair = (np.array([a0]), np.array([b0]))
        seq = invert_sequential(pair)
        fast, F = invert_fast(pair)
        assert seq.D == fast.D == 1
        assert seq.samples[0] == pytest.approx(Q, abs=1e-15)
        assert fast.samples[0] == pytest.approx(Q, abs=1e-15)
        assert F.shape == (2, 2, 2)


@pytest.mark.parametrize("invert", [invert_sequential, lambda p: invert_fast(p)[0]])
def test_trivial_pair_gives_zero_signal(invert):
    D = 8
    a = np.zeros(D, dtype=complex)
    a[0] = 1.0
    sig = invert(pair_from_coeffs(a, np.zeros(D, dtype=complex)))
    assert np.allclose(sig.samples, 0.0)
    assert sig.eps == pytest.approx(1.0 / D)


def test_two_sample_roundtrip():
    sig = Signal(samples=np.array([0.3, -0.2j]), eps=0.5)
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


@pytest.mark.parametrize("D", [2, 4, 8, 16, 32, 64, 128])
def test_fast_matches_sequential_and_roundtrips(D):
    rng = np.random.default_rng(100 + D)
    for _ in range(3):
        sig = random_signal(rng, D)
        pair = forward_sequential(sig)
        seq = invert_sequential(pair)
        fast, _ = invert_fast(pair)
        assert np.allclose(fast.samples, seq.samples, atol=1e-12)
        assert np.allclose(seq.samples, sig.samples, atol=1e-10)
        assert fast.eps == pytest.approx(1.0 / D)


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
    return Signal(samples=q, eps=1.0 / D), leaf_size


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spiky_signals())
def test_fast_inverse_properties(case):
    """invert_fast == invert_sequential, F == transfer_matrix(samples), det F = z^{-D}.

    Layer peeling is ill-conditioned for some strong signals: a spike of
    modulus ~3 behind a few hundred background samples can leave the
    sequential reference 1e-3 away from the signal it inverts, and any two
    roundings then disagree as much.  Sample agreement is asserted where
    the reference recovers the signal to 1e-11; F and det F on every draw.
    """
    sig, leaf_size = case
    D = sig.D
    pair = forward_sequential(sig)
    seq = invert_sequential(pair)
    fast, F = invert_fast(pair, leaf_size=leaf_size)
    np.testing.assert_allclose(F, transfer_matrix(fast.samples), rtol=0, atol=1e-14)
    det = poly_mul(F[0, 0], F[1, 1]) - poly_mul(F[0, 1], F[1, 0])
    expected = np.zeros(2 * D + 1, dtype=complex)
    expected[D] = 1.0
    np.testing.assert_allclose(det, expected, rtol=0, atol=1e-10)
    assume(np.abs(seq.samples - sig.samples).max() <= 1e-11)
    np.testing.assert_allclose(fast.samples, seq.samples, rtol=0, atol=1e-10)


def test_leaf_size_invariance():
    rng = np.random.default_rng(7)
    pair = forward_sequential(random_signal(rng, 64))
    ref, _ = invert_fast(pair)
    for leaf in (2, 8, 32, 64):
        alt, _ = invert_fast(pair, leaf_size=leaf)
        assert np.allclose(alt.samples, ref.samples, atol=1e-12)


def test_energy_identity():
    rng = np.random.default_rng(23)
    for D in (16, 64, 256):
        sig = random_signal(rng, D)
        pair = forward_sequential(sig)
        assert energy_identity_residual(sig, pair.a[0]) <= 1e-8


def test_transfer_matrix_det_is_z_to_the_minus_D():
    """det F = z^{-D} for invert_fast's forward matrix F, checked on coefficients.

    Evaluating the determinant pointwise off the circle is hopeless at
    large D (the two products cancel to ~machine_eps * |z|^{2D}), so the
    check is coefficient-wise.  With 32-sample leaves, D=16 is one leaf and
    D=256 runs the recursion.
    """
    rng = np.random.default_rng(3)
    for D in (16, 256):
        _, F = invert_fast(forward_sequential(random_signal(rng, D)), leaf_size=32)
        assert F.shape == (2, 2, D + 1)
        det = poly_mul(F[0, 0], F[1, 1]) - poly_mul(F[0, 1], F[1, 0])
        expected = np.zeros(2 * D + 1, dtype=complex)
        expected[D] = 1.0
        assert np.allclose(det, expected, atol=1e-10)


def test_invert_fast_matrix_is_forward_product():
    """invert_fast's F is the forward product of the samples it recovers.

    Each column is built with forward_step, the O(D) per step reference,
    from the recovered samples in time order; F also equals the tree
    product transfer_matrix of those samples.  Both checked coefficient-wise,
    with 32-sample leaves so that F comes out of the recursion.
    """
    rng = np.random.default_rng(17)
    D = 256
    sig, F = invert_fast(forward_sequential(random_signal(rng, D)), leaf_size=32)
    for col, (top, bottom) in enumerate((([1.0], [0.0]), ([0.0], [1.0]))):
        for Q in sig.samples:
            top, bottom = forward_step(top, bottom, Q)
        np.testing.assert_allclose(F[0, col], top, rtol=0, atol=1e-12)
        np.testing.assert_allclose(F[1, col], bottom, rtol=0, atol=1e-12)
    np.testing.assert_allclose(F, transfer_matrix(sig.samples), rtol=0, atol=1e-14)


def test_singular_pair_raises():
    a = np.array([0.0, 1.0], dtype=complex)   # unimodular but a0 = 0
    b = np.zeros(2, dtype=complex)
    with pytest.raises(ZeroDivisionError):
        invert_sequential((a, b))
    with pytest.raises(ZeroDivisionError):
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
    bad = pair_from_coeffs(0.5 * np.ones(D, dtype=complex), np.zeros(D, dtype=complex))
    with pytest.raises(ValueError, match="validation"):
        invert_sequential(bad)
    got = invert_sequential(bad, check=False)          # opt-out still computes
    assert got.D == D


def test_cost_scaling_smoke():
    """Per-sample cost: sequential grows ~linearly with D, fast stays flat-ish.

    Wide margins -- the definitive measurement lives in the acceptance
    tests; this only guards against the complexity regressing outright.
    """
    rng = np.random.default_rng(42)
    times = {}
    for D in (64, 1024):
        pair = forward_sequential(random_signal(rng, D))
        args = np.asarray(pair.a), np.asarray(pair.b)
        for name, fn in (("seq", invert_sequential), ("fast", invert_fast)):
            fn(args)                                    # warmup
            reps = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn(args)
                reps.append(time.perf_counter() - t0)
            times[name, D] = np.median(reps) / D
    assert times["seq", 1024] / times["seq", 64] >= 3.0
    assert times["fast", 1024] < times["seq", 1024]
