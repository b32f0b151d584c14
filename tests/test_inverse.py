import time

import numpy as np
import pytest

from nftsynth.forward import forward_sequential, forward_step
from nftsynth.inverse import (
    Signal,
    energy_identity_residual,
    invert_fast,
    invert_sequential,
    recover_sample,
    step_inverse,
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


def test_step_inverse_undoes_forward_step():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        Q = complex(rng.standard_normal(), rng.standard_normal())
        ap, bp = forward_step(a, b, Q)
        assert recover_sample(ap, bp) == pytest.approx(Q, abs=1e-13)
        a2, b2 = step_inverse(ap, bp, Q)
        assert np.allclose(a2, a, atol=1e-13)
        assert np.allclose(b2, b, atol=1e-13)


def test_step_inverse_single_coefficient_terminates():
    a2, b2 = step_inverse([1.0], [0.0], 0.0)
    assert len(a2) == 0 and len(b2) == 0


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
    m = 6
    pair = forward_sequential(random_signal(rng, D))
    full_a, full_b = np.asarray(pair.a), np.asarray(pair.b)
    cut_a, cut_b = full_a[:m].copy(), full_b[:m].copy()
    for _ in range(m - 1):
        Q_full = recover_sample(full_a, full_b)
        Q_cut = recover_sample(cut_a, cut_b)
        assert Q_cut == pytest.approx(Q_full, abs=1e-13)
        full_a, full_b = step_inverse(full_a, full_b, Q_full)
        cut_a, cut_b = step_inverse(cut_a, cut_b, Q_cut)


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


def test_transfer_matrix_det_is_z_to_the_D():
    """det of the accumulated matrix is exactly z^D (checked on coefficients).

    Evaluating the determinant pointwise off the circle is hopeless at
    large D (the two products cancel to ~machine_eps * |z|^{2D}), so the
    check is coefficient-wise.
    """
    rng = np.random.default_rng(3)
    D = 16
    pair = forward_sequential(random_signal(rng, D))
    _, tm = invert_fast(pair)
    assert tm.half_powers == D
    assert tm.t11.offset == 0
    prod1 = poly_mul(tm.t11.coeffs, tm.t22.coeffs)
    prod2 = poly_mul(tm.t12.coeffs, tm.t21.coeffs)
    n = max(len(prod1), len(prod2))
    det = np.zeros(n, dtype=complex)
    det[: len(prod1)] += prod1
    det[: len(prod2)] -= prod2
    expected = np.zeros(n, dtype=complex)
    expected[D] = 1.0
    assert np.allclose(det, expected, atol=1e-10)


def test_transfer_matrix_is_adjugate_of_forward_product():
    """invert_fast's matrix is z^D adj(F), F the forward product of its samples.

    F is built column by column with forward_step, the O(D) per step
    reference, from the recovered samples in time order; the identity is
    checked coefficient-wise.
    """
    rng = np.random.default_rng(17)
    D = 256
    sig, tm = invert_fast(forward_sequential(random_signal(rng, D)))
    cols = []
    for start in (([1.0], [0.0]), ([0.0], [1.0])):
        top, bottom = start
        for Q in sig.samples:
            top, bottom = forward_step(top, bottom, Q)
        cols.append((top, bottom))
    (f11, f21), (f12, f22) = cols
    # z^D times a polynomial in z^{-1} of degree D: reversed coefficients
    for got, want in ((tm.t11, f22), (tm.t12, -f12), (tm.t21, -f21), (tm.t22, f11)):
        assert got.offset == 0
        assert np.allclose(got.coeffs, want[::-1], rtol=0, atol=1e-12)


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
