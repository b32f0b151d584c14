import numpy as np
import pytest

from nftsynth.forward import (
    NftSpectrum,
    compute_spectrum,
    continuous_oracle,
    dilate_spectrum,
    find_eigenvalues,
    forward_fast,
    forward_sequential,
    forward_step,
    norming_constants,
    reflection_coefficient,
    shift_spectrum,
)
from nftsynth.inverse import Signal, invert_fast
from nftsynth.poly import poly_eval
from nftsynth.synthesis import SpectrumSpec, lambda_to_z, pair_from_coeffs, synthesize_ab, z_to_lambda

FOUR_SOLITON = [12.5j, 25.0j, 37.5j, 50.0j]


def random_signal(rng, D, scale=None):
    if scale is None:
        scale = min(0.5, 2.0 / np.sqrt(D))
    samples = scale * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
    return Signal(samples=samples, eps=1.0 / D)


def sampled(q, D):
    eps = 1.0 / D
    t = -1.0 + (np.arange(1, D + 1) - 0.5) * eps
    return Signal(samples=eps * q(t), eps=eps)


def test_forward_step_hand_values():
    s = 1.0 / np.sqrt(2.0)
    a, b = forward_step([1.0], [0.0], 1.0)
    assert np.allclose(a, [s, 0.0]) and np.allclose(b, [-s, 0.0])
    a, b = forward_step([1.0], [0.0], 1j)
    assert np.allclose(b, [1j * s, 0.0])
    a, b = forward_step([1.0], [0.0], 0.0)
    assert np.allclose(a, [1.0, 0.0]) and np.allclose(b, [0.0, 0.0])


def test_forward_zero_signal():
    D = 16
    sig = Signal(samples=np.zeros(D), eps=1.0 / D)
    for fwd in (forward_sequential, forward_fast):
        pair = fwd(sig)
        expect = np.zeros(D)
        expect[0] = 1.0
        assert np.allclose(pair.a, expect) and np.allclose(pair.b, 0.0)


def test_forward_unimodularity():
    rng = np.random.default_rng(31)
    for D in (8, 64, 256):
        pair = forward_sequential(random_signal(rng, D))
        assert pair.unimodularity_residual <= 1e-10


@pytest.mark.parametrize("D", [2, 4, 8, 32, 128, 1024, 2048])
def test_fast_matches_sequential(D):
    rng = np.random.default_rng(200 + D)
    for _ in range(3):
        sig = random_signal(rng, D)
        p1 = forward_sequential(sig)
        p2 = forward_fast(sig)
        assert np.allclose(p1.a, p2.a, atol=1e-10)
        assert np.allclose(p1.b, p2.b, atol=1e-10)


def test_fast_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        forward_fast(Signal(samples=np.zeros(12), eps=1.0 / 12))
    with pytest.raises(ValueError, match="power of two"):
        forward_fast(Signal(samples=np.zeros(0), eps=1.0))


@pytest.mark.parametrize("lambdas,b_tol", [([], 1e-7), (FOUR_SOLITON, 1e-5)])
def test_forward_inverse_roundtrip(lambdas, b_tol):
    # Bound states push b's energy into coefficients ~e^{2 Im(lam)} that the
    # finite window clips, so the soliton pair rounds trip at ~5e-6 (shrinking
    # like 1/D); pure radiation rounds trip at machine precision.
    spec = SpectrumSpec(lambdas=lambdas, delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    sig, _ = invert_fast(pair)
    back = forward_fast(sig)
    assert np.max(np.abs(np.asarray(back.a) - np.asarray(pair.a))) <= 1e-7
    assert np.max(np.abs(np.asarray(back.b) - np.asarray(pair.b))) <= b_tol


def test_reflection_zero_for_reflectionless_pair():
    D = 32
    a = np.zeros(D, dtype=complex)
    a[0] = 1.0
    om, vals, poles = reflection_coefficient(pair_from_coeffs(a, np.zeros(D, dtype=complex)))
    assert not poles.any()
    assert np.allclose(vals, 0.0)


def test_reflection_default_grid():
    rng = np.random.default_rng(9)
    D = 64
    pair = forward_sequential(random_signal(rng, D))
    om, vals, poles = reflection_coefficient(pair)
    band = np.pi * D / 2.0
    assert len(om) == 4 * D
    assert np.all(np.diff(om) > 0)
    assert np.all(np.abs(om) <= band)
    # FFT path must agree with direct evaluation
    sub = om[::37]
    om2, vals2, _ = reflection_coefficient(pair, sub)
    assert np.allclose(vals2, vals[::37], atol=1e-10)


def test_reflection_rejects_out_of_band_grid():
    rng = np.random.default_rng(9)
    pair = forward_sequential(random_signal(rng, 64))
    with pytest.raises(ValueError, match="grid"):
        reflection_coefficient(pair, np.array([0.0, 200.0]))


def test_radiation_reflection_profile():
    """Low-contrast synthesis puts |b/a|^2 at the prescribed filter level."""
    spec = SpectrumSpec(lambdas=[], delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    om, vals, poles = reflection_coefficient(pair)
    assert not poles.any()
    i0 = np.argmin(np.abs(om))
    assert abs(vals[i0]) ** 2 == pytest.approx(1.1147e-4, rel=1e-2)
    mags = np.abs(vals)
    assert np.max(mags[np.abs(om) >= 2 * spec.omega_c]) < 0.1 * np.max(mags)


def test_find_eigenvalues_radiation_only_is_empty():
    spec = SpectrumSpec(lambdas=[], delta=0.01, D=512, omega_c=10.0)
    assert len(find_eigenvalues(synthesize_ab(spec).a)) == 0


def test_find_eigenvalues_single_soliton():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=512, omega_c=10.0)
    zs = find_eigenvalues(synthesize_ab(spec).a)
    assert len(zs) == 1
    assert abs(zs[0] - lambda_to_z(20j, spec.eps)) <= 1e-6
    assert abs(z_to_lambda(zs[0], spec.eps) - 20j) <= 1e-3


def test_find_eigenvalues_four_soliton():
    spec = SpectrumSpec(lambdas=FOUR_SOLITON, delta=0.01, D=512, omega_c=10.0)
    zs = find_eigenvalues(synthesize_ab(spec).a)
    lams = np.array([z_to_lambda(z, spec.eps) for z in zs])
    assert len(lams) == 4
    assert np.max(np.abs(np.sort(lams.imag) - np.imag(FOUR_SOLITON))) <= 1e-3


def test_find_eigenvalues_degree_limit():
    with pytest.raises(ValueError, match="companion"):
        find_eigenvalues(np.ones(4097, dtype=complex))


def test_norming_constants_single_soliton():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    zs = find_eigenvalues(pair.a)
    c = norming_constants(pair, zs)
    assert len(c) == 1
    assert np.isfinite(c[0]) and abs(c[0]) > 0


def test_norming_constants_rejects_non_root():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    with pytest.raises(ValueError, match="not a root"):
        norming_constants(pair, [1.5 + 0.0j])


def test_norming_constants_rejects_multiple_root():
    r = 1.5
    a = np.array([1.0, -2.0 * r, r**2], dtype=complex)  # (1 - r z^{-1})^2: double root at z=r
    pair = pair_from_coeffs(a, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="multiple root"):
        norming_constants(pair, [r])


def test_continuous_oracle_free_medium():
    for lam in (0.0, 1.3, 2.0 - 0.5j):
        al, be = continuous_oracle(lambda t: 0.0, lam)
        assert abs(al - 1.0) <= 1e-10
        assert abs(be) <= 1e-10


def test_continuous_oracle_matches_discrete():
    """Discrete (a, b) at z(lambda) converge to the ODE solution."""
    q = lambda t: 0.3 * np.exp(-((t + 0.5) ** 2) / 0.02) * (1 + 0.5j)
    lam = 3.7
    devs = []
    for D in (256, 512):
        pair = forward_sequential(sampled(q, D))
        z = lambda_to_z(lam, 1.0 / D)
        al, be = continuous_oracle(q, lam)
        devs.append(abs(poly_eval(np.asarray(pair.b), z) - be))
        assert abs(poly_eval(np.asarray(pair.a), z) - al) <= 1e-6
    assert devs[1] <= 2e-3
    assert devs[0] / devs[1] >= 1.7  # at least first-order refinement


def test_sech_bound_state_convergence():
    """Scaled reflectionless pulse: one eigenvalue, converging to 10i."""
    q = lambda t: 20.0 / np.cosh(20.0 * (t + 0.5))
    errs = []
    for D in (128, 256, 512, 1024):
        pair = forward_sequential(sampled(q, D))
        zs = find_eigenvalues(pair.a)
        assert len(zs) == 1
        errs.append(abs(z_to_lambda(zs[0], 1.0 / D) - 10j))
    assert errs[-1] <= 2e-3
    for hi, lo in zip(errs, errs[1:]):
        assert hi / lo >= 1.7
    al, _ = continuous_oracle(q, 10j)
    assert abs(al) <= 1e-6  # the ODE coefficient vanishes at the bound state


def test_compute_spectrum_end_to_end():
    spec = SpectrumSpec(lambdas=FOUR_SOLITON, delta=0.01, D=512, omega_c=10.0)
    sp = compute_spectrum(synthesize_ab(spec))
    assert sp.eps == pytest.approx(1.0 / 512)
    assert len(sp.eigen_lambda) == 4
    assert not sp.pole_mask.any()
    assert np.all(np.isfinite(sp.reflection))
    assert np.all(np.abs(sp.norming) > 0)


def test_shift_spectrum_identity_and_phase():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=256, omega_c=10.0)
    sp = compute_spectrum(synthesize_ab(spec))
    same = shift_spectrum(sp, 0.0)
    assert np.allclose(same.reflection, sp.reflection, equal_nan=True)
    assert np.allclose(same.norming, sp.norming)
    t0 = 0.3
    moved = shift_spectrum(sp, t0)
    assert np.allclose(moved.reflection, sp.reflection * np.exp(-2j * sp.omega * t0))
    assert np.allclose(moved.norming, sp.norming * np.exp(-2j * sp.eigen_lambda * t0))
    assert np.allclose(np.abs(moved.reflection), np.abs(sp.reflection))


def test_dilate_spectrum():
    spec = SpectrumSpec(lambdas=FOUR_SOLITON, delta=0.01, D=512, omega_c=10.0)
    sp = compute_spectrum(synthesize_ab(spec))
    same = dilate_spectrum(sp, 1.0)
    assert np.allclose(same.eigen_lambda, sp.eigen_lambda)
    assert np.allclose(same.eigen_z, sp.eigen_z)
    half = dilate_spectrum(sp, 0.5)
    assert np.allclose(half.eigen_lambda, 0.5 * sp.eigen_lambda)
    assert np.allclose(half.omega, 0.5 * sp.omega)
    expect_z = [lambda_to_z(v, sp.eps) for v in 0.5 * sp.eigen_lambda]
    assert np.allclose(half.eigen_z, expect_z)
    with pytest.raises(ValueError, match="nonzero"):
        dilate_spectrum(sp, 0.0)


def test_dilate_without_eps_keeps_z():
    sp = NftSpectrum(
        omega=np.array([0.0]), reflection=np.array([0j]),
        pole_mask=np.array([False]), eigen_z=np.array([1.1 + 0j]),
        eigen_lambda=np.array([2j]), norming=np.array([1 + 0j]), eps=None,
    )
    out = dilate_spectrum(sp, 2.0)
    assert np.allclose(out.eigen_lambda, [4j])
    assert np.allclose(out.eigen_z, [1.1])
