from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sici

from nftsynth import specfact
from nftsynth.asymptotics import predict
from nftsynth.specfact import (
    FLOOR_MARGIN,
    LOG_FLOOR,
    NEWTON_PASSES,
    OVERSAMPLE,
    PAIR_RESIDUAL_LIMIT,
    FilterSpec,
    design_lowpass,
    make_ub,
    spectral_factor,
)
from nftsynth.synthesis import SpectrumSpec, synthesize_ab
from nftsynth.verify import pair_residual


def complex_factor(S, degree):
    """The factorization on complex FFTs over the full grid: the test oracle."""
    M = len(S)

    def causal(x):
        g = np.fft.ifft(x)
        h = np.zeros(M, dtype=complex)
        h[0] = g[0] / 2
        h[1 : M // 2] = g[1 : M // 2]
        h[M // 2] = g[M // 2] / 2
        return np.fft.fft(h)

    m = np.exp(causal(np.log(S + LOG_FLOOR)))
    m = np.fft.fft(np.fft.ifft(m)[:degree], M)
    for _ in range(NEWTON_PASSES):
        m = m * (1.0 + causal(S / np.abs(m) ** 2 - 1.0))
        m = np.fft.fft(np.fft.ifft(m)[:degree], M)
    return np.fft.ifft(m)[:degree]


def test_lowpass_center_values():
    # 2*10/(512*pi) * sinc(+-0.5 * 2*10/(512*pi)), equal at the two centers
    psi = design_lowpass(512, 10.0)
    assert psi[255] == pytest.approx(0.0124340, abs=1e-6)
    assert psi[255] == psi[256]


def test_lowpass_symmetric_real():
    psi = design_lowpass(256, 10.0)
    assert np.isrealobj(psi)
    np.testing.assert_array_equal(psi, psi[::-1])


def test_lowpass_dc_gain_approaches_limit():
    # sum of taps ~ |Psi(0)| = 2 Si(omega_c)/pi in the many-samples limit
    si10 = sici(10.0)[0]
    target = 2.0 * si10 / np.pi
    total = design_lowpass(4096, 10.0).sum()
    assert total == pytest.approx(target, abs=2e-3)


def test_filterspec_validation():
    with pytest.raises(ValueError, match="delta"):
        FilterSpec(512, 1.5, 10.0)
    with pytest.raises(ValueError, match="delta"):
        FilterSpec(512, 0.0, 10.0)
    with pytest.raises(ValueError):
        FilterSpec(500, 0.01, 10.0)
    with pytest.raises(ValueError):
        FilterSpec(512, 0.01, -1.0)
    with pytest.raises(ValueError, match=r"D=512\.0 is not an integer"):
        FilterSpec(512.0, 0.01)
    assert FilterSpec(np.int64(512), 0.01).D == 512       # numpy integers pass


def test_factor_flat_spectrum():
    m, _ = spectral_factor(np.abs(np.fft.rfft([2.0], 64)) ** 2, 1)
    np.testing.assert_allclose(m, [2.0], atol=1e-12)


def test_factor_recovers_known_polynomial():
    M = 256
    power = np.abs(np.fft.rfft([1.0, 0.5], M)) ** 2
    m, _ = spectral_factor(power, 2)
    np.testing.assert_allclose(m, [1.0, 0.5], atol=1e-8)


def test_factor_returns_its_power_spectrum():
    """The power spectral_factor returns is |rfft(coefficients, M)|^2 exactly,
    for a factor whose Newton passes run out (b of the bench filter) and one
    that stops at its first misfit (u)."""
    D, M = 512, OVERSAMPLE * 512
    Sb = 0.01**2 * np.abs(np.fft.rfft(design_lowpass(D, 10.0), M)) ** 2
    b, power_b = spectral_factor(Sb, D)
    u, power_u = spectral_factor(1.0 - power_b, D)
    for m, power in ((b, power_b), (u, power_u)):
        np.testing.assert_array_equal(power, np.abs(np.fft.rfft(m, M)) ** 2)


def grid_bound(f, n, M):
    """max |f| over the M-point circle grid samples f of a real trigonometric
    polynomial of degree n (for an even one, samples 0..M/2 suffice), divided
    by cos(pi n / M): make_ub's bound on its maximum on the circle, M > 2n."""
    return np.abs(f).max() / np.cos(np.pi * n / M)


@pytest.mark.parametrize("n", [1, 3, 64, 511])
def test_sampling_bound_tight_for_tone_between_samples(n):
    """cos(n (theta - pi/M)) with M = 8n peaks halfway between every two
    samples it peaks between, so the bound equals its maximum, 1, read on a
    64x finer grid that holds the peaks."""
    M = 8 * n

    def tone(m):
        return np.cos(n * (2 * np.pi * np.arange(m) / m - np.pi / M))

    fine = np.abs(tone(64 * M)).max()
    assert fine == pytest.approx(1.0, abs=1e-15)
    assert grid_bound(tone(M), n, M) == pytest.approx(fine, rel=1e-14)


def test_sampling_bound_holds_for_random_polynomials():
    """Random real trigonometric polynomials of degree n <= 300 on M = 8(n+1)
    points, the grid make_ub reads its degree-(D-1) residual on: the bound
    is at least the maximum on a 64x finer grid."""
    rng = np.random.default_rng(5)
    for n in rng.integers(1, 301, 40):
        M = 8 * (n + 1)
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        samples = [np.real(m * np.fft.ifft(c, m)) for m in (M, 64 * M)]  # sum_k c_k e^{ik theta}
        assert grid_bound(samples[0], n, M) >= np.abs(samples[1]).max()


def test_make_ub_refuses_on_the_sampling_bound(monkeypatch):
    """make_ub's residual refusal reads the grid maximum of |u|^2 + |b|^2 - 1
    on the factors' spectra times 1/cos(pi (D-1) / M), not the grid maximum
    alone: a limit between the two refuses the pair, with the bound in the
    message, and a limit at the bound accepts it."""
    spec = FilterSpec(512, 0.01, 10.0)
    make_ub.cache_clear()
    fp = make_ub(spec)
    M = OVERSAMPLE * spec.D
    grid = np.abs(np.abs(np.fft.rfft(fp.u, M)) ** 2 - (1.0 - np.abs(np.fft.rfft(fp.b, M)) ** 2))
    bound = grid_bound(grid, spec.D - 1, M)
    monkeypatch.setattr(specfact, "PAIR_RESIDUAL_LIMIT", (grid.max() + bound) / 2)
    make_ub.cache_clear()
    with pytest.raises(ValueError, match=f"pair residual {bound:.1e} > "):
        make_ub(spec)
    monkeypatch.setattr(specfact, "PAIR_RESIDUAL_LIMIT", bound)
    np.testing.assert_array_equal(make_ub(spec).u, fp.u)


def test_factor_u_residual_bound():
    D = 512
    delta = 0.01
    psi = design_lowpass(D, 10.0)
    pw = np.abs(np.fft.rfft(psi, 8 * D)) ** 2
    u, _ = spectral_factor(1.0 - delta**2 * pw, D)
    achieved = np.abs(np.fft.fft(u, 16 * D)) ** 2
    target = 1.0 - delta**2 * np.abs(np.fft.fft(psi, 16 * D)) ** 2
    assert np.abs(achieved - target).max() <= 1e-8


def test_make_ub_residual_and_passband_level():
    fp = make_ub(FilterSpec(512, 0.01, 10.0))
    assert pair_residual(fp.u, fp.b) <= 1e-7
    # |b|^2/delta^2 at omega=0 approaches |Psi(0)|^2 ~ 1.1146
    b0 = np.abs(np.sum(fp.b)) ** 2 / 0.01**2  # z=1 evaluation
    assert b0 == pytest.approx(1.1146, rel=2e-3)


def test_make_ub_vanishing_contrast():
    fp = make_ub(FilterSpec(512, 1e-8, 10.0))
    assert np.abs(np.fft.fft(fp.b, 4096)).max() <= 2e-8
    assert abs(fp.u[0] - 1.0) <= 1e-8


@pytest.mark.parametrize("delta", [1e-9, 1e-12])
def test_make_ub_refuses_floor_swamped_contrast(delta):
    # b would come from LOG_FLOOR, not delta: max|b| / (delta max|psi|) is
    # 1.021 at 1e-9 and 22.8 at 1e-12 without the refusal
    with pytest.raises(ValueError, match=f"delta={delta:.3g}"):
        make_ub(FilterSpec(512, delta, 10.0))


def test_make_ub_names_the_filter_when_it_is_zero():
    # omega_c = pi D puts every tap of psi on a zero of the sinc; delta is not at fault
    with pytest.raises(ValueError, match="zero to rounding.*omega_c=201.062, D=64"):
        make_ub(FilterSpec(64, 0.5, 64 * np.pi))


def test_make_ub_rejects_saturating_contrast():
    # passband gain slightly exceeds 1, so delta close to 1 leaves
    # 1 - delta^2 |psi|^2 negative somewhere; must be refused loudly
    with pytest.raises(ValueError, match="omega"):
        make_ub(FilterSpec(512, 0.999, 10.0))


def test_make_ub_keeps_needed_newton_passes():
    """Near saturation (delta * max|psi| ~ 0.966) u's misfit after the
    cepstral start is ~1e-6, so spectral_factor must run its passes: the
    pair is accepted with a residual at rounding (6.2e-16).  Without u's
    passes its residual is 1.2e-7 and make_ub refuses it."""
    fp = make_ub(FilterSpec(64, 0.8785803663648826, 10.0))
    assert pair_residual(fp.u, fp.b) <= 1e-14


@pytest.mark.parametrize("D", [1 << k for k in range(6, 15)])
def test_factor_fft_ledger(monkeypatch, D):
    """The FFT ledger of the factorization on the bench's filter (delta 0.01,
    omega_c 10): a cold make_ub takes 17 transforms at every D.  Each
    spectral_factor runs its cepstral start (irfft, rfft, irfft) and one
    rfft for its first misfit; b's misfit is of order 1 in the stopband, so
    it runs both Newton passes (irfft, rfft, irfft, then rfft for the next
    misfit or, after the last pass, the power it returns), while u's first
    misfit is at rounding and stops it.  Add one rfft for |psi|^2: the
    refusals read the factors' returned power spectra, with no transform of
    their own.  synthesize_ab on the cached filter then takes one FFT and
    one inverse.  A count, not a time."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "hfft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _t=transform, _n=name, **kw:
                            calls.append(_n) or _t(*args, **kw))
    make_ub.cache_clear()
    make_ub(FilterSpec(D, 0.01, 10.0))
    assert {n: calls.count(n) for n in set(calls)} == {"rfft": 9, "irfft": 8}
    calls.clear()
    synthesize_ab(SpectrumSpec(lambdas=[20j], delta=0.01, D=D, omega_c=10.0))
    assert sorted(calls) == ["fft", "ifft"]


def test_minimum_phase_spot_and_full():
    fp = make_ub(FilterSpec(256, 0.05, 10.0))
    rng = np.random.default_rng(17)
    zs = 1.05 * np.exp(2j * np.pi * rng.random(100))
    for poly in (fp.u, fp.b):
        vals = np.array([np.polyval(poly[::-1], 1.0 / z) for z in zs])
        assert np.abs(vals).min() > 0
    # u's power spectrum is bounded away from zero, so its zeros sit firmly
    # inside the disk.  b's spectrum nearly vanishes at the stopband ripple
    # nulls; truncating the factor to finite degree lets computed roots creep
    # a fraction of a percent across the circle, so only a ring bound is
    # meaningful there.
    u_roots = np.roots(np.trim_zeros(fp.u, "b"))
    assert np.abs(u_roots).max() < 1.0 - 1e-3
    b_roots = np.roots(np.trim_zeros(fp.b, "b"))
    assert np.abs(b_roots).max() < 1.05


def grid_residual(u, b):
    """max | |u|^2 + |b|^2 - 1 | sampled directly on the 16L grid: the test oracle."""
    M = 16 * max(len(u), len(b))
    su, sb = (np.abs(np.fft.fft(p, M)) ** 2 for p in (u, b))
    return float(np.max(np.abs(su + sb - 1.0)))


@pytest.mark.parametrize("L", [1, 2, 3, 64, 513, 4096])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_pair_residual_matches_grid_oracle(L, kind):
    rng = np.random.default_rng(L)
    for len_u, len_b in ((L, L), (L, (L + 1) // 2), (max(1, L // 3), L)):
        for scale in (1.0, 1.0 / np.sqrt(2 * L)):  # residual ~1 and ~L
            u, b = (scale * rng.standard_normal(n) for n in (len_u, len_b))
            if kind == "complex":
                u = u + 1j * scale * rng.standard_normal(len_u)
                b = b + 1j * scale * rng.standard_normal(len_b)
            want = grid_residual(u, b)
            assert abs(pair_residual(u, b) - want) <= 1e-13 * max(1.0, want)


def test_pair_residual_matches_grid_oracle_on_factor_pair():
    fp = make_ub(FilterSpec(4096, 0.01, 10.0))
    assert abs(pair_residual(fp.u, fp.b) - grid_residual(fp.u, fp.b)) <= 1e-15
    rotated = np.exp(0.3j) * fp.u, np.exp(0.3j) * fp.b  # a complex pair
    assert abs(pair_residual(*rotated) - grid_residual(*rotated)) <= 1e-15


@pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_pair_residual_of_non_finite_squares_is_inf(bad, kind):
    """A coefficient whose square overflows, or an inf or NaN, gives a
    residual of inf without a RuntimeWarning (an error under the test
    settings), so a limit `residual > PAIR_RESIDUAL_LIMIT` refuses it
    rather than pass a NaN."""
    u = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, bad])
    if kind == "complex":
        b = b.astype(complex)
    assert pair_residual(u, b) == np.inf


def test_make_ub_caches_the_last_filter():
    make_ub.cache_clear()
    fp = make_ub(FilterSpec(512, 0.01, 10))
    hits = make_ub.cache_info().hits
    assert make_ub(FilterSpec(512, 0.01, 10.0)) is fp
    assert make_ub.cache_info().hits == hits + 1


def test_make_ub_cached_pair_is_read_only():
    fp = make_ub(FilterSpec(512, 0.01, 10.0))
    with pytest.raises(ValueError):
        fp.u[0] = 0
    with pytest.raises(ValueError):
        fp.b[0] = 0
    with pytest.raises(FrozenInstanceError):
        FilterSpec(512, 0.01, 10.0).delta = 0.02


def test_make_ub_refusal_is_not_cached():
    for _ in range(2):
        with pytest.raises(ValueError, match="omega"):
            make_ub(FilterSpec(512, 0.999, 10.0))


def test_warm_cache_gives_cold_results():
    spec = SpectrumSpec(lambdas=[12.5j, 25j + 3.0], delta=0.01, D=512, omega_c=10.0)
    make_ub.cache_clear()
    cold_pair = synthesize_ab(spec)
    make_ub.cache_clear()
    cold_norming = predict(spec).norming_predictions
    hits = make_ub.cache_info().hits
    warm_pair = synthesize_ab(spec)
    warm_norming = predict(spec).norming_predictions
    assert make_ub.cache_info().hits == hits + 2
    np.testing.assert_array_equal(warm_pair.a, cold_pair.a)
    np.testing.assert_array_equal(warm_pair.b, cold_pair.b)
    np.testing.assert_array_equal(warm_norming, cold_norming)
    assert warm_pair.unimodularity_residual == cold_pair.unimodularity_residual


@pytest.mark.parametrize("delta", [0.1, 0.03, 0.01])
def test_make_ub_residual_across_contrast(delta):
    fp = make_ub(FilterSpec(512, delta, 10.0))
    assert pair_residual(fp.u, fp.b) <= 1e-7


def _lowpass_power(spec):
    psi = design_lowpass(spec.D, spec.omega_c)
    return np.abs(np.fft.fft(psi, OVERSAMPLE * spec.D)) ** 2


def complex_ub(spec):
    """(u, b, pair residual) from complex_factor; inf where |b| reaches 1."""
    M = OVERSAMPLE * spec.D
    b = complex_factor(spec.delta**2 * _lowpass_power(spec), spec.D)
    Su = 1.0 - np.abs(np.fft.fft(b, M)) ** 2
    if Su.min() <= 0:
        return None, b, np.inf
    u = complex_factor(Su, spec.D)
    return u, b, pair_residual(u, b)


def rounding_spread(spec, u_ref, b_ref):
    """How far complex_factor moves when each sample of S moves by one ulp."""
    rng = np.random.default_rng(spec.D)
    M = OVERSAMPLE * spec.D
    S = spec.delta**2 * _lowpass_power(spec)
    S = S * (1 + np.finfo(float).eps * rng.standard_normal(M))
    S = (S + S[-np.arange(M)]) / 2
    b = complex_factor(S, spec.D)
    u = complex_factor(1.0 - np.abs(np.fft.fft(b, M)) ** 2, spec.D)
    return (np.abs(u - u_ref).max() / np.abs(u_ref).max(),
            np.abs(b - b_ref).max() / np.abs(b_ref).max())


@st.composite
def filter_specs(draw):
    """FilterSpec with D = 2..4096, omega_c = 1e-3..1e4 and delta in (0, 1).

    Half the draws take delta anywhere in (0, 1); the other half put the
    peak of delta^2 |psi|^2 within 1e-5..0.8 of the saturation bound 1, on
    either side (delta capped below 1).
    """
    D = 1 << draw(st.integers(1, 12))
    omega_c = 10.0 ** draw(st.floats(-3.0, 4.0))
    if draw(st.booleans()):
        delta = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    else:
        margin = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-5.0, -0.1))
        peak = _lowpass_power(FilterSpec(D, 0.5, omega_c)).max()
        delta = min(np.sqrt((1.0 - margin) / peak), 1.0 - 1e-9)
    return FilterSpec(D, delta, omega_c)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(filter_specs())
def test_make_ub_properties(spec):
    """make_ub across the FilterSpec domain (see filter_specs).

    A spectrum with delta^2 |psi|^2 >= 1 must be refused with the "omega"
    error, and one whose peak is below FLOOR_MARGIN * LOG_FLOOR (zero
    included) with the error naming delta.  Near the
    saturation bound make_ub may refuse too, but only where the complex-FFT
    factorization gives no unit-circle pair either (within a factor 2 of
    PAIR_RESIDUAL_LIMIT, either way).  Every returned pair is
    real, unit-circle to PAIR_RESIDUAL_LIMIT, and agrees with complex_factor
    to 1e-12 relative, or to 4x the spread complex_factor itself shows when
    S moves by one ulp, where that is larger.
    """
    peak = spec.delta**2 * _lowpass_power(spec).max()
    saturated = peak >= 1.0
    swamped = peak < FLOOR_MARGIN * LOG_FLOOR
    try:
        fp = make_ub(spec)
    except ValueError as exc:
        if swamped:
            assert f"delta={spec.delta:.3g}" in str(exc)
            return
        assert "omega" in str(exc)
        assert saturated or complex_ub(spec)[2] > PAIR_RESIDUAL_LIMIT / 2
        return
    assert not saturated and not swamped
    assert np.isrealobj(fp.u) and np.isrealobj(fp.b)
    assert pair_residual(fp.u, fp.b) <= PAIR_RESIDUAL_LIMIT
    u_ref, b_ref, residual_ref = complex_ub(spec)
    assert residual_ref <= 2 * PAIR_RESIDUAL_LIMIT
    du = np.abs(fp.u - u_ref).max() / np.abs(u_ref).max()
    db = np.abs(fp.b - b_ref).max() / np.abs(b_ref).max()
    if max(du, db) > 1e-12:
        spread_u, spread_b = rounding_spread(spec, u_ref, b_ref)
        assert du <= max(1e-12, 4 * spread_u)
        assert db <= max(1e-12, 4 * spread_b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(filter_specs())
def test_make_ub_refusal_bound_covers_pair_residual(spec):
    """On the pairs make_ub returns across filter_specs, the value its
    residual refusal reads, the sampling bound of |u|^2 + |b|^2 - 1 from the
    factors' spectra on the OVERSAMPLE * D grid, is at least pair_residual,
    less the rounding of a length-M transform (log2(M) ulps), which decides
    only between residuals far below PAIR_RESIDUAL_LIMIT (D = 32 near
    saturation reads 7.2e-16 against 7.8e-16)."""
    try:
        fp = make_ub(spec)
    except ValueError:
        return
    M = OVERSAMPLE * spec.D
    Su = 1.0 - np.abs(np.fft.rfft(fp.b, M)) ** 2
    residual = np.abs(np.abs(np.fft.rfft(fp.u, M)) ** 2 - Su)
    rounding = np.log2(M) * np.finfo(float).eps
    assert grid_bound(residual, spec.D - 1, M) >= pair_residual(fp.u, fp.b) - rounding
