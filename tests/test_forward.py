import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from nftsynth import forward, poly
from nftsynth.forward import (
    NEAR_MAX,
    SEED_MAX,
    _circle,
    _fft_folded,
    _moment_seeds,
    _values,
    _zeros_between,
    find_eigenvalues,
    forward_fast,
    norming_constants,
    reflection_coefficient,
)
from nftsynth.inverse import Signal, invert_fast
from nftsynth.poly import poly_eval
from nftsynth.synthesis import (
    ROOT_INNER,
    ROOT_OUTER,
    ScatteringPair,
    SpectrumSpec,
    lambda_to_z,
    synthesize_ab,
    z_to_lambda,
)

from oracles import continuous_oracle, forward_sequential, forward_step

FOUR_SOLITON = [12.5j, 25.0j, 37.5j, 50.0j]


def random_signal(rng, D, scale=None):
    if scale is None:
        scale = min(0.5, 2.0 / np.sqrt(D))
    samples = scale * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
    return Signal(samples=samples)


def sampled(q, D):
    eps = 1.0 / D
    t = -1.0 + (np.arange(1, D + 1) - 0.5) * eps
    return Signal(samples=eps * q(t))


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
    sig = Signal(samples=np.zeros(D))
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


@pytest.mark.parametrize("D", [1, 2, 4, 8, 16, 32, 128, 1024, 2048])
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
        forward_fast(Signal(samples=np.zeros(12)))
    with pytest.raises(ValueError, match="power of two"):
        forward_fast(Signal(samples=np.zeros(0)))


def test_fast_huge_sample():
    """One sample Q of modulus 1e200 at index 3 of eight: its step scales the
    rows by theta ~ 1e200, which the block divides out once, so a[0] = 1/theta
    and b[4] = -conj(Q)/theta = -conj(Q)/|Q| to rounding.  (Normalizing each
    step, 1 + |Q|^2 overflows and the whole pair reads zero.)"""
    Q = 1e200 * np.exp(0.3j)
    q = np.zeros(8, dtype=complex)
    q[3] = Q
    pair = forward_fast(Signal(samples=q))
    assert abs(pair.b[4] + np.conj(Q) / abs(Q)) <= 1e-15
    assert pair.a[0] == pytest.approx(1e-200, rel=1e-15)
    assert np.all(pair.a[1:] == 0) and np.all(np.delete(pair.b, 4) == 0)
    assert pair.unimodularity_residual <= 1e-15


def test_fast_overflow_raises():
    """64 samples of 1e12: a 32-sample block's prod(theta) is ~1e384, past
    the largest double.  forward_fast raises rather than return a pair
    whose rows overflowed."""
    with pytest.raises(FloatingPointError):
        forward_fast(Signal(samples=np.full(64, 1e12 + 0j)))


@pytest.mark.parametrize("D", [1024, 4096])
def test_fast_weak_signal_a0_against_mpmath(D):
    """a0 of the forward matrix is prod(1/theta).  At |Q| ~ 1e-8, theta - 1
    is below half an ulp, so hypot(1, |Q|) rounds it to 1, and a product of
    hypot factors loses D |Q|^2 / 2 (2e-14 at D = 1024, 7e-14 at 4096);
    the log1p sum of `inverse._column` keeps it.  Against mpmath in 30
    digits, five seeds at each D."""
    for seed in range(5):
        q = random_signal(np.random.default_rng(seed), D, scale=1e-8).samples
        with mpmath.workdps(30):
            want = float(mpmath.fprod(1 / mpmath.sqrt(1 + abs(mpmath.mpc(x.real, x.imag)) ** 2)
                                      for x in q))
        assert abs(forward_fast(Signal(samples=q)).a[0] - want) <= 2e-15


def test_non_finite_sample_raises():
    """A NaN sample raises FloatingPointError from both forward transforms,
    never a pair of NaNs; both name the sample, forward_fast on entry."""
    q = np.full(8, 0.1 + 0j)
    q[3] = np.nan
    message = r"sample q\[3\] = \(nan\+0j\) is not finite"
    with pytest.raises(FloatingPointError, match=message):
        forward_sequential(Signal(samples=q))
    with pytest.raises(FloatingPointError, match=message):
        forward_fast(Signal(samples=q))


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
    om, vals, poles = reflection_coefficient(ScatteringPair(a, np.zeros(D, dtype=complex)))
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
    # FFT path must agree with direct evaluation at z = e^{-2 i omega / D}
    zs = np.exp(-2j * om[::37] / D)
    vals2 = poly_eval(pair.b, zs) / poly_eval(pair.a, zs)
    assert np.allclose(vals2, vals[::37], atol=1e-10)


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


def test_fft_folded_keeps_long_double():
    """The extended-precision contour pass needs the folded DFT in long double:
    a clongdouble input comes back clongdouble and within 100 eps (of the long
    double) of a direct long-double DFT, relative to the sum of moduli.  An
    input longer than M is folded; one no longer than M is transformed
    directly, zero-padded to M."""
    rng = np.random.default_rng(31)
    M = 64
    pi = np.arccos(np.longdouble(-1.0))  # np.pi would be a double
    eps = np.finfo(np.longdouble).eps
    for n in (150, M, 40):
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)).astype(np.clongdouble)
        out = _fft_folded(x, M)
        assert out.dtype == np.clongdouble
        assert out.shape == (M,)
        jk = np.outer(np.arange(M), np.arange(n)) % M
        direct = np.exp(-2j * pi * jk.astype(np.longdouble) / M) @ x
        assert np.max(np.abs(out - direct)) <= 100 * eps * np.sum(np.abs(x))


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
def test_values_against_mpmath(monkeypatch, dtype):
    """A(w), w A'(w) and sum |a_j w^j| against mpmath in 40 digits, in the
    precision of w, whatever the point block size.  The bound is first-order
    rounding of n running complex products and an n-term sum: 4 n u of the
    matching sum of moduli."""
    rng = np.random.default_rng(29)
    n = 20
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    real = np.finfo(dtype).dtype.type
    w = (rng.uniform(0.2, 1.05, 7).astype(real)
         * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 7).astype(real)))
    assert w.dtype == dtype
    u = float(np.finfo(dtype).eps) / 2
    mpmath.mp.dps = 40

    def mp(x):  # 30 digits hold a double or an x87 extended value to 1e-30 relative
        return mpmath.mpc(*(np.format_float_scientific(v, precision=30, unique=False)
                            for v in (x.real, x.imag)))

    for block in (poly.EVAL_BLOCK, 40, 1):
        monkeypatch.setattr(poly, "EVAL_BLOCK", block)
        out = _values(a, w)
        assert [v.dtype for v in out] == [w.dtype, w.dtype, w.real.dtype]
        for A, wder, scale, wk in zip(*out, w):
            terms = [mp(c) * mp(wk) ** j for j, c in enumerate(a)]
            moduli = [abs(t) for t in terms]
            assert abs(mp(A) - sum(terms)) <= 4 * n * u * sum(moduli)
            assert (abs(mp(wder) - sum(j * t for j, t in enumerate(terms)))
                    <= 4 * n * u * sum(j * m for j, m in enumerate(moduli)))
            assert abs(mp(scale) - sum(moduli)) <= 4 * n * u * sum(moduli)


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


def test_find_eigenvalues_zero_on_contour():
    # 1 + z^{-1} + ... + z^{-4096} has all its zeros on |z| = 1, a hair from the
    # inner contour |z| = 1 + 1e-6: far more zeros near it than the finder deflates
    with pytest.raises(ValueError, match="boundary"):
        find_eigenvalues(np.ones(4097, dtype=complex))


def test_find_eigenvalues_large_d():
    spec = SpectrumSpec(lambdas=FOUR_SOLITON, delta=0.01, D=16384, omega_c=10.0)
    zs = find_eigenvalues(synthesize_ab(spec).a)
    lams = np.array([z_to_lambda(z, spec.eps) for z in zs])
    assert len(lams) == 4
    assert np.max(np.abs(lams - FOUR_SOLITON)) <= 1e-3


def test_find_eigenvalues_near_axis_large_d():
    # Im lambda = 0.01 at D = 4096 puts the zero at |z| = 1 + 4.9e-6, five times
    # the annulus' 1e-6 margin from the unit circle; too big for the np.roots oracle
    D = 4096
    zs = find_eigenvalues(forward_fast(sampled(lambda t: np.full_like(t, BOX_001J), D)).a)
    assert len(zs) == 1
    assert abs(z_to_lambda(zs[0], 1.0 / D) - 0.01j) <= 1e-3


def test_zeros_between_unconfirmed_count_raises():
    """A claimed zero between |w| = 0.1 and 0.5 that A = 1 + w/2 does not have
    (its zero is w = -2): the moment seed polishes to a root outside, and with
    no split left the count is refused."""
    p = np.arange(SEED_MAX + 1)
    lo = (0.1, 0, np.zeros(SEED_MAX + 1, dtype=complex))
    hi = (0.5, 1, (0.3 + 0j) ** p)
    with pytest.raises(RuntimeError, match="contour count 1 .* not confirmed"):
        _zeros_between(np.array([1.0, 0.5], dtype=complex), lo, hi, 64, depth=0)


def _recorded(monkeypatch, name):
    """Calls of forward.<name> from here on, as (args, result) pairs."""
    calls = []
    fn = getattr(forward, name)

    def call(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    monkeypatch.setattr(forward, name, call)
    return calls


def test_circle_zero_on_grid_point_gives_none(monkeypatch):
    """A = 1 + w/r vanishes at the grid point w_{M/2} = -r (r = 0.5, M = 64):
    the rounding bound of s_0 passes COUNT_TOL in double precision and
    FOG_MAX in extended precision, and _circle returns None before any
    Newton step."""
    newton = _recorded(monkeypatch, "_newton")
    ffts = _recorded(monkeypatch, "_fft_folded")
    assert _circle(np.array([1.0, 2.0], dtype=complex), 0.5, 64) is None
    assert newton == []
    (x, _M), _A = ffts[-1]
    assert x.dtype == np.clongdouble


def test_circle_zero_on_circle_between_grid_points_gives_none(monkeypatch):
    """A = 1 - w/w_k, w_k = r e^{-i pi/M}, has its zero on |w| = r midway
    between two grid points (r = 0.5, M = 64): Newton from the grid peaks
    lands on w_k, and a zero on the circle gives None."""
    r, M = 0.5, 64
    wk = r * np.exp(-1j * np.pi / M)
    newton = _recorded(monkeypatch, "_newton")
    assert _circle(np.array([1.0, -1.0 / wk]), r, M) is None
    [(_, (w, done))] = newton
    assert np.any(done & (np.abs(w - wk) <= 1e-10 * r))


def test_circle_grid_grows_past_many_near_zeros(monkeypatch):
    """A = 1 - (w/rho)^100, rho = r (1 + 1e-3), has 100 zeros just outside
    |w| = r, more than NEAR_MAX within NEAR_GRID / M of it.  The grid grows
    fourfold until none is near (M = 256 to 65536), and no zero is counted
    inside."""
    assert NEAR_MAX < 100
    r = 0.5
    a = np.zeros(101, dtype=complex)
    a[0], a[100] = 1.0, -(r * (1 + 1e-3)) ** -100.0
    ffts = _recorded(monkeypatch, "_fft_folded")
    count, _s = _circle(a, r, 256)
    assert count == 0
    assert sorted({M for (_, M), _ in ffts}) == [256, 1024, 4096, 16384, 65536]


def test_moment_seeds_non_finite_sums_give_no_seeds():
    """An inf power sum gives no seeds and no RuntimeWarning (an error under
    pyproject.toml's filterwarnings)."""
    seeds = _moment_seeds(np.array([2.0, np.inf, 1.0], dtype=complex), 0.5)
    assert seeds.dtype == complex
    assert len(seeds) == 0


def _synthesized(lambdas, D):
    return synthesize_ab(SpectrumSpec(lambdas=lambdas, delta=0.01, D=D, omega_c=10.0)).a


def _round_tripped(doc):
    spec = SpectrumSpec(lambdas=[complex(*l) for l in doc["lambdas"]], delta=doc["delta"],
                        D=doc["D"], omega_c=doc["omega_c"])
    signal, _ = invert_fast(synthesize_ab(spec), check=False)
    return forward_fast(signal).a


# On an 8*D-point contour grid this pair's zero count came out 1.994: one
# prescribed zero has moved to |z| = 0.9953, just inside the unit circle.
GRID_REFINEMENT_SPEC = {
    "lambdas": [[7.839092965258963, 7.042053386343635],
                [-2.7139240583234647, 22.276835648314087],
                [8.219672238822262, 4.097972312247675]],
    "delta": 0.010063961278804748, "D": 128, "omega_c": 7.990113001751116,
}

# Heights of a box on the unit window whose one bound state lies at
# Im lambda ~ 0.05 and ~ 0.01 (D = 512): zeros 2e-4 and 4e-5 outside |z| = 1
BOX_005J = 1.6028
BOX_001J = 1.5772
TWELVE_SOLITONS = [complex(3.0 * (k - 5.5), 8.0 + 4.0 * k) for k in range(12)]


def _box(height, D):
    return forward_fast(sampled(lambda t: np.full_like(t, height), D)).a


def _chirped_gaussian(area, D, seed):
    """A chirped Gaussian with 30% amplitude noise.

    At area 40 pi it has 32 bound states at D = 256 and 102 at D = 1024,
    with Im lambda from 0.1 to ~700; those far up the axis are roots of a
    so ill-conditioned that double-precision contour sums cannot count them.
    """
    rng = np.random.default_rng(seed)
    chirp = rng.uniform(-10.0, 10.0)
    noise = 1.0 + 0.3 * rng.standard_normal(D)

    def q(t):
        return (area / (0.1 * np.sqrt(2 * np.pi)) * np.exp(-0.5 * ((t + 0.5) / 0.1) ** 2)
                * np.exp(1j * chirp * t) * noise)
    return forward_fast(sampled(q, D)).a


def _sech_with_outer_zeros(D):
    """The sech-D coefficients times (1 - 20/z)(1 - 24/z): zeros just inside and outside e^pi."""
    a = forward_sequential(sampled(lambda t: 20.0 / np.cosh(20.0 * (t + 0.5)), D)).a
    return np.convolve(np.convolve(a, [1.0, -20.0]), [1.0, -24.0])


ORACLE_CASES = {
    "radiation-512": lambda: _synthesized([], 512),
    "single-512": lambda: _synthesized([20j], 512),
    "four-512": lambda: _synthesized(FOUR_SOLITON, 512),
    "close-pair-256": lambda: _synthesized([20j, 20.05j], 256),
    "close-pair-1024": lambda: _synthesized([20j, 20.05j], 1024),
    "near-axis-1024": lambda: _synthesized([1j], 1024),
    **{f"sech-{D}": (lambda D=D: forward_sequential(
        sampled(lambda t: 20.0 / np.cosh(20.0 * (t + 0.5)), D)).a)
       for D in (128, 256, 512, 1024)},
    "grid-refinement-128": lambda: _round_tripped(GRID_REFINEMENT_SPEC),
    "box-0.05j-512": lambda: _box(BOX_005J, 512),
    "box-0.01j-512": lambda: _box(BOX_001J, 512),
    "twelve-256": lambda: _synthesized(TWELVE_SOLITONS, 256),
    "chirped-gaussian-256": lambda: _chirped_gaussian(40 * np.pi, 256, seed=0),
    "chirped-gaussian-1024": lambda: _chirped_gaussian(40 * np.pi, 1024, seed=0),
    "outer-edge-256": lambda: _sech_with_outer_zeros(256),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_find_eigenvalues_matches_np_roots(case):
    a = np.trim_zeros(ORACLE_CASES[case](), "b")
    want = np.roots(a)
    want = want[(np.abs(want) > ROOT_INNER) & (np.abs(want) < ROOT_OUTER)]
    # each to 1e-10 or to 1000 times its first-order rounding error
    # eps sum|a_j w^j| / |A'(w)| |z|^2 (w = 1/z), whichever is larger
    w = 1.0 / want
    cond = (np.finfo(float).eps * P.polyval(np.abs(w), np.abs(a))
            / np.abs(P.polyval(w, np.arange(1, len(a)) * a[1:])) * np.abs(want) ** 2)
    tol = np.maximum(1e-10, 1e3 * cond)
    got = find_eigenvalues(a)
    assert len(got) == len(want)
    for z in got:
        k = np.argmin(np.abs(want - z))
        assert np.abs(want[k] - z) <= tol[k]


def test_norming_constants_single_soliton():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    zs = find_eigenvalues(pair.a)
    c = norming_constants(pair, zs)
    assert len(c) == 1
    assert np.isfinite(c[0]) and abs(c[0]) > 0


def test_norming_constants_closed_form():
    """a = (1 - r z^{-1})(1 - s z^{-1}), b = c: a'(r) = (1 - s/r)/r in closed form.

    So Q(r) = -c/(2 i eps r) / ((1 - s/r)/r), and the same with r and s
    swapped; D = 3 coefficients, eps = 1/3.
    """
    r, s, c = 1.5 + 0.2j, -2.0 + 0.5j, 0.3 - 0.2j
    a = np.array([1.0, -(r + s), r * s], dtype=complex)
    pair = ScatteringPair(a, np.array([c, 0.0, 0.0], dtype=complex))
    eps = 1.0 / 3.0
    want = [-c / (2j * eps * z) / ((1.0 - w / z) / z) for z, w in ((r, s), (s, r))]
    np.testing.assert_allclose(norming_constants(pair, [r, s]), want, rtol=1e-14)


def test_norming_constants_rejects_non_root():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    with pytest.raises(ValueError, match="not a root"):
        norming_constants(pair, [1.5 + 0.0j])


def test_norming_constants_rejects_multiple_root():
    r = 1.5
    a = np.array([1.0, -2.0 * r, r**2], dtype=complex)  # (1 - r z^{-1})^2: double root at z=r
    pair = ScatteringPair(a, np.zeros(3, dtype=complex))
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
