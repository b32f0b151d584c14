import mpmath
import numpy as np
import pytest

from nftsynth import asymptotics
from nftsynth.asymptotics import (
    LAGUERRE_SPLIT,
    SERIES_MAX,
    SI_BLOCK,
    SI_FLAT,
    asymptotic_reflection,
    filter_amplitude,
    predict,
    semi_asymptotic_norming,
    sine_integral,
)
from nftsynth.forward import find_eigenvalues, norming_constants
from nftsynth.poly import poly_eval
from nftsynth.specfact import FilterSpec, make_ub
from nftsynth.synthesis import SpectrumSpec, lambda_to_z, synthesize_ab

FOUR_SOLITON = [12.5j, 25.0j, 37.5j, 50.0j]


def test_sine_integral_basics():
    assert sine_integral(0.0) == 0.0
    assert sine_integral(10.0) == pytest.approx(1.6583475942, abs=1e-9)
    assert sine_integral(1e6) == pytest.approx(np.pi / 2, abs=1e-5)
    arr = sine_integral(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert arr.shape == (2, 2)


def test_sine_integral_odd():
    rng = np.random.default_rng(4)
    s = rng.uniform(0.0, 80.0, 40)
    assert np.allclose(sine_integral(-s), -sine_integral(s), atol=1e-12)


def test_sine_integral_against_mpmath():
    """Si against mpmath's arbitrary-precision value, an independent implementation."""
    def err(s):
        return np.max(np.abs(sine_integral(s) - np.array([float(mpmath.si(x)) for x in s])))

    assert err(np.linspace(0.01, 29.9, 57)) <= 1e-12
    assert err(np.concatenate([np.linspace(30.1, 200.0, 57), [1e3, 1e5]])) <= 1e-12


@pytest.mark.parametrize("switch", [SERIES_MAX, LAGUERRE_SPLIT])
def test_sine_integral_across_range_switches(switch):
    """Dense mpmath comparison within 1e-3 of each point where Si changes method."""
    s = switch + np.linspace(-1e-3, 1e-3, 201)
    s = np.concatenate([s, -s])
    ref = np.array([float(mpmath.si(float(x))) for x in s])
    assert np.max(np.abs(sine_integral(s) - ref)) <= 1e-12


def test_sine_integral_special_values():
    assert sine_integral(0.0) == 0.0
    assert sine_integral(5e-324) == 5e-324  # Si(s) = s to first order
    assert sine_integral(SI_FLAT) == sine_integral(np.nextafter(SI_FLAT, np.inf)) == np.pi / 2
    assert sine_integral(1e300) == np.pi / 2
    assert sine_integral(np.inf) == np.pi / 2
    assert sine_integral(-np.inf) == -np.pi / 2
    assert np.isnan(sine_integral(np.nan))


def test_sine_integral_shapes(monkeypatch):
    """A scalar gives a float, an array keeps its shape, and the block size
    the points are taken in changes the values by rounding only (the matrix
    products may sum in another order)."""
    assert type(sine_integral(3.0)) is float
    assert type(sine_integral(np.float64(-250.0))) is float
    assert sine_integral(np.ones((2, 3, 4))).shape == (2, 3, 4)
    assert sine_integral(np.zeros(0)).shape == (0,)
    s = np.linspace(-100.0, 100.0, 3 * SI_BLOCK + 3).reshape(3, -1)
    whole = sine_integral(s)
    monkeypatch.setattr(asymptotics, "SI_BLOCK", 7)
    assert np.allclose(sine_integral(s), whole, rtol=0.0, atol=1e-14)


def test_filter_amplitude_one_sine_integral_call(monkeypatch):
    """Both Si terms come from one call on the stacked arguments."""
    calls = []

    def counted(s):
        calls.append(np.shape(s))
        return sine_integral(s)

    monkeypatch.setattr(asymptotics, "sine_integral", counted)
    w = np.linspace(-30.0, 30.0, 7)
    expected = np.abs(sine_integral(w + 10.0) - sine_integral(w - 10.0)) / np.pi
    assert np.array_equal(filter_amplitude(w, 10.0), expected)
    assert calls == [(2, 7)]


def test_filter_amplitude_even_and_peak():
    rng = np.random.default_rng(12)
    w = rng.uniform(0.0, 50.0, 30)
    assert np.allclose(filter_amplitude(-w, 10.0), filter_amplitude(w, 10.0), atol=1e-12)
    peak = filter_amplitude(0.0, 10.0)
    assert peak == pytest.approx(2.0 * sine_integral(10.0) / np.pi, abs=1e-12)
    assert peak == pytest.approx(1.05574, abs=1e-4)


def test_filter_amplitude_decay():
    w = np.linspace(40.0, 120.0, 161)
    peak = filter_amplitude(0.0, 10.0)
    assert np.max(filter_amplitude(w, 10.0)) < 1e-2 * peak


def test_asymptotic_reflection_values():
    w = np.linspace(-30.0, 30.0, 61)
    assert np.allclose(asymptotic_reflection(w, 0.0, 10.0), 0.0)
    assert asymptotic_reflection(0.0, 0.01, 10.0) == pytest.approx(1.1147e-4, rel=1e-3)
    # strictly increasing in contrast at fixed shape
    lo = asymptotic_reflection(0.0, 0.01, 10.0)
    hi = asymptotic_reflection(0.0, 0.1, 10.0)
    assert hi > 99 * lo


def test_asymptotic_reflection_domain():
    with pytest.raises(ValueError, match="domain"):
        asymptotic_reflection(0.0, 0.95, 10.0)


def test_semi_asymptotic_norming_single():
    fp = make_ub(FilterSpec(512, 0.01, 10.0))
    eps = 1.0 / 512
    lam = 20j
    got = semi_asymptotic_norming(fp.b, fp.u, [lam], eps)
    z = lambda_to_z(lam, eps)
    expect = -(poly_eval(fp.b, z) / poly_eval(fp.u, z)) * (lam - np.conj(lam))
    assert got == pytest.approx(expect, rel=1e-12)


def test_semi_asymptotic_norming_matches_per_k_formula():
    """All four predictions of one call against the product written out per k."""
    spec = SpectrumSpec(lambdas=FOUR_SOLITON, delta=0.01, D=512, omega_c=10.0)
    fp = make_ub(spec.filter)
    got = semi_asymptotic_norming(fp.b, fp.u, FOUR_SOLITON, spec.eps)
    assert got.shape == (4,)
    for k, lk in enumerate(FOUR_SOLITON):
        zk = lambda_to_z(lk, spec.eps)
        want = -(poly_eval(fp.b, zk) / poly_eval(fp.u, zk)) * (lk - np.conj(lk))
        for i, li in enumerate(FOUR_SOLITON):
            if i != k:
                want *= -(lk - np.conj(li)) / (lk - li)
        assert abs(got[k] - want) <= 1e-14 * abs(want)


def test_semi_asymptotic_norming_coincident_rejected():
    fp = make_ub(FilterSpec(256, 0.01, 10.0))
    with pytest.raises(ZeroDivisionError, match="coincident"):
        semi_asymptotic_norming(fp.b, fp.u, [20j, 20j], 1.0 / 256)


def test_predictions_match_measured_norming():
    """The mirrored-over-plain product orientation is the one that works.

    Swapping numerator and denominator in the eigenvalue product leaves
    predictions that miss the measured constants by O(1); the adopted
    orientation lands within ~1.6% at D=512.
    """
    spec = SpectrumSpec(lambdas=FOUR_SOLITON, delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    zs = find_eigenvalues(pair.a)
    meas = norming_constants(pair, zs)
    pred = predict(spec).norming_predictions
    rel = np.abs(meas - pred) / np.abs(meas)
    assert np.all(rel <= 2e-2)

    fp = make_ub(spec.filter)
    lams = np.asarray(FOUR_SOLITON, dtype=complex)
    for k, lk in enumerate(lams):
        zk = lambda_to_z(lk, spec.eps)
        v = -(poly_eval(fp.b, zk) / poly_eval(fp.u, zk)) * (lk - np.conj(lk))
        for i, li in enumerate(lams):
            if i != k:
                v *= -(lk - li) / (lk - np.conj(li))
        flipped_rel = abs(meas[k] - v) / abs(meas[k])
        assert flipped_rel >= 10 * rel[k]


def test_predict_bundles_reflection_curve():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=256, omega_c=10.0)
    pred = predict(spec)
    assert len(pred.norming_predictions) == 1
