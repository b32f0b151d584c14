import numpy as np
import pytest

from nftsynth import synthesis
from nftsynth.synthesis import (
    ROOT_INNER,
    ROOT_OUTER,
    ScatteringPair,
    SpectrumSpec,
    blaschke_eval,
    lambda_to_z,
    synthesize_ab,
    validate_pair,
    z_to_lambda,
)

FOUR_SOLITON = [12.5j, 25.0j, 37.5j, 50.0j]


def annulus_roots(a):
    """np.roots of a in the bound-state annulus: an oracle independent of find_eigenvalues."""
    roots = np.roots(np.trim_zeros(a, "b"))
    return roots[(np.abs(roots) > ROOT_INNER) & (np.abs(roots) < ROOT_OUTER)]


def test_lambda_to_z_basics():
    assert lambda_to_z(0.0, 1 / 512) == pytest.approx(1.0)
    z = lambda_to_z(20j, 1 / 512)
    assert z == pytest.approx(np.exp(40 / 512), abs=1e-12)
    assert z.imag == pytest.approx(0.0, abs=1e-15)


def test_lambda_real_maps_to_circle():
    rng = np.random.default_rng(2)
    eps = 1 / 64
    for lam in rng.uniform(-np.pi / (2 * eps), np.pi / (2 * eps), size=20):
        assert abs(abs(lambda_to_z(lam, eps)) - 1.0) <= 1e-12


def test_lambda_strip_enforced():
    eps = 1 / 64
    with pytest.raises(ValueError):
        lambda_to_z(np.pi / (2 * eps) * 1.5 + 1j, eps)


def test_z_lambda_roundtrip():
    rng = np.random.default_rng(4)
    eps = 1 / 256
    strip = np.pi / (2 * eps)
    for _ in range(100):
        lam = complex(rng.uniform(-strip * 0.99, strip * 0.99), rng.uniform(0.01, 3.0) / eps * 0.2)
        z = lambda_to_z(lam, eps)
        back = z_to_lambda(z, eps)
        assert abs(back - lam) <= 1e-12 * max(1.0, abs(lam))
    assert z_to_lambda(1.0, eps) == 0.0
    assert z_to_lambda(np.exp(40 / 512), 1 / 512) == pytest.approx(20j, abs=1e-9)


def test_z_to_lambda_rejects_origin():
    with pytest.raises(ValueError):
        z_to_lambda(0.0, 1 / 64)


def test_blaschke_empty_product():
    assert blaschke_eval(0.7 + 0.2j, []) == 1.0


def test_blaschke_unit_modulus_on_circle():
    rng = np.random.default_rng(9)
    roots = 1.0 + rng.uniform(0.01, 2.0, 5) * np.exp(2j * np.pi * rng.random(5))
    roots = roots[np.abs(roots) > 1.0]
    xs = np.exp(2j * np.pi * rng.random(50))
    vals = blaschke_eval(xs, list(roots))
    assert np.abs(np.abs(vals) - 1.0).max() <= 1e-13


def test_blaschke_vanishes_at_roots():
    roots = [1.3 + 0.1j, 1.05j]
    for r in roots:
        assert blaschke_eval(r, roots) == 0


def test_spectrumspec_validation():
    with pytest.raises(ValueError):
        SpectrumSpec(lambdas=[-20j], delta=0.01, D=512, omega_c=10.0)
    with pytest.raises(ValueError):
        SpectrumSpec(lambdas=[20j, 20j], delta=0.01, D=512, omega_c=10.0)
    with pytest.raises(ValueError):
        SpectrumSpec(lambdas=[20j], delta=0.01, D=500, omega_c=10.0)
    with pytest.raises(ValueError, match=r"D=512\.0 is not an integer"):
        SpectrumSpec(lambdas=[20j], delta=0.01, D=512.0)
    assert SpectrumSpec(lambdas=[20j], delta=0.01, D=np.int64(512)).D == 512
    with pytest.raises(ValueError):
        SpectrumSpec(lambdas=[2000.0 + 1j], delta=0.01, D=64, omega_c=10.0)
    # outside the annulus find_eigenvalues certifies: Im lambda in (2.6e-4, 804) at D=512
    for lam in (1e-300j, 900j):
        with pytest.raises(ValueError, match=rf"eigenvalue {lam}.*1\.000001 < \|z\| < 23\.14069"):
            SpectrumSpec(lambdas=[20j, lam], delta=0.01, D=512, omega_c=10.0)


def test_synthesize_radiation_only():
    spec = SpectrumSpec(lambdas=[], delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    assert pair.unimodularity_residual <= 1e-7
    assert pair.a[0].imag == pytest.approx(0.0, abs=1e-12)
    assert pair.a[0].real > 0


def test_synthesize_single_soliton_root():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    roots = annulus_roots(pair.a)
    assert len(roots) == 1
    assert abs(roots[0] - lambda_to_z(20j, spec.eps)) <= 1e-6


def test_synthesize_four_soliton_roots():
    spec = SpectrumSpec(lambdas=FOUR_SOLITON, delta=0.01, D=512, omega_c=10.0)
    pair = synthesize_ab(spec)
    roots = annulus_roots(pair.a)
    expected = sorted(lambda_to_z(l, spec.eps).real for l in FOUR_SOLITON)
    assert len(roots) == 4
    got_sorted = np.sort(roots.real)
    np.testing.assert_allclose(np.abs(roots.imag), 0, atol=1e-6)
    for want, got in zip(expected, got_sorted):
        assert abs(got - want) <= 1e-6


def test_synthesized_a0_in_unit_interval():
    for lams in ([], [20j], FOUR_SOLITON):
        spec = SpectrumSpec(lambdas=lams, delta=0.01, D=512, omega_c=10.0)
        pair = synthesize_ab(spec)
        a0 = pair.a[0]
        assert abs(a0.imag) <= 1e-12
        assert 0.0 < a0.real <= 1.0 + 1e-12


def test_tail_energy_shrinks_with_d():
    tails = []
    for D in (256, 512, 1024, 2048):
        spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=D, omega_c=10.0)
        tails.append(synthesize_ab(spec).truncation_tail_energy)
    for lo, hi in zip(tails[1:], tails[:-1]):
        assert lo <= hi * 1.5  # monotone within noise


def test_validate_pair_trivial_and_broken():
    good = ScatteringPair(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
    rep = validate_pair(good)
    assert rep["ok"]
    assert rep["unimodularity_residual"] <= 1e-15

    bad = ScatteringPair(
        a=np.array([1.0 + 0j]), b=np.array([1.0 + 0j]), truncation_tail_energy=0.0,
    )
    assert not validate_pair(bad)["ok"]


def test_direct_pair_reports_its_residual():
    """A pair built from bare coefficients derives its residual from a and b."""
    unimodular = ScatteringPair([0.6, 0.0], [0.0, 0.8j])    # |0.6|^2 + |0.8 z^-1|^2 = 1
    assert unimodular.a.dtype == unimodular.b.dtype == complex
    assert unimodular.unimodularity_residual <= 1e-15
    half = ScatteringPair(np.array([0.5]), np.array([0.5]))  # |a|^2 + |b|^2 = 0.5
    assert half.unimodularity_residual == pytest.approx(0.5, abs=1e-15)
    half.b = np.array([np.sqrt(0.75)])                      # follows a and b as they are
    assert half.unimodularity_residual <= 1e-15


def test_validate_pair_accepts_synthesized():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=256, omega_c=10.0)
    assert validate_pair(synthesize_ab(spec))["ok"]


def test_synthesize_rejects_too_small_d():
    # a bound state extremely close to the circle has a slowly decaying
    # coefficient tail; at tiny D the truncation must be refused
    spec = SpectrumSpec(lambdas=[0.05j], delta=0.01, D=16, omega_c=10.0)
    with pytest.raises(ValueError, match="[Dd] too small|tail"):
        synthesize_ab(spec)


def test_synthesize_rejects_nan_tail(monkeypatch):
    truncate = synthesis.coeffs_from_circle
    monkeypatch.setattr(synthesis, "coeffs_from_circle",
                        lambda samples, keep: (truncate(samples, keep)[0], float("nan")))
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=64, omega_c=10.0)
    with pytest.raises(ValueError, match="tail energy nan"):
        synthesize_ab(spec)
