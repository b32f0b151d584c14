import mpmath
import numpy as np
import pytest

from nftsynth import poly
# numpy's convolve, under the name perfbench/'s tracer patches and costs as a product
from nftsynth.inverse import poly_mul
from nftsynth.poly import grid_omega, poly_eval


def schoolbook(p, q):
    out = np.zeros(len(p) + len(q) - 1, dtype=complex)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def test_mul_identity():
    p = np.array([1.0, 2.0, 3.0j])
    out = poly_mul(p, np.array([1.0]))
    np.testing.assert_allclose(out, p)


def test_mul_binomial_square():
    out = poly_mul([1.0, 1.0], [1.0, 1.0])
    np.testing.assert_allclose(out, [1.0, 2.0, 1.0])


def test_mul_output_length():
    out = poly_mul(np.ones(5), np.ones(7))
    assert len(out) == 11


def test_mul_matches_schoolbook_random():
    rng = np.random.default_rng(7)
    p = rng.normal(size=64) + 1j * rng.normal(size=64)
    q = rng.normal(size=64) + 1j * rng.normal(size=64)
    ref = schoolbook(p, q)
    out = poly_mul(p, q)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 256])
def test_mul_matches_schoolbook_sizes(n):
    rng = np.random.default_rng(n)
    p = rng.normal(size=n) + 1j * rng.normal(size=n)
    q = rng.normal(size=n) + 1j * rng.normal(size=n)
    ref = schoolbook(p, q)
    out = poly_mul(p, q)
    assert np.abs(out - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


def test_eval_simple():
    assert poly_eval([1.0, 1.0], 1.0) == pytest.approx(2.0)
    assert poly_eval([0.0, 0.0, 0.0, 1.0], 2.0) == pytest.approx(0.125)


def test_eval_matches_naive_sum():
    rng = np.random.default_rng(3)
    p = rng.normal(size=16) + 1j * rng.normal(size=16)
    z0 = 1.1 + 0.2j
    ref = sum(c * z0 ** (-i) for i, c in enumerate(p))
    assert abs(poly_eval(p, z0) - ref) <= 1e-13 * abs(ref)


def test_eval_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        poly_eval([1.0, 2.0], 0.0)


def test_coefficient_shape_refusals():
    """Empty coefficients, and more than a stack of rows, are refused by name."""
    for bad in (np.ones((2, 2, 3)), np.ones((3, 0)), []):
        with pytest.raises(ValueError, match="non-empty 1-D array or a stack of them"):
            poly_eval(bad, 2.0)


def test_eval_array_argument():
    p = [1.0, -0.5]
    zs = np.array([1.0, 2.0, 1j])
    vals = poly_eval(p, zs)
    np.testing.assert_allclose(vals, [0.5, 0.75, 1 - 0.5 / 1j])


def test_eval_stack_and_blocks(monkeypatch):
    """Rows of a stack evaluate as one-row calls, whatever the point block size."""
    rng = np.random.default_rng(13)
    P = rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40))
    zs = (1.0 + rng.random((2, 5))) * np.exp(2j * np.pi * rng.random((2, 5)))
    ref = np.array([[[sum(c * z ** (-i) for i, c in enumerate(p)) for z in row]
                     for row in zs] for p in P])
    for block in (poly.EVAL_BLOCK, 40, 1):
        monkeypatch.setattr(poly, "EVAL_BLOCK", block)
        out = poly_eval(P, zs)
        assert out.shape == (3, 2, 5)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_allclose(poly_eval(P[1], zs), out[1], rtol=1e-14)
        np.testing.assert_allclose(poly_eval(P, zs[0, 2]), out[:, 0, 2], rtol=1e-14)
    assert poly_eval([2.0 - 1j], 0.0) == 2.0 - 1j


def test_eval_matches_mpmath_at_scale():
    """a and b of the 4-soliton pair at D=16384, at its bound states and on
    the circle, against mpmath.polyval in 40 digits.  The bound is Horner's:
    gamma_2n * sum |c_j| |z|^-j with gamma_2n = 2nu / (1 - 2nu)."""
    from nftsynth.synthesis import SpectrumSpec, lambda_to_z, synthesize_ab

    D = 16384
    spec = SpectrumSpec([12.5j, 25j, 37.5j, 50j], 0.01, D)
    pair = synthesize_ab(spec)
    zs = np.array([lambda_to_z(lam, spec.eps) for lam in spec.lambdas]
                  + list(np.exp(2j * np.pi * np.array([0.1, 0.37, 0.5]))))
    u = np.finfo(float).eps / 2
    gamma = 2 * D * u / (1 - 2 * D * u)
    mpmath.mp.dps = 40
    vals = poly_eval(np.stack([pair.a, pair.b]), zs)
    for p, got in zip((pair.a, pair.b), vals):
        coeffs = [mpmath.mpc(complex(c)) for c in p[::-1]]
        for z, v in zip(zs, got):
            exact = complex(mpmath.polyval(coeffs, 1 / mpmath.mpc(z)))
            scale = np.sum(np.abs(p) * np.abs(z) ** -np.arange(D, dtype=float))
            assert abs(v - exact) <= gamma * scale


def test_circle_samples_monomial():
    """np.fft.fft(c, M)[m] is c at z = e^{2 pi i m/M}: here c = z^{-1}."""
    np.testing.assert_allclose(np.fft.fft([0.0, 1.0], 4), [1.0, -1j, -1.0, 1j], atol=1e-15)


def test_circle_samples_matches_poly_eval():
    """The FFT samples a polynomial on the circle grid, whose points
    grid_omega maps to omega with z = e^{-2 i omega / D}."""
    rng = np.random.default_rng(11)
    p = rng.normal(size=33) + 1j * rng.normal(size=33)
    M, D = 66, 16
    grid = np.exp(2j * np.pi * np.arange(M) / M)
    np.testing.assert_allclose(np.exp(-2j * grid_omega(np.arange(M), M, D) / D), grid,
                               rtol=0, atol=1e-14)
    ref = poly_eval(p, grid)
    out = np.fft.fft(p, M)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


# The derivative of a causal polynomial is a'(z) = -sum j a_j z^{-j-1}
# = -poly_eval(j a_j, z) / z, the form norming_constants uses.
def _dz_at(p, z0):
    p = np.asarray(p, dtype=complex)
    return -poly_eval(np.arange(len(p)) * p, z0) / z0


def test_dz_constant_and_monomial():
    for z0 in (1.5, -0.7 + 2.0j):
        assert _dz_at([3.0], z0) == 0
        # z^{-1} -> -z^{-2}
        assert _dz_at([0.0, 1.0], z0) == pytest.approx(-1.0 / z0**2, rel=1e-15)


def test_dz_matches_finite_difference():
    rng = np.random.default_rng(5)
    p = rng.normal(size=12) + 1j * rng.normal(size=12)
    h = 1e-6
    for z0 in 1.2 + 0.3 * rng.normal(size=10) + 0.3j * rng.normal(size=10):
        if abs(z0) < 0.5:
            continue
        fd = (poly_eval(p, z0 + h) - poly_eval(p, z0 - h)) / (2 * h)
        assert abs(_dz_at(p, z0) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_laurent_eval_offset():
    # 2 z^{-1} + 3 z^0 + 4 z^1 is z times the causal 4 + 3 z^{-1} + 2 z^{-2}
    z0 = 1.5 + 0.5j
    assert z0 * poly_eval([4.0, 3.0, 2.0], z0) == pytest.approx(2.0 / z0 + 3.0 + 4.0 * z0)
