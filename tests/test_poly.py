import numpy as np
import pytest

from nftsynth.poly import (
    circle_samples,
    coeffs_from_circle,
    cyclic_mat_mul,
    poly_eval,
    poly_mat_mul,
    poly_mul,
)


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


# (Lx, Ly): the output length Lx + Ly - 1 is 2^k + 1 (the wrapped top
# coefficient is folded back once the stack holds _FOLD_MIN_SIZE
# coefficients, hence the 64-deep stack), a power of two, or neither; one
# operand of length 1 on either side
@pytest.mark.parametrize("lx,ly", [(2, 2), (3, 3), (5, 5), (9, 9), (33, 33), (65, 65), (17, 1),
                                   (1, 17), (2, 1), (1, 1), (3, 6), (4, 5), (12, 7), (100, 29)])
def test_poly_mat_mul_matches_convolve(lx, ly):
    rng = np.random.default_rng(lx * 1000 + ly)
    for lead, k in (((), 2), ((3,), 2), ((4,), 1), ((2, 3), 2), ((64,), 2)):
        X = random_stack(rng, lead + (2, 2, lx))
        Y = random_stack(rng, lead + (2, k, ly))
        ref = mat_convolve(X, Y)
        out = poly_mat_mul(X, Y)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def test_poly_mat_mul_random_lengths():
    rng = np.random.default_rng(19)
    for _ in range(30):
        lx, ly = (int(v) for v in rng.integers(1, 70, size=2))
        X = random_stack(rng, (3, 2, 2, lx))
        Y = random_stack(rng, (3, 2, 2, ly))
        ref = mat_convolve(X, Y)
        assert np.abs(poly_mat_mul(X, Y) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("h", [1, 2, 8, 64, 256])
def test_cyclic_mat_mul_middle_product(h):
    """Coefficients h..2h-1 of a (2,2,h+1) @ (2,1,2h) product come out exact at cyclic length 2h.

    The linear product has length 3h; its coefficients 2h..3h-1 wrap onto
    0..h-1 and nothing lands on h..2h-1, which is the window step of invert_fast.
    """
    rng = np.random.default_rng(h)
    X = random_stack(rng, (2, 2, h + 1))
    Y = random_stack(rng, (2, 1, 2 * h))
    ref = mat_convolve(X, Y)[..., h:2 * h]
    out = cyclic_mat_mul(X, Y, 2 * h)[..., h:2 * h]
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


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


def test_eval_array_argument():
    p = [1.0, -0.5]
    zs = np.array([1.0, 2.0, 1j])
    vals = poly_eval(p, zs)
    np.testing.assert_allclose(vals, [0.5, 0.75, 1 - 0.5 / 1j])


def test_circle_samples_constant():
    np.testing.assert_allclose(circle_samples([1.0], 4), np.ones(4))


def test_circle_samples_monomial():
    out = circle_samples([0.0, 1.0], 4)
    np.testing.assert_allclose(out, [1.0, -1j, -1.0, 1j], atol=1e-15)


def test_circle_samples_matches_poly_eval():
    rng = np.random.default_rng(11)
    p = rng.normal(size=33) + 1j * rng.normal(size=33)
    M = 66
    grid = np.exp(2j * np.pi * np.arange(M) / M)
    ref = poly_eval(p, grid)
    out = circle_samples(p, M)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_circle_samples_rejects_aliasing():
    with pytest.raises(ValueError):
        circle_samples(np.ones(8), 4)


def test_coeffs_from_circle_roundtrip_exact():
    samples = circle_samples([1.0, 0.5], 8)
    coeffs, tail = coeffs_from_circle(samples, 2)
    np.testing.assert_allclose(coeffs, [1.0, 0.5], atol=1e-15)
    assert tail <= 1e-28


def test_coeffs_from_circle_identity_property():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = rng.integers(1, 40)
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        M = int(2 ** np.ceil(np.log2(max(2, 2 * n))))
        coeffs, tail = coeffs_from_circle(circle_samples(p, M), n)
        assert np.abs(coeffs - p).max() <= 1e-12
        assert tail <= 1e-24


def test_coeffs_from_circle_geometric_tail():
    # 1/(1 - 0.5 z^{-1}) is analytic in |z| > 1/2; coefficients are 0.5^i
    keep = 40
    M = 4 * keep
    grid = np.exp(2j * np.pi * np.arange(M) / M)
    samples = 1.0 / (1.0 - 0.5 / grid)
    coeffs, tail = coeffs_from_circle(samples, keep)
    np.testing.assert_allclose(coeffs, 0.5 ** np.arange(keep), rtol=1e-10, atol=1e-15)
    assert tail <= 1e-10



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
