"""End-to-end acceptance checks: one test, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the PASS/FAIL line per
criterion with the measured numbers.  Criterion 3 is expected to fail on
the transition band of the 4-soliton case (4.8089 against 0.20 at
D=2048).  The synthesized pair's truncated a is not exactly unimodular
with b (residual 6.0e-8 at D=2048, not shrinking with D), but that alone
is not the cause: an exactly valid pair made from it by the l2-minimal
change of b still reads 4.81 (a scratch measurement; README, "Known
failure").  Clipped soliton tails are not the cause either: a lone 50i
soliton, with the shortest tails, fails too (0.327; residual 2.1e-9), and
the round-trip deviation falls like 1/D (1.3e-6 at D=2048) while the
transition deviation stays at 4.81.  The test reports the honest
measurement and keeps its bound.
"""

import time
from functools import lru_cache

import numpy as np

from nftsynth import inverse
from nftsynth.asymptotics import asymptotic_reflection, predict, sine_integral
from nftsynth.forward import (
    find_eigenvalues,
    forward_fast,
    norming_constants,
    reflection_coefficient,
)
from nftsynth.inverse import LEAF_SIZE, Signal, invert_fast
from nftsynth.poly import poly_eval
from nftsynth.synthesis import (
    SpectrumSpec,
    blaschke_eval,
    lambda_to_z,
    synthesize_ab,
    z_to_lambda,
)
from nftsynth.verify import (
    eigenvalue_errors,
    energy_identity_residual,
    norming_rel_devs,
    radiation_energy,
    reflection_devs,
)

from oracles import continuous_oracle, forward_sequential, invert_scalar

ONE_SOLITON = (20j,)
FOUR_SOLITON = (12.5j, 25.0j, 37.5j, 50.0j)


def verdict(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@lru_cache(maxsize=None)
def pipeline(lambdas, delta, D):
    """synthesize -> invert -> forward, cached across criteria."""
    spec = SpectrumSpec(lambdas=list(lambdas), delta=delta, D=D, omega_c=10.0)
    pair = synthesize_ab(spec)
    signal, _tm = invert_fast(pair, check=False)
    return spec, pair, signal, forward_fast(signal)


def random_signal(rng, D):
    # Keep sum(|Q|^2) ~ 2 regardless of D: peeling's error amplification grows
    # like exp(signal energy), so pairs with a0 << 1 lose digits in *any*
    # correct implementation and would measure conditioning, not agreement.
    scale = min(0.5, 1.0 / np.sqrt(D))
    return Signal(samples=scale * (rng.standard_normal(D) + 1j * rng.standard_normal(D)))


def test_criterion_1_fast_matches_reference(monkeypatch):
    """invert_fast vs the scalar reference invert_scalar: <= 1e-8 relative on 200 random pairs
    (25 per size, D in {2,...,256}) and on both worked-example spectra at D=512,
    each at the default leaf size (D <= 512 is then a single leaf) and at
    a leaf size of 32, which runs the recursion."""
    rng = np.random.default_rng(2024)
    pairs = [forward_sequential(random_signal(rng, D))
             for D in (2, 4, 8, 16, 32, 64, 128, 256) for _ in range(25)]
    pairs += [pipeline(lams, 0.01, 512)[1] for lams in (ONE_SOLITON, FOUR_SOLITON)]
    worst = {}
    for leaf in (LEAF_SIZE, 32):
        worst[leaf] = 0.0
        monkeypatch.setattr(inverse, "LEAF_SIZE", leaf)
        for pair in pairs:
            ref = invert_scalar(pair, check=False)
            fast, _ = invert_fast(pair, check=False)
            rel = np.abs(fast.samples - ref.samples).max() / np.abs(ref.samples).max()
            worst[leaf] = max(worst[leaf], rel)
    ok = max(worst.values()) <= 1e-8
    verdict(1, ok, f"worst relative deviation {worst[LEAF_SIZE]:.3e} at leaf size {LEAF_SIZE}, "
                   f"{worst[32]:.3e} at leaf size 32 (tolerance 1e-8)")
    assert ok


def test_criterion_2_eigenvalue_placement():
    """Synthesize the 4-soliton target at D=512, invert, transform back:
    every recovered eigenvalue within 1e-3 of its prescription."""
    spec, _, _, back = pipeline(FOUR_SOLITON, 0.01, 512)
    lams = [z_to_lambda(z, spec.eps) for z in find_eigenvalues(back.a)]
    errs = eigenvalue_errors(lams, FOUR_SOLITON)
    ok = len(lams) == 4 and max(errs) <= 1e-3
    verdict(2, ok, f"{len(lams)} eigenvalues, max placement error {max(errs):.3e} "
                   f"(tolerance 1e-3)")
    assert ok


def test_criterion_3_reflection_prediction():
    """Measured |b/a|^2 of the generated signal vs the limiting prediction at
    D=2048: within 5% inside the passband, 20% in the transition band."""
    results = []
    for name, lams in (("radiation-only", ()), ("4-soliton", FOUR_SOLITON)):
        _, _, _, back = pipeline(lams, 0.01, 2048)
        om, vals, _ = reflection_coefficient(back)
        results.append((name, *reflection_devs(om, vals, asymptotic_reflection(om, 0.01, 10.0),
                                               10.0)))
    ok = all(p <= 0.05 and t <= 0.20 for _, p, t in results)
    detail = "; ".join(f"{n}: passband {p:.4f}/0.05, transition {t:.4f}/0.20"
                       for n, p, t in results)
    verdict(3, ok, detail)
    assert ok


def test_criterion_4_norming_prediction():
    """Measured norming constants vs the semi-asymptotic prediction: within
    20% at D=512, deviation non-increasing when refined to D=2048."""
    devs = {}
    for D in (512, 2048):
        spec, _, _, back = pipeline(FOUR_SOLITON, 0.01, D)
        zs = find_eigenvalues(back.a)
        lams = [z_to_lambda(z, spec.eps) for z in zs]
        devs[D] = np.array(norming_rel_devs(norming_constants(back, zs),
                                            predict(spec).norming_predictions, lams, FOUR_SOLITON))
    ok = devs[512].max() <= 0.20 and np.all(devs[2048] <= devs[512])
    verdict(4, ok, f"D=512 devs {np.round(devs[512], 5).tolist()} (tolerance 0.20), "
                   f"D=2048 devs {np.round(devs[2048], 5).tolist()} (non-increasing)")
    assert ok


def test_criterion_5_contrast_sweep():
    """Residual radiation energy of the one-soliton signal decreases
    monotonically as the contrast parameter drops through 0.1, 0.03, 0.01."""
    energies = []
    for delta in (0.1, 0.03, 0.01):
        _, _, _, back = pipeline(ONE_SOLITON, delta, 512)
        energies.append(radiation_energy(*reflection_coefficient(back)[:2]))
    ok = energies[0] > energies[1] > energies[2]
    verdict(5, ok, "radiation energies " + ", ".join(f"{e:.4g}" for e in energies)
                   + " (must decrease)")
    assert ok


def _median_time(fn, repeats=3):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def test_criterion_6_complexity_signature():
    """Per-sample wall time from D=2^9 to D=2^14: the fast inverter grows
    <= 3x (log^2 signature), the scalar reference invert_scalar >= 8x
    (quadratic)."""
    small, big = 512, 16384
    pairs = {D: pipeline(ONE_SOLITON, 0.01, D)[1] for D in (small, big)}
    fast = {D: _median_time(lambda D=D: invert_fast(pairs[D], check=False))
            for D in (small, big)}
    seq_small = _median_time(lambda: invert_scalar(pairs[small], check=False))
    t0 = time.perf_counter()  # one quadratic run at 2^14 is ~30 s; time it once
    invert_scalar(pairs[big], check=False)
    seq_big = time.perf_counter() - t0
    fast_ratio = (fast[big] / big) / (fast[small] / small)
    seq_ratio = (seq_big / big) / (seq_small / small)
    ok = fast_ratio <= 3.0 and seq_ratio >= 8.0
    verdict(6, ok, f"fast per-sample ratio {fast_ratio:.2f} (<= 3), "
                   f"sequential per-sample ratio {seq_ratio:.2f} (>= 8)")
    assert ok


def test_criterion_7_invariant_suite():
    checks = {}

    spec1, pair1, sig1, back1 = pipeline(ONE_SOLITON, 0.01, 512)
    spec4, pair4, sig4, back4 = pipeline(FOUR_SOLITON, 0.01, 512)

    checks["unimodularity(synthesized) <= 1e-6"] = (
        max(pair1.unimodularity_residual, pair4.unimodularity_residual) <= 1e-6)
    rng = np.random.default_rng(77)
    fwd_res = max(back1.unimodularity_residual, back4.unimodularity_residual,
                  forward_sequential(random_signal(rng, 128)).unimodularity_residual)
    checks["unimodularity(forward) <= 1e-10"] = fwd_res <= 1e-10

    checks["energy identity <= 1e-8"] = max(
        energy_identity_residual(sig1, back1.a[0]),
        energy_identity_residual(sig4, back4.a[0])) <= 1e-8

    grid = np.exp(2j * np.pi * np.arange(4096) / 4096)
    roots = [lambda_to_z(l, spec4.eps) for l in FOUR_SOLITON]
    checks["Blaschke unit modulus <= 1e-13"] = (
        np.abs(np.abs(blaschke_eval(grid, roots)) - 1.0).max() <= 1e-13)

    s = np.random.default_rng(8).uniform(0.0, 100.0, 50)
    checks["Si odd <= 1e-12"] = np.abs(sine_integral(-s) + sine_integral(s)).max() <= 1e-12
    checks["Si limit"] = abs(sine_integral(1e8) - np.pi / 2) <= 1e-7

    # smooth reflectionless pulse: discrete scattering vs the ODE oracle,
    # and the recovered bound state, both refine at first order or better
    q = lambda t: 20.0 / np.cosh(20.0 * (t + 0.5))
    lam_probe = 1.0
    al, be = continuous_oracle(q, lam_probe)
    eig_errs, b_devs = [], []
    for D in (128, 256, 512, 1024):
        eps = 1.0 / D
        t = -1 + (np.arange(1, D + 1) - 0.5) * eps
        pair = forward_sequential(Signal(samples=eps * q(t)))
        zs = find_eigenvalues(pair.a)
        eig_errs.append(eigenvalue_errors([z_to_lambda(zs[0], eps)], [10j])[0]
                        if len(zs) == 1 else np.inf)
        b_devs.append(abs(poly_eval(np.asarray(pair.b), lambda_to_z(lam_probe, eps)) - be))
    eig_ratios = [eig_errs[i] / eig_errs[i + 1] for i in range(3)]
    b_ratios = [b_devs[i] / b_devs[i + 1] for i in range(3)]
    checks["sech eigenvalue -> 10i"] = eig_errs[-1] <= 2e-3
    checks["sech refinement >= 1.7x"] = min(eig_ratios + b_ratios) >= 1.7

    ok = all(checks.values())
    verdict(7, ok, "; ".join(f"{name}: {'ok' if good else 'VIOLATED'}"
                             for name, good in checks.items()))
    assert ok, {name: good for name, good in checks.items() if not good}
