"""Verification: the health values of a run, each defined once.

Every function takes values a pipeline stage has already computed (a
pair, samples, a reflection spectrum, roots found) and runs no stage,
so the commands clock and capture their stages themselves and read the
values from here.  The acceptance tests read them from the `roundtrip`
command's report.
Only numpy is needed: a pair is anything with arrays `a` and `b` and a
`unimodularity_residual`, a signal anything with `samples`.
"""

import numpy as np

PAIR_TOL = 1e-6              # validate_pair: a0 real to this, unimodular to this


def pair_residual(u, b):
    """max of | |u|^2 + |b|^2 - 1 | over a circle grid 16x the longer length.

    |u|^2 + |b|^2 - 1 is a Laurent polynomial with lags -(L-1)..L-1,
    L = max(len(u), len(b)): the autocorrelations of u and b, less 1 at
    lag 0.  Length-2L transforms give those lags without wrap-around.
    Lag -k is the conjugate of lag k, so one Hermitian transform of the
    lags 0..L-1 samples the real function on the 16L-point grid, at a
    fraction of the cost of transforming u and b there.  A pair whose
    squares overflow, or that holds inf or NaN, gives inf, which every
    residual limit refuses.
    """
    L = max(len(u), len(b))
    with np.errstate(over="ignore", invalid="ignore"):
        power = sum(np.abs(np.fft.fft(p, 2 * L)) ** 2 for p in (u, b))
        lags = np.fft.ifft(power)[:L]
        lags[0] -= 1.0
        residual = float(np.max(np.abs(np.fft.hfft(lags, 16 * L))))
    return residual if np.isfinite(residual) else np.inf


def validate_pair(pair):
    """Check the two validity conditions; returns a small report dict."""
    a0 = pair.a[0]
    res = pair.unimodularity_residual
    a0_ok = a0.real >= 0 and abs(a0.imag) <= PAIR_TOL * max(1.0, abs(a0))
    return {
        "a0": complex(a0),
        "a0_real_nonneg": bool(a0_ok),
        "unimodularity_residual": res,
        "tol": PAIR_TOL,
        "ok": bool(a0_ok and res <= PAIR_TOL),
    }


def energy_identity_residual(signal, a0) -> float:
    """| prod(1 + |Q|^2) * a0^2 - 1 |: the peel's energy bookkeeping check."""
    prod = float(np.prod(1.0 + np.abs(signal.samples) ** 2))
    return abs(prod * float(np.real(a0)) ** 2 - 1.0)


def inversion_devs(signal, back):
    """(max |q|, max |q' - q|): the signal's largest sample, and how far the
    samples q' inverted back from its forward pair are from its samples q."""
    return float(np.abs(signal.samples).max()), float(np.abs(back.samples - signal.samples).max())


def column_dev(pair, C):
    """max |C - [a; b]| over the stacked pair: how far the first column C
    of the samples' forward matrix is from the pair they came from, or,
    with C a forward pair stacked, the round trip's coefficient deviation."""
    return float(np.abs(C - np.stack([pair.a, pair.b])).max())


def reflection_devs(omega, vals, predicted, omega_c):
    """(passband, transition): the largest pointwise relative deviation
    |(|vals|^2 - predicted) / predicted| of the measured reflection power
    from the limiting prediction, over |omega| <= omega_c and over
    omega_c < |omega| <= 2 omega_c.  Poles (non-finite vals) and points
    with no positive prediction are left out; a band with no point left
    gives None.  A cut-off with no grid point beyond it leaves no
    transition band and no passband verdict either: the limiting
    prediction does not describe a discrete filter that passes the whole
    grid, which omega_c >= pi D / 2 gives."""
    ok = (predicted > 0) & np.isfinite(vals)
    rel = np.abs(np.abs(vals[ok]) ** 2 - predicted[ok]) / predicted[ok]
    om = np.abs(omega[ok])
    passband = rel[om <= omega_c]
    transition = rel[(om > omega_c) & (om <= 2 * omega_c)]
    beyond = np.any(np.abs(omega) > omega_c)
    return (float(passband.max()) if passband.size and beyond else None,
            float(transition.max()) if transition.size else None)


def radiation_energy(omega, vals):
    """(1/pi) * integral of |vals|^2 d omega, by the trapezoid rule on the grid."""
    return float(np.trapezoid(np.abs(vals) ** 2, omega) / np.pi)


def _distances(found, lambdas):
    """|found_i - lambda_k|, one row per found eigenvalue, one column per prescribed one."""
    return np.abs(np.asarray(found, dtype=complex)[:, None] - np.asarray(lambdas, dtype=complex))


def eigenvalue_errors(found, lambdas):
    """For each prescribed eigenvalue, its distance to the nearest found
    one; inf for each when none was found."""
    if not len(found):
        return [float("inf")] * len(lambdas)
    return [float(d) for d in _distances(found, lambdas).min(axis=0)]


def norming_rel_devs(measured, predicted, found, lambdas):
    """|measured - predicted| / |measured| for each prescribed eigenvalue,
    with the norming constants measured at the found roots aligned to the
    prescribed order by nearest eigenvalue."""
    meas = np.asarray(measured)[_distances(found, lambdas).argmin(axis=0)]
    return [float(d) for d in np.abs(meas - predicted) / np.abs(meas)]
