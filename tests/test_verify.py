import json

import numpy as np
import pytest

from nftsynth.cli import main
from nftsynth.inverse import Signal
from nftsynth.specfact import FilterSpec, make_ub
from nftsynth.synthesis import ScatteringPair, SpectrumSpec, synthesize_ab
from nftsynth.verify import (
    PAIR_TOL,
    column_dev,
    eigenvalue_errors,
    energy_identity_residual,
    inversion_devs,
    norming_rel_devs,
    pair_residual,
    radiation_energy,
    reflection_devs,
    validate_pair,
)


def test_pair_residual_unimodular_pair():
    fp = make_ub(FilterSpec(256, 0.1, 10.0))
    res = pair_residual(fp.u, fp.b)
    assert res <= 1e-7


def test_validate_pair_trivial_and_broken():
    good = ScatteringPair(np.array([1.0 + 0j]), np.array([0.0 + 0j]))
    rep = validate_pair(good)
    assert rep["ok"]
    assert rep["unimodularity_residual"] <= 1e-15

    bad = ScatteringPair(
        a=np.array([1.0 + 0j]), b=np.array([1.0 + 0j]), truncation_tail_energy=0.0,
    )
    assert not validate_pair(bad)["ok"]


def test_validate_pair_accepts_synthesized():
    spec = SpectrumSpec(lambdas=[20j], delta=0.01, D=256, omega_c=10.0)
    assert validate_pair(synthesize_ab(spec))["ok"]


def test_validate_pair_tolerance():
    """a0 must be real to PAIR_TOL: a phase just inside passes, one outside fails."""
    for phase, ok in ((0.5 * PAIR_TOL, True), (2 * PAIR_TOL, False)):
        pair = ScatteringPair(np.array([np.exp(1j * phase)]), np.array([0.0]))
        assert validate_pair(pair)["ok"] is ok


def test_reflection_devs_is_pointwise():
    """The deviation is relative at each omega, not to the band's peak: here
    the passband's worst point is off by 100% of its own prediction, which
    is 10% of the band's peak."""
    omega = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    predicted = np.array([1.0, 0.1, 1.0, 1.0, 1.0])
    vals = np.sqrt(np.array([1.5, 0.2, 1.0, 1.0, 1.0])).astype(complex)
    assert reflection_devs(omega, vals, predicted, 1.0) == pytest.approx((1.0, 0.5))


def test_reflection_devs_empty_band_and_pole():
    """A band with no grid point gives None; a pole (non-finite value) and a
    point with no positive prediction are left out."""
    omega = np.array([-1.0, 0.0, 1.0, 12.0])
    predicted = np.array([1.0, 1.0, 0.0, 1.0])
    vals = np.array([1.0, np.nan, 7.0, 1.0], dtype=complex)
    assert reflection_devs(omega, vals, predicted, 5.0) == (0.0, None)
    assert reflection_devs(omega, np.full(4, np.inf + 0j), predicted, 0.5) == (None, None)


def test_reflection_devs_cutoff_past_grid():
    """A cut-off with no grid point beyond it gives no passband verdict, even
    where every point is off its prediction; one grid point beyond restores it."""
    omega = np.array([-2.0, 0.0, 2.0])
    predicted = np.ones(3)
    vals = np.full(3, 2.0 + 0j)
    assert reflection_devs(omega, vals, predicted, 2.0) == (None, None)
    assert reflection_devs(omega, vals, predicted, 1.5) == (3.0, 3.0)


def test_radiation_energy_trapezoid():
    omega = np.linspace(0.0, np.pi, 5)
    assert radiation_energy(omega, np.full(5, 1j)) == pytest.approx(1.0, abs=1e-15)


def test_eigenvalue_errors_nearest_and_none_found():
    assert eigenvalue_errors([2.0 + 1j, 0.1 + 3j], [1j, 3j]) == pytest.approx([2.0, 0.1])
    assert eigenvalue_errors([], [1j, 3j]) == [np.inf, np.inf]
    assert eigenvalue_errors([1j], []) == []


def test_norming_rel_devs_align_permuted_roots():
    """Roots found in another order are aligned to the prescribed order by
    nearest eigenvalue before the measured constants are compared."""
    lambdas = [1j, 2j, 3j]
    predicted = np.array([1.0, 2.0, 4.0])
    found = [3.001j, 1.001j, 2.001j]
    measured = np.array([5.0, 2.0, 2.5])        # at 3j, 1j and 2j
    assert norming_rel_devs(measured, predicted, found, lambdas) == pytest.approx(
        [0.5, 0.2, 0.2])


def test_inversion_devs():
    """The largest |q|, and the largest |q' - q| against the samples inverted back."""
    signal = Signal(samples=np.array([0.5, -2.0j, 0.1]))
    back = Signal(samples=np.array([0.5, -2.0j + 1e-3, 0.1 - 2e-3]))
    assert inversion_devs(signal, back) == pytest.approx((2.0, 2e-3), rel=1e-12)
    assert inversion_devs(signal, signal) == (2.0, 0.0)


def test_column_dev_and_energy_identity():
    pair = ScatteringPair(np.array([0.6, 0.0]), np.array([0.0, 0.8j]))
    C = np.stack([pair.a, pair.b])
    assert column_dev(pair, C) == 0.0
    C[1, 0] = 1e-3
    assert column_dev(pair, C) == 1e-3
    q = np.array([0.5, 0.25j, -0.1])
    a0 = 1.0 / np.sqrt(np.prod(1.0 + np.abs(q) ** 2))
    assert energy_identity_residual(Signal(samples=q), a0) <= 1e-15
    assert energy_identity_residual(Signal(samples=q), 1.0) == pytest.approx(
        np.prod(1.0 + np.abs(q) ** 2) - 1.0)


def test_roundtrip_wide_band_has_no_transition(tmp_path):
    """omega_c >= pi D / 2 puts the whole grid in the passband, where the
    limiting prediction describes no discrete filter: the report gives null
    transition and passband deviations and the command still succeeds."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lambdas": [], "delta": 0.01, "D": 64, "omega_c": 200}))
    out = tmp_path / "out"
    assert main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["reflection_transition_rel_dev"] is None
    assert rep["reflection_passband_rel_dev"] is None
    assert rep["forward_unimodularity_residual"] <= 1e-10
    assert rep["energy_identity_residual"] <= 1e-8
