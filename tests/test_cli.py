import csv
import itertools
import json

import numpy as np
import pytest

from nftsynth import cli, inverse, specfact, synthesis
from nftsynth.cli import BENCH_REPEATS, main, read_signal_csv, write_signal_csv
from nftsynth.forward import forward_fast
from nftsynth.inverse import Signal, invert_fast
from nftsynth.synthesis import lambda_to_z

FOUR_SOLITONS = [(0.0, 12.5), (3.0, 25.0), (-2.0, 37.5), (0.0, 50.0)]


def write_spec(path, lambdas=((0.0, 20.0),), delta=0.01, D=256, omega_c=10.0, **extra):
    job = {"lambdas": [list(l) for l in lambdas], "delta": delta, "D": D,
           "omega_c": omega_c, **extra}
    path.write_text(json.dumps(job))
    return path


def read_report(out):
    return json.loads((out / "report.json").read_text())


def test_signal_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    sig = Signal(samples=rng.standard_normal(32) + 1j * rng.standard_normal(32))
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    back = read_signal_csv(path)
    assert np.allclose(back.samples, sig.samples, atol=1e-15)
    assert back.eps == sig.eps


def test_synthesize_command(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["synthesize", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["schema_version"] == 1
    assert rep["command"] == "synthesize"
    assert rep["D"] == 256
    assert rep["pair_valid"] is True
    assert rep["unimodularity_residual"] <= 1e-7
    assert "synthesize" in rep["wall_clock_s"]
    with open(out / "signal.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "t", "re_Q", "im_Q"]
    assert rep["transfer_column_dev"] <= 1e-6   # the pair's truncation
    assert len(rows) == 257
    assert int(rows[1][0]) == 1
    assert float(rows[1][1]) == pytest.approx(-1.0 + 0.5 / 256, abs=1e-12)
    assert (out / "pair.csv").exists()


def test_synthesize_computes_pair_residual_once(tmp_path, monkeypatch):
    """The report's unimodularity_residual and pair_valid come from one
    validate_pair report: one pair_residual call on the 16D-point grid."""
    residual = synthesis.pair_residual
    calls = []

    def counted(u, b):
        calls.append(residual(u, b))
        return calls[-1]

    monkeypatch.setattr(synthesis, "pair_residual", counted)
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["synthesize", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert read_report(out)["unimodularity_residual"] == calls[0]


def test_transfer_column_dev(tmp_path):
    """synthesize's transfer_column_dev, the distance of the fast inversion's
    first column from the pair, is the coefficient round trip's deviation:
    the 4-soliton pair's truncation at D=512, rounding on radiation alone."""
    solitons = write_spec(tmp_path / "solitons.json", D=512, lambdas=FOUR_SOLITONS)
    radiation = write_spec(tmp_path / "radiation.json", D=512, lambdas=())
    devs = {}
    for spec in (solitons, radiation):
        for command in ("synthesize", "roundtrip"):
            out = tmp_path / f"{spec.stem}-{command}"
            assert main([command, "--spec", str(spec), "--out", str(out)]) == 0
            devs[spec.stem, command] = read_report(out)
    dev = devs["solitons", "synthesize"]["transfer_column_dev"]
    assert dev == pytest.approx(5.03e-6, rel=1e-2)
    assert dev == pytest.approx(devs["solitons", "roundtrip"]["coefficient_roundtrip_dev"],
                                rel=1e-3)
    assert devs["radiation", "synthesize"]["transfer_column_dev"] <= 1e-13


def test_synthesize_deterministic(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["synthesize", "--spec", str(spec), "--out", str(out1)])
    main(["synthesize", "--spec", str(spec), "--out", str(out2)])
    for name in ("signal.csv", "pair.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_invert_command(tmp_path, monkeypatch):
    """invert checks the samples it writes by re-inversion: one
    forward_fast call on them, whose pair a second invert_fast call peels
    with check=False, as the first peels the synthesized pair."""
    forwarded, inverted = [], []

    def recording_forward(signal):
        forwarded.append((signal, forward_fast(signal)))
        return forwarded[-1][1]

    def recording_inversion(pair, check=True):
        inverted.append((pair, check))
        return invert_fast(pair, check)

    monkeypatch.setattr(cli, "forward_fast", recording_forward)
    monkeypatch.setattr(cli, "invert_fast", recording_inversion)
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["invert", "--spec", str(spec), "--out", str(out)]) == 0
    assert len(forwarded) == 1 and len(inverted) == 2
    (signal, pair2), (reinverted, check) = forwarded[0], inverted[1]
    assert reinverted is pair2 and check is False and inverted[0][1] is False
    np.testing.assert_array_equal(read_signal_csv(out / "signal.csv").samples, signal.samples)
    rep = read_report(out)
    assert rep["max_abs_sample"] == np.abs(signal.samples).max()
    assert rep["inversion_max_dev"] <= 1e-12 * rep["max_abs_sample"]
    assert {"forward_fast", "reinversion"} <= set(rep["wall_clock_s"])   # the check's clocks
    assert rep["transfer_column_dev"] <= 1e-6   # the pair's truncation


def _reinversion_rel(tmp_path, D):
    """inversion_max_dev / max_abs_sample of `invert` on the 4-soliton spec."""
    spec = write_spec(tmp_path / "spec.json", lambdas=FOUR_SOLITONS, D=D)
    out = tmp_path / "out"
    assert main(["invert", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    return rep["inversion_max_dev"] / rep["max_abs_sample"]


@pytest.mark.parametrize("D", [64, 256, 512, 8192])
def test_reinversion_sees_faults(tmp_path, monkeypatch, D):
    """The commands' check r = max |invert_fast(forward_fast(q)) - q| / max |q|
    on the 4-soliton spec: at most 1e-12 on the clean code.  It sees a
    _para_mul that drops the para form's sign flip at every D, also at
    D <= LEAF_SIZE, where invert_fast is a single leaf but forward_fast's
    tree still multiplies blocks: above perfbench's INVERSION_REL_TOL of
    1e-8.  And it sees each leaf's largest sample scaled by 1 + 1e-9, which
    the re-inversion's leaves scale again: r >= 5e-10."""
    assert _reinversion_rel(tmp_path, D) <= 1e-12

    para_mul, peel = inverse._para_mul, inverse._peel

    def without_sign_flip(P, L):
        L[..., 1, 1::2] *= -1                          # undoes _para_mul's d[..., 1::2] *= -1
        return para_mul(P, L)

    def scaled_peak(V):
        qs, C = peel(V)
        qs[np.abs(qs).argmax()] *= 1 + 1e-9
        return qs, C

    with monkeypatch.context() as m:
        m.setattr(inverse, "_para_mul", without_sign_flip)
        assert _reinversion_rel(tmp_path, D) > 1e-8
    with monkeypatch.context() as m:
        m.setattr(inverse, "_peel", scaled_peak)
        assert _reinversion_rel(tmp_path, D) >= 5e-10


@pytest.mark.parametrize("command", ["invert", "roundtrip"])
def test_reinversion_runs_at_every_D(tmp_path, command):
    """No size skips the check: at D=8192, above the old O(D^2) check's
    limit, both commands report inversion_max_dev and no skip."""
    spec = write_spec(tmp_path / "spec.json", D=8192)
    out = tmp_path / "out"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["inversion_max_dev"] <= 1e-12 * rep["max_abs_sample"]
    assert "over_sequential_limit" not in rep
    assert "fast_vs_sequential_max_dev" not in rep


def test_forward_command_from_signal(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    o1, o2 = tmp_path / "o1", tmp_path / "o2"
    main(["synthesize", "--spec", str(spec), "--out", str(o1)])
    rc = main(["forward", "--spec", str(spec), "--signal", str(o1 / "signal.csv"),
               "--out", str(o2)])
    assert rc == 0
    rep = read_report(o2)
    assert rep["unimodularity_residual"] <= 1e-9
    assert len(rep["eigenvalues"]) == 1
    re_l, im_l = rep["eigenvalues"][0]
    assert abs(complex(re_l, im_l) - 20j) <= 1e-3
    assert len(rep["norming"]) == 1
    assert (o2 / "reflection.csv").exists()
    assert (o2 / "eigenvalues.csv").exists()


def test_forward_from_signal_ignores_spec(tmp_path):
    # the spec is only read on the synthesis path; D=500 would be refused
    spec = write_spec(tmp_path / "spec.json", D=500)
    sig = tmp_path / "signal.csv"
    write_signal_csv(sig, Signal(samples=np.full(4, 0.1 + 0j)))
    out = tmp_path / "out"
    assert main(["forward", "--spec", str(spec), "--signal", str(sig),
                 "--out", str(out)]) == 0
    assert read_report(out)["D"] == 4


def test_forward_signal_needs_no_spec(tmp_path):
    sig = tmp_path / "signal.csv"
    write_signal_csv(sig, Signal(samples=np.full(4, 0.1 + 0j)))
    out = tmp_path / "out"
    assert main(["forward", "--signal", str(sig), "--out", str(out)]) == 0
    assert read_report(out)["D"] == 4


def test_forward_without_signal_or_spec_is_usage_error(tmp_path, capsys):
    rc = main(["forward", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


def test_forward_from_spec_matches_forward_from_signal(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    o1, o2, o3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    assert main(["forward", "--spec", str(spec), "--out", str(o1)]) == 0
    main(["synthesize", "--spec", str(spec), "--out", str(o2)])
    assert main(["forward", "--signal", str(o2 / "signal.csv"), "--out", str(o3)]) == 0
    for name in ("eigenvalues.csv", "reflection.csv"):
        assert (o1 / name).read_bytes() == (o3 / name).read_bytes()
    assert {"synthesize", "invert_fast", "forward_fast", "spectrum"} <= set(
        read_report(o1)["wall_clock_s"])
    assert len(read_report(o1)["eigenvalues"]) == 1


def test_forward_spec_four_soliton_spectrum(tmp_path):
    """The spectrum stage of `forward --spec` on the 4-soliton D=512 spec: four
    roots that map to their lambdas, no poles, a finite reflection and nonzero
    norming constants."""
    spec = write_spec(tmp_path / "spec.json", D=512,
                      lambdas=[(0.0, 12.5), (0.0, 25.0), (0.0, 37.5), (0.0, 50.0)])
    out = tmp_path / "out"
    assert main(["forward", "--spec", str(spec), "--out", str(out)]) == 0
    eig = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
    z, lam, norming = (eig[:, k] + 1j * eig[:, k + 1] for k in (0, 2, 4))
    assert len(z) == 4
    assert np.allclose([lambda_to_z(l, 1.0 / 512) for l in lam], z)
    assert np.all(np.abs(norming) > 0)
    refl = np.loadtxt(out / "reflection.csv", delimiter=",", skiprows=1)
    assert len(refl) == 4 * 512
    assert not refl[:, 4].any()
    assert np.all(np.isfinite(refl[:, 1:4]))
    assert len(read_report(out)["eigenvalues"]) == 4


def test_roundtrip_command_radiation(tmp_path):
    """A radiation-only roundtrip searches for bound states as every
    roundtrip does, and finds none, over the corners of the filter's range."""
    spec = write_spec(tmp_path / "spec.json", lambdas=())
    out = tmp_path / "out"
    assert main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["inversion_max_dev"] <= 1e-10
    assert rep["coefficient_roundtrip_dev"] <= 1e-7
    assert rep["reflection_passband_rel_dev"] <= 0.5
    assert rep["radiation_energy"] > 0
    assert rep["eigenvalue_count"] == 0
    assert "eigenvalue_errors" not in rep and "norming_rel_devs" not in rep
    for D, delta, omega_c in itertools.product((64, 1024), (0.005, 0.3), (2.0, 20.0)):
        spec = write_spec(tmp_path / "spec.json", lambdas=(), D=D, delta=delta, omega_c=omega_c)
        assert main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 0
        assert read_report(out)["eigenvalue_count"] == 0, (D, delta, omega_c)


def test_roundtrip_command_soliton(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["eigenvalue_count"] == 1
    assert rep["eigenvalue_errors"][0] <= 1e-3
    assert rep["norming_rel_devs"][0] <= 0.05


def test_roundtrip_returns_the_run_it_reports(tmp_path):
    """run_roundtrip's (spec, pair, signal, forward pair) are the objects its
    report describes, and that report is the command's report.json."""
    path = write_spec(tmp_path / "spec.json", lambdas=FOUR_SOLITONS, D=512)
    rep = {"wall_clock_s": {}}
    spec, pair, signal, back = cli.run_roundtrip(json.loads(path.read_text()), None, rep)
    assert rep["max_abs_sample"] == np.abs(signal.samples).max()
    assert rep["forward_unimodularity_residual"] == back.unimodularity_residual
    assert rep["D"] == spec.D == len(pair.a) == signal.D
    out = tmp_path / "out"
    assert main(["roundtrip", "--spec", str(path), "--out", str(out)]) == 0
    written = read_report(out)
    for key in ("wall_clock_s", "schema_version", "command"):
        written.pop(key)
    del rep["wall_clock_s"]
    assert json.loads(json.dumps(rep, default=cli._json_default)) == written


def test_roundtrip_report_without_eigenvalues_is_strict_json(tmp_path):
    """A soliton the search does not find leaves eigenvalue_errors out of
    report.json, which would otherwise hold Infinity, not JSON."""
    spec = write_spec(tmp_path / "spec.json", lambdas=[(0.0, 8.0)], delta=1e-7, D=512)
    out = tmp_path / "out"
    assert main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"report.json holds {name}")

    rep = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert rep["eigenvalue_count"] == 0
    assert "eigenvalue_errors" not in rep and "norming_rel_devs" not in rep


def test_asymptotics_command(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["asymptotics", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["psi_at_zero"] == pytest.approx(1.05574, abs=1e-4)
    assert rep["predicted_power_at_zero"] == pytest.approx(1.1147e-4, rel=1e-3)
    assert len(rep["norming_predictions"]) == 1
    with open(out / "prediction.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["omega", "psi", "predicted_power"]


def test_bench_command_small(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bench_D": [64, 128], "delta": 0.01,
                                "omega_c": 10.0, "lambdas": [[0.0, 20.0]]}))
    out = tmp_path / "out"
    factored = {}  # degree (= D) -> spectral_factor calls
    factor = specfact.spectral_factor

    def counting_factor(power, degree):
        factored[degree] = factored.get(degree, 0) + 1
        return factor(power, degree)

    monkeypatch.setattr(specfact, "spectral_factor", counting_factor)
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    # the job's lambdas replace both default specs; every run, the warm-up
    # included, factors b and u once, from a cold filter
    assert factored == {64: 2 * (BENCH_REPEATS + 1), 128: 2 * (BENCH_REPEATS + 1)}
    rep = read_report(out)
    assert [(r["spec"], r["D"]) for r in rep["rows"]] == [("0+20j", 64), ("0+20j", 128)]
    for row in rep["rows"]:
        for stage in ("make_ub", "synthesize", "invert_fast", "spectrum", "total"):
            assert row[stage]["median_s"] > 0
    assert list(rep["fast_per_sample_fit"]) == ["0+20j"]
    assert "slope" in rep["fast_per_sample_fit"]["0+20j"]
    assert rep["constants"] == {"LEAF_SIZE": inverse.LEAF_SIZE, "BLOCK": inverse.BLOCK,
                                "CHUNK": inverse.CHUNK}
    assert set(rep["machine"]) == {"cpus", "python", "numpy", "OPENBLAS_NUM_THREADS"}
    assert rep["machine"]["cpus"] >= 1


def test_bench_single_size_has_no_fit(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bench_D": [64]}))
    out = tmp_path / "out"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    labels = ["0+20j", "0+12.5j, 3+25j, -2+37.5j, 0+50j"]   # the two default specs
    assert [(r["spec"], r["D"]) for r in rep["rows"]] == [(label, 64) for label in labels]
    assert rep["fast_per_sample_fit"] == dict.fromkeys(labels)


def test_bench_times_the_roundtrip_stages(tmp_path, capsys):
    """bench has no stage list of its own: each row holds exactly the
    wall_clock_s stages of that spec's roundtrip, plus the end-to-end total
    and the unclocked rest of it."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bench_D": [64]}))
    assert main(["bench", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 0
    rows = read_report(tmp_path / "b")["rows"]
    for k, (row, lambdas) in enumerate(zip(rows, cli.BENCH_LAMBDAS, strict=True)):
        out = tmp_path / f"rt{k}"
        assert main(["roundtrip", "--spec", str(write_spec(tmp_path / "rt.json", lambdas, D=64)),
                     "--out", str(out)]) == 0
        stages = set(read_report(out)["wall_clock_s"])
        assert set(row) - {"spec", "D"} == stages | {"total", "unclocked"}
        for stage in stages | {"total", "unclocked"}:
            assert 0 <= row[stage]["min_s"] <= row[stage]["median_s"]
        # each run's unclocked rest is its total less its clocked stages
        assert row["unclocked"]["min_s"] < row["total"]["min_s"]


def test_missing_field_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lambdas": [], "D": 256, "omega_c": 10.0}))
    rc = main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


def test_bad_delta_is_usage_error(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", delta=1.5)
    rc = main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_bad_size_is_usage_error(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", D=500)
    rc = main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("field, message", [
    ({"lambdas": [[0.0, float("nan")]]}, "not finite"),
    ({"lambdas": [[float("nan"), 20.0]]}, "not finite"),
    ({"lambdas": [[0.0, float("inf")]]}, "not finite"),
    ({"omega_c": float("nan")}, "omega_c=nan"),
    ({"omega_c": float("inf")}, "omega_c=inf"),
    ({"D": 512.7}, "D=512.7 is not an integer"),
    ({"D": None}, "field 'D' has the wrong type"),
    ({"delta": [0.01]}, "field 'delta' has the wrong type"),
    ({"lambdas": [[0.0, "a"]]}, "field 'lambdas' has the wrong type"),
    ({"lambdas": [[0.0, 20.0, 1.0]]}, "field 'lambdas' has the wrong type"),
    ({"D": 10**400}, "field 'D' has the wrong type"),
], ids=["nan-im-lambda", "nan-re-lambda", "inf-im-lambda", "nan-omega_c", "inf-omega_c",
        "fractional-D", "null-D", "list-delta", "string-lambda", "three-part-lambda",
        "overflowing-D"])
def test_non_finite_or_fractional_spec_is_usage_error(tmp_path, capsys, field, message):
    # json writes and reads NaN and Infinity, so these reach spec_from_job
    spec = write_spec(tmp_path / "spec.json", **field)
    rc = main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "o" / "signal.csv").exists()


def test_missing_spec_file_is_usage_error(tmp_path, capsys):
    rc = main(["synthesize", "--spec", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot read spec")
    assert not (tmp_path / "o" / "report.json").exists()


def test_out_naming_a_file_is_usage_error(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json")
    afile = tmp_path / "afile"
    afile.write_text("")
    rc = main(["synthesize", "--spec", str(spec), "--out", str(afile)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot create --out")
    assert afile.read_text() == ""


@pytest.mark.parametrize("body, message", [
    ('{"D": 256, "delta": 0.01,', "error: cannot read spec"),
    ("[0.01, 256]", "is not a JSON object"),
], ids=["invalid-json", "top-level-list"])
def test_malformed_spec_json_is_usage_error(tmp_path, capsys, body, message):
    spec = tmp_path / "spec.json"
    spec.write_text(body)
    rc = main(["roundtrip", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("bench_d", [[64.7], 64, []], ids=["fractional-D", "not-a-list", "empty"])
def test_bad_bench_sizes_are_usage_error(tmp_path, capsys, bench_d):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bench_D": bench_d}))
    rc = main(["bench", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "D=" in err
    assert not (tmp_path / "o" / "report.json").exists()


def test_forward_overflowing_signal_exits_1(tmp_path, capsys):
    """forward_fast's FloatingPointError on a signal whose block scale
    overflows (64 samples of 1e12) fails its stage; no report is written."""
    sig = tmp_path / "signal.csv"
    write_signal_csv(sig, Signal(samples=np.full(64, 1e12 + 0j)))
    out = tmp_path / "out"
    assert main(["forward", "--signal", str(sig), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: stage 'forward_fast' failed")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["forward", "roundtrip"])
def test_stage_failure_exits_1(tmp_path, capsys, monkeypatch, command):
    """Both commands search for bound states in their one spectrum stage;
    only the synthesis stages turn a ValueError into a usage error."""
    def refuse(a):
        raise ValueError("no certified count")

    monkeypatch.setattr(cli, "find_eigenvalues", refuse)
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: stage 'spectrum' failed")
    assert not (out / "report.json").exists()


def test_synthesis_stage_fault_exits_1(tmp_path, capsys, monkeypatch):
    """A synthesis stage that fails with anything but a ValueError is a
    fault, not a refused spec: exit 1, and no report."""
    def overflow(filter_spec):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(cli, "make_ub", overflow)
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: stage 'make_ub' failed")
    assert not (out / "report.json").exists()


def test_json_default_refuses_unknown_types():
    """The report encoder writes a complex value as [re, im] and refuses
    what it cannot encode, rather than write null."""
    assert json.loads(json.dumps({"z": 1 - 2j}, default=cli._json_default)) == {"z": [1.0, -2.0]}
    with pytest.raises(TypeError, match="not JSON-serializable"):
        json.dumps({"x": object()}, default=cli._json_default)


@pytest.mark.parametrize("command", ["synthesize", "roundtrip"])
@pytest.mark.parametrize("job, stage", [
    ({"lambdas": [[0.0, 0.05]], "delta": 0.01, "D": 16, "omega_c": 10.0}, "synthesize"),
    ({"lambdas": [], "delta": 0.95, "D": 64, "omega_c": 10.0}, "make_ub"),
    ({"lambdas": [], "delta": 1e-12, "D": 512, "omega_c": 10.0}, "make_ub"),
], ids=["tail-energy", "saturated-contrast", "floor-swamped-contrast"])
def test_refused_synthesis_is_usage_error(tmp_path, capsys, job, stage, command):
    """The filter's refusals come from its own stage, the truncation's from synthesize."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(job))
    rc = main([command, "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: stage '{stage}' refused the spec")
    assert not (tmp_path / "o" / "signal.csv").exists()


@pytest.mark.parametrize("job, message", [
    ({"lambdas": [[0.0, 1e-300]], "D": 512}, "maps outside 1.000001 < |z| < 23.14069"),
    ({"lambdas": [[0.0, 900.0]], "D": 512}, "Im lambda must lie in (0.000256, 804.2)"),
    ({"lambdas": [], "delta": 0.5, "D": 64, "omega_c": 64 * np.pi}, "omega_c=201.062, D=64"),
], ids=["on-the-circle", "past-the-outer-circle", "zero-filter"])
def test_spec_the_program_cannot_serve_is_usage_error(tmp_path, capsys, job, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"delta": 0.01, "omega_c": 10.0, **job}))
    rc = main(["roundtrip", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("body", [
    "n,t,re_Q,im_Q\n",                                       # header only
    "n,t,re_Q\n1,-0.75,0.1\n2,-0.25,0.2\n",                 # no im_Q column
    "n,t,re_Q,im_Q\n1,-0.8,0.1,0\n2,-0.5,0.1,0\n3,-0.2,0.1,0\n",  # 3 rows
    "n,t,re_Q,im_Q\n1,-0.75,nan,0\n2,-0.25,0.1,0\n",        # non-finite
    "n,t,re_Q,im_Q\n1,-0.75,0.1\n2,-0.25,0.1,0\n",          # empty cell
], ids=["header-only", "missing-column", "three-rows", "non-finite", "short-row"])
def test_bad_signal_csv_is_usage_error(tmp_path, capsys, body):
    spec = write_spec(tmp_path / "spec.json")
    sig = tmp_path / "signal.csv"
    sig.write_text(body)
    with pytest.raises(ValueError):
        read_signal_csv(sig)
    rc = main(["forward", "--spec", str(spec), "--signal", str(sig),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_signal_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    with pytest.raises(ValueError, match="missing.csv"):
        read_signal_csv(missing)
    rc = main(["forward", "--signal", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot read signal CSV")
    assert not (tmp_path / "o" / "report.json").exists()
