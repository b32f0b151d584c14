import csv
import json

import numpy as np
import pytest

from nftsynth.cli import main, read_signal_csv, write_signal_csv
from nftsynth.inverse import Signal


def write_spec(path, lambdas=((0.0, 20.0),), delta=0.01, D=256, omega_c=10.0, **extra):
    job = {"lambdas": [list(l) for l in lambdas], "delta": delta, "D": D,
           "omega_c": omega_c, **extra}
    path.write_text(json.dumps(job))
    return path


def read_report(out):
    return json.loads((out / "report.json").read_text())


def test_signal_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    sig = Signal(samples=rng.standard_normal(32) + 1j * rng.standard_normal(32), eps=1 / 32)
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
    assert len(rows) == 257
    assert int(rows[1][0]) == 1
    assert float(rows[1][1]) == pytest.approx(-1.0 + 0.5 / 256, abs=1e-12)
    assert (out / "pair.csv").exists()


def test_synthesize_deterministic(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["synthesize", "--spec", str(spec), "--out", str(out1)])
    main(["synthesize", "--spec", str(spec), "--out", str(out2)])
    for name in ("signal.csv", "pair.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_invert_command(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["invert", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["fast_vs_sequential_max_dev"] <= 1e-10
    assert rep["max_abs_sample"] > 0


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


def test_roundtrip_command_radiation(tmp_path):
    spec = write_spec(tmp_path / "spec.json", lambdas=())
    out = tmp_path / "out"
    assert main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["inversion_max_dev"] <= 1e-10
    assert rep["coefficient_roundtrip_dev"] <= 1e-7
    assert rep["reflection_passband_rel_dev"] <= 0.5
    assert rep["radiation_energy"] > 0
    assert "eigenvalue_errors" not in rep


def test_roundtrip_command_soliton(tmp_path):
    spec = write_spec(tmp_path / "spec.json")
    out = tmp_path / "out"
    assert main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["eigenvalue_count"] == 1
    assert rep["eigenvalue_errors"][0] <= 1e-3
    assert rep["norming_rel_devs"][0] <= 0.05


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


def test_bench_command_small(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bench_D": [64, 128], "delta": 0.01,
                                "omega_c": 10.0, "lambdas": [[0.0, 20.0]]}))
    out = tmp_path / "out"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert [r["D"] for r in rep["rows"]] == [64, 128]
    for row in rep["rows"]:
        assert row["invert_fast_per_sample_us"] > 0
        assert "invert_sequential_s" in row
        assert "forward_fast_s" in row
    assert "slope" in rep["fast_per_sample_fit"]
    assert "invert_sequential_per_sample_us" in rep["rows"][0]


def test_bench_single_size_has_no_fit(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bench_D": [64]}))
    out = tmp_path / "out"
    assert main(["bench", "--spec", str(spec), "--out", str(out)]) == 0
    rep = read_report(out)
    assert [r["D"] for r in rep["rows"]] == [64]
    assert rep["fast_per_sample_fit"] is None


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
