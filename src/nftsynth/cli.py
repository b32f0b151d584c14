"""Command-line driver: synthesis, inversion, verification, benchmarks.

Every command reads a spectrum description from a JSON file

    {"lambdas": [[re, im], ...], "delta": 0.01, "D": 512, "omega_c": 31.4159}

and writes CSV data files plus a self-describing JSON report into the
output directory.  Signals go to CSV with header n,t,re_Q,im_Q where
t = -1 + n*eps - eps/2.  All commands are deterministic.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from .asymptotics import asymptotic_reflection, filter_amplitude, predict
from .forward import (
    compute_spectrum,
    find_eigenvalues,
    forward_fast,
    norming_constants,
    reflection_coefficient,
)
from .inverse import Signal, invert_fast, invert_sequential
from .specfact import FilterSpec, make_ub
from .synthesis import SpectrumSpec, synthesize_ab, validate_pair, z_to_lambda

SCHEMA_VERSION = 1
SEQUENTIAL_LIMIT = 4096        # skip the O(D^2) reference above this
BENCH_SEQUENTIAL_LIMIT = 8192  # scalar reference gets slow beyond this
BENCH_REPEATS = 5
DEFAULT_BENCH_D = [1 << k for k in range(9, 17)]   # 512 ... 65536


def load_job(path):
    with open(path) as fh:
        return json.load(fh)


def spec_from_job(job) -> SpectrumSpec:
    try:
        lambdas = [complex(re, im) for re, im in job.get("lambdas", [])]
        D = float(job["D"])
        if not D.is_integer():
            raise ValueError(f"D={job['D']} is not an integer")
        return SpectrumSpec(
            lambdas=lambdas,
            delta=float(job["delta"]),
            D=int(D),
            omega_c=float(job["omega_c"]),
        )
    except KeyError as exc:
        raise ValueError(f"spectrum JSON missing field {exc}") from None


def write_signal_csv(path, signal: Signal):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "t", "re_Q", "im_Q"])
        for n, (t, q) in enumerate(zip(signal.t, signal.samples), start=1):
            w.writerow([n, f"{t:.12g}", f"{q.real:.17g}", f"{q.imag:.17g}"])


def read_signal_csv(path) -> Signal:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"re_Q", "im_Q"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"signal CSV {path} lacks column(s) {sorted(missing)}")
        rows = list(reader)
    D = len(rows)
    if D < 1 or D & (D - 1):
        raise ValueError(f"signal CSV {path} has {D} rows, not a power of two")
    try:
        q = np.array([complex(float(r["re_Q"]), float(r["im_Q"])) for r in rows])
    except (TypeError, ValueError) as exc:   # empty or non-numeric cell
        raise ValueError(f"signal CSV {path} holds a bad sample: {exc}") from None
    if not np.all(np.isfinite(q)):
        raise ValueError(f"signal CSV {path} holds non-finite samples")
    return Signal(samples=q)


def write_pair_csv(path, pair):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "re_a", "im_a", "re_b", "im_b"])
        for j, (av, bv) in enumerate(zip(pair.a, pair.b)):
            w.writerow([j, f"{av.real:.17g}", f"{av.imag:.17g}",
                        f"{bv.real:.17g}", f"{bv.imag:.17g}"])


def write_report(path, command, payload):
    doc = {"schema_version": SCHEMA_VERSION, "command": command}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _stage(name, fn, clocks):
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        raise RuntimeError(f"stage '{name}' failed: {exc}") from exc
    clocks[name] = time.perf_counter() - t0
    return out


def _synthesize(job, clocks):
    """Spectrum JSON -> (a, b) -> samples, two clocked stages: (spec, pair, signal)."""
    spec = spec_from_job(job)
    try:
        pair = _stage("synthesize", lambda: synthesize_ab(spec), clocks)
    except RuntimeError as exc:
        refusal = exc.__cause__
        if isinstance(refusal, ValueError):  # a usage error, exit 2
            raise ValueError(f"stage 'synthesize' refused the spec: {refusal}") from refusal
        raise
    signal, _F = _stage("invert_fast", lambda: invert_fast(pair, check=False), clocks)
    return spec, pair, signal


def run_synthesize(job, out: Path):
    clocks = {}
    spec, pair, signal = _synthesize(job, clocks)
    write_pair_csv(out / "pair.csv", pair)
    write_signal_csv(out / "signal.csv", signal)
    rep = validate_pair(pair)
    write_report(out / "report.json", "synthesize", {
        "D": spec.D,
        "a0": complex(pair.a[0]),
        "unimodularity_residual": pair.unimodularity_residual,
        "truncation_tail_energy": pair.truncation_tail_energy,
        "pair_valid": rep["ok"],
        "wall_clock_s": clocks,
    })
    return 0


def run_invert(job, out: Path):
    clocks = {}
    spec, pair, signal = _synthesize(job, clocks)
    payload = {
        "D": spec.D,
        "max_abs_sample": float(np.abs(signal.samples).max()),
        "wall_clock_s": clocks,
    }
    if spec.D <= SEQUENTIAL_LIMIT:
        ref = _stage("invert_sequential",
                     lambda: invert_sequential(pair, check=False), clocks)
        payload["fast_vs_sequential_max_dev"] = float(
            np.abs(signal.samples - ref.samples).max())
    write_signal_csv(out / "signal.csv", signal)
    write_report(out / "report.json", "invert", payload)
    return 0


def _write_spectrum_csv(out: Path, omega, vals, poles):
    with open(out / "reflection.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["omega", "re_Qhat", "im_Qhat", "power", "pole"])
        for om, v, p in zip(omega, vals, poles):
            w.writerow([f"{om:.12g}", f"{v.real:.17g}", f"{v.imag:.17g}",
                        f"{abs(v) ** 2:.17g}", int(p)])


def run_forward(job, out: Path, signal_path=None):
    clocks = {}
    if signal_path:
        signal = read_signal_csv(signal_path)
    else:
        _spec, _pair, signal = _synthesize(job, clocks)
    pair = _stage("forward_fast", lambda: forward_fast(signal), clocks)
    sp = _stage("spectrum", lambda: compute_spectrum(pair), clocks)
    _write_spectrum_csv(out, sp.omega, sp.reflection, sp.pole_mask)
    with open(out / "eigenvalues.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re_z", "im_z", "re_lambda", "im_lambda",
                    "re_norming", "im_norming"])
        for z, lam, c in zip(sp.eigen_z, sp.eigen_lambda, sp.norming):
            w.writerow([f"{z.real:.17g}", f"{z.imag:.17g}",
                        f"{lam.real:.17g}", f"{lam.imag:.17g}",
                        f"{c.real:.17g}", f"{c.imag:.17g}"])
    write_report(out / "report.json", "forward", {
        "D": signal.D,
        "unimodularity_residual": pair.unimodularity_residual,
        "wall_clock_s": clocks,
        "eigenvalues": [complex(l) for l in sp.eigen_lambda],
        "norming": [complex(c) for c in sp.norming],
    })
    return 0


def run_roundtrip(job, out: Path):
    clocks = {}
    spec, pair, signal = _synthesize(job, clocks)
    payload = {"D": spec.D, "delta": spec.delta, "omega_c": spec.omega_c,
               "lambdas": [complex(l) for l in spec.lambdas]}

    if spec.D <= SEQUENTIAL_LIMIT:
        ref = _stage("invert_sequential",
                     lambda: invert_sequential(pair, check=False), clocks)
        payload["inversion_max_dev"] = float(
            np.abs(signal.samples - ref.samples).max())

    pair2 = _stage("forward_fast", lambda: forward_fast(signal), clocks)
    payload["coefficient_roundtrip_dev"] = float(max(
        np.abs(pair2.a - pair.a).max(), np.abs(pair2.b - pair.b).max()))

    omega, vals, _poles = reflection_coefficient(pair2)
    predicted = asymptotic_reflection(omega, spec.delta, spec.omega_c)
    band = np.abs(omega) <= spec.omega_c
    meas = np.abs(vals[band]) ** 2
    payload["reflection_passband_rel_dev"] = float(
        np.abs(meas - predicted[band]).max() / predicted[band].max())
    payload["radiation_energy"] = float(
        np.trapezoid(np.abs(vals) ** 2, omega) / np.pi)

    if spec.lambdas:
        zs = _stage("eigenvalues", lambda: find_eigenvalues(pair2.a), clocks)
        lams = np.array([z_to_lambda(z, spec.eps) for z in zs])
        errs = []
        for target in spec.lambdas:
            if len(lams) == 0:
                errs.append(float("inf"))
                continue
            errs.append(float(np.abs(lams - target).min()))
        payload["eigenvalue_errors"] = errs
        payload["eigenvalue_count"] = int(len(zs))
        if len(zs) == len(spec.lambdas):
            meas_norm = norming_constants(pair2, zs)
            pred = predict(spec).norming_predictions
            # align roots to the spec's eigenvalue order
            order = [int(np.abs(lams - t).argmin()) for t in spec.lambdas]
            devs = np.abs(meas_norm[order] - pred) / np.abs(meas_norm[order])
            payload["norming_rel_devs"] = [float(d) for d in devs]

    payload["wall_clock_s"] = clocks
    write_report(out / "report.json", "roundtrip", payload)
    return 0


def run_asymptotics(job, out: Path):
    spec = spec_from_job(job)
    band = np.pi * spec.D / 2.0
    omega = np.linspace(-min(band, 4 * spec.omega_c), min(band, 4 * spec.omega_c), 801)
    psi = filter_amplitude(omega, spec.omega_c)
    power = asymptotic_reflection(omega, spec.delta, spec.omega_c)
    with open(out / "prediction.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["omega", "psi", "predicted_power"])
        for row in zip(omega, psi, power):
            w.writerow([f"{v:.12g}" for v in row])
    payload = {
        "psi_at_zero": float(filter_amplitude(0.0, spec.omega_c)),
        "predicted_power_at_zero": float(
            asymptotic_reflection(0.0, spec.delta, spec.omega_c)),
    }
    if spec.lambdas:
        payload["norming_predictions"] = [
            complex(c) for c in predict(spec).norming_predictions]
    write_report(out / "report.json", "asymptotics", payload)
    return 0


def _time_median(fn):
    fn()  # warm-up
    times = []
    for _ in range(BENCH_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def run_bench(job, out: Path):
    ds = [int(d) for d in job.get("bench_D", DEFAULT_BENCH_D)]
    base = {
        "lambdas": job.get("lambdas", [[0.0, 20.0]]),
        "delta": job.get("delta", 0.01),
        "omega_c": job.get("omega_c", 10.0),
    }
    rows = []
    for D in ds:
        spec = spec_from_job({**base, "D": D})
        row = {"D": D}
        # Both rows time a cold factorization, which make_ub's cache would
        # otherwise serve from the warm-up on; synthesize_ab includes it.
        filt = FilterSpec(spec.D, spec.delta, spec.omega_c)
        row["make_ub_s"] = _time_median(lambda: make_ub.__wrapped__(filt))

        def cold_synthesis():
            make_ub.cache_clear()
            return synthesize_ab(spec)

        row["synthesize_ab_s"] = _time_median(cold_synthesis)
        pair = synthesize_ab(spec)
        row["invert_fast_s"] = _time_median(lambda: invert_fast(pair, check=False))
        signal, _F = invert_fast(pair, check=False)
        if D <= BENCH_SEQUENTIAL_LIMIT:
            row["invert_sequential_s"] = _time_median(
                lambda: invert_sequential(pair, check=False))
        row["forward_fast_s"] = _time_median(lambda: forward_fast(signal))
        row["find_eigenvalues_s"] = _time_median(lambda: find_eigenvalues(pair.a))
        for key in list(row):
            if key.endswith("_s"):
                row[key.removesuffix("_s") + "_per_sample_us"] = row[key] / D * 1e6
        rows.append(row)
        print(f"D={D}: " + ", ".join(
            f"{k}={v:.3g}" for k, v in row.items() if k != "D"))

    # per-sample fast time against log2(D)^2: slope is the scaling diagnostic;
    # a line needs two sizes
    fit = None
    if len({r["D"] for r in rows}) >= 2:
        x = np.array([np.log2(r["D"]) ** 2 for r in rows])
        y = np.array([r["invert_fast_per_sample_us"] for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        fit = {
            "model": "t_us = slope * log2(D)^2 + intercept",
            "slope": float(slope),
            "intercept": float(intercept),
        }
    write_report(out / "report.json", "bench", {"rows": rows, "fast_per_sample_fit": fit})
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nftsynth",
        description="Multi-soliton synthesis via fast inverse scattering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synthesize", "invert", "forward", "roundtrip",
                 "asymptotics", "bench"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=(name != "bench"),
                       help="spectrum JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if name == "forward":
            p.add_argument("--signal", help="signal CSV to transform "
                           "(skips synthesis)")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    job = load_job(args.spec) if args.spec else {}
    runners = {
        "synthesize": run_synthesize,
        "invert": run_invert,
        "roundtrip": run_roundtrip,
        "asymptotics": run_asymptotics,
        "bench": run_bench,
    }
    try:
        if args.command == "forward":
            return run_forward(job, out, signal_path=args.signal)
        return runners[args.command](job, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
