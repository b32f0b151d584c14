"""Command-line driver: synthesis, inversion, verification, benchmarks.

Every command reads a spectrum description from a JSON file

    {"lambdas": [[re, im], ...], "delta": 0.01, "D": 512, "omega_c": 31.4159}

and writes CSV data files into the output directory, plus report.json:
one record that the command's runner and its stages fill, written once the
command succeeds.  Signals go to CSV with header n,t,re_Q,im_Q where
t = -1 + n*eps - eps/2.  All commands are deterministic.
"""

import argparse
import csv
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .asymptotics import asymptotic_reflection, filter_amplitude, predict
from .forward import find_eigenvalues, forward_fast, norming_constants, reflection_coefficient
from .inverse import BLOCK, CHUNK, LEAF_SIZE, Signal, invert_fast
from .inverse import invert_sequential  # noqa: F401  (perfbench patches cli.invert_sequential)
from .specfact import make_ub
from .synthesis import SpectrumSpec, synthesize_ab, z_to_lambda
from .verify import (column_dev, eigenvalue_errors, energy_identity_residual, inversion_devs,
                     norming_rel_devs, radiation_energy, reflection_devs, validate_pair)

SCHEMA_VERSION = 1
BENCH_REPEATS = 5
DEFAULT_BENCH_D = [1 << k for k in range(9, 17)]   # 512 ... 65536


def spec_from_job(job) -> SpectrumSpec:
    name = "lambdas"
    try:
        lambdas = [complex(re, im) for re, im in job.get(name, [])]
        name = "D"
        D = float(job[name])
        name = "delta"
        delta = float(job[name])
        name = "omega_c"
        omega_c = float(job[name])
    except KeyError as exc:
        raise ValueError(f"spectrum JSON missing field {exc}") from None
    # ValueError: also a lambdas entry that is not a pair; OverflowError: an integer past float
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"spectrum JSON field '{name}' has the wrong type: {exc}") from None
    if not D.is_integer():
        raise ValueError(f"D={job['D']} is not an integer")
    return SpectrumSpec(lambdas=lambdas, delta=delta, D=int(D), omega_c=omega_c)


def _cx(v):
    """A complex value as its two CSV cells, real and imaginary part."""
    return [f"{v.real:.17g}", f"{v.imag:.17g}"]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_signal_csv(path, signal: Signal):
    _write_csv(path, ["n", "t", "re_Q", "im_Q"],
               ([n, f"{t:.12g}", *_cx(q)]
                for n, (t, q) in enumerate(zip(signal.t, signal.samples), start=1)))


def read_signal_csv(path) -> Signal:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as exc:
        raise ValueError(f"cannot read signal CSV {path}: {exc}") from None
    missing = {"re_Q", "im_Q"} - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"signal CSV {path} lacks column(s) {sorted(missing)}")
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


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _stage(name, fn, rep):
    """Run one named stage, recording its wall clock in the report."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:
        raise RuntimeError(f"stage '{name}' failed: {exc}") from exc
    rep["wall_clock_s"][name] = time.perf_counter() - t0
    return out


def _synthesize(job, rep):
    """Spectrum JSON -> (a, b) -> samples, two clocked stages: (spec, pair, signal, C),
    C the first column of the samples' forward matrix that invert_fast returns."""
    spec = spec_from_job(job)
    try:
        pair = _stage("synthesize", lambda: synthesize_ab(spec), rep)
    except RuntimeError as exc:
        refusal = exc.__cause__
        if isinstance(refusal, ValueError):  # a usage error, exit 2
            raise ValueError(f"stage 'synthesize' refused the spec: {refusal}") from refusal
        raise
    signal, C = _stage("invert_fast", lambda: invert_fast(pair, check=False), rep)
    return spec, pair, signal, C


def _reinvert(signal, rep):
    """forward_fast(signal) as the stage "forward_fast", and how far
    invert_fast's samples of it, clocked as the stage "reinversion", are
    from the signal's: max |q' - q| under "inversion_max_dev", beside
    max |q| under "max_abs_sample".  Returns the forward pair."""
    pair2 = _stage("forward_fast", lambda: forward_fast(signal), rep)
    back, _C = _stage("reinversion", lambda: invert_fast(pair2, check=False), rep)
    rep["max_abs_sample"], rep["inversion_max_dev"] = inversion_devs(signal, back)
    return pair2


def run_synthesize(job, out: Path, rep):
    spec, pair, signal, C = _synthesize(job, rep)
    _write_csv(out / "pair.csv", ["j", "re_a", "im_a", "re_b", "im_b"],
               ([j, *_cx(av), *_cx(bv)] for j, (av, bv) in enumerate(zip(pair.a, pair.b))))
    write_signal_csv(out / "signal.csv", signal)
    check = validate_pair(pair)
    rep.update(D=spec.D, a0=complex(pair.a[0]),
               unimodularity_residual=check["unimodularity_residual"],
               truncation_tail_energy=pair.truncation_tail_energy,
               pair_valid=check["ok"], transfer_column_dev=column_dev(pair, C))


def run_invert(job, out: Path, rep):
    spec, pair, signal, C = _synthesize(job, rep)
    rep.update(D=spec.D, transfer_column_dev=column_dev(pair, C))
    _reinvert(signal, rep)
    write_signal_csv(out / "signal.csv", signal)


def run_forward(job, out: Path, rep, signal_path=None):
    if signal_path:
        signal = read_signal_csv(signal_path)
    else:
        _spec, _pair, signal, _C = _synthesize(job, rep)
    pair = _stage("forward_fast", lambda: forward_fast(signal), rep)

    def spectrum():
        refl = reflection_coefficient(pair)
        zs = find_eigenvalues(pair.a)
        lams = [z_to_lambda(z, signal.eps) for z in zs]
        return refl, zs, lams, norming_constants(pair, zs)

    (omega, vals, poles), zs, lams, norming = _stage("spectrum", spectrum, rep)
    _write_csv(out / "reflection.csv", ["omega", "re_Qhat", "im_Qhat", "power", "pole"],
               ([f"{om:.12g}", *_cx(v), f"{abs(v) ** 2:.17g}", int(p)]
                for om, v, p in zip(omega, vals, poles)))
    _write_csv(out / "eigenvalues.csv",
               ["re_z", "im_z", "re_lambda", "im_lambda", "re_norming", "im_norming"],
               ([*_cx(z), *_cx(lam), *_cx(c)] for z, lam, c in zip(zs, lams, norming)))
    rep.update(D=signal.D, unimodularity_residual=pair.unimodularity_residual,
               eigenvalues=lams, norming=[complex(c) for c in norming])


def run_roundtrip(job, out: Path, rep):
    spec, pair, signal, _C = _synthesize(job, rep)
    rep.update(D=spec.D, delta=spec.delta, omega_c=spec.omega_c,
               lambdas=[complex(l) for l in spec.lambdas])
    pair2 = _reinvert(signal, rep)
    rep.update(coefficient_roundtrip_dev=column_dev(pair, np.stack([pair2.a, pair2.b])),
               forward_unimodularity_residual=pair2.unimodularity_residual,
               energy_identity_residual=energy_identity_residual(signal, pair2.a[0]))

    omega, vals, _poles = reflection_coefficient(pair2)
    predicted = asymptotic_reflection(omega, spec.delta, spec.omega_c)
    passband, transition = reflection_devs(omega, vals, predicted, spec.omega_c)
    rep.update(reflection_passband_rel_dev=passband, reflection_transition_rel_dev=transition,
               radiation_energy=radiation_energy(omega, vals))

    if spec.lambdas:
        zs = _stage("eigenvalues", lambda: find_eigenvalues(pair2.a), rep)
        lams = [z_to_lambda(z, spec.eps) for z in zs]
        rep["eigenvalue_errors"] = eigenvalue_errors(lams, spec.lambdas)
        rep["eigenvalue_count"] = int(len(zs))
        if len(zs) == len(spec.lambdas):
            rep["norming_rel_devs"] = norming_rel_devs(
                norming_constants(pair2, zs), predict(spec).norming_predictions,
                lams, spec.lambdas)


def run_asymptotics(job, out: Path, rep):
    spec = spec_from_job(job)
    band = min(np.pi * spec.D / 2.0, 4 * spec.omega_c)
    omega = np.linspace(-band, band, 801)
    psi = filter_amplitude(omega, spec.omega_c)
    power = asymptotic_reflection(omega, spec.delta, spec.omega_c)
    _write_csv(out / "prediction.csv", ["omega", "psi", "predicted_power"],
               ([f"{v:.12g}" for v in row] for row in zip(omega, psi, power)))
    rep["psi_at_zero"] = float(filter_amplitude(0.0, spec.omega_c))
    rep["predicted_power_at_zero"] = float(
        asymptotic_reflection(0.0, spec.delta, spec.omega_c))
    if spec.lambdas:
        rep["norming_predictions"] = [
            complex(c) for c in predict(spec).norming_predictions]


def _time_median(fn):
    """Median wall time of BENCH_REPEATS calls, after one warm-up call."""
    fn()  # warm-up
    times = []
    for _ in range(BENCH_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def run_bench(job, out: Path, rep):
    ds = job.get("bench_D", DEFAULT_BENCH_D)
    if not isinstance(ds, list):
        raise ValueError(f"bench_D={ds!r} is not a list of sizes")
    base = {"lambdas": [[0.0, 20.0]], "delta": 0.01, "omega_c": 10.0, **job}
    rows = []
    for spec in [spec_from_job({**base, "D": d}) for d in ds]:
        D = spec.D
        row = {"D": D}
        # Both rows time a cold factorization, which make_ub's cache would
        # otherwise serve from the warm-up on; synthesize_ab includes it.
        filt = spec.filter
        row["make_ub_s"] = _time_median(lambda: make_ub.__wrapped__(filt))

        def cold_synthesis():
            make_ub.cache_clear()
            return synthesize_ab(spec)

        row["synthesize_ab_s"] = _time_median(cold_synthesis)
        pair = synthesize_ab(spec)
        row["invert_fast_s"] = _time_median(lambda: invert_fast(pair, check=False))
        signal, _C = invert_fast(pair, check=False)
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
        fit = {"model": "t_us = slope * log2(D)^2 + intercept",
               "slope": float(slope), "intercept": float(intercept)}
    rep.update(rows=rows, fast_per_sample_fit=fit,
               constants={"LEAF_SIZE": LEAF_SIZE, "BLOCK": BLOCK, "CHUNK": CHUNK})


@functools.cache
def _parser():
    """The command-line parser, built on the first `main` call of a process."""
    parser = argparse.ArgumentParser(
        prog="nftsynth",
        description="Multi-soliton synthesis via fast inverse scattering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synthesize", "invert", "forward", "roundtrip",
                 "asymptotics", "bench"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=name not in ("bench", "forward"),
                       help="spectrum JSON file")
        p.add_argument("--out", required=True, help="output directory")
        if name == "forward":
            p.add_argument("--signal", help="signal CSV to transform "
                           "(skips synthesis)")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    out = Path(args.out)
    runners = {"synthesize": run_synthesize, "invert": run_invert,
               "forward": lambda job, out, rep: run_forward(job, out, rep, args.signal),
               "roundtrip": run_roundtrip, "asymptotics": run_asymptotics,
               "bench": run_bench}
    rep = {"schema_version": SCHEMA_VERSION, "command": args.command, "wall_clock_s": {}}
    try:
        job = {}
        if args.spec:
            try:
                with open(args.spec) as fh:
                    job = json.load(fh)
            except (OSError, ValueError) as exc:  # missing file, invalid JSON
                raise ValueError(f"cannot read spec {args.spec}: {exc}") from None
            if not isinstance(job, dict):
                raise ValueError(f"spec {args.spec} is not a JSON object")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # e.g. --out names a file
            raise ValueError(f"cannot create --out {out}: {exc}") from None
        runners[args.command](job, out, rep)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(out / "report.json", "w") as fh:
        json.dump(rep, fh, indent=2, default=_json_default)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
