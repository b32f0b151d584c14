"""nftsynth benchmark: seeded specs taken to verified results, one at a time.

    python3 perfbench/run.py --workload synth-16k --seed 1 --seconds 30 --trace 0

Each workload is a closed loop in one process: the next spec is sent
only when the previous operation has been checked.  A run is a fixed,
seeded list of specs sized so that it takes about --seconds at the
reference speed (workloads.run_specs), so the same arguments always
attempt the same operations.  With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 every
other operation runs under the span wrappers of spans.py and the last
line carries the per-layer metrics.  Lines before it are a readable
summary.  Full results (machine, failure reasons, every metric, raw
per-operation times) and the span list go to perfbench/out/.

Times are reported at a reference machine speed (see speed.py): the
benchmark's own calibration kernel runs about once a second between
operations, and each time is rescaled by the kernel samples around it.

End-to-end metrics (--trace 0), over the verified operations:
  setup_s        import nftsynth + one warm-up operation; median of this
                 process and two fresh ones
  op_p50_s       median operation time, spec to verified result
  op_tail_s      highest of p99.9/p99/p95/p90/p75 with >= 10 samples
                 beyond it (the median when there are fewer than 20)
  signal_p50_s   median time of synthesize_ab + invert_fast
  samples_per_s  sum of D over verified operations / time spent in
                 operations (failed ones included)
  verified_frac  verified / attempted; failed_frac is 1 minus this
  peak_rss_mb    peak resident memory of this process

`correct` is false when nothing verified or when any operation failed
outside the recorded baseline class (see ops.known_failure).

The program is imported from src/ of the checkout this file sits in;
nothing is installed.
"""

import os

# One operation at a time and no extra threads: pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3          # this process plus two fresh ones
SETUP_TIMEOUT_S = 170
MAX_MEASURE_S = 120        # keeps a run on a slow machine within its time limit
TAIL_BEYOND = 10           # a tail percentile needs this many samples above it
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0)

SELF_TIMED = ("inverse.invert_fast", "forward.forward_fast", "poly.poly_mul",
              "forward.find_eigenvalues", "inverse.invert_sequential",
              "specfact.make_ub", "synthesis.synthesize_ab",
              "asymptotics.asymptotic_reflection", "asymptotics.predict",
              "forward.norming_constants", "forward.reflection_coefficient", "cli")
FAILURE_REASONS = ("rejected", "raised", "check")
HEALTH = ("synthesis.unimodularity_residual", "inverse.energy_identity_residual",
          "forward.unimodularity_residual", "forward.roundtrip_coef_dev",
          "asymptotics.norming_rel_dev", "asymptotics.reflection_passband_rel_dev",
          "asymptotics.reflection_transition_rel_dev")


def declared_units():
    """{metric: unit} for every metric BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in doc[key]}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """(percentile, value, samples beyond) for the highest grid percentile
    with at least TAIL_BEYOND samples above it (nearest rank).  With fewer
    than 2*TAIL_BEYOND samples no percentile above the median qualifies and
    the median is reported as the tail."""
    xs = sorted(xs)
    n = len(xs)
    for q in TAIL_GRID:
        rank = math.ceil(q * n / 100)  # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return q, xs[rank - 1], n - rank
    return 50.0, _median(xs), n // 2


def machine():
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": min(int(os.environ["OPENBLAS_NUM_THREADS"]), nproc),
    }


def setup(name, seed, small):
    """Import nftsynth, run one untimed warm-up operation, and time both.

    Returns (ctx, set-up seconds at the reference speed)."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nftsynth.cli
    import nftsynth.poly
    # these import numpy; importing them after nftsynth keeps that cost in set-up
    import ops
    import speed
    nft = SimpleNamespace(**{m: getattr(nftsynth, m) for m in (
        "poly", "synthesis", "inverse", "forward", "asymptotics", "cli")})
    ctx = SimpleNamespace(nft=nft, ops=ops, speed=speed, clock=speed.Clock(),
                          work=OUT / f"work-{os.getpid()}")
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        run_op(ctx, name, workloads.warmup_spec(name, seed, small))
    except ops.StageError:
        pass  # a failing warm-up spec still warmed the code it ran
    t1 = perf_counter()
    for _ in range(3):
        ctx.clock.sample()
    return ctx, (t1 - t0) * ctx.clock.scale(t0, t1)


def run_op(ctx, name, doc):
    """The timed part of one operation: (outputs, cli exit code, report)."""
    if workloads.kind(name) == workloads.CLI:
        return ctx.ops.run_cli(ctx.nft, doc, ctx.work)
    return ctx.ops.run_library(ctx.nft, doc), None, None


def setup_in_fresh_process(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(ctx, args):
    """Closed loop over the run's fixed list of specs; returns (records, tracer).

    The list takes about args.seconds at the reference speed.  On a
    machine so slow that it is not done by MAX_MEASURE_S, the run stops
    there, so that it still ends in time.  Each record holds the raw
    operation time and `scale`, the factor that brings the times
    measured during it to the reference speed."""
    tracer = spans.Tracer() if args.trace else None
    docs = workloads.run_specs(args.workload, args.seed, args.seconds, args.small)
    records = []
    deadline = perf_counter() + MAX_MEASURE_S
    for i, doc in enumerate(docs):
        # trace mode needs at least one operation on each side
        if perf_counter() >= deadline and len(records) >= 2:
            print(f"stopped after {i} of {len(docs)} operations: "
                  f"over {MAX_MEASURE_S} s", file=sys.stderr)
            break
        ctx.clock.sample_if_due()
        traced = tracer is not None and i % 2 == 1
        err = report = rc = None
        t0 = perf_counter()
        with ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.patched(ctx.nft))
                stack.enter_context(tracer.operation(i, "op"))
            try:
                out, rc, report = run_op(ctx, args.workload, doc)
            except ctx.ops.StageError as exc:
                out, err = exc.partial, exc
        t1 = perf_counter()
        outcome = ctx.ops.check(ctx.nft, doc, out, cli_rc=rc, report=report, err=err)
        records.append(SimpleNamespace(doc=doc, t0=t0, raw_s=t1 - t0, traced=traced,
                                       outcome=outcome,
                                       spans=tracer.op_summary(i) if traced else None))
    ctx.clock.sample()
    for r in records:
        r.scale = ctx.clock.scale(r.t0, r.t0 + r.raw_s)
        r.seconds = r.raw_s * r.scale
    return records, tracer


def end_to_end(records, setup_samples):
    ok = [r for r in records if r.outcome.status == "ok"]
    q, tail_s, beyond = tail([r.seconds for r in ok]) if ok else (50.0, 0.0, 0)
    metrics = {
        "setup_s": _median(setup_samples),
        "op_p50_s": _median([r.seconds for r in ok]),
        "op_tail_s": tail_s,
        "signal_p50_s": _median([r.outcome.signal_s * r.scale for r in ok]),
        "samples_per_s": sum(r.outcome.D for r in ok) / sum(r.seconds for r in records),
        "verified_frac": len(ok) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"percentile": q, "samples": len(ok), "beyond": beyond}


def _span(r, name, key):
    """One traced operation's total of `key` for span `name`; times rescaled."""
    v = r.spans.get(name, {}).get(key, 0)
    return v * r.scale if key.endswith("_s") else v


def per_layer(records):
    traced_ok = [r for r in records if r.traced and r.outcome.status == "ok"]
    plain_ok = [r for r in records if not r.traced and r.outcome.status == "ok"]

    def per_op(name, key):
        return _median([_span(r, name, key) for r in traced_ok])

    m = {f"{name}.self_s": per_op(name, "self_s") for name in SELF_TIMED}
    for name, short in (("inverse.invert_fast", "inverse"), ("forward.forward_fast", "forward")):
        m[f"{name}.us_per_sample"] = _median(
            [_span(r, name, "total_s") / r.outcome.D * 1e6 for r in traced_ok])
        m[f"{short}.poly_mul_calls"] = per_op(name, "poly_mul_calls")
    calls = sum(_span(r, spans.POLY_MUL, "calls") for r in traced_ok)
    fft_calls = sum(_span(r, spans.POLY_MUL, "fft_calls") for r in traced_ok)
    m["poly.poly_mul.calls"] = per_op(spans.POLY_MUL, "calls")
    m["poly.poly_mul.fft_frac"] = fft_calls / calls if calls else 0.0
    m["poly.poly_mul.flops_computed"] = per_op(spans.POLY_MUL, "flops")
    m["poly.poly_mul.bytes_computed"] = per_op(spans.POLY_MUL, "bytes")
    m["specfact.make_ub.calls_per_op"] = per_op("specfact.make_ub", "calls")

    # prescribed roots found / prescribed, over the traced operations whose
    # CLI report came back; a spurious root counts as nothing found here
    # and fails its operation's count check
    reported = [r for r in records if r.traced and r.outcome.found is not None]
    prescribed = sum(r.outcome.prescribed for r in reported)
    found = sum(min(r.outcome.found, r.outcome.prescribed) for r in reported)
    m["forward.find_eigenvalues.found_ratio"] = found / prescribed if prescribed else 0.0

    for key in HEALTH:
        vals = [r.outcome.health[key] for r in records
                if r.outcome.health.get(key) is not None]
        m[f"{key}_max"] = max(vals) if vals else 0.0

    traced_p50 = _median([r.seconds for r in traced_ok])
    plain_p50 = _median([r.seconds for r in plain_ok])
    m["traced_op_p50_s"] = traced_p50
    m["trace_overhead_frac"] = traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0
    for reason in FAILURE_REASONS:
        m[f"failed.{reason}"] = sum(r.outcome.status == reason for r in records)
    return m


def shares(records):
    """Each layer's median self time, and the inclusive invert_fast +
    forward_fast time, as shares of the traced op_p50_s."""
    traced_ok = [r for r in records if r.traced and r.outcome.status == "ok"]
    base = _median([r.seconds for r in traced_ok])
    if not base:
        return {}, 0.0
    out = {name: _median([_span(r, name, "self_s") for r in traced_ok]) / base
           for name in SELF_TIMED}
    out["inverse+forward (inclusive)"] = _median([
        _span(r, "inverse.invert_fast", "total_s") + _span(r, "forward.forward_fast", "total_s")
        for r in traced_ok]) / base
    return out, base


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="cap D at 64 (harness self-test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="measure set-up once and print it (used internally)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nftsynth").is_dir():
        print(f"error: no nftsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ctx, setup_s = setup(args.workload, args.seed, args.small)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        records, tracer = measure(ctx, args)
        setup_samples = [setup_s] + [setup_in_fresh_process(args)
                                     for _ in range(SETUP_SAMPLES - 1)]
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    e2e, tail_info = end_to_end(records, setup_samples)
    layers = per_layer(records) if args.trace else None
    layer_shares, share_base = shares(records) if args.trace else ({}, 0.0)
    counts = {reason: sum(r.outcome.status == reason for r in records)
              for reason in FAILURE_REASONS}
    attempted = len(records)
    failed = sum(counts.values())
    verified = attempted - failed
    # A run is correct when it verified something and every failure is of
    # the recorded baseline class (ops.known_failure); failures of that
    # class are still counted, in failed and in verified_frac.
    failures = [r for r in records if r.outcome.status != "ok"]
    for r in failures:
        r.known = ctx.ops.known_failure(args.workload, r.doc, r.outcome)
    unknown = [r for r in failures if not r.known]
    correct = verified >= 1 and not unknown

    info = machine()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "machine": info,
        "attempted": attempted, "verified": verified, "failed": failed,
        "failed_by_reason": counts, "failed_frac": failed / attempted,
        "failures": [{"spec": r.doc, "reason": r.outcome.status, "detail": r.outcome.detail,
                      "known": r.known} for r in failures],
        "setup_samples_s": setup_samples, "op_tail": tail_info,
        "speed_reference_s": ctx.speed.REFERENCE_S,
        "kernel_samples": ctx.clock.samples,
        "ops": [{"D": r.doc["D"], "start_s": r.t0, "raw_s": r.raw_s, "scale": r.scale,
                 "signal_raw_s": r.outcome.signal_s if r.outcome.status == "ok" else None,
                 "status": r.outcome.status, "traced": r.traced} for r in records],
        "end_to_end": e2e, "per_layer": layers,
        "shares_of_traced_op_p50": layer_shares, "share_base_s": share_base,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"trace-{tag}.jsonl")

    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{args.workload} seed {args.seed}: attempted {attempted}, verified {verified}, "
          f"failed {failed} (" + ", ".join(f"{k} {v}" for k, v in counts.items())
          + f"), failed_frac {failed / attempted:.4f}, "
          f"outside the known baseline class {len(unknown)}")
    for r in unknown:
        print(f"  failure outside the baseline class: {r.outcome.status}: {r.outcome.detail}; "
              f"spec {json.dumps(r.doc)}")
    print(f"op_tail_s is p{tail_info['percentile']:g} of {tail_info['samples']} verified "
          f"operations ({tail_info['beyond']} beyond it)")
    raw_p50 = _median([r.raw_s for r in records if r.outcome.status == "ok"])
    print(f"times at reference speed; raw op_p50_s {raw_p50:.6g} s, median scale "
          f"{_median([r.scale for r in records]):.4g}")
    units = declared_units()
    for k, v in e2e.items():
        print(f"  {k:<16} {v:.6g} {units[k]}")
    if layers:
        for k, v in layers.items():
            print(f"  {k:<46} {v:.6g} {units[k]}")
        print(f"shares of traced op_p50_s = {share_base:.4g} s:")
        for k, v in sorted(layer_shares.items(), key=lambda kv: -kv[1]):
            print(f"  {k:<40} {v:.3f}")
        if args.workload == "synth-16k" and not args.small:
            traced_ok = [r for r in records if r.traced and r.outcome.status == "ok"]
            raw = {n: _median([r.spans[n]["total_s"] for r in traced_ok])
                   for n in ("inverse.invert_fast", "forward.forward_fast")}
            print(f"traced at D=16384, raw: invert_fast {raw['inverse.invert_fast']:.3g} s, "
                  f"forward_fast {raw['forward.forward_fast']:.3g} s "
                  f"(ROADMAP baseline table: 1.40 s / 1.29 s)")

    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
