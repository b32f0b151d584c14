"""One operation = one generated spec taken to a verified result.

`run_library` and `run_cli` are the timed parts.  They call nftsynth
through module attributes (`nft.synthesis.synthesize_ab`, ...) so the
span wrappers from spans.py see every call.  `check` is untimed: it
applies the repository's own tolerances and returns the outcome.

Failure reasons, the same on every workload:
- rejected: the program refused the spec (ValueError from SpectrumSpec
  or synthesize_ab),
- raised:   the program failed with any other exception,
- check:    the program finished, or its own root check in
            norming_constants refused a prescribed root, but the output
            breaks a tolerance below.
The CLI turns exceptions into exit codes, so run_cli reads the exception
back from the library call that raised it and classifies it the same way.
Only a CLI failure that no library call raised (a malformed spec file)
is classified by exit code: 2 rejected, 1 raised.

`known_failure` names the failures that are the recorded baseline;
any other failure makes a run incorrect.
"""

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

# Tolerances, each taken from the repository's own tests or code.
FORWARD_UNIMODULARITY_TOL = 1e-10  # acceptance criterion 7
ENERGY_IDENTITY_TOL = 1e-8         # acceptance criterion 7
EIGENVALUE_TOL = 1e-3              # acceptance criterion 2
INVERSION_REL_TOL = 1e-8           # acceptance criterion 1 (CLI: fast vs sequential)
WINDING_GRID_FACTOR = 8            # argument-principle grid, points per coefficient

# Library names nftsynth.cli calls in `roundtrip`; the CLI operation reads
# their results, durations and exceptions back.
CLI_CAPTURED = ("SpectrumSpec", "synthesize_ab", "invert_fast", "invert_sequential",
                "forward_fast", "reflection_coefficient", "asymptotic_reflection",
                "find_eigenvalues", "norming_constants", "predict")


@dataclass
class Outcome:
    D: int
    prescribed: int
    status: str = "ok"            # ok | rejected | raised | check
    stage: str = ""               # the library call that raised, if one did
    detail: str = ""
    signal_s: float = float("nan")
    found: int | None = None      # roots found by find_eigenvalues (CLI only)
    health: dict = field(default_factory=dict)


class StageError(Exception):
    """A program exception, tagged with the library call (stage) that raised it."""

    def __init__(self, stage, exc, partial=None):
        super().__init__(f"{stage}: {type(exc).__name__}: {exc}")
        self.stage = stage
        self.exc = exc
        self.partial = partial or {}


def _classify(err: StageError):
    if isinstance(err.exc, ValueError):
        if err.stage in ("SpectrumSpec", "synthesize_ab"):
            return "rejected"
        if err.stage == "norming_constants":
            return "check"
    return "raised"


def run_library(nft, doc):
    """synthesize_ab -> invert_fast -> forward_fast -> verification.

    Returns the dict of everything produced; on a program exception,
    raises StageError carrying what was produced so far.
    """
    out = {}
    stage = "SpectrumSpec"
    try:
        spec = nft.synthesis.SpectrumSpec(
            lambdas=[complex(re, im) for re, im in doc["lambdas"]],
            delta=doc["delta"], D=doc["D"], omega_c=doc["omega_c"])
        t0 = perf_counter()
        stage = "synthesize_ab"
        out["pair"] = nft.synthesis.synthesize_ab(spec)
        stage = "invert_fast"
        out["signal"], _tm = nft.inverse.invert_fast(out["pair"], check=False)
        out["signal_s"] = perf_counter() - t0
        stage = "forward_fast"
        out["back"] = back = nft.forward.forward_fast(out["signal"])
        stage = "reflection_coefficient"
        out["reflection"] = nft.forward.reflection_coefficient(back)
        stage = "asymptotic_reflection"
        out["predicted"] = nft.asymptotics.asymptotic_reflection(
            out["reflection"][0], spec.delta, spec.omega_c)
        stage = "lambda_to_z"
        out["zk"] = [nft.synthesis.lambda_to_z(l, spec.eps) for l in spec.lambdas]
        if out["zk"]:
            stage = "norming_constants"
            out["norming"] = nft.forward.norming_constants(back, out["zk"])
            stage = "predict"
            out["norming_pred"] = nft.asymptotics.predict(spec).norming_predictions
    except Exception as exc:
        raise StageError(stage, exc, out) from exc
    return out


def _captured(nft, sink):
    """Record result, duration and the first exception of each CLI_CAPTURED
    call made by nftsynth.cli."""
    def hook(name, fn):
        def call(*args, **kwargs):
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                sink.setdefault("error", (name, exc))
                raise
            sink[name] = res
            sink[name + "_s"] = perf_counter() - t0
            return res
        return call

    return spans.patch_attrs((nft.cli, name, partial(hook, name)) for name in CLI_CAPTURED)


def run_cli(nft, doc, work_root):
    """`nftsynth roundtrip` in-process on a fresh directory, then read report.json.

    Returns (outputs, exit code, report or None).  The outputs are the
    objects the CLI computed, read back from its calls, under the same
    keys run_library uses.  If a library call raised, raises StageError
    for that call, as run_library does.
    """
    sink = {}
    rc = report = None
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(doc))
        try:
            with _captured(nft, sink):
                rc = nft.cli.main(["roundtrip", "--spec", str(spec_path),
                                   "--out", str(work / "out")])
        except Exception as exc:
            sink.setdefault("error", ("cli", exc))
        if rc == 0:
            report = json.loads((work / "out" / "report.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {"pair": sink.get("synthesize_ab"), "back": sink.get("forward_fast")}
    if "invert_fast" in sink:
        out["signal"] = sink["invert_fast"][0]
        out["signal_s"] = sink["synthesize_ab_s"] + sink["invert_fast_s"]
    if "asymptotic_reflection" in sink:
        out["reflection"] = sink["reflection_coefficient"]
        out["predicted"] = sink["asymptotic_reflection"]
    out = {k: v for k, v in out.items() if v is not None}
    if rc != 0 and "error" in sink:
        name, exc = sink["error"]
        raise StageError(name, exc, out)
    return out, rc, report


# The recorded baseline defect (ROADMAP item 4): for a spec with an
# eigenvalue near the real axis, synthesize_ab accepts a pair that is not
# unimodular (residual up to ~7e-2), and norming_constants then refuses the
# prescribed root.  Of 2000 stream-small specs (seeds 1000-1009), every one
# that failed so had an eigenvalue with Im lambda < 8.3, and none of 1216
# further specs whose smallest Im lambda lay in [7.5, 14) failed; hence
# the near-axis bound workloads.NEAR_AXIS_IM = 10.


def known_failure(workload, doc, outcome):
    """True if a failed operation belongs to the recorded baseline.

    Only stream-small, which draws specs across the whole input domain,
    has one: the program declining a spec (`rejected`: a refusal is not
    a wrong result), and the root refusal above on a spec with an
    eigenvalue of Im lambda < workloads.NEAR_AXIS_IM.  On synth-16k and
    cli-roundtrip-512 every failure is outside the baseline.
    """
    if workload != "stream-small":
        return False
    if outcome.status == "rejected":
        return True
    return (outcome.status == "check" and outcome.stage == "norming_constants"
            and workloads.near_axis(doc))


def zeros_outside_circle(a):
    """Number of zeros of a(z) = sum a_j z^-j with |z| > 1 (argument principle).

    They are the zeros of A(w) = sum a_j w^j inside |w| < 1, counted by the
    winding of A around the unit circle.  numpy's FFT samples A at
    w = exp(-2 pi i k/M), i.e. clockwise, hence the sign.
    """
    M = WINDING_GRID_FACTOR * len(a)
    vals = np.fft.fft(a, M)
    steps = np.angle(np.roll(vals, -1) / vals)
    return int(round(-steps.sum() / (2 * np.pi)))


def eigenvalue_errors(a, zk, eps):
    """First-order eigenvalue error |d lambda| at each prescribed z_k.

    One Newton step dz = a(z_k)/a'(z_k) moves z_k onto the nearby root of a;
    lambda = i log(z)/(2 eps) turns it into |dz| / (2 eps |z_k|).
    """
    a = np.asarray(a, dtype=complex)
    j = np.arange(len(a))
    errs = []
    for z in zk:
        pw = np.power(1.0 / z, j)
        val = pw @ a
        dval = -(j * a) @ pw / z
        errs.append(abs(val / dval) / (2 * eps * abs(z)))
    return errs


def _reflection_devs(doc, reflection, predicted):
    """Max relative deviation of |b/a|^2 from the limiting prediction.

    Passband |omega| <= omega_c and transition band omega_c < |omega| <=
    2 omega_c, as in acceptance criterion 3.  Recorded as health only:
    the transition band is known not to meet criterion 3 (README).
    """
    omega, vals, _poles = reflection
    oc = doc["omega_c"]
    ok = (predicted > 0) & np.isfinite(vals)
    rel = np.abs(np.abs(vals[ok]) ** 2 - predicted[ok]) / predicted[ok]
    om = np.abs(omega[ok])
    passband = rel[om <= oc]
    transition = rel[(om > oc) & (om <= 2 * oc)]
    return (float(passband.max()) if passband.size else None,
            float(transition.max()) if transition.size else None)


def check(nft, doc, out, cli_rc=None, report=None, err=None):
    """Apply the tolerances to one operation's outputs; returns an Outcome."""
    res = Outcome(D=doc["D"], prescribed=len(doc["lambdas"]))
    if "signal_s" in out:
        res.signal_s = out["signal_s"]
    h = res.health
    pair, signal, back = out.get("pair"), out.get("signal"), out.get("back")
    if pair is not None:
        h["synthesis.unimodularity_residual"] = float(pair.unimodularity_residual)
    if back is not None:
        h["forward.unimodularity_residual"] = float(back.unimodularity_residual)
        h["inverse.energy_identity_residual"] = float(
            nft.inverse.energy_identity_residual(signal, back.a[0]))
        h["forward.roundtrip_coef_dev"] = float(max(
            np.abs(back.a - pair.a).max(), np.abs(back.b - pair.b).max()))
    if "reflection" in out and "predicted" in out:
        p, t = _reflection_devs(doc, out["reflection"], out["predicted"])
        h["asymptotics.reflection_passband_rel_dev"] = p
        h["asymptotics.reflection_transition_rel_dev"] = t
    if "norming_pred" in out:
        meas, pred = out["norming"], out["norming_pred"]
        h["asymptotics.norming_rel_dev"] = float(np.max(np.abs(meas - pred) / np.abs(meas)))

    if err is not None:
        res.status, res.stage, res.detail = _classify(err), err.stage, str(err)
        return res
    if cli_rc is not None and cli_rc != 0:
        res.status = "rejected" if cli_rc == 2 else "raised"
        res.detail = f"cli exit code {cli_rc}"
        return res

    failed = []
    if back is None:
        failed.append("no forward pair")
    else:
        if h["forward.unimodularity_residual"] > FORWARD_UNIMODULARITY_TOL:
            failed.append(f"forward unimodularity {h['forward.unimodularity_residual']:.2e}")
        if not h["inverse.energy_identity_residual"] <= ENERGY_IDENTITY_TOL:
            failed.append(f"energy identity {h['inverse.energy_identity_residual']:.2e}")
    if report is not None:
        # CLI: the program's own blind root search and fast-vs-sequential check
        res.found = int(report.get("eigenvalue_count", 0))
        errs = report.get("eigenvalue_errors", [])
        if "norming_rel_devs" in report:
            h["asymptotics.norming_rel_dev"] = float(max(report["norming_rel_devs"]))
        if res.found != res.prescribed:
            failed.append(f"{res.found} eigenvalues found, {res.prescribed} prescribed")
        if errs and not max(errs) <= EIGENVALUE_TOL:
            failed.append(f"eigenvalue error {max(errs):.2e}")
        peak = float(np.abs(signal.samples).max()) if signal is not None else 1.0
        dev = report.get("inversion_max_dev", 0.0) / peak
        if not dev <= INVERSION_REL_TOL:
            failed.append(f"fast vs sequential {dev:.2e}")
    elif back is not None:
        # library: norming_constants already enforced |a(z_k)| <= 1e-6;
        # count the zeros of a outside the circle and place each one
        count = zeros_outside_circle(back.a)
        if count != res.prescribed:
            failed.append(f"{count} zeros outside the circle, {res.prescribed} prescribed")
        errs = eigenvalue_errors(back.a, out.get("zk", []), 1.0 / res.D)
        if errs and not max(errs) <= EIGENVALUE_TOL:
            failed.append(f"eigenvalue error {max(errs):.2e}")
    if failed:
        res.status, res.detail = "check", "; ".join(failed)
    return res
