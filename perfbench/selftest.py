"""Fast self-test of the benchmark harness at tiny sizes (D <= 64).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted, with its unit,
on every workload in both modes, that a seed fixes a run's specs, that
what stream-small fails today does not move with the seed, and which
failures count as the recorded baseline.
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import workloads  # noqa: E402


def _declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_declared_metric_is_emitted():
    declared = {0: _declared("end_to_end"), 1: _declared("per_layer")}
    for workload, trace in itertools.product(workloads.WORKLOADS, (0, 1)):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace)
        assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == declared[trace], (workload, trace)
        for k, v in result["metrics"].items():
            assert isinstance(v["value"], (int, float)), (workload, k)


def test_seed_fixes_the_run():
    for workload in workloads.WORKLOADS:
        first = workloads.run_specs(workload, 7, 30)
        again = workloads.run_specs(workload, 7, 30)
        other = workloads.run_specs(workload, 8, 30)
        assert first == again, workload
        assert first != other, workload
        assert len(first) == len(other) == workloads.ops_per_run(workload, 30), workload
        assert workloads.warmup_spec(workload, 7) not in first, workload


def test_what_fails_today_is_the_same_for_every_seed():
    """stream-small's near-axis specs and filters do not move with the seed."""
    def fixed_part(seed):
        run = workloads.run_specs("stream-small", seed, 30)
        near = sorted(json.dumps(s) for s in run if workloads.near_axis(s))
        filters = sorted((s["D"], s["delta"], s["omega_c"]) for s in run)
        return near, filters

    assert fixed_part(7) == fixed_part(8)
    # k uniform in 0..4, each eigenvalue near the axis with chance 1/6;
    # rounded per (D, k) cell, at most half a spec off in each of 15 cells
    n = workloads.ops_per_run("stream-small", 30)
    expected = n * sum(1 - (5 / 6) ** k for k in range(5)) / 5
    assert abs(len(fixed_part(7)[0]) - expected) <= 15 * 0.5


def test_only_the_baseline_failures_are_known():
    near = {"lambdas": [[1.0, 5.0], [0.0, 30.0]], "delta": 0.1, "D": 128, "omega_c": 5.0}
    far = {**near, "lambdas": [[0.0, 30.0]]}

    def outcome(status, stage):
        return ops.Outcome(D=128, prescribed=2, status=status, stage=stage)

    root_refused = outcome("check", "norming_constants")
    assert ops.known_failure("stream-small", near, root_refused)
    assert ops.known_failure("stream-small", near, outcome("rejected", "synthesize_ab"))
    assert not ops.known_failure("stream-small", far, root_refused)
    assert not ops.known_failure("stream-small", near, outcome("check", ""))
    assert not ops.known_failure("stream-small", near, outcome("raised", "invert_fast"))
    for workload in ("synth-16k", "cli-roundtrip-512"):
        assert not ops.known_failure(workload, near, root_refused)
        assert not ops.known_failure(workload, near, outcome("rejected", "synthesize_ab"))


if __name__ == "__main__":
    test_only_the_baseline_failures_are_known()
    test_seed_fixes_the_run()
    test_what_fails_today_is_the_same_for_every_seed()
    test_every_declared_metric_is_emitted()
    print("selftest: ok")
