"""Seeded spec generators, one per workload.

A spec is the JSON document the `nftsynth` CLI reads:
{"lambdas": [[re, im], ...], "delta": ..., "D": ..., "omega_c": ...}.
Generators use only the standard library's `random`, so the same seed
gives the same specs whatever numpy version is installed, and set-up
timing can start before numpy is imported.

Why these three workloads:
- synth-16k: large D, where the paper's O(D log^2 D) claim lives; the
  blind root search is bypassed, so only inverse/forward/poly move it.
- stream-small: many small specs (D <= 256) across the whole input
  domain, including eigenvalues near the unit circle; per-call overhead,
  the direct-convolution branch of poly_mul and the asymptotics dominate.
  Ranges follow the input domain, not what currently passes: about a
  seventh of these specs fail their checks today (known validity defect,
  only ever on near-axis specs, see ops.known_failure).
- cli-roundtrip-512: the command users run; the O(D^3) np.roots search
  dominates and the fast transforms are a few percent.

A run is a fixed list of operations (run_specs), sized from --seconds so
that it takes about that long at the reference speed of speed.py.  Its
length does not depend on how fast the machine happens to be, so the
same arguments give the same attempted count, and the same failures.
"""

import random
from itertools import groupby, islice, product

WORKLOADS = ("synth-16k", "stream-small", "cli-roundtrip-512")
LIBRARY = "library"
CLI = "cli"

# --small (the harness self-test) caps D here so every workload runs in
# well under a second per operation.
SMALL_D = 64

# Seconds one operation, its check included, takes at the reference speed
# of speed.py; a run of --seconds S is round(S / this) operations.
NOMINAL_OP_S = {"synth-16k": 3.6, "stream-small": 0.1, "cli-roundtrip-512": 1.8}

# stream-small's input domain.
STREAM_D = (64, 128, 256)
STREAM_COUNTS = range(5)
STREAM_IM = (2.0, 50.0)

# Eigenvalues with Im lambda below this are "near the axis": the only
# specs on which the recorded baseline defect shows (ops.known_failure).
NEAR_AXIS_IM = 10.0
# Chance that one eigenvalue drawn uniformly from STREAM_IM is near the axis.
_P_NEAR = (NEAR_AXIS_IM - STREAM_IM[0]) / (STREAM_IM[1] - STREAM_IM[0])


def kind(name):
    """How an operation of this workload runs: LIBRARY or CLI."""
    return CLI if name == "cli-roundtrip-512" else LIBRARY


def near_axis(spec):
    """True if the spec has an eigenvalue with Im lambda < NEAR_AXIS_IM."""
    return any(im < NEAR_AXIS_IM for _re, im in spec["lambdas"])


def ops_per_run(name, seconds):
    """Operations in a run of `seconds`; at least two, so a traced run has
    operations on both sides."""
    return max(2, round(seconds / NOMINAL_OP_S[name]))


def _lambdas(rng, k, im_lo, im_hi):
    return [[rng.uniform(-10.0, 10.0), rng.uniform(im_lo, im_hi)] for _ in range(k)]


def _near_axis_lambdas(rng, k):
    """k eigenvalues uniform over STREAM_IM, at least one of them near the axis."""
    while True:
        lambdas = _lambdas(rng, k, *STREAM_IM)
        if near_axis({"lambdas": lambdas}):
            return lambdas


def _stream_spec(rng, D, lambdas):
    return {"lambdas": lambdas, "delta": rng.uniform(0.005, 0.3), "D": D,
            "omega_c": rng.uniform(2.0, 20.0)}


def _large_spec(name, rng):
    if name == "synth-16k":
        return {"lambdas": _lambdas(rng, 4, 10.0, 50.0),
                "delta": 0.01, "D": 16384, "omega_c": 10.0}
    return {"lambdas": _lambdas(rng, rng.randint(1, 4), 10.0, 50.0),
            "delta": 0.01, "D": 512, "omega_c": 10.0}


def _shuffled_blocks(rng, values):
    """Endless stream of `values`, each block of len(values) in seeded random order."""
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


def _stream_small(seed, n):
    """n stream-small specs, stratified so that the failures do not move with the seed.

    Each spec takes a cell (D, eigenvalue count k) from shuffled blocks of
    all cells, so every cell is equally frequent.  Within a cell, the share
    of near-axis specs is the chance 1 - (1 - p)^k that k uniform draws
    give one, rounded.  What decides whether the program fails a spec
    today is drawn at a fixed seed and so is the same in every run: the
    near-axis eigenvalues (the known defect) and each spec's delta and
    omega_c (make_ub refuses a few filters).  The seed draws the other
    eigenvalues, uniform over the rest of STREAM_IM, and the order.  So
    the mix of specs is that of the domain, and a run's failure count is
    the same for every seed.
    """
    cells = islice(_shuffled_blocks(random.Random("stream-small/cells"),
                                    list(product(STREAM_D, STREAM_COUNTS))), n)
    fixed = random.Random("stream-small/fixed")
    rng = random.Random(f"stream-small/{seed}")
    run = []
    for (D, k), group in groupby(sorted(cells)):
        m = len(list(group))
        n_near = round(m * (1 - (1 - _P_NEAR) ** k))
        for j in range(m):
            lambdas = (_near_axis_lambdas(fixed, k) if j < n_near
                       else _lambdas(rng, k, NEAR_AXIS_IM, STREAM_IM[1]))
            run.append(_stream_spec(fixed, D, lambdas))
    rng.shuffle(run)
    return run


def _capped(specs, small):
    if small:
        for spec in specs:
            spec["D"] = min(spec["D"], SMALL_D)
    return specs


def run_specs(name, seed, seconds, small=False):
    """The specs of one run of `seconds`, in the order they are sent."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    n = ops_per_run(name, seconds)
    if name == "stream-small":
        return _capped(_stream_small(seed, n), small)
    rng = random.Random(f"{name}/{seed}")
    return _capped([_large_spec(name, rng) for _ in range(n)], small)


def warmup_spec(name, seed, small=False):
    """One spec for the untimed warm-up, drawn apart from the measured ones."""
    rng = random.Random(f"{name}/{seed}/warmup")
    if name == "stream-small":
        spec = _stream_spec(rng, rng.choice(STREAM_D), _lambdas(
            rng, rng.choice(STREAM_COUNTS), NEAR_AXIS_IM, STREAM_IM[1]))
    else:
        spec = _large_spec(name, rng)
    return _capped([spec], small)[0]
