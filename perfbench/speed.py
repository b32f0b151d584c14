"""Machine-speed calibration: times are reported at a reference speed.

The CPUs this benchmark was tuned on (2 vCPUs of a 2.0 GHz Intel Xeon)
are shared with other tenants and switch between speed states for tens
of seconds at a time: one D=4096 library operation took 0.62 s (median)
in one 15 s block and 0.96 s in another, on an otherwise idle process.
A 30 s run inherits whichever states it hit, and raw medians spread by
24-38% (IQR over median) across runs.  So the benchmark times a fixed
kernel of its own about once a second, interleaved with the operations,
and reports each time t as

    t * REFERENCE_S / (median kernel time within WINDOW_S of t),

that is, in seconds at the speed where the kernel takes REFERENCE_S.
The kernel mixes what nftsynth spends its time on: interpreted Python,
many small numpy calls, mid-size FFTs, large short-lived arrays and a
small dense eigenproblem.  It does not call nftsynth, so no change to
the program moves it.  Raw times and every kernel sample are kept in
the result file.
"""

from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_S = 0.03   # kernel time that defines the reference speed
EVERY_S = 1.0        # sample the kernel at most this often
WINDOW_S = 2.0       # kernel samples within this distance of an operation rescale it


def kernel():
    acc = 0.0
    for i in range(30000):
        acc += (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 17) + 0.5j
    b = np.linspace(1.0, 2.0, 16) - 0.25j
    for _ in range(800):
        np.convolve(a, b)
    x = np.linspace(0.0, 1.0, 8192) + 0j
    for _ in range(30):
        x = np.fft.ifft(np.fft.fft(x))
    for _ in range(80):
        z = np.zeros(40000, dtype=complex)
        z[::3] = 1.0
        acc += z.sum().real
    m = np.outer(np.arange(48.0), np.ones(48)) + 3.0 * np.eye(48) + 0.1j
    for _ in range(3):
        np.linalg.eigvals(m)
    return acc


class Clock:
    """Kernel samples taken during a run, and the scale they imply."""

    def __init__(self):
        self.samples = []   # (start, seconds)

    def sample(self):
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter() - t0))

    def sample_if_due(self):
        if not self.samples or perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def scale(self, t0, t1):
        """Factor that rescales a time measured over [t0, t1] to the reference speed."""
        near = [s for t, s in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - t0))[1]]
        return REFERENCE_S / median(near)
