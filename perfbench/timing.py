"""Machine-speed calibration for timings on a shared host."""

import time
from statistics import median


class Calibration:
    """A fixed numpy kernel timed between commands to track machine speed.

    On a shared host the same work runs up to ~20% slower for tens of seconds
    at a time.  A command's time divided by the calibration time measured
    around it, times REF_S, is its time in reference seconds: what it would
    take while the calibration runs in REF_S.  The kernel mixes streaming
    elementwise work (like the Monte Carlo and oracle kernels) with a complex
    matrix product (like the Toeplitz eigensolver); it runs no relaylab code.
    """

    REF_S = 0.055  # the calibration's typical time on the 2-core machine it was tuned on

    def __init__(self):
        import numpy as np
        self._np = np
        self._x = np.linspace(1.0, 2.0, 1 << 20)
        self._m = np.full((256, 256), 0.5 + 0.5j) + np.eye(256)
        self.samples = []

    def scale(self, seconds: float, before: float, after: float) -> float:
        """Reference seconds of work timed between two calibrations."""
        return seconds * self.REF_S / (0.5 * (before + after))

    def timed(self, fn, repeats: int, inner: int = 1) -> float:
        """Median reference seconds of one fn() call; inner calls per sample."""
        return self.interleaved([lambda: [fn() for _ in range(inner)]], repeats)[0] / inner

    def interleaved(self, fns, rounds: int) -> list:
        """Median reference seconds of each fn, the fns called in turn each round."""
        times = [[] for _ in fns]
        before = self.measure()
        for _ in range(rounds):
            for fn, samples in zip(fns, times):
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
                after = self.measure()
                samples.append(self.scale(dt, before, after))
                before = after
        return [median(samples) for samples in times]

    def measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            self._np.log2(self._x)
        for _ in range(8):
            self._m @ self._m
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt
