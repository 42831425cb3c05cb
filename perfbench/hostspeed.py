"""Correction for the speed of a shared host.

Other tenants of a shared host change how fast this process runs by tens of
percent over tens of seconds: on a shared 2-vCPU x86-64 VM (Xeon, 2.1 GHz),
15-second medians of the same live-injection work ranged from 0.70 to 1.19
of their overall median. A longer run cannot average that away. So while a
workload runs, the benchmark times a fixed reference loop (about a
millisecond) every 50 ms, through hooks the workload already calls, and
reports each time scaled to the loop's reference duration:

    corrected = (measured - time in the loop) * REFERENCE_S / mean(loop times)

with the loop times taken from the same pass, less their slowest tenth. On the same work, the
15-second medians of the corrected times stayed within 0.99-1.03. A single
request's latency is scaled instead by the loop times within ``LOCAL_S`` of
it, since the host's speed also changes within a pass: over 6-8 runs of each
workload this cut the spread of the latency percentiles across runs (IQR /
median) from 0.036-0.066 to 0.021-0.053. The loop does not call resacc, so a
change to resacc cannot move it. Raw times are printed next to the corrected
ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Corrected times are for a host that runs the loop in 1 ms (the VM above: 0.8-1.6 ms).
REFERENCE_S = 1e-3
INTERVAL_S = 0.05
LOCAL_S = 0.5

_X = np.arange(256.0).reshape(16, 16) / 256.0


def reference_loop() -> float:
    """Interpreter work, dict updates and small BLAS calls, as the workloads do."""
    acc = 0.0
    seen = {}
    for i in range(400):
        acc += float((_X[i % 16] @ _X).sum())
        seen[i & 63] = acc
    return acc


def _speed(loop_s) -> float:
    """Speed factor from loop times: a slow spell slows all the work it
    overlaps, so average them, but drop the slowest tenth, where one
    interrupt lands on one loop."""
    kept = sorted(loop_s)[: max(1, len(loop_s) * 9 // 10)]
    return REFERENCE_S * len(kept) / sum(kept)


class HostSpeed:
    def __init__(self, active: bool = True):
        self.active = active
        self.loop_s: list[float] = []
        self.loop_t: list[float] = []  # when each loop ended
        self.spent = 0.0
        self._next = 0.0 if active else math.inf

    def sample(self) -> None:
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.loop_s.append(dt)
        self.loop_t.append(t0 + dt)
        self.spent += dt
        self._next = t0 + dt + INTERVAL_S

    def tick(self) -> None:
        """Sample when INTERVAL_S has passed since the last sample."""
        if perf_counter() >= self._next:
            self.sample()

    def begin(self) -> tuple[int, float]:
        """Sample now; the mark for ``since``."""
        start = len(self.loop_s)
        if self.active:
            self.sample()
        return start, self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(seconds spent in the loop, speed factor) since ``mark``. The
        factor is 1 when nothing was sampled."""
        start, spent = mark
        window = self.loop_s[start:]
        return self.spent - spent, _speed(window) if window else 1.0

    def factors(self, stamps) -> np.ndarray:
        """Speed factor at each ``perf_counter`` time in ``stamps``: that of
        the loops within ``LOCAL_S`` of the first loop to end after it. All 1
        when nothing was sampled."""
        if not self.loop_t:
            return np.ones(len(stamps))
        t = np.asarray(self.loop_t)
        lo = np.searchsorted(t, t - LOCAL_S)
        hi = np.searchsorted(t, t + LOCAL_S, side="right")
        at = np.array([_speed(self.loop_s[a:b]) for a, b in zip(lo, hi)])
        return at[np.minimum(np.searchsorted(t, stamps), len(t) - 1)]
