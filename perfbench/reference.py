"""Machine-speed probe for the ``*_ref_s`` metrics.

The benchmark host is a small shared virtual machine.  Its speed drifts by up
to a factor of two over tens of seconds as other tenants load the cores, and a
single pass lasts long enough to see the drift.  A raw wall time therefore
varies by 20-30% between passes of identical work, more than any regression
bound worth having.

``SpeedProbe`` runs fixed probe work every ``PERIOD_S`` on a background thread
while a pass runs, and records the probe's CPU time.  run.py and its
workers are pinned to one CPU, so the probe sees the same core as the pass,
and the mean probe time over the pass measures how slow that core was during
it.  A ``*_ref_s`` metric is a wall time scaled by nominal over mean probe
time: the time the pass would have taken at the probe's nominal speed.

The probe uses numpy and the interpreter only, never the library under test,
so a change to the library moves ``*_ref_s`` exactly as it moves the raw time.

There are two probe parts, because the workloads slow down for different
reasons.  ``numpy`` is many small numpy calls driven by the interpreter, like
the solver's per-iteration work on small blocks.  ``gather`` is random gathers
and a scatter-add over a 16 MB table, like the sparse kernels on large
observation sets, and it slows with other tenants' cache and memory traffic.
Each workload names the parts that track it (``workloads.SPEED_PROBE``).
"""

from __future__ import annotations

import threading
import time

import numpy as np

PERIOD_S = 0.1

_rng = np.random.default_rng(20160604)
_VECS = _rng.standard_normal((2, 100))
_TABLE = _rng.standard_normal(1 << 21)  # 16 MB: beyond the private caches
_INDEX = _rng.integers(0, _TABLE.size, size=1 << 14)
_BINS = _rng.integers(0, 1024, size=1 << 14)


def numpy_part() -> None:
    x, y = _VECS
    for _ in range(150):
        c = x @ y
        x = x * 0.5 + y * (0.25 * c / (1.0 + abs(c)))


def gather_part() -> None:
    for _ in range(8):
        np.bincount(_BINS, weights=_TABLE[_INDEX], minlength=1024)


PARTS = {"numpy": numpy_part, "gather": gather_part}
# Median CPU time of each part on the 2-vCPU Xeon (2.1 GHz, KVM) host that
# defined the benchmark.  They only fix the scale of ``*_ref_s``.
NOMINAL_S = {"numpy": 0.8e-3, "gather": 0.9e-3}


class SpeedProbe:
    """Context manager that samples the probe's CPU time while it is open."""

    def __init__(self, parts=tuple(PARTS), period_s: float = PERIOD_S):
        self.parts = [PARTS[p] for p in parts]
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)
        self.period_s = period_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        t0 = time.thread_time()
        for part in self.parts:
            part()
        self.samples.append(time.thread_time() - t0)

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()

    def __enter__(self):
        for part in self.parts:  # warm-up: first calls and page faults
            part()
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def scale(self) -> float:
        """Factor that converts this pass's wall times to nominal speed."""
        return self.nominal_s / (sum(self.samples) / len(self.samples))
