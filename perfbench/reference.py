"""A fixed reference kernel that tracks the host's speed through a run.

The benchmark's host is a shared virtual machine whose CPU speed swings
by up to 2x within seconds, and whose quiet-phase speed itself moves by
half over minutes.  Raw timings taken there spread by 12-30% from one
run to the next whatever the program does.  So every workload runs this
kernel, benchmark-owned code that no change to the program can make
faster or slower, once between its operations, and every time the
benchmark reports is scaled to a nominal host on which the kernel takes
``NOMINAL_S``::

    scaled = measured * NOMINAL_S / (kernel time around the measurement)

where the kernel time is the median of the ``NEIGHBOURS`` kernel runs
nearest the measurement.  The kernel mixes small-array numpy calls with
dict-and-int bytecode, the two kinds of work the monitoring path does,
so both slow down together when the host does.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

#: The kernel's time on the nominal host: its median on a quiet 2-vCPU
#: x86-64 virtual machine under CPython 3.
NOMINAL_S = 0.2e-3

#: Kernel runs whose median gives the host's speed at one moment.
NEIGHBOURS = 15

_DATA = np.random.default_rng(0).standard_normal(1024)
_KEYS = list(range(64))

_clock = time.perf_counter


def _kernel() -> float:
    total = 0.0
    for i in range(6):
        part = np.sort(_DATA[i * 8: i * 8 + 256])
        total += float(np.median(part)) + float(np.cumsum(part)[-1])
    table: dict = {}
    for i in range(600):
        key = _KEYS[i & 63]
        table[key] = table.get(key, 0) + i % 7
    return total + len(table)


class Reference:
    """Kernel timings taken through one run, and the scale they imply."""

    def __init__(self) -> None:
        self._stamps: List[float] = []
        self._times: List[float] = []

    def run(self, times: int = 1) -> None:
        """Time the kernel ``times`` times, now.

        Each timed run follows an untimed one, so that the kernel finds
        its code and data in cache whatever the program did before it.
        """
        for _ in range(times):
            _kernel()
            t0 = _clock()
            _kernel()
            t1 = _clock()
            self._stamps.append(t1)
            self._times.append(t1 - t0)

    def median_s(self) -> float:
        """The kernel's median time over the whole run."""
        return statistics.median(self._times)

    def scale_at(self, stamps: Sequence[float]) -> np.ndarray:
        """Per stamp, ``NOMINAL_S`` over the nearby kernel runs' median.

        All ones when the kernel never ran (a traced run).
        """
        if not self._times:
            return np.ones(len(stamps))
        times = np.asarray(self._times)
        order = np.argsort(self._stamps)
        sorted_stamps = np.asarray(self._stamps)[order]
        times = times[order]
        half = NEIGHBOURS // 2
        out = np.empty(len(stamps))
        for i, at in enumerate(np.searchsorted(sorted_stamps, stamps)):
            lo = max(0, min(at - half, len(times) - NEIGHBOURS))
            out[i] = NOMINAL_S / float(np.median(times[lo:lo + NEIGHBOURS]))
        return out
