"""Host speed probe: adjusts timings for the drift of a shared machine.

On a shared VM the same code runs 20-40% slower or faster for seconds to
minutes at a time as other tenants load the host; the median of a 30 s run
cannot average that out.  A short fixed calibration loop that does not use
palmlab runs before every command and after the last one of each pass, and
the pass's wall time is multiplied by REF_PROBE_S / (mean probe time of the
pass).  On a host running at the reference speed the adjusted time equals
the raw one, and a change to palmlab moves the adjusted time exactly as much
as the raw one, since the probe does not run palmlab code.

Measured on the reference machine over 30 s blocks of passes, this cut the
spread (quartile distance over median) of the median pass from 12-17% to
3-6% on exact-integral and from 10-14% to 3-5% on suite-sampled.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the reference machine: a 2-vCPU Xeon VM at 2.1 GHz,
# Python 3.11, numpy 2.4.
REF_PROBE_S = 0.04


class SpeedProbe:
    """A fixed mix of interpreter-bound small-array work (like palmlab's
    per-row loops) and vectorized sorting (like its samplers)."""

    def __init__(self):
        self._data = np.random.default_rng(0).random(300_000)
        self()  # the first call pays one-time costs

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1300):
            a = np.arange(i % 17 + 3, dtype=np.float64) * 0.5
            b = np.unique(np.concatenate((a, a[::2] + 0.25)))
            acc += float(np.searchsorted(b, 1.0)) + float(np.diff(b).sum())
            acc += sum(x * 0.5 for x in (1.0, 2.0, 3.0))
        for _ in range(3):
            acc += float(np.cumsum(np.sort(self._data))[-1])
        return time.perf_counter() - t0
