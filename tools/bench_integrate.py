"""Per-chunk timing of the exact segment integration layer.

Times `Eventuality.integrate` on fixed-seed chunks of CHUNK (4096) rows
in two windows:

- `cesaro-time`: the `ams kind=time` window, `renewal_ts` with Gamma(2,1)
  gaps and `count(0,1]==0` integrated over (0, x_max] with the trace's
  checkpoints as cuts (one call per chunk);
- `one-gap`: the I-2.6 window, the Palm companion of the same model with
  each member of the suite battery integrated over the straddling gap
  (T_0, T_1] (one call per member per chunk).

Sampling and the context's globally sorted points are built before the
clock starts, so the times are integrate alone.  Each of CHUNKS chunks is
timed REPEATS times and its fastest run kept; the file reports the median
over chunks and a SHA-256 of every output, so two checkouts can be
compared for speed and for identical results.

Usage:

    PYTHONPATH=src python tools/bench_integrate.py --label <name> [--out BENCH_integrate.json]

To compare two checkouts on one machine, run it once with each one's
src/ on PYTHONPATH, under different labels and with the same --out: the
file keeps every label's run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import time

import numpy as np

from palmlab import rng as _rng
from palmlab.ams import _time_checkpoints
from palmlab.estimate import group_radius, guard_window
from palmlab.events import HORIZON_GAPS, SUITE_BATTERY, EventContext, effective_radius, \
    parse_eventuality
from palmlab.models import gamma_intervals, renewal_ts_from_es

SEED = 2013
CHUNKS = 4
REPEATS = 5
X_MAX = 512.0


def _cesaro_time():
    model = renewal_ts_from_es(gamma_intervals(2.0, 1.0))
    A = parse_eventuality("count(0,1]==0")
    cps = _time_checkpoints(model, X_MAX)
    window = guard_window(model, effective_radius(A, model.scale), 0.0, X_MAX)

    def calls(ctx):
        rows = np.arange(ctx.batch.n)
        return [lambda: A.integrate(ctx, rows, 0.0, X_MAX, cuts=cps)]

    return model, window, calls


def _one_gap():
    model = renewal_ts_from_es(gamma_intervals(2.0, 1.0)).palm_companion()
    pad = HORIZON_GAPS * model.scale
    window = guard_window(model, group_radius(SUITE_BATTERY, model.scale) + pad)

    def calls(ctx):
        i = ctx.pos0()
        y_lo, y_hi = ctx.point(i), ctx.point(i + 1)
        rows = np.flatnonzero((i >= ctx.off_lo) & (i + 1 < ctx.off_hi)
                              & (y_lo >= -pad) & (y_hi <= pad))
        return [lambda A=A: A.integrate(ctx, rows, y_lo[rows], y_hi[rows])
                for A in SUITE_BATTERY]

    return model, window, calls


WINDOWS = {"cesaro-time": _cesaro_time, "one-gap": _one_gap}


def bench(name: str) -> dict:
    model, window, calls = WINDOWS[name]()
    per_chunk, digest, events = [], hashlib.sha256(), 0
    for ci in range(CHUNKS):
        batch = model.sample_batch(_rng.chunk_rng(SEED, name, ci), window, _rng.CHUNK)
        ctx = EventContext(batch)
        ctx.gsorted()
        todo = calls(ctx)
        events += batch.points.size
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            outs = [call() for call in todo]
            best = min(best, time.perf_counter() - t0)
        for values, ok in outs:
            digest.update(values.tobytes())
            digest.update(ok.tobytes())
        per_chunk.append(1e3 * best)
    return {
        "window": [float(w) for w in window],
        "events_per_chunk": events / CHUNKS,
        "ms_per_chunk": statistics.median(per_chunk),
        "ms_per_chunk_all": per_chunk,
        "output_sha256": digest.hexdigest(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the file, e.g. the commit measured")
    parser.add_argument("--out", default="BENCH_integrate.json")
    args = parser.parse_args(argv)
    run = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows_per_chunk": _rng.CHUNK,
        "chunks": CHUNKS,
        "budget": CHUNKS * _rng.CHUNK,
        "repeats": REPEATS,
        "x_max": X_MAX,
        "seed": SEED,
        "windows": {name: bench(name) for name in WINDOWS},
    }
    # runs of other checkouts already in the file are kept, so one file
    # holds a before/after pair measured on the same machine
    record = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for name, res in run["windows"].items():
        print(f"{args.label} {name}: {res['ms_per_chunk']:.1f} ms/chunk "
              f"({res['events_per_chunk']:.0f} events), sha256 {res['output_sha256'][:16]}")


if __name__ == "__main__":
    main()
