"""Per-chunk timing and gap-draw counts of the two-sided samplers.

Times `ProcessModel.sample_batch` on fixed-seed chunks of CHUNK (4096)
rows for each model and window in MODELS:

- `renewal_ts`: Gamma(2,1) gaps on (-30, 40);
- `renewal_es`: unit exponential gaps on (-15, 15);
- `example84`: rate 1 on (-43, 57);
- `poisson_ts`: rate 1 on (-15, 15), and on the `ams` window (-15, 441);
- `pstar`: uniform re-centering of `poisson_ts` (rate 1) on (-15, 15).

Each of CHUNKS chunks is timed REPEATS times, each time from a fresh
chunk generator, and its fastest run kept; the file reports the median
over chunks and a SHA-256 of every chunk's batch, so two checkouts can be
compared for speed and for identical draws.

It also counts gaps drawn, the values `IntervalDistribution.sample`
returns: per event kept on each model's chunks, and in one pass of each
perfbench workload (its commands run in-process through `palmlab.cli.main`
at the workload's budget and thread count, seed SEED).

Usage:

    PYTHONPATH=src python tools/bench_sampler.py --label <name> [--out BENCH_sampler.json]

To compare two checkouts on one machine, run it once with each one's
src/ on PYTHONPATH, under different labels and with the same --out: the
file keeps every label's run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from palmlab import cli
from palmlab.estimate import pstar_model
from palmlab.models import (
    IntervalDistribution,
    example84_exact,
    exponential,
    gamma_intervals,
    poisson_ts,
    renewal_es,
    renewal_ts_from_es,
)
from palmlab.rng import CHUNK, chunk_rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, argv_for, write_configs  # noqa: E402

SEED = 2019
CHUNKS = 8
REPEATS = 5

# name -> (model factory, window)
MODELS = {
    "renewal_ts": (lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0)), (-30.0, 40.0)),
    "renewal_es": (lambda: renewal_es(exponential(1.0)), (-15.0, 15.0)),
    "example84": (lambda: example84_exact(1.0), (-43.0, 57.0)),
    "poisson_ts": (lambda: poisson_ts(1.0), (-15.0, 15.0)),
    "poisson_ts ams": (lambda: poisson_ts(1.0), (-15.0, 441.0)),
    "pstar": (lambda: pstar_model(poisson_ts(1.0)), (-15.0, 15.0)),
}


@contextlib.contextmanager
def counted_gaps(sizes: list[int]):
    """Record the number of values of every IntervalDistribution.sample
    call made inside the block."""
    original = IntervalDistribution.sample

    def counting(self, rng, size):
        out = original(self, rng, size)
        sizes.append(out.size)
        return out

    IntervalDistribution.sample = counting
    try:
        yield
    finally:
        IntervalDistribution.sample = original


def batch_digest(batch) -> str:
    h = hashlib.sha256()
    for arr in (batch.points, batch.offsets, batch.windows, batch.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def bench_model(name: str) -> dict:
    factory, window = MODELS[name]
    model = factory()
    stream = f"bench-sampler:{name}"
    sizes: list[int] = []
    points = 0
    with counted_gaps(sizes):
        for ci in range(CHUNKS):
            points += model.sample_batch(chunk_rng(SEED, stream, ci), window, CHUNK).points.size
    times, digests = [], []
    for ci in range(CHUNKS):
        best, seen = float("inf"), None
        for _ in range(REPEATS):
            rng = chunk_rng(SEED, stream, ci)
            t0 = time.perf_counter()
            batch = model.sample_batch(rng, window, CHUNK)
            best = min(best, time.perf_counter() - t0)
            digest = batch_digest(batch)
            if seen is not None and digest != seen:
                raise SystemExit(f"error: {name} chunk {ci} drew different batches")
            seen = digest
        times.append(best)
        digests.append(seen)
    return {
        "window": list(window),
        "ms_per_chunk": 1e3 * statistics.median(times),
        "ms_per_chunk_all": [1e3 * t for t in times],
        "gaps_drawn": sum(sizes),
        "events_kept": points,
        "gaps_per_event_kept": sum(sizes) / points,
        "batch_sha256": digests,
    }


def workload_gaps(name: str, root: Path) -> dict:
    workload = WORKLOADS[name]
    cfg = write_configs(workload, root / name / "configs")
    sizes: list[int] = []
    with counted_gaps(sizes):
        for cmd in workload.commands:
            argv = argv_for(cmd, cfg, seed=SEED, reps=workload.reps, threads=workload.threads,
                            out=root / name / cmd.name)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"error: {' '.join(argv)} exited {code}")
    return {"gaps_drawn": sum(sizes), "sample_calls": len(sizes)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the file, e.g. the commit measured")
    parser.add_argument("--out", default="BENCH_sampler.json")
    args = parser.parse_args(argv)
    models = {name: bench_model(name) for name in MODELS}
    with tempfile.TemporaryDirectory() as tmp:
        passes = {name: workload_gaps(name, Path(tmp)) for name in WORKLOADS}
    run = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": SEED,
        "rows_per_chunk": CHUNK,
        "chunks": CHUNKS,
        "repeats": REPEATS,
        "models": models,
        "workload_passes": passes,
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
    for name, res in models.items():
        print(f"{args.label} {name} {tuple(res['window'])}: {res['ms_per_chunk']:.2f} ms/chunk, "
              f"{res['gaps_per_event_kept']:.3f} gaps drawn per event kept")
    for name, res in passes.items():
        print(f"{args.label} {name} pass: {res['gaps_drawn']} gaps drawn "
              f"in {res['sample_calls']} draws")


if __name__ == "__main__":
    main()
