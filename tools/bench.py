"""Labelled benchmark runs of palmlab, end to end and layer by layer.

Usage:

    PYTHONPATH=src python tools/bench.py <layer> --label <name> [--out BENCH_<layer>.json]

The layers are `sampler`, `integrate`, `cli` and `suite`; each function's
docstring says what it times and counts.  Every run records the core
count, the Python and numpy versions, the layer's budget, seed and
repeats, and the host speed as `speed_probe_s`: the median time of
perfbench's speed probe over 5 calls before the layer and 5 after it, so
drift of a shared host shows next to the layer's times.  Each run is
stored under its label in the output file, which keeps the runs of other
labels.  To compare two checkouts on one machine, run each one's src/ on
PYTHONPATH under its own label with the same --out.
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

from palmlab import ams, cli, estimate, identities, pstar_model
from palmlab.ams import _time_checkpoints
from palmlab.estimate import row_need
from palmlab.events import SUITE_BATTERY, EventContext, parse_eventuality
from palmlab.models import IntervalDistribution, Need, example84_exact, exponential, \
    gamma_intervals, poisson_ts, renewal_es, renewal_ts_from_es, sample_window
from palmlab.rng import CHUNK, chunk_rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, argv_for, write_configs  # noqa: E402

PROBES = 5


def timed(fn):
    """(wall seconds, result) of fn()."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


@contextlib.contextmanager
def patched(wrap, *targets):
    """Replace each (owner, name) attribute with wrap(original) inside the
    block, and put the originals back after it, also when it raises."""
    saved = [(owner, name, getattr(owner, name)) for owner, name in targets]
    try:
        for owner, name, original in saved:
            setattr(owner, name, wrap(original))
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def counted_run_kernel(budgets: list[int]):
    """Record the budget of every run_kernel call made inside the block."""
    def wrap(original):
        def counting(model, need, budget, *args, **kwargs):
            budgets.append(budget)
            return original(model, need, budget, *args, **kwargs)
        return counting

    # ams imports run_kernel by name
    return patched(wrap, (estimate, "run_kernel"), (ams, "run_kernel"))


def counted_gaps(sizes: list[int]):
    """Record the number of values (gaps drawn) of every
    IntervalDistribution.sample call made inside the block."""
    def wrap(original):
        def counting(self, rng, size):
            out = original(self, rng, size)
            sizes.append(out.size)
            return out
        return counting

    return patched(wrap, (IntervalDistribution, "sample"))


def counted_searches(keys: list[int]):
    """Record the number of keys of every np.searchsorted call made inside
    the block."""
    def wrap(original):
        def counting(a, v, *args, **kwargs):
            keys.append(np.size(v))
            return original(a, v, *args, **kwargs)
        return counting

    return patched(wrap, (np, "searchsorted"))


def counted_checks(checks: dict[str, list], budgets: list[int], sizes: list[int]):
    """Sum [wall seconds, run_kernel calls, gaps drawn] of the check_identity
    calls made inside the block by identity id; budgets and sizes are the
    lists of an enclosing counted_run_kernel and counted_gaps."""
    def wrap(original):
        def counting(spec, *args, **kwargs):
            calls, gaps = len(budgets), len(sizes)
            wall, out = timed(lambda: original(spec, *args, **kwargs))
            for k, v in enumerate((wall, len(budgets) - calls, sum(sizes[gaps:]))):
                checks.setdefault(spec.id, [0.0, 0, 0])[k] += v
            return out
        return counting

    # run_suite calls check_identity through the module's globals
    return patched(wrap, (identities, "check_identity"))


def run_command(workload, cmd, cfg: dict, seed: int, out: Path) -> None:
    """Run one command of a perfbench workload in-process through
    palmlab.cli.main, at the workload's budget and thread count."""
    argv = argv_for(cmd, cfg, seed=seed, reps=workload.reps, threads=workload.threads, out=out)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")


# name -> (model factory, plain window or Need); the plain windows are the
# ones the suite's kernels sampled before rows were drawn to their need, the
# needs those of two kernels of the suite battery (the probability at the
# origin and the binned count on (0, 10]) and of the event trace of
# `palmlab ams` at its default n_max, where every row keeps the same columns
SAMPLER_MODELS = {
    "renewal_ts": (lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0)), (-30.0, 40.0)),
    "renewal_es": (lambda: renewal_es(exponential(1.0)), (-15.0, 15.0)),
    "example84": (lambda: example84_exact(1.0), (-43.0, 57.0)),
    "poisson_ts": (lambda: poisson_ts(1.0), (-15.0, 15.0)),
    "poisson_ts ams": (lambda: poisson_ts(1.0), (-15.0, 441.0)),
    "pstar": (lambda: pstar_model(poisson_ts(1.0)), (-15.0, 15.0)),
    "poisson_ts origin need": (lambda: poisson_ts(1.0), row_need(SUITE_BATTERY)),
    "renewal_ts binned need": (lambda: renewal_ts_from_es(gamma_intervals(2.0, 1.0)),
                               row_need(SUITE_BATTERY, after=10.0, at=(0, 1))),
    "poisson_ts event-trace need": (lambda: poisson_ts(1.0), Need(right=256)),
}


def _sampler_model(name: str, chunks: int, seed: int, repeats: int) -> dict:
    factory, window = SAMPLER_MODELS[name]
    model = factory()
    if isinstance(window, Need):
        def sample(rng):
            return model.sample_batch(rng, window, CHUNK)
    else:
        def sample(rng):
            return sample_window(model, rng, window, CHUNK)
    stream = f"bench-sampler:{name}"
    sizes: list[int] = []
    points = 0
    with counted_gaps(sizes):
        for ci in range(chunks):
            points += sample(chunk_rng(seed, stream, ci)).points.size
    times, digests = [], []
    for ci in range(chunks):
        best, seen = float("inf"), None
        for _ in range(repeats):
            rng = chunk_rng(seed, stream, ci)
            wall, batch = timed(lambda: sample(rng))
            best = min(best, wall)
            digest = sha256(np.ascontiguousarray(arr).tobytes() for arr in
                            (batch.points, batch.offsets, batch.windows, batch.weights))
            if seen is not None and digest != seen:
                raise SystemExit(f"error: {name} chunk {ci} drew different batches")
            seen = digest
        times.append(best)
        digests.append(seen)
    return {
        "window": list(window) if isinstance(window, tuple) else repr(window),
        "ms_per_chunk": 1e3 * statistics.median(times),
        "ms_per_chunk_all": [1e3 * t for t in times],
        "gaps_drawn": sum(sizes),
        "gaps_per_chunk": sum(sizes) / chunks,
        "events_kept": points,
        "gaps_per_event_kept": sum(sizes) / points,
        "batch_sha256": digests,
    }


def sampler(budget: int, seed: int, repeats: int) -> dict:
    """Per-chunk timing and gap-draw counts of the two-sided samplers.

    Times `ProcessModel.sample_batch` for each model and need of
    SAMPLER_MODELS, and `models.sample_window` for each plain window, on
    budget / CHUNK fixed-seed chunks, each `repeats` times from a fresh
    chunk generator, keeping its fastest run; records the median over
    chunks and a SHA-256 of every chunk's batch.  Counts
    gaps drawn per chunk and per event kept on those chunks, and in one
    pass of each perfbench workload run in-process.
    """
    models = {}
    for name in SAMPLER_MODELS:
        res = models[name] = _sampler_model(name, budget // CHUNK, seed, repeats)
        print(f"{name} {res['window']}: {res['ms_per_chunk']:.2f} ms/chunk, "
              f"{res['gaps_per_chunk']:.0f} gaps drawn per chunk, "
              f"{res['gaps_per_event_kept']:.3f} per event kept")
    passes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            root = Path(tmp) / name
            cfg = write_configs(workload, root / "configs")
            sizes: list[int] = []
            with counted_gaps(sizes):
                for cmd in workload.commands:
                    run_command(workload, cmd, cfg, seed, root / cmd.name)
            passes[name] = {"gaps_drawn": sum(sizes), "sample_calls": len(sizes)}
            print(f"{name} pass: {sum(sizes)} gaps drawn in {len(sizes)} draws")
    return {"rows_per_chunk": CHUNK, "chunks": budget // CHUNK, "models": models,
            "workload_passes": passes}


X_MAX = 512.0


def _cesaro_time():
    model = renewal_ts_from_es(gamma_intervals(2.0, 1.0))
    A = parse_eventuality("count(0,1]==0")
    cps = _time_checkpoints(model, X_MAX)
    window = row_need([A], after=X_MAX, at=(0, 1))

    def calls(ctx):
        rows = np.arange(ctx.batch.n)
        return [lambda: A.integrate(ctx, rows, 0.0, X_MAX, cuts=cps)]

    return model, window, calls


def _one_gap():
    model = renewal_ts_from_es(gamma_intervals(2.0, 1.0)).palm_companion()
    window = row_need(SUITE_BATTERY, at=(-1, 1))

    def calls(ctx):
        i = ctx.pos0()
        y_lo, y_hi = ctx.point(i), ctx.point(i + 1)
        rows = np.flatnonzero((i >= ctx.off_lo) & (i + 1 < ctx.off_hi))
        return [lambda A=A: A.integrate(ctx, rows, y_lo[rows], y_hi[rows])
                for A in SUITE_BATTERY]

    return model, window, calls


INTEGRATE_WINDOWS = {"cesaro-time": _cesaro_time, "one-gap": _one_gap}


def _integrate_window(name: str, chunks: int, seed: int, repeats: int) -> dict:
    model, window, calls = INTEGRATE_WINDOWS[name]()
    per_chunk, parts, events, keys = [], [], 0, []
    for ci in range(chunks):
        batch = model.sample_batch(chunk_rng(seed, name, ci), window, CHUNK)
        ctx = EventContext(batch)
        ctx.gsorted()
        todo = calls(ctx)
        events += batch.points.size
        with counted_searches(keys):
            for call in todo:
                call()
        best = float("inf")
        for _ in range(repeats):
            wall, outs = timed(lambda: [call() for call in todo])
            best = min(best, wall)
        parts += [arr.tobytes() for values, ok in outs for arr in (values, ok)]
        per_chunk.append(1e3 * best)
    return {
        "window": repr(window),
        "events_per_chunk": events / chunks,
        "searched_keys_per_chunk": sum(keys) / chunks,
        "ms_per_chunk": statistics.median(per_chunk),
        "ms_per_chunk_all": per_chunk,
        "output_sha256": sha256(parts),
    }


def integrate(budget: int, seed: int, repeats: int) -> dict:
    """Per-chunk timing of the exact segment integration layer.

    Times `Eventuality.integrate` on budget / CHUNK fixed-seed chunks drawn
    to two needs, Gamma(2,1) renewal gaps in both:

    - `cesaro-time`: the need of `ams kind=time`, `count(0,1]==0`
      integrated over (0, X_MAX] with the trace's checkpoints as cuts (one
      call per chunk);
    - `one-gap`: the I-2.6 need of the Palm companion, each member of the
      suite battery integrated over the straddling gap (T_0, T_1] (one
      call per member per chunk).

    Sampling and the context's globally sorted points are built before the
    clock starts.  Each chunk is timed `repeats` times, keeping its fastest
    run; records the median over chunks and a SHA-256 of every output, and
    the keys passed to `np.searchsorted` per chunk, counted in one more
    untimed run.
    """
    windows = {}
    for name in INTEGRATE_WINDOWS:
        res = windows[name] = _integrate_window(name, budget // CHUNK, seed, repeats)
        print(f"{name}: {res['ms_per_chunk']:.1f} ms/chunk "
              f"({res['events_per_chunk']:.0f} events, {res['searched_keys_per_chunk']:.0f} "
              f"searched keys), sha256 {res['output_sha256'][:16]}")
    return {"rows_per_chunk": CHUNK, "chunks": budget // CHUNK, "x_max": X_MAX,
            "windows": windows}


CLI_WORKLOAD = WORKLOADS["cli-estimates"]


def cli_commands(budget: int, seed: int, repeats: int) -> dict:
    """End-to-end timing of the commands of perfbench's `cli-estimates`
    workload, run in-process at its budget and thread count.

    After one untimed warm-up pass, times each command `repeats` times,
    each into a fresh directory; records per command the median wall time,
    the `run_kernel` calls and the rows they sampled, and a SHA-256 of each
    output file.  Every repeat must write the same bytes.
    """
    commands = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = write_configs(CLI_WORKLOAD, root / "configs")
        for cmd in CLI_WORKLOAD.commands:
            run_command(CLI_WORKLOAD, cmd, cfg, seed, root / "warmup" / cmd.name)
        for cmd in CLI_WORKLOAD.commands:
            walls, seen = [], None
            for i in range(repeats):
                out = root / cmd.name / str(i)
                budgets: list[int] = []
                with counted_run_kernel(budgets):
                    walls.append(timed(lambda: run_command(CLI_WORKLOAD, cmd, cfg, seed, out))[0])
                files = {p.name: sha256([p.read_bytes()]) for p in sorted(out.iterdir())}
                if seen is not None and files != seen:
                    raise SystemExit(f"error: {cmd.name} wrote different bytes on repeat {i}")
                seen = files
            commands[cmd.name] = {
                "wall_s": statistics.median(walls),
                "wall_s_all": walls,
                "run_kernel_calls": len(budgets),
                "rows_sampled": sum(budgets),
                "output_sha256": seen,
            }
            print(f"{cmd.name}: {statistics.median(walls):.3f} s, {len(budgets)} "
                  f"run_kernel calls, {sum(budgets)} rows")
    return {"threads": CLI_WORKLOAD.threads, "commands": commands}


def report_digest(reports) -> str:
    """SHA-256 over every report's id, model, eventuality, probe, both
    sides' value and s.e., z and verdict."""
    return sha256("\t".join([r.id, r.model, r.eventuality, r.probe,
                             *(repr(float(x)) for x in (r.lhs.value, r.lhs.std_error,
                                                        r.rhs.value, r.rhs.std_error, r.z)),
                             r.verdict]).encode() + b"\n"
                  for r in reports)


def _suite_at(threads: int, budget: int, seed: int, repeats: int) -> dict:
    walls, runs, seen = [], [], None
    for i in range(repeats):
        budgets: list[int] = []
        sizes: list[int] = []
        checks: dict[str, list] = {}
        with counted_run_kernel(budgets), counted_gaps(sizes), \
                counted_checks(checks, budgets, sizes):
            wall, reports = timed(lambda: identities.run_suite(budget=budget, seed=seed,
                                                               threads=threads))
        walls.append(wall)
        runs.append(checks)
        counts = (report_digest(reports), len(budgets), sum(sizes),
                  {k: v[1:] for k, v in checks.items()})
        if seen is not None and counts != seen:
            raise SystemExit(f"error: suite at {threads} threads gave other reports or "
                             f"counts on repeat {i}")
        seen = counts
    return {
        "wall_s": statistics.median(walls),
        "wall_s_all": walls,
        "checks": len(reports),
        "passed": sum(r.verdict == "pass" for r in reports),
        "run_kernel_calls": len(budgets),
        "gaps_drawn": sum(sizes),
        "report_sha256": seen[0],
        "identities": {k: {"wall_s": statistics.median(run[k][0] for run in runs),
                           "wall_s_all": [run[k][0] for run in runs],
                           "run_kernel_calls": calls, "gaps_drawn": gaps}
                       for k, (calls, gaps) in seen[3].items()},
    }


def suite(budget: int, seed: int, repeats: int) -> dict:
    """End-to-end timing of `run_suite` on the default models and battery.

    Runs `identities.run_suite(budget, seed)` `repeats` times at 1 and at 2
    threads.  Records per thread count the median wall time, the checks
    that pass out of all, the `run_kernel` calls, the gaps drawn and a
    SHA-256 of the reports, and per identity (summed over its
    `check_identity` calls in the same runs) the median wall time, the
    `run_kernel` calls and the gaps drawn.  Reports are byte-identical
    across thread counts, so it exits non-zero if the digests differ.
    """
    by_threads = {}
    for threads in (1, 2):
        res = by_threads[str(threads)] = _suite_at(threads, budget, seed, repeats)
        print(f"{threads} thread(s): {res['wall_s']:.2f} s, {res['passed']} of {res['checks']} "
              f"pass, {res['run_kernel_calls']} run_kernel calls, {res['gaps_drawn']} gaps, "
              f"reports sha256 {res['report_sha256'][:16]}")
    if by_threads["1"]["report_sha256"] != by_threads["2"]["report_sha256"]:
        raise SystemExit("error: suite reports differ between 1 and 2 threads")
    return {"threads": by_threads}


# name -> (layer function, the budget, seed and repeats the frame records and passes)
LAYERS = {
    "sampler": (sampler, {"budget": 8 * CHUNK, "seed": 2019, "repeats": 5}),
    "integrate": (integrate, {"budget": 4 * CHUNK, "seed": 2013, "repeats": 5}),
    "cli": (cli_commands, {"budget": CLI_WORKLOAD.reps, "seed": 21, "repeats": 5}),
    "suite": (suite, {"budget": 100_000, "seed": 2026, "repeats": 3}),
}


def record(path: str, label: str, run: dict) -> None:
    """Store run under label in the JSON file at path, replacing a run of
    the same label and keeping the others, so one file holds a before/after
    pair measured on the same machine."""
    data = {"runs": {}}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["runs"][label] = run
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("layer", choices=LAYERS)
    parser.add_argument("--label", required=True,
                        help="name of this run in the file, e.g. the commit measured")
    parser.add_argument("--out", help="output file (default BENCH_<layer>.json)")
    args = parser.parse_args(argv)
    fn, params = LAYERS[args.layer]
    probe = SpeedProbe()
    before = statistics.median(probe() for _ in range(PROBES))
    res = fn(**params)
    after = statistics.median(probe() for _ in range(PROBES))
    run = {"cores": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "speed_probe_s": {"before": before, "after": after},
           **params, **res}
    out = args.out or f"BENCH_{args.layer}.json"
    record(out, args.label, run)
    print(f"{args.label}: {args.layer} run written to {out}")


if __name__ == "__main__":
    main()
