"""End-to-end timing of the CLI commands of the `cli-estimates` workload.

Runs the four commands of perfbench's `cli-estimates` workload (`palm`
zero and shifted mode, `ams kind=event`, `example84`, with the configs of
perfbench/workloads.py) in-process through `palmlab.cli.main`, at the
workload's budget (16384 replications) and thread count (2).  After one
untimed warm-up pass, each command is timed REPEATS times, each time into
a fresh directory.  Per command the file reports the median wall time,
the `run_kernel` calls and the rows they sampled (the sum of their
budgets), and a SHA-256 of each output file; every repeat must write the
same bytes.

Usage:

    PYTHONPATH=src python tools/bench_cli.py --label <name> [--out BENCH_cli.json]

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
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from palmlab import ams, cli, estimate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, argv_for, write_configs  # noqa: E402

WORKLOAD = WORKLOADS["cli-estimates"]
SEED = 21
REPEATS = 5


@contextlib.contextmanager
def counted_run_kernel(calls: list[int]):
    """Record the budget of every run_kernel call made inside the block."""
    original = estimate.run_kernel

    def counting(model, window, budget, *args, **kwargs):
        calls.append(budget)
        return original(model, window, budget, *args, **kwargs)

    # ams imports run_kernel by name
    estimate.run_kernel = ams.run_kernel = counting
    try:
        yield
    finally:
        estimate.run_kernel = ams.run_kernel = original


def run_command(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def bench(root: Path) -> dict:
    cfg = write_configs(WORKLOAD, root / "configs")

    def argv(cmd, out):
        return argv_for(cmd, cfg, seed=SEED, reps=WORKLOAD.reps,
                        threads=WORKLOAD.threads, out=out)

    for cmd in WORKLOAD.commands:
        run_command(argv(cmd, root / "warmup" / cmd.name))
    results = {}
    for cmd in WORKLOAD.commands:
        walls, seen = [], None
        for i in range(REPEATS):
            out = root / cmd.name / str(i)
            calls: list[int] = []
            with counted_run_kernel(calls):
                t0 = time.perf_counter()
                run_command(argv(cmd, out))
                walls.append(time.perf_counter() - t0)
            files = digests(out)
            if seen is not None and files != seen:
                raise SystemExit(f"error: {cmd.name} wrote different bytes on repeat {i}")
            seen = files
            shutil.rmtree(out)
        results[cmd.name] = {
            "wall_s": statistics.median(walls),
            "wall_s_all": walls,
            "run_kernel_calls": len(calls),
            "rows_sampled": sum(calls),
            "output_sha256": seen,
        }
    return results


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of this run in the file, e.g. the commit measured")
    parser.add_argument("--out", default="BENCH_cli.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        commands = bench(Path(tmp))
    run = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "budget": WORKLOAD.reps,
        "threads": WORKLOAD.threads,
        "seed": SEED,
        "repeats": REPEATS,
        "commands": commands,
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
    for name, res in commands.items():
        print(f"{args.label} {name}: {res['wall_s']:.3f} s, {res['run_kernel_calls']} "
              f"run_kernel calls, {res['rows_sampled']} rows")


if __name__ == "__main__":
    main()
