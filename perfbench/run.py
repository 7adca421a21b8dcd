"""palmlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload suite-sampled --seed 1 --seconds 20 --trace 0

The workload's commands are driven in-process through ``palmlab.cli.main``
by one client in a closed loop.  A warm-up pass is followed by timed passes
for ``--seconds`` (at least three).  Every pass is checked against closed
forms and must write byte-identical files.

``--trace 0`` reports the end-to-end metrics: median pass wall time and
median set-up time in a fresh interpreter (both adjusted for host speed
drift, see speed.py), peak RSS and the geometric mean of the reported
standard errors.  ``--trace 1`` follows the untraced passes with
one traced pass and reports the per-layer metrics from it; workloads that
run with several threads repeat the traced pass at ``--threads 1``, whose
files must match.  The last stdout line is one JSON object; details,
digests and spans go to ``perfbench/out/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REF_PROBE_S, SpeedProbe
from workloads import WORKLOADS, CheckResult, argv_for, check_outputs, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
MIN_COVERAGE = 0.95


def load_palmlab() -> None:
    """Import palmlab from this checkout's sources, never from elsewhere."""
    if not (SRC / "palmlab" / "__init__.py").is_file():
        raise SystemExit(f"error: palmlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import palmlab

    if Path(palmlab.__file__).resolve().parent != SRC / "palmlab":
        raise SystemExit(f"error: imported palmlab from {palmlab.__file__}, not {SRC}")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure_setup(workload_name: str) -> tuple[float, float]:
    """Import + config/model build time in a fresh interpreter, raw and
    adjusted by the host speed probe run in that interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload_name],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
    elapsed, probe = (float(v) for v in proc.stdout.split()[-2:])
    return elapsed, elapsed * REF_PROBE_S / probe


def digest_tree(root: Path) -> tuple[str, dict[str, str], int]:
    """(combined digest, relative path -> SHA-256, total bytes) of every file."""
    files = {}
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        files[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    combined = hashlib.sha256(
        "".join(f"{k} {v}\n" for k, v in files.items()).encode()).hexdigest()
    return combined, files, size


class Pass:
    """One run of every command of the workload."""

    def __init__(self, walls: list[float], probes: list[float], errors: list[str],
                 out: Path):
        self.walls = walls
        self.wall = sum(walls)
        self.probes = probes
        self.speed = REF_PROBE_S / statistics.fmean(probes)
        self.adjusted = self.wall * self.speed
        self.errors = errors
        self.digest, self.files, self.bytes = digest_tree(out)


def run_pass(cli, workload, cfg, out: Path, res: CheckResult, probe: SpeedProbe, *,
             seed: int, reps: int, threads: int, tracer=None) -> Pass:
    """Run every command into a clean `out`, a speed probe before each and
    after the last, then add the commands' checks to `res`."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    walls, probes, rcs, errors = [], [], [], []
    sink = io.StringIO()
    for i, cmd in enumerate(workload.commands):
        probes.append(probe())
        argv = argv_for(cmd, cfg, seed=seed, reps=reps, threads=threads,
                        out=out / f"{i:02d}-{cmd.name}")
        err = io.StringIO()
        span = tracer.command(cmd.argv[0]) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err), span:
            try:
                rc = cli.main(argv)
            except Exception:  # a crashing command is a failed operation, not a crash
                traceback.print_exc()
                rc = -1
        walls.append(time.perf_counter() - t0)
        rcs.append(rc)
        if err.getvalue():
            errors.append(f"{cmd.name}: {err.getvalue().strip()}")
    probes.append(probe())
    for i, (cmd, rc) in enumerate(zip(workload.commands, rcs)):
        check_outputs(cmd, out / f"{i:02d}-{cmd.name}", rc, res)
    return Pass(walls, probes, errors, out)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's replication budget (smoke tests)")
    args = parser.parse_args(argv)

    load_palmlab()
    import numpy as np
    from palmlab import cli

    workload = WORKLOADS[args.workload]
    reps = max(1, round(workload.reps * args.scale))
    threads = min(workload.threads, usable_cpus())
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "reps": reps,
        "threads": threads,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "commands": [list(c.argv) for c in workload.commands],
    }

    cfg = write_configs(workload, run_dir / "config")
    out = run_dir / "pass"
    res = CheckResult()
    problems: list[str] = []
    setup: list[tuple[float, float]] = []  # (raw, adjusted), one per untraced pass
    run = dict(cli=cli, workload=workload, cfg=cfg, out=out, res=res, probe=SpeedProbe(),
               seed=args.seed, reps=reps)

    def untraced_pass() -> Pass:
        if args.trace == 0:
            # one set-up probe per pass, spread over the run like the passes
            setup.append(measure_setup(workload.name))
        return run_pass(threads=threads, **run)

    passes = [untraced_pass()]  # warm-up, untimed
    se_values = list(res.std_errors)  # every pass writes the same files
    timed: list[Pass] = []
    start = time.perf_counter()
    # start a pass only while it is expected to end within --seconds
    while len(timed) < MIN_PASSES or (time.perf_counter() - start + statistics.median(
            p.wall + sum(p.probes) for p in timed) <= args.seconds):
        timed.append(untraced_pass())
    passes += timed
    wall = statistics.median(p.adjusted for p in timed)

    layer = {}
    if args.trace:
        from layers import layer_metrics
        from tracer import Tracer, instrument, write_spans

        traced = []
        for n_threads in sorted({threads, 1}, reverse=True):
            tracer = Tracer()
            with instrument(tracer):
                p = run_pass(threads=n_threads, tracer=tracer, **run)
            write_spans(tracer, run_dir / f"spans-threads{n_threads}.csv")
            traced.append((p, tracer))
        p, tracer = traced[0]
        passes += [t[0] for t in traced]
        values, gaps = layer_metrics(tracer.spans, p.wall)
        problems += gaps
        layer = {name: metric(v, unit) for name, (v, unit) in values.items()}
        layer["cli.bytes_written"] = metric(p.bytes, "count")
        layer["trace_overhead_share"] = metric((p.adjusted - wall) / wall, "ratio")
        if values["trace.coverage"][0] < MIN_COVERAGE:
            problems.append(f"top-level spans cover {values['trace.coverage'][0]:.3f} "
                            f"of the traced wall time")

    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        problems.append(f"passes wrote {len(digests)} different output sets")
    errors = sorted({e for p in passes for e in p.errors})

    end_to_end = {
        "wall_s": metric(wall, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
        "se_geomean": metric(statistics.geometric_mean(se_values) if se_values else 0.0, "1"),
    }
    if setup:
        end_to_end["setup_s"] = metric(statistics.median(a for _, a in setup), "s")
    correct = res.failed == 0 and not problems
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "failed_share": res.failed / res.attempted if res.attempted else 1.0,
        "misses": sorted(set(res.misses)),
        "problems": problems,
        "command_errors": errors,
        "end_to_end": end_to_end,
        "per_layer": layer,
        "wall_raw_s": statistics.median(p.wall for p in timed),
        "pass_walls": [p.wall for p in passes],
        "pass_speeds": [p.speed for p in passes],
        "speed_probes": [p.probes for p in passes],
        "command_walls": [p.walls for p in passes],
        "timed_passes": len(timed),
        "setup_raw_s": statistics.median(r for r, _ in setup) if setup else None,
        "setup_runs": setup,
        "digest": digests,
        "files": passes[0].files,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="utf8")

    print(f"# {json.dumps(meta)}")
    print(f"# {len(timed)} timed passes, raw s: " + " ".join(f"{p.wall:.3f}" for p in timed))
    print("# host speed factors: " + " ".join(f"{p.speed:.3f}" for p in timed))
    for line in record["misses"] + problems + errors:
        print(f"# {line}")
    print(f"# digest {digests[0]} ({len(passes)} passes)")
    print(f"# failed_share {record['failed_share']:.6g} ({res.failed}/{res.attempted})")
    chosen = layer if args.trace else end_to_end
    for name, m in chosen.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
