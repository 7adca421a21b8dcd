"""Workload definitions and output checks for the palmlab benchmark.

A workload is a fixed list of palmlab CLI commands, each with an optional
INI config, run in sequence by one client (a closed loop).  The benchmark
seed is passed to every command as ``--seed``; nothing else varies between
runs.  Every output a command writes is checked: closed forms where the
paper gives one, the identity verdict for ``suite`` rows.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

E1 = math.exp(-1.0)

# An operation fails when |value - expected| exceeds this many standard
# errors plus ATOL (the suite's own gate).
Z_CRIT = 4.0
ATOL = 0.002

# Identities whose runners loop over rows in Python (batch.pattern(i) ->
# segments); every other identity is vectorized.
EXACT_INTEGRAL_IDS = ("I-2.6", "I-2.8c", "I-4.4")
ALL_IDS = (
    "I-2.3", "I-2.4", "I-2.6", "I-2.7a", "I-2.7b", "I-2.8c", "I-2.10c", "I-3.7",
    "I-3.13", "I-4.4", "I-4.5", "I-5.2a", "I-7.1b", "I-8.1a", "I-8.4rho",
)
SAMPLED_IDS = tuple(i for i in ALL_IDS if i not in EXACT_INTEGRAL_IDS)

GAMMA21 = "model = renewal_ts\ninterval = gamma\nshape = 2\nrate = 1\n"
POISSON = "model = poisson_ts\nrate = 1\n"

# Palm probabilities on renewal_ts with Gamma(2,1) gaps: under the Palm law
# alpha(0) = T1 is one Gamma(2,1) gap, P(gap > t) = (1 + t) e^-t.
_SURV_HALF = 1.5 * math.exp(-0.5)
PALM_ZERO_EXPECTED = (
    ("alpha(0)>1", 2.0 * E1),
    ("count(0,1]==0", 2.0 * E1),
    ("T1<=0.5", 1.0 - _SURV_HALF),
    ("!alpha(0)>1 & !T1<=0.5", _SURV_HALF - 2.0 * E1),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv head, optional INI section text, and the
    closed form its outputs are checked against."""

    name: str
    argv: tuple[str, ...]
    config: str | None = None
    expect: float | None = None  # closed form every row and verdict must match


@dataclass(frozen=True)
class Workload:
    name: str
    reps: int
    threads: int
    commands: tuple[Command, ...]


def _suite(ids) -> tuple[Command, ...]:
    return tuple(Command(f"suite-{i}", ("suite", "--only", i)) for i in ids)


def _suite_per_model(ids) -> tuple[Command, ...]:
    """One command per (identity, default model) pair: the same rows as
    ``suite --only <id>`` on the default models, in shorter commands, so the
    host speed probe between commands (speed.py) samples the long per-row
    loops more often.  These identities apply to the two time-stationary
    default models."""
    models = (("poisson", POISSON), ("gamma21", GAMMA21))
    return tuple(Command(f"suite-{i}-{label}", ("suite", "--only", i),
                         "[suite:model:1]\n" + section)
                 for i in ids for label, section in models)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite-sampled",
            reps=4096,
            threads=1,
            commands=_suite(SAMPLED_IDS),
        ),
        Workload(
            "exact-integral",
            reps=4096,
            threads=1,
            commands=_suite_per_model(EXACT_INTEGRAL_IDS) + (
                Command(
                    "ams-time",
                    ("ams",),
                    "[ams]\n" + GAMMA21 + "kind = time\neventualities = count(0,1]==0\n",
                    expect=1.5 * E1,
                ),
            ),
        ),
        Workload(
            "cli-estimates",
            reps=16384,
            threads=2,
            commands=(
                Command(
                    "palm-zero",
                    ("palm",),
                    "[palm]\n" + GAMMA21 + "mode = zero\neventualities = "
                    + "; ".join(text for text, _ in PALM_ZERO_EXPECTED) + "\n",
                ),
                Command(
                    "palm-shifted",
                    ("palm",),
                    "[palm]\n" + POISSON + "mode = shifted\neventualities = alpha(0)>1\n"
                    "bin_lo = -2\nbin_hi = 2\nbin_width = 0.5\n",
                    expect=E1,
                ),
                Command(
                    "ams-event",
                    ("ams",),
                    "[ams]\n" + POISSON + "kind = event\neventualities = alpha(0)>1\n",
                    expect=E1,
                ),
                Command("example84", ("example84",)),
            ),
        ),
    )
}


# -- output checks -------------------------------------------------------------


@dataclass
class CheckResult:
    """Operations attempted and failed, plus every reported standard error."""

    attempted: int = 0
    failed: int = 0
    std_errors: list[float] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)

    def op(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(label)

    def closed_form(self, label: str, value: float, se: float, expected: float) -> None:
        self.op(label, abs(value - expected) <= Z_CRIT * se + ATOL)

    def se(self, *values: float) -> None:
        self.std_errors.extend(v for v in values if math.isfinite(v) and v > 0.0)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf8") as fh:
        return list(csv.DictReader(fh))


def _check_suite(out: Path, cmd: Command, res: CheckResult) -> None:
    rows = _rows(out / "suite.csv")
    if not rows:
        res.op(f"{cmd.name}: no checks", False)
    for row in rows:
        res.se(float(row["lhs_se"]), float(row["rhs_se"]))
        res.op(f"{cmd.name}: {row['model']} {row['eventuality']}", row["verdict"] == "pass")


def _check_palm(out: Path, cmd: Command, res: CheckResult) -> None:
    rows = _rows(out / "palm.csv")
    if cmd.expect is None:
        expected = [value for _, value in PALM_ZERO_EXPECTED]
        if len(rows) != len(expected):
            res.op(f"{cmd.name}: {len(rows)} rows", False)
            return
    else:
        expected = [cmd.expect] * len(rows)
    for row, exp in zip(rows, expected):
        value, se = float(row["value"]), float(row["std_error"])
        res.se(se)
        where = f" bin ({row['bin_lo']},{row['bin_hi']}]" if "bin_lo" in row else ""
        res.closed_form(f"{cmd.name}: {row['label']}{where}", value, se, exp)


def _check_ams(out: Path, cmd: Command, res: CheckResult) -> None:
    for row in _rows(out / "ams_trace.csv"):
        value, se = float(row["value"]), float(row["std_error"])
        res.se(se)
        res.closed_form(f"{cmd.name}: checkpoint {row['checkpoint']}", value, se, cmd.expect)
    with open(out / "ams_verdict.json", encoding="utf8") as fh:
        verdict = json.load(fh)
    ok = verdict["status"] == "Convergent" and (
        abs(verdict["limit"] - cmd.expect) <= Z_CRIT * verdict["limit_se"] + ATOL
    )
    res.op(f"{cmd.name}: verdict {verdict['status']}", ok)


def _check_example84(out: Path, cmd: Command, res: CheckResult) -> None:
    for row in _rows(out / "example84.csv"):
        value, se = float(row["value"]), float(row["std_error"])
        res.se(se)
        res.closed_form(f"{cmd.name}: {row['label']}", value, se, float(row["expected"]))


CHECKERS = {
    "suite": _check_suite,
    "palm": _check_palm,
    "ams": _check_ams,
    "example84": _check_example84,
}


def check_outputs(cmd: Command, out: Path, rc: int, res: CheckResult) -> None:
    """Add the command's operations to `res`.  A nonzero exit fails every
    operation of the command (at least one)."""
    before = res.attempted
    failed_before = res.failed
    try:
        CHECKERS[cmd.argv[0]](out, cmd, res)
    except (OSError, KeyError, ValueError) as exc:
        res.op(f"{cmd.name}: unreadable output ({exc})", False)
    if rc != 0:
        ops = max(res.attempted - before, 1)
        res.attempted = before + ops
        res.failed = failed_before + ops
        res.misses.append(f"{cmd.name}: exit code {rc}")


def write_configs(workload: Workload, cfg_dir: Path) -> dict[str, Path]:
    """Write each command's INI file; returns command name -> path."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for cmd in workload.commands:
        if cmd.config is not None:
            path = cfg_dir / f"{cmd.name}.ini"
            path.write_text(cmd.config, encoding="utf8")
            paths[cmd.name] = path
    return paths


def argv_for(cmd: Command, cfg: dict[str, Path], *, seed: int, reps: int, threads: int,
             out: Path) -> list[str]:
    argv = list(cmd.argv)
    if cmd.name in cfg:
        argv += ["--config", str(cfg[cmd.name])]
    return argv + ["--seed", str(seed), "--reps", str(reps), "--threads", str(threads),
                   "--out", str(out)]
