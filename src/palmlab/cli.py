"""Experiment runner.

Configuration is a flat key-value file with one section per subcommand
(INI syntax).  Example:

    [palm]
    model = poisson_ts
    rate = 1.0
    eventualities = alpha(0)>1; count(0,1]==0
    x = 10.0
    reps = 100000
    seed = 7

Model fields use the stable names from the model descriptors
(model/rate/interval/shape/value/lo/hi/pattern_len/tilt...).  Eventuality
lists are semicolon-separated expressions in the textual grammar.  The
suite subcommand takes extra sections named [suite:model:<n>], one model
each; without them it runs the default catalog.

All randomness flows from one root seed through per-chunk seeded streams;
``--seed`` beats the PALMLAB_SEED environment variable, which beats the
config file.  Outputs are CSV (RFC-4180 quoting, header row always) and
one JSON verdict object per AMS run.  Exit codes: 0 success, 1 suite
failure, 2 configuration error; a config file that cannot be read or
parsed (a duplicated key, no section header, a bare %) is one.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import ams as ams_mod
from . import estimate as est_mod
from . import identities as id_mod
from .errors import ConfigError, PalmLabError, TooFewCheckpoints
from .events import ev_true, parse_eventuality
from .models import (
    Need,
    example44_block_ends,
    example44_cesaro_exact,
    example44_run_lengths,
    model_from_config,
)
from .pattern import write_patterns

DEFAULT_SEED = 2026
DEFAULT_REPS = 100_000


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_config(path: str) -> dict[str, dict[str, str]]:
    """Every section of the config file, as its fields with quotes stripped.
    A file that cannot be read or parsed is a ConfigError."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return {s: {k: v.strip().strip('"') for k, v in parser.items(s)}
                for s in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None


class Run:
    """One subcommand invocation: merged config section + CLI flags."""

    def __init__(self, section: str, args):
        self.section = section
        self.sections = _read_config(args.config) if args.config else {}
        self.cfg: dict[str, str] = dict(self.sections.get(section, {}))
        self.args = args

    def get(self, key: str, default=None):
        return self.cfg.get(key, default)

    def get_as(self, key: str, kind, default=None):
        """The config field read as kind, int or float; default when the
        field is absent, which a field without a default may not be."""
        raw = self.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required field {key!r} in section [{self.section}]")
            return default
        try:
            return kind(raw)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"field {key!r} must be {what}, got {raw!r}") from None

    def get_positive(self, key: str, default=None) -> float:
        """A number from the config field, which must be positive and finite."""
        value = self.get_as(key, float, default)
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{key!r} must be positive and finite, got {value}")
        return value

    @property
    def seed(self) -> int:
        if self.args.seed is not None:
            return self.args.seed
        env = os.environ.get("PALMLAB_SEED")
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise ConfigError(f"PALMLAB_SEED must be an integer, got {env!r}") from None
        return self.get_as("seed", int, DEFAULT_SEED)

    def _at_least_one(self, key: str, default: int) -> int:
        """An integer from the --key flag or the config field, which must be >= 1."""
        flag = getattr(self.args, key)
        value = flag if flag is not None else self.get_as(key, int, default)
        if value < 1:
            raise ConfigError(f"{key!r} must be at least 1, got {value}")
        return value

    @property
    def reps(self) -> int:
        return self._at_least_one("reps", DEFAULT_REPS)

    @property
    def threads(self) -> int:
        return self._at_least_one("threads", 1)

    @property
    def out_dir(self) -> Path:
        out = Path(self.args.out) if self.args.out else Path(self.get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
        return out

    def model(self):
        if "model" not in self.cfg:
            raise ConfigError(f"missing required field 'model' in section [{self.section}]")
        try:
            return model_from_config(self.cfg)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"invalid model configuration: {exc}") from None

    def eventualities(self):
        raw = self.get("eventualities")
        if raw is None:
            raise ConfigError(
                f"missing required field 'eventualities' in section [{self.section}]"
            )
        texts = [t.strip() for t in raw.split(";") if t.strip()]
        if not texts:
            raise ConfigError("field 'eventualities' lists no expressions")
        return [_parsed(t) for t in texts]


def _parsed(text: str):
    """An eventuality from a config field; a malformed one is a ConfigError."""
    try:
        return parse_eventuality(text)
    except ValueError as exc:
        raise ConfigError(f"bad eventuality expression: {exc}") from None


def _estimate_rows(label, est):
    return [label, est.value, est.std_error, est.reps, est.rejected, est.ess]


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(run: Run) -> int:
    from .models import example44_natural_window, sample_window

    model = run.model()
    if model.is_deterministic:
        nat_lo, nat_hi = example44_natural_window(model.descriptor["pattern_len"])
    else:
        nat_lo, nat_hi = -20.0 * model.scale, 20.0 * model.scale
    lo = run.get_as("window_lo", float, nat_lo)
    hi = run.get_as("window_hi", float, nat_hi)
    reps = run._at_least_one("reps", 10)
    from .rng import chunk_rng

    patterns = []
    for i in range(reps):
        gen = chunk_rng(run.seed, "simulate", i)
        patterns.append(sample_window(model, gen, (lo, hi), 1).pattern(0))
    out = run.out_dir / "patterns.txt"
    write_patterns(out, patterns)
    print(f"wrote {reps} patterns to {out}")
    return 0


def cmd_palm(run: Run) -> int:
    model = run.model()
    evs = run.eventualities()
    mode = run.get("mode", "zero")
    out = run.out_dir / "palm.csv"
    if mode == "zero":
        if not model.is_ts:
            raise ConfigError(f"mode 'zero' needs a time-stationary model, got {model.label}")
        x = run.get_positive("x", 10.0 * model.scale)
        ests = est_mod.est_palm_zero(model, evs, x, run.reps, seed=run.seed,
                                     stream="palm:zero", threads=run.threads)
        rows = [_estimate_rows(ev.label, est) for ev, est in zip(evs, ests)]
        _write_csv(out, ["label", "value", "std_error", "reps", "rejected", "ess"], rows)
    elif mode == "shifted":
        lo = run.get_as("bin_lo", float)
        hi = run.get_as("bin_hi", float)
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(f"need finite 'bin_lo' < 'bin_hi', got {lo} and {hi}")
        width = run.get_positive("bin_width", 0.25 * model.scale)
        edges = np.arange(lo, hi + width / 2, width)
        if edges.size < 2 or not math.isclose(edges[-1], hi, rel_tol=1e-9, abs_tol=1e-9 * width):
            raise ConfigError(f"'bin_width' {width} does not tile ({lo}, {hi}] into bins")
        profiles = est_mod.est_shifted_palm(model, evs, edges, run.reps, seed=run.seed,
                                            stream="palm:shifted", threads=run.threads)
        rows = [
            [b.bin_lo, b.bin_hi] + _estimate_rows(ev.label, b.estimate)
            for ev, bins in zip(evs, profiles)
            for b in bins
        ]
        _write_csv(
            out,
            ["bin_lo", "bin_hi", "label", "value", "std_error", "reps", "rejected", "ess"],
            rows,
        )
    else:
        raise ConfigError(f"field 'mode' must be 'zero' or 'shifted', got {mode!r}")
    print(f"wrote {out}")
    return 0


def _verdict_json(verdict) -> dict:
    obj = {
        "status": verdict.status,
        "oscillation": verdict.oscillation,
        "threshold": verdict.threshold,
        "tail_fraction": verdict.tail_fraction,
    }
    if verdict.limit is not None:
        obj["limit"] = verdict.limit
        obj["limit_se"] = verdict.limit_se
    return obj


def _ams_trace(run: Run, model, ev):
    """Check the AMS fields and run the trace: (trace, tail_fraction, tol)."""
    kind = run.get("kind", "event")
    tol = run.get_as("tol", float, 0.05)
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"'tol' must be finite and at least 0, got {tol}")
    tail = run.get_as("tail_fraction", float, 0.5)
    if not 0.0 < tail <= 1.0:
        raise ConfigError(f"'tail_fraction' must be in (0, 1], got {tail}")
    if kind == "event":
        n_max = run.get_as("n_max", int, 256)
        if n_max < 1:
            raise ConfigError(f"'n_max' must be at least 1, got {n_max}")
        trace = ams_mod.cesaro_event(model, ev, n_max, run.reps, seed=run.seed,
                                     threads=run.threads)
    elif kind == "time":
        x_max = run.get_positive("x_max", 256.0 * model.scale)
        trace = ams_mod.cesaro_time(model, ev, x_max, run.reps, seed=run.seed,
                                    threads=run.threads)
    else:
        raise ConfigError(f"field 'kind' must be 'event' or 'time', got {kind!r}")
    return trace, tail, tol


def _write_ams(run: Run, trace, tail: float, tol: float, prefix: str) -> int:
    trace_path = run.out_dir / f"{prefix}_trace.csv"
    _write_csv(
        trace_path,
        ["checkpoint", "value", "std_error"],
        zip(trace.checkpoints, trace.values, trace.std_errors),
    )
    try:
        verdict = ams_mod.ams_verdict(trace, tail_fraction=tail, tol=tol)
        obj = _verdict_json(verdict)
    except TooFewCheckpoints:
        obj = {
            "status": "Inconclusive",
            "oscillation": None,
            "threshold": None,
            "tail_fraction": tail,
        }
    verdict_path = run.out_dir / f"{prefix}_verdict.json"
    _write_json(verdict_path, obj)
    print(f"wrote {trace_path} and {verdict_path}; status: {obj['status']}")
    return 0


def cmd_ams(run: Run) -> int:
    model = run.model()
    evs = run.eventualities()
    if len(evs) != 1:
        raise ConfigError("ams runs take exactly one eventuality")
    return _write_ams(run, *_ams_trace(run, model, evs[0]), "ams")


def _suite_models(run: Run):
    sections = sorted(s for s in run.sections if s.startswith("suite:model:"))
    if not sections:
        return list(id_mod.DEFAULT_SUITE_MODELS)
    out = []
    for s in sections:
        try:
            out.append(model_from_config(run.sections[s]))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"invalid model in section [{s}]: {exc}") from None
    return out


def cmd_suite(run: Run) -> int:
    models = _suite_models(run)
    battery_raw = run.get("eventualities")
    battery = None
    if battery_raw is not None:
        battery = run.eventualities()
    only = run.args.only or run.get("only")
    if only is not None and only not in id_mod.REGISTRY_BY_ID:
        raise ConfigError(
            f"unknown identity id {only!r} in 'only'; known ids: "
            f"{', '.join(id_mod.REGISTRY_BY_ID)}"
        )
    reports = id_mod.run_suite(
        models,
        run.reps,
        seed=run.seed,
        battery=battery if battery is not None else id_mod.SUITE_BATTERY,
        only=only,
        threads=run.threads,
    )
    out = run.out_dir / "suite.csv"
    _write_csv(
        out,
        ["id", "model", "eventuality", "lhs", "lhs_se", "rhs", "rhs_se", "z", "verdict"],
        [
            [r.id, r.model, r.eventuality, r.lhs.value, r.lhs.std_error,
             r.rhs.value, r.rhs.std_error, r.z, r.verdict]
            for r in reports
        ],
    )
    failures = sum(1 for r in reports if r.verdict == "fail")
    print(f"wrote {out}: {len(reports)} checks, {failures} failures")
    return 1 if failures else 0


def cmd_example44(run: Run) -> int:
    n_max = run.get_as("n_max", int, 256)
    pattern_len = run.get_as("pattern_len", int, max(3 * n_max + 80, 900))
    cfg = dict(run.cfg)
    cfg.update({"model": "example44", "pattern_len": str(pattern_len)})
    run.cfg = cfg
    run.cfg.setdefault("kind", "event")
    ev = _parsed(run.get("eventuality", "alpha(0)==1"))
    # the trace checks every field before the exact table is written
    trace, tail, tol = _ams_trace(run, run.model(), ev)
    a = example44_run_lengths(7)
    b = example44_block_ends(7)
    rows = []
    for k in range(1, 8):
        m = example44_cesaro_exact(b[k - 1])
        rows.append([k, a[k - 1], b[k - 1], f"{m.numerator}/{m.denominator}"])
    exact_path = run.out_dir / "example44_exact.csv"
    _write_csv(exact_path, ["k", "run_length", "block_end", "cesaro_at_block_end"], rows)
    print(f"wrote {exact_path}")
    return _write_ams(run, trace, tail, tol, "example44")


def cmd_example84(run: Run) -> int:
    from .models import example84_exact

    rate = run.get_positive("rate", 1.0)
    model = example84_exact(rate)
    rows = []
    xs = (0.5, 1.0, 2.0)
    evs = [parse_eventuality(f"alpha(0)>{x}") for x in xs]
    ests = est_mod.est_event_probability(model, evs, run.reps, seed=run.seed,
                                         stream="e84:surv", threads=run.threads)
    for x, ev, est in zip(xs, evs, ests):
        expected = float(np.exp(-rate * x) * ((rate * x) ** 2 / 2 + rate * x + 1))
        rows.append(["survival", ev.label, est.value, est.std_error, expected])
    ys = (0.0, -2.0 / rate, 2.0 / rate)
    bins, at = est_mod.point_bins(ys, 0.025 / rate)
    (profile,) = est_mod.est_intensity(model, [ev_true()], bins, run.reps, seed=run.seed,
                                       stream="e84:rate", threads=run.threads)
    for y, b in zip(ys, at):
        rate_y = profile[b].estimate
        expected = float(rate - rate * np.exp(-rate * abs(y)) / 2.0)
        rows.append(["intensity", f"x={y:g}", rate_y.value, rate_y.std_error, expected])

    def ratio_kernel(batch, ctx):
        # T1/alpha0 and its square, on the same draws
        t0, t1, ok = ctx.gap(ctx.pos0())
        ratio = np.where(ok, t1 / (t1 - t0), 0.0)
        return [(ratio, ~ok), (ratio * ratio, ~ok)]

    # the straddling gap is the anchors' own
    m1, m2 = est_mod.mc_mean(model, Need(), ratio_kernel, run.reps,
                             seed=run.seed, stream="e84:unif", threads=run.threads)
    rows.append(["arrival_ratio", "E(T1/alpha0)", m1.value, m1.std_error, 0.5])
    rows.append(["arrival_ratio", "E((T1/alpha0)^2)", m2.value, m2.std_error, 1.0 / 3.0])
    out = run.out_dir / "example84.csv"
    _write_csv(out, ["quantity", "label", "value", "std_error", "expected"], rows)
    print(f"wrote {out}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "palm": cmd_palm,
    "ams": cmd_ams,
    "suite": cmd_suite,
    "example44": cmd_example44,
    "example84": cmd_example84,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="palmlab",
        description="Monte Carlo toolkit for event-centered laws of point "
                    "processes on the line",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to the INI-style run configuration")
    parser.add_argument("--seed", type=int, help="root seed (beats PALMLAB_SEED)")
    parser.add_argument("--reps", type=int, help="replication budget")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--only", help="restrict the suite to one identity id")
    parser.add_argument("--threads", type=int, help="worker threads (default 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = Run(args.command, args)
        return COMMANDS[args.command](run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PalmLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
