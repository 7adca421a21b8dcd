"""Cesaro-average diagnostics and stationary-limit conversions.

Event traces average the indicator of an eventuality seen from events
1..n, evaluating each block of rows through one events.Positions view of
its (rows, n_max) events and reading the checkpoints from integer counts
per segment between them; time traces average it seen from positions y
in (0, x], with the inner integral computed exactly by
Eventuality.integrate, which sums the piecewise-constant integrand
between its breaks (no discretization).  A
verdict rule on the trace tail classifies runs as Convergent,
NotConvergent, or Inconclusive; convergence can never be
proven from finite data, so the rule is an explicit heuristic with an
honest third outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientWindow, NoMean, TooFewCheckpoints
from .estimate import (
    Estimate,
    ratio_estimate,
    row_need,
    run_kernel,
    _marked,
    _members,
)
from .events import Eventuality, Positions
from .models import ProcessModel, example44_block_ends, example44_times
from .pattern import BLOCK_CELLS


@dataclass(frozen=True)
class CesaroTrace:
    """Running averages at geometric checkpoints, each with a Monte Carlo s.e."""

    checkpoints: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    kind: str  # "event" | "time"
    reps: int
    rejected: int


@dataclass(frozen=True)
class AmsVerdict:
    status: str  # "Convergent" | "NotConvergent" | "Inconclusive"
    oscillation: float
    threshold: float
    tail_fraction: float
    limit: float | None = None
    limit_se: float | None = None


def _geometric(first: float, last: float) -> list[float]:
    out = []
    c = first
    while c < last:
        out.append(c)
        c *= 2.0
    out.append(last)
    return out


def _event_checkpoints(model: ProcessModel, n_max: int) -> np.ndarray:
    cps = set(int(c) for c in _geometric(8.0, float(n_max)) if c <= n_max)
    cps.add(n_max)
    if model.is_deterministic:
        # the divergent subsequences live exactly at the block ends
        for b in example44_block_ends(32):
            if b <= n_max:
                cps.add(b)
    return np.array(sorted(c for c in cps if c >= 1), dtype=np.int64)


def _time_checkpoints(model: ProcessModel, x_max: float) -> np.ndarray:
    cps = set(_geometric(8.0 * model.scale, float(x_max)))
    if model.is_deterministic:
        n = model.descriptor["pattern_len"]
        times = example44_times(n)
        for b in example44_block_ends(32):
            if b <= n and times[b - 1] <= x_max:
                cps.add(float(times[b - 1]))
    return np.array(sorted(c for c in cps if c <= x_max), dtype=np.float64)


def _running_averages(model: ProcessModel, sums, ncp: int):
    """Values and standard errors of the checkpoint columns 0..ncp-1, each a
    self-normalized mean over the row weights (so a weighted trace fails
    loudly when its weights degenerate).  A deterministic law runs one
    replication, which is exact: its errors are 0, not the unknown spread
    of one batch, and its row is rejected only where the trace reads past
    the stored realization, which more replications cannot mend."""
    if model.is_deterministic and sums.rejected.any():
        n = model.descriptor["pattern_len"]
        raise InsufficientWindow(
            f"the trace reads past the stored realization of {model.label}, "
            f"whose last event is at {example44_times(n)[-1]:g}")
    ests = [ratio_estimate(sums, j) for j in range(ncp)]
    values = np.array([e.value for e in ests])
    if model.is_deterministic:
        return values, np.zeros(ncp)
    return values, np.array([e.std_error for e in ests])


def cesaro_event(
    model: ProcessModel,
    A: Eventuality,
    n_max: int,
    budget: int,
    *,
    seed: int = 0,
    stream="cesaro_event",
    threads: int = 1,
) -> CesaroTrace:
    """Running average of the indicator of A seen from events 1..n."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if model.is_deterministic:
        budget = 1
    cps = _event_checkpoints(model, n_max)
    ncp = cps.size
    ahead = np.arange(1, n_max + 1)
    segments = np.concatenate(([0], cps[:-1]))

    def kernel(batch, ctx):
        pos0 = ctx.pos0()
        # events 1..n_max all sit strictly right of T_0
        good = pos0 + n_max < ctx.off_hi
        rows = np.flatnonzero(good)
        cols = np.zeros((batch.n, ncp))
        reject = ~good
        # rows in blocks, so the (rows, n_max) code matrix stays small; a
        # block is one view of its events, with rep a (rows, 1) column
        step = max(1, BLOCK_CELLS // n_max)
        for b0 in range(0, rows.size, step):
            blk = rows[b0:b0 + step]
            e = pos0[blk, None] + ahead
            codes = A.codes_at(Positions(ctx, ctx.points[e], blk[:, None], known=e))
            reject[blk[(codes == -1).any(axis=1)]] = True
            # integer counts per segment between checkpoints, then their
            # running sums: exact, so the float division sees the same values
            cols[blk] = np.cumsum(np.add.reduceat(codes, segments, axis=1, dtype=np.int64),
                                  axis=1) / cps
        return [(cols, reject)]

    (sums,) = run_kernel(model, row_need([A], at=(1, n_max)), budget, ncp, kernel,
                         seed=seed, stream=stream, threads=threads).members
    return CesaroTrace(cps.astype(np.float64), *_running_averages(model, sums, ncp),
                       "event", budget, int(sums.rejected.sum()))


def cesaro_time(
    model: ProcessModel,
    A: Eventuality,
    x_max: float,
    budget: int,
    *,
    seed: int = 0,
    stream="cesaro_time",
    threads: int = 1,
) -> CesaroTrace:
    """Running time-average of the indicator of A seen from positions in (0, x];
    the integrand is integrated exactly between its breakpoints."""
    if not x_max > 0:
        raise ValueError("need x_max > 0")
    if model.is_deterministic:
        budget = 1
    cps = _time_checkpoints(model, x_max)
    ncp = cps.size

    def kernel(batch, ctx):
        integrals, ok = A.integrate(ctx, np.arange(batch.n), 0.0, x_max, cuts=cps)
        return [(integrals / cps, ~ok)]

    # y in (0, x_max] reads from T_0 on, through the events of the extent
    (sums,) = run_kernel(model, row_need([A], after=x_max, at=(0, 1)), budget, ncp, kernel,
                         seed=seed, stream=stream, threads=threads).members
    return CesaroTrace(cps, *_running_averages(model, sums, ncp), "time",
                       budget, int(sums.rejected.sum()))


def ams_verdict(trace: CesaroTrace, tail_fraction: float = 0.5,
                tol: float = 0.05) -> AmsVerdict:
    """Classify the tail of a trace.

    NotConvergent needs the tail oscillation to exceed both the tolerance
    and 3x its own standard error; Convergent needs oscillation and noise
    both below the tolerance; anything else is Inconclusive.
    """
    ncp = trace.checkpoints.size
    if ncp < 6:
        raise TooFewCheckpoints(f"verdict needs >= 6 checkpoints, trace has {ncp}")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    k = max(2, int(math.ceil(tail_fraction * ncp)))
    vals = trace.values[-k:]
    errs = trace.std_errors[-k:]
    i_hi = int(np.argmax(vals))
    i_lo = int(np.argmin(vals))
    osc = float(vals[i_hi] - vals[i_lo])
    noise = 3.0 * math.hypot(float(errs[i_hi]), float(errs[i_lo]))
    threshold = max(tol, noise)
    if osc > threshold:
        return AmsVerdict("NotConvergent", osc, threshold, tail_fraction)
    if osc <= tol and noise <= tol:
        return AmsVerdict("Convergent", osc, threshold, tail_fraction,
                          limit=float(trace.values[-1]),
                          limit_se=float(trace.std_errors[-1]))
    return AmsVerdict("Inconclusive", osc, threshold, tail_fraction)


# -- stationary-limit conversions (ergodic models) -----------------------------


def convert_es_to_ts(
    es_model: ProcessModel,
    group,
    budget: int,
    *,
    seed: int = 0,
    stream="es_to_ts",
    threads: int = 1,
) -> list[Estimate]:
    """Time-stationary probability of each member of the group from an
    event-stationary (ergodic) model: the exact integral of the indicator
    over the first gap, normalized by the plug-in mean gap."""
    if not es_model.is_es:
        raise ValueError("convert_es_to_ts needs an event-stationary model")
    mean = es_model.interval.mean if es_model.interval is not None else None
    if mean is None or not (math.isfinite(mean) and mean > 0):
        raise NoMean("the event-stationary model needs a finite positive mean gap")
    group = _members(group)

    def kernel(batch, ctx):
        # the origin is the event T_0 = 0, so the first gap is (0, T_1]
        pos0 = ctx.pos0()
        t1 = ctx.point(pos0 + 1)
        out = []
        for ev in group:
            integrals, reject = ev.integrate_gap(ctx, pos0, True)
            out.append((np.column_stack((integrals, t1)), reject))
        return out

    sums = run_kernel(es_model, row_need(group, at=(0, 1)), budget, 2, kernel,
                      seed=seed, stream=stream, threads=threads)
    return [ratio_estimate(s, 0, 1) for s in sums.members]


def convert_ts_to_es(
    ts_model: ProcessModel,
    group,
    budget: int,
    *,
    seed: int = 0,
    stream="ts_to_es",
    threads: int = 1,
) -> list[Estimate]:
    """Event-stationary probability of each member of the group from a
    time-stationary (ergodic) model: the gap-weighted indicator at the
    straddling event, normalized by the plug-in count rate."""
    if not ts_model.is_ts:
        raise ValueError("convert_ts_to_es needs a time-stationary model")
    span = 10.0 * ts_model.scale
    group = _members(group)

    def kernel(batch, ctx):
        pos0 = ctx.pos0()
        t0, t1, ok = ctx.gap(pos0)
        e0, rows = np.clip(pos0, 0, None), np.arange(batch.n)
        den = (batch.pos_le(span) - pos0) / span
        out = []
        for ev in group:
            num, reject = _marked(ev.at_events(ctx, e0, rows), ok, 1.0 / (t1 - t0))
            out.append((np.column_stack((num, den)), reject))
        return out

    sums = run_kernel(ts_model, row_need(group, after=span), budget, 2, kernel,
                      seed=seed, stream=stream, threads=threads)
    return [ratio_estimate(s, 0, 1) for s in sums.members]
