"""Monte Carlo estimators for event-centered and shifted laws.

All estimators are self-normalized ratios of weighted batch sums, so the
same machinery serves exact samplers (unit weights) and importance
samplers.  Standard errors come from the delta method over batch means;
replications are dependent within a batch of 64, independent across
batches.  Replications whose eventuality evaluation is indeterminate are
rejected and reported, never coerced to False.

Chunks of 4096 replications each draw from their own counter-based
stream, and partial sums are kept per variance batch, so results are
bit-identical regardless of thread count or merge order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import (
    InsufficientCoverage,
    LowEffectiveSampleSize,
    NoStraddle,
    ZeroDenominator,
)
from .events import EventContext, Eventuality, effective_radius
from .models import LAW_TILTED_TS, LAW_TS, ProcessModel
from .pattern import PatternBatch, PointPattern, ragged_ranges

# Horizon, in mean gaps, for eventualities without a declared radius.
DEFAULT_HORIZON_GAPS = 15.0


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo result with its uncertainty and bookkeeping."""

    value: float
    std_error: float
    reps: int
    rejected: int
    ess: float

    @property
    def accepted(self) -> int:
        return self.reps - self.rejected

    @property
    def coverage(self) -> float:
        return self.accepted / self.reps if self.reps else 0.0


@dataclass(frozen=True)
class BinnedEstimate:
    """One bin of a shifted-law profile."""

    bin_lo: float
    bin_hi: float
    estimate: Estimate
    count: float
    flag: str = ""


@dataclass(frozen=True)
class IntensityProfile:
    """Per-bin occurrence rates (events per unit time)."""

    bin_edges: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    counts: np.ndarray
    reps: int
    rejected: int

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def value_at(self, x: float) -> tuple[float, float]:
        """Rate and standard error of the bin containing x."""
        idx = int(np.searchsorted(self.bin_edges, x, side="left")) - 1
        idx = min(max(idx, 0), self.values.size - 1)
        return float(self.values[idx]), float(self.std_errors[idx])


# -- chunked runner -----------------------------------------------------------


@dataclass(frozen=True)
class BatchSums:
    """Weighted column sums per variance batch (the mergeable unit)."""

    cols: np.ndarray      # (B, k)
    w: np.ndarray         # (B,)
    w2: np.ndarray        # (B,)
    rejected: np.ndarray  # (B,)
    reps: int


def run_kernel(
    model: ProcessModel,
    window: tuple[float, float],
    budget: int,
    ncols: int,
    kernel,
    *,
    seed: int,
    stream,
    threads: int = 1,
) -> BatchSums:
    """Drive `kernel(batch, ctx) -> (cols (n,k), reject (n,))` over the budget."""
    if budget < 1:
        raise ValueError("budget must be positive")
    n_chunks = (budget + _rng.CHUNK - 1) // _rng.CHUNK
    vb = _rng.VARIANCE_BATCH

    def one_chunk(ci: int):
        n = min(_rng.CHUNK, budget - ci * _rng.CHUNK)
        gen = _rng.chunk_rng(seed, stream, ci)
        batch = model.sample_batch(gen, window, n)
        ctx = EventContext(batch)
        cols, reject = kernel(batch, ctx)
        cols = np.asarray(cols, dtype=np.float64).reshape(n, ncols)
        w = batch.weights.astype(np.float64).copy()
        w[reject] = 0.0
        cols = cols * w[:, None]
        cols[reject, :] = 0.0
        starts = np.arange(0, n, vb)
        return (
            np.add.reduceat(cols, starts, axis=0),
            np.add.reduceat(w, starts),
            np.add.reduceat(w * w, starts),
            np.add.reduceat(reject.astype(np.int64), starts),
        )

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_chunk, range(n_chunks)))
    else:
        results = [one_chunk(ci) for ci in range(n_chunks)]

    return BatchSums(
        cols=np.concatenate([r[0] for r in results], axis=0),
        w=np.concatenate([r[1] for r in results]),
        w2=np.concatenate([r[2] for r in results]),
        rejected=np.concatenate([r[3] for r in results]),
        reps=budget,
    )


def ratio_estimate(sums: BatchSums, num_col: int, den_col) -> Estimate:
    """Delta-method ratio of two weighted column sums.

    den_col may be an array of per-batch denominators instead of an index.
    """
    num_b = sums.cols[:, num_col]
    den_b = sums.cols[:, den_col] if isinstance(den_col, int) else den_col
    den_total = float(den_b.sum())
    if den_total == 0.0:
        raise ZeroDenominator("no occurrences observed in the denominator")
    r = float(num_b.sum()) / den_total
    d = num_b - r * den_b
    nb = d.size
    se = math.sqrt(nb / (nb - 1) * float(d @ d)) / abs(den_total) if nb > 1 else 0.0
    w_total = float(sums.w.sum())
    w2_total = float(sums.w2.sum())
    ess = (w_total * w_total / w2_total) if w2_total > 0 else 0.0
    return Estimate(r, se, sums.reps, int(sums.rejected.sum()), ess)


ESS_FLOOR = 0.1


def check_ess(model: ProcessModel, est: Estimate) -> Estimate:
    """Weighted runs fail loudly when the weights degenerate."""
    if model.weighted and est.accepted > 0 and est.ess < ESS_FLOOR * est.accepted:
        raise LowEffectiveSampleSize(
            f"effective sample size {est.ess:.0f} below "
            f"{ESS_FLOOR:.0%} of {est.accepted} accepted replications"
        )
    return est


def guard_window(
    model: ProcessModel,
    radius: float,
    lo_extent: float = 0.0,
    hi_extent: float = 0.0,
) -> tuple[float, float]:
    """Analysis region extended by the guard margin on each side.

    The floor of ten mean gaps keeps samplers far from degenerate windows
    even when the eventuality radius is small.
    """
    guard = max(radius, 10.0 * model.scale)
    return (lo_extent - guard, hi_extent + guard)


def straddle_gaps(batch: PatternBatch, ctx: EventContext):
    """Per replication: raw T_0 position, straddling gap, and whether the
    origin is actually straddled (both endpoints stored)."""
    pos0 = ctx.pos0()
    ok = batch.straddled(pos0)
    safe = np.clip(pos0, 0, max(batch.points.size - 2, 0))
    a0 = batch.points[safe + 1] - batch.points[safe]
    return pos0, a0, ok


def _events_in(batch: PatternBatch, ctx: EventContext, a: float, b: float):
    """Flat positions, replication ids and per-rep counts of all events in (a, b]."""
    rows, origin = np.arange(batch.n), np.zeros(batch.n)
    starts = ctx.last_le(origin, rows, a) + 1
    stops = ctx.last_le(origin, rows, b) + 1
    e, rep = ragged_ranges(starts, stops)
    return e, rep, (stops - starts)


def _reject_from_codes(n: int, rep: np.ndarray, codes: np.ndarray) -> np.ndarray:
    reject = np.zeros(n, dtype=bool)
    if rep.size:
        reject[rep[codes == -1]] = True
    return reject


# -- estimators ----------------------------------------------------------------


def mc_mean(
    model: ProcessModel,
    window: tuple[float, float],
    kernel,
    budget: int,
    *,
    seed: int = 0,
    stream="mc_mean",
    threads: int = 1,
) -> Estimate:
    """Self-normalized mean of a per-replication scalar.

    `kernel(batch, ctx) -> (values (n,), reject (n,))`.  The extension
    point the identity registry is built on.
    """

    def wrapped(batch, ctx):
        vals, reject = kernel(batch, ctx)
        cols = np.column_stack((np.asarray(vals, dtype=np.float64), np.ones(batch.n)))
        return cols, reject

    sums = run_kernel(model, window, budget, 2, wrapped,
                      seed=seed, stream=stream, threads=threads)
    return check_ess(model, ratio_estimate(sums, 0, 1))


def est_event_probability(
    model: ProcessModel,
    A: Eventuality,
    budget: int,
    *,
    seed: int = 0,
    stream="prob",
    horizon_gaps: float = DEFAULT_HORIZON_GAPS,
    threads: int = 1,
) -> Estimate:
    """Probability of the eventuality under the model's law (origin as-is)."""
    r = effective_radius(A, model.scale, horizon_gaps)
    window = guard_window(model, r)

    def kernel(batch, ctx):
        codes = A.at_origin(ctx)
        return (
            np.column_stack(((codes == 1).astype(np.float64), np.ones(batch.n))),
            codes == -1,
        )

    sums = run_kernel(model, window, budget, 2, kernel,
                      seed=seed, stream=stream, threads=threads)
    return check_ess(model, ratio_estimate(sums, 0, 1))


def est_palm_zero(
    model: ProcessModel,
    A: Eventuality,
    x: float,
    budget: int,
    *,
    seed: int = 0,
    stream="palm_zero",
    horizon_gaps: float = DEFAULT_HORIZON_GAPS,
    threads: int = 1,
) -> Estimate:
    """Event-centered probability for a time-stationary model, as the ratio
    of marked to total occurrence counts on (0, x]."""
    if not model.is_ts:
        raise ValueError("est_palm_zero needs a time-stationary model")
    if not x > 0:
        raise ValueError("need x > 0")
    r = effective_radius(A, model.scale, horizon_gaps)
    window = guard_window(model, r, 0.0, x)

    def kernel(batch, ctx):
        e, rep, den = _events_in(batch, ctx, 0.0, x)
        codes = A.at_events(ctx, e, rep)
        num = np.bincount(rep[codes == 1], minlength=batch.n).astype(np.float64)
        reject = _reject_from_codes(batch.n, rep, codes)
        return np.column_stack((num, den.astype(np.float64))), reject

    sums = run_kernel(model, window, budget, 2, kernel,
                      seed=seed, stream=stream, threads=threads)
    return ratio_estimate(sums, 0, 1)


def est_shifted_palm(
    model: ProcessModel,
    A,
    bin_edges: np.ndarray,
    budget: int,
    *,
    seed: int = 0,
    stream="shifted_palm",
    horizon_gaps: float = DEFAULT_HORIZON_GAPS,
    threads: int = 1,
    min_count: float = 16.0,
) -> list[BinnedEstimate]:
    """Per-bin event-centered probabilities: ratio of marked to total
    occurrences among events falling in each bin.

    A may be a single eventuality or one per bin (for families that vary
    with the bin's location).
    """
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be strictly increasing with >= 2 entries")
    nb = edges.size - 1
    per_bin = list(A) if not isinstance(A, Eventuality) else [A] * nb
    if len(per_bin) != nb:
        raise ValueError("need one eventuality per bin")
    r = max(effective_radius(ev, model.scale, horizon_gaps) for ev in per_bin)
    window = guard_window(model, r, float(edges[0]), float(edges[-1]))

    def kernel(batch, ctx):
        e, rep, _ = _events_in(batch, ctx, float(edges[0]), float(edges[-1]))
        t = batch.points[e]
        bin_idx = np.searchsorted(edges, t, side="left") - 1
        ok = (bin_idx >= 0) & (bin_idx < nb)
        e, rep, bin_idx = e[ok], rep[ok], bin_idx[ok]
        codes = np.empty(e.size, dtype=np.int8)
        for b in range(nb):
            m = bin_idx == b
            if m.any():
                codes[m] = per_bin[b].at_events(ctx, e[m], rep[m])
        flat = rep * (2 * nb) + bin_idx
        den2d = np.bincount(flat, minlength=batch.n * 2 * nb)
        flat_num = rep[codes == 1] * (2 * nb) + nb + bin_idx[codes == 1]
        num2d = np.bincount(flat_num, minlength=batch.n * 2 * nb)
        cols = (den2d + num2d).reshape(batch.n, 2 * nb).astype(np.float64)
        return cols, _reject_from_codes(batch.n, rep, codes)

    sums = run_kernel(model, window, budget, 2 * nb, kernel,
                      seed=seed, stream=stream, threads=threads)
    out = []
    for b in range(nb):
        count = float(sums.cols[:, b].sum())
        if count == 0.0:
            est = Estimate(math.nan, math.inf, budget, int(sums.rejected.sum()), 0.0)
            flag = "empty"
        else:
            est = check_ess(model, ratio_estimate(sums, nb + b, b))
            flag = "" if count >= min_count else "empty"
        out.append(BinnedEstimate(float(edges[b]), float(edges[b + 1]), est, count, flag))
    return out


def est_intensity(
    model: ProcessModel,
    bin_edges: np.ndarray,
    budget: int,
    *,
    A=None,
    seed: int = 0,
    stream="intensity",
    horizon_gaps: float = DEFAULT_HORIZON_GAPS,
    threads: int = 1,
) -> IntensityProfile:
    """Occurrence rate per unit time per bin (of A-occurrences when A is
    given; A may also be one eventuality per bin)."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges must be strictly increasing with >= 2 entries")
    nb = edges.size - 1
    per_bin = None
    if A is not None:
        per_bin = list(A) if not isinstance(A, Eventuality) else [A] * nb
        if len(per_bin) != nb:
            raise ValueError("need one eventuality per bin")
    r = model.scale if per_bin is None else max(
        effective_radius(ev, model.scale, horizon_gaps) for ev in per_bin
    )
    window = guard_window(model, r, float(edges[0]), float(edges[-1]))

    def kernel(batch, ctx):
        e, rep, _ = _events_in(batch, ctx, float(edges[0]), float(edges[-1]))
        t = batch.points[e]
        bin_idx = np.searchsorted(edges, t, side="left") - 1
        ok = (bin_idx >= 0) & (bin_idx < nb)
        e, rep, bin_idx = e[ok], rep[ok], bin_idx[ok]
        reject = np.zeros(batch.n, dtype=bool)
        if per_bin is not None:
            codes = np.empty(e.size, dtype=np.int8)
            for b in range(nb):
                m = bin_idx == b
                if m.any():
                    codes[m] = per_bin[b].at_events(ctx, e[m], rep[m])
            reject = _reject_from_codes(batch.n, rep, codes)
            keep = codes == 1
            rep, bin_idx = rep[keep], bin_idx[keep]
        flat = rep * (nb + 1) + bin_idx
        cols = np.bincount(flat, minlength=batch.n * (nb + 1))
        cols = cols.reshape(batch.n, nb + 1).astype(np.float64)
        cols[:, nb] = 1.0
        return cols, reject

    sums = run_kernel(model, window, budget, nb + 1, kernel,
                      seed=seed, stream=stream, threads=threads)
    widths = np.diff(edges)
    values = np.empty(nb)
    errors = np.empty(nb)
    counts = sums.cols[:, :nb].sum(axis=0)
    for b in range(nb):
        if counts[b] == 0.0:
            values[b] = 0.0
            errors[b] = math.inf
            continue
        est = check_ess(model, ratio_estimate(sums, b, nb))
        values[b] = est.value / widths[b]
        errors[b] = est.std_error / widths[b]
    return IntensityProfile(edges, values, errors, counts, budget,
                            int(sums.rejected.sum()))


def est_intermediate(
    model: ProcessModel,
    n: int,
    A: Eventuality,
    budget: int,
    *,
    seed: int = 0,
    stream="intermediate",
    horizon_gaps: float = DEFAULT_HORIZON_GAPS,
    threads: int = 1,
    min_coverage: float = 0.5,
    window: tuple[float, float] | None = None,
) -> Estimate:
    """Probability of A seen from event T_n, conditioned on T_n being
    observable inside the window minus the guard (the finite-window proxy
    for conditioning on T_n being finite).  Coverage = 1 - rejected/reps."""
    r = effective_radius(A, model.scale, horizon_gaps)
    if window is None:
        pad = model.scale * (2.0 * abs(n) + 10.0 * math.sqrt(abs(n) + 1.0))
        window = guard_window(model, r + pad)
    lo_w, hi_w = window

    def kernel(batch, ctx):
        pos_n = ctx.pos0() + n
        covered = (pos_n >= ctx.off_lo) & (pos_n < ctx.off_hi)
        pc = np.clip(pos_n, 0, max(batch.points.size - 1, 0))
        t_n = batch.points[pc]
        covered &= (t_n - r >= lo_w) & (t_n + r <= hi_w)
        rep = np.flatnonzero(covered)
        codes = A.at_events(ctx, pos_n[rep], rep)
        num = np.zeros(batch.n)
        den = np.zeros(batch.n)
        num[rep[codes == 1]] = 1.0
        den[rep[codes != -1]] = 1.0
        reject = ~covered
        reject[rep[codes == -1]] = True
        return np.column_stack((num, den)), reject

    sums = run_kernel(model, window, budget, 2, kernel,
                      seed=seed, stream=stream, threads=threads)
    coverage = 1.0 - float(sums.rejected.sum()) / budget
    if coverage < min_coverage:
        raise InsufficientCoverage(
            f"conditioning proxy accepted {coverage:.1%} of replications"
        )
    return check_ess(model, ratio_estimate(sums, 0, 1))


# -- uniform re-centering inside the straddling gap ----------------------------


def resample_pstar(p: PointPattern, u: float) -> PointPattern:
    """Move the origin to T_0 + u * alpha_0; pushing samples through this
    map with u uniform(0,1) samples the uniformly re-centered law."""
    if not 0.0 <= u < 1.0:
        raise ValueError("need u in [0, 1)")
    pos0, pos1 = p.locate_indices()
    t0 = float(p.points[pos0])
    a0 = float(p.points[pos1]) - t0
    return p.shift_time(t0 + u * a0)


def pstar_model(base: ProcessModel, pad_gaps: float = 12.0) -> ProcessModel:
    """The pushforward of the base law under uniform re-centering."""
    pad = pad_gaps * base.scale

    def batch(rng, window, n):
        lo, hi = window
        padded = (lo - pad, hi + pad)
        out = base.sample_batch(rng, padded, n)
        u = rng.random(n)
        pos0 = out.pos0()
        safe = np.clip(pos0, 0, max(out.points.size - 2, 0))
        y = out.points[safe] + u * (out.points[safe + 1] - out.points[safe])
        bad = ~out.straddled(pos0) | (np.abs(y) > pad)
        if np.any(bad):
            # a base draw without straddle, or a straddling gap wider than the
            # pad: redraw those rows until the shifted window covers the target
            rows = np.split(out.points, out.offsets[1:-1])
            weights = out.weights.copy()
            for i in np.flatnonzero(bad):
                while True:
                    wp = base.sample(rng, padded)
                    try:
                        k0, k1 = wp.pattern.locate_indices()
                    except NoStraddle:
                        continue
                    t0 = float(wp.pattern.points[k0])
                    t1 = float(wp.pattern.points[k1])
                    yi = t0 + float(rng.random(1)[0]) * (t1 - t0)
                    if abs(yi) <= pad:
                        rows[i] = np.asarray(wp.pattern.points)
                        weights[i] = wp.weight
                        y[i] = yi
                        break
            counts = np.fromiter((rw.size for rw in rows), dtype=np.int64, count=n)
            out = PatternBatch(
                np.concatenate(rows),
                np.concatenate(([0], np.cumsum(counts))),
                out.windows,
                weights,
            )
        return PatternBatch(
            out.points - np.repeat(y, np.diff(out.offsets)),
            out.offsets,
            out.windows - y[:, None],
            out.weights,
        )

    return ProcessModel(
        LAW_TS if base.is_ts else LAW_TILTED_TS,
        dict(base.descriptor, model="pstar", base=base.descriptor["model"]),
        base.scale,
        batch,
        weighted=base.weighted,
        tilt_info=base.tilt_info,
    )
