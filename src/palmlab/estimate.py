"""Monte Carlo estimators for event-centered and shifted laws.

All estimators are self-normalized ratios of weighted batch sums, finished
by ratio_estimate, so the same machinery serves exact samplers (unit
weights) and importance samplers, whose ESS it checks.  Standard errors
come from the delta method over batch means; replications are dependent
within a batch of 64, independent across batches.  Replications whose
eventuality evaluation is indeterminate are rejected and reported, never
coerced to False.

Every kernel declares what it reads of each row, and row_need turns that
declaration, with the eventualities it evaluates, into the Need its rows
are sampled to: each row is drawn just as far as its kernel reads, so no
replication of an index-based eventuality is rejected for lack of events.

Chunks of 4096 replications each draw from their own seeded stream
(rng.chunk_rng), and partial sums are kept per variance batch, so
results are bit-identical regardless of thread count or merge order.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import InsufficientCoverage, LowEffectiveSampleSize, ZeroDenominator
from .events import EventContext, Eventuality
from .models import Need, ProcessModel
from .pattern import PatternBatch, ragged_ranges


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
    """One bin (bin_lo, bin_hi] of a binned profile: its estimate and the
    weighted sums of the bin's events and of those where the member holds."""

    bin_lo: float
    bin_hi: float
    estimate: Estimate
    events: float
    marked: float


# -- chunked runner -----------------------------------------------------------


@dataclass(frozen=True)
class BatchSums:
    """Weighted column sums per variance batch (the mergeable unit)."""

    cols: np.ndarray      # (B, k)
    w: np.ndarray         # (B,)
    w2: np.ndarray        # (B,)
    rejected: np.ndarray  # (B,)
    reps: int


@dataclass(frozen=True)
class GroupSums:
    """BatchSums of each member of a group evaluated on the same draws."""

    members: tuple[BatchSums, ...]

    @property
    def rejected(self) -> np.ndarray:
        """Rejections per variance batch, summed over the members."""
        return sum(m.rejected for m in self.members)


def _batch_reduce(weights: np.ndarray, cols, reject: np.ndarray, n: int, ncols: int):
    """Weight one (cols, reject) pair of a chunk and sum it per variance batch."""
    cols = np.asarray(cols, dtype=np.float64).reshape(n, ncols)
    w = weights.astype(np.float64).copy()
    w[reject] = 0.0
    cols = cols * w[:, None]
    cols[reject, :] = 0.0
    starts = np.arange(0, n, _rng.VARIANCE_BATCH)
    return (
        np.add.reduceat(cols, starts, axis=0),
        np.add.reduceat(w, starts),
        np.add.reduceat(w * w, starts),
        np.add.reduceat(reject.astype(np.int64), starts),
    )


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    """The one pool of run_kernel's chunks at this thread count."""
    return ThreadPoolExecutor(max_workers=threads)


def run_kernel(
    model: ProcessModel,
    need: Need,
    budget: int,
    ncols: int,
    kernel,
    *,
    seed: int,
    stream,
    threads: int = 1,
) -> GroupSums:
    """Drive `kernel(batch, ctx) -> [(cols (n,k), reject (n,)), ...]` over
    the budget, each chunk's rows drawn to the need.

    The kernel returns a list with one pair per member of a group evaluated
    on the same draws (a lone kernel returns a list of one).  Each member
    is weighted and reduced on its own, so its BatchSums equal those of a
    run of that member alone, bit for bit.

    With threads > 1 the chunks run on one pool per thread count, kept for
    the whole process, and merge in chunk order.  No kernel may call
    run_kernel itself: a call from a worker would wait on the pool it
    occupies and could deadlock.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    n_chunks = (budget + _rng.CHUNK - 1) // _rng.CHUNK

    def one_chunk(ci: int):
        n = min(_rng.CHUNK, budget - ci * _rng.CHUNK)
        gen = _rng.chunk_rng(seed, stream, ci)
        batch = model.sample_batch(gen, need, n)
        return [_batch_reduce(batch.weights, cols, reject, n, ncols)
                for cols, reject in kernel(batch, EventContext(batch))]

    if threads > 1 and n_chunks > 1:
        results = list(_pool(threads).map(one_chunk, range(n_chunks)))
    else:
        results = [one_chunk(ci) for ci in range(n_chunks)]

    return GroupSums(tuple(
        BatchSums(*(np.concatenate(parts) for parts in zip(*member)), reps=budget)
        for member in zip(*results)
    ))


# An estimate whose effective sample size falls below this share of its
# accepted replications raises LowEffectiveSampleSize.
ESS_FLOOR = 0.1


def ratio_estimate(sums: BatchSums, num_col: int, den_col: int | None = None) -> Estimate:
    """Delta-method ratio of two weighted sums: column num_col over column
    den_col, or over the row weights when den_col is None (a self-
    normalized mean; with unit weights, over the accepted count).

    Every estimate is finished here, so every weighted run fails loudly
    when its weights degenerate: an ESS below ESS_FLOOR of the accepted
    replications raises LowEffectiveSampleSize.  Unit weights sum exactly
    to the accepted count a, so their ESS is a^2 / a = a and never trips.
    """
    num_b = sums.cols[:, num_col]
    den_b = sums.w if den_col is None else sums.cols[:, den_col]
    den_total = float(den_b.sum())
    if den_total == 0.0:
        raise ZeroDenominator("no occurrences observed in the denominator")
    r = float(num_b.sum()) / den_total
    d = num_b - r * den_b
    nb = d.size
    # one variance batch carries no information about the spread
    se = math.sqrt(nb / (nb - 1) * float(d @ d)) / abs(den_total) if nb > 1 else math.inf
    w_total = float(sums.w.sum())
    w2_total = float(sums.w2.sum())
    ess = (w_total * w_total / w2_total) if w2_total > 0 else 0.0
    est = Estimate(r, se, sums.reps, int(sums.rejected.sum()), ess)
    if est.accepted > 0 and ess < ESS_FLOOR * est.accepted:
        raise LowEffectiveSampleSize(
            f"effective sample size {ess:.0f} below "
            f"{ESS_FLOOR:.0%} of {est.accepted} accepted replications"
        )
    return est


def row_need(group=(), *, before: float = 0.0, after: float = 0.0,
             at: tuple[int, int] = (0, 0)) -> Need:
    """The Need of a kernel that evaluates every member of the group at the
    event positions at[0]..at[1] from T_0, and reads every event within
    before of T_0 and after of T_1.  Positions count outward from those
    extents: 0 and below from the outermost event within before of T_0, 1
    and above from the outermost event within after of T_1, so a kernel
    evaluating the events of its extents declares at=(0, 1).

    A member reaching positions (a, b) from a point needs the events from
    at[0] + a to at[1] + b, and its radius of time past the outermost; the
    point itself is read as well.
    """
    reach = [ev.reach for ev in group if ev.reach is not None]
    a = min([0, *(r[0] for r in reach)])
    b = max([0, *(r[1] for r in reach)])
    return Need(before, after, max(0, -(at[0] + a)), max(0, at[1] + b - 1),
                max([0.0, *(ev.radius for ev in group)]))


def _bins(bin_edges) -> np.ndarray:
    """Checked bins as rows (lo, hi]: increasing edges give one bin between
    each two neighbours; increasing disjoint rows (lo, hi) leave the space
    between them unbinned."""
    b = np.asarray(bin_edges, dtype=np.float64)
    b = np.column_stack((b[:-1], b[1:])) if b.ndim == 1 else b
    if (b.ndim != 2 or b.shape[1] != 2 or b.size == 0 or np.any(b[:, 1] <= b[:, 0])
            or np.any(b[1:, 0] < b[:-1, 1])):
        raise ValueError("need >= 2 increasing edges or increasing disjoint rows (lo, hi)")
    return b


def point_bins(points, half: float):
    """Rows (y - half, y + half], one per point y in sorted order, and the
    index of each point's row; events between the rows are in no bin, so
    they are never evaluated.  The rows must not overlap."""
    ys = sorted(points)
    return [(y - half, y + half) for y in ys], [ys.index(y) for y in points]


# _bin_of searches outright below this many bins: over 56k events, a search
# of 4 edges took 0.39 ms against 0.57 ms for the guess, and of 16 edges
# 1.08 ms against 0.55 ms
GUESS_BINS = 8


def _bin_of(hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """searchsorted(hi[:-1], x) for increasing right edges hi and x <= hi[-1]:
    the index of the first edge at or after each x.  With many bins it is
    guessed as if the edges were evenly spaced and searched only where the
    guess is off, so a grid of bins costs a few whole-array passes instead
    of a binary search per event."""
    nb = hi.size
    if nb < GUESS_BINS:
        return np.searchsorted(hi[:-1], x, side="left")
    i = np.ceil((x - hi[0]) * ((nb - 1) / (hi[-1] - hi[0])))
    i = np.clip(i, 0, nb - 1, out=i).astype(np.int64)
    off = hi[i] < x
    off |= (i > 0) & (hi[i - 1] >= x)
    if off.any():
        i[off] = np.searchsorted(hi[:-1], x[off], side="left")
    return i


def _binned_events(batch: PatternBatch, bins: np.ndarray):
    """Positions, replication ids and bin indices of the events in the bins."""
    lo, hi = bins.T
    # seen from each row's own origin an event sits at its own time, so the
    # events in (lo[0], hi[-1]] are exact counts of each row, with no search
    e, rep = ragged_ranges(batch.pos_le(lo[0]) + 1, batch.pos_le(hi[-1]) + 1)
    # an event is in the first bin ending at or after it, unless left of it;
    # every event is <= hi[-1], so the last edge never decides
    x = batch.points[e]
    bin_idx = _bin_of(hi, x)
    ok = x > lo[bin_idx]
    if ok.all():
        # always so for contiguous bins
        return e, rep, bin_idx
    return e[ok], rep[ok], bin_idx[ok]


def _reject_from_codes(n: int, rep: np.ndarray, codes: np.ndarray) -> np.ndarray:
    reject = np.zeros(n, dtype=bool)
    if rep.size:
        reject[rep[codes == -1]] = True
    return reject


def _marked(codes: np.ndarray, ok: np.ndarray, values: np.ndarray):
    """(values where the eventuality holds, else 0; reject): rows are
    rejected where ok fails or the eventuality is indeterminate."""
    reject = ~ok | (codes == -1)
    return np.where(~reject & (codes == 1), values, 0.0), reject


# -- groups of eventualities ---------------------------------------------------


def _members(group) -> tuple[Eventuality, ...]:
    """The members of a group (a sequence of eventualities), in order."""
    members = tuple(group)
    if not members:
        raise ValueError("need at least one eventuality")
    return members


# -- estimators ----------------------------------------------------------------
#
# Every estimator of an eventuality takes a group of them (a sequence of
# eventualities; a group of one is written [A]) and returns a list with one
# result per member, in order.  The group is sampled once, to the union of
# its members' needs, and every member is evaluated on the same draws; a
# member's result depends only on that member and that need (a member whose
# own need is the group's gets its own run).


def mc_mean(
    model: ProcessModel,
    need: Need,
    kernel,
    budget: int,
    *,
    seed: int = 0,
    stream="mc_mean",
    threads: int = 1,
) -> list[Estimate]:
    """Self-normalized means of per-replication scalars, one per member.

    `kernel(batch, ctx) -> [(values (n,), reject (n,)), ...]`, one pair per
    member evaluated on the same draws; a lone kernel returns a list of one
    and its caller unpacks `(est,) = mc_mean(...)`.  Each mean is the
    weighted sum of the values over the row weights.  `need` is what the
    kernel reads of each row; row_need builds one from the eventualities
    the kernel evaluates.  The extension point the identity registry is
    built on.
    """
    sums = run_kernel(model, need, budget, 1, kernel,
                      seed=seed, stream=stream, threads=threads)
    return [ratio_estimate(s, 0) for s in sums.members]


def est_event_probability(
    model: ProcessModel,
    group,
    budget: int,
    *,
    seed: int = 0,
    stream="prob",
    threads: int = 1,
) -> list[Estimate]:
    """Probability of each member under the model's law (origin as-is)."""
    group = _members(group)

    def kernel(batch, ctx):
        codes = [ev.at_origin(ctx) for ev in group]
        return [((c == 1).astype(np.float64), c == -1) for c in codes]

    return mc_mean(model, row_need(group), kernel, budget, seed=seed, stream=stream,
                   threads=threads)


def _binned(model, group, bins, budget, seed, stream, threads, finish):
    """One profile per member A of the group over the checked bins, on one
    set of draws sampled to the group's need: bin b's Estimate is
    finish(s, b, events, marked), where s holds A's columns (events per bin
    | A-events per bin); only events in a bin are evaluated or can reject.

    By Campbell's equation the event-centered probability on (0, x] and the
    shifted event-centered law are ratios of these columns, and the
    intensity profile is the ratio of a column to the row weights.
    """
    group = _members(group)
    nb = len(bins)
    need = row_need(group, before=max(0.0, -float(bins[0, 0])),
                    after=max(0.0, float(bins[-1, 1])), at=(0, 1))

    def kernel(batch, ctx):
        e, rep, bin_idx = _binned_events(batch, bins)
        flat, size = rep * nb + bin_idx, batch.n * nb
        den = np.bincount(flat, minlength=size).reshape(batch.n, nb)
        out = []
        for ev in group:
            codes = ev.at_events(ctx, e, rep)
            num = np.bincount(flat[codes == 1], minlength=size).reshape(batch.n, nb)
            out.append((np.hstack((den, num)),
                        _reject_from_codes(batch.n, rep, codes)))
        return out

    sums = run_kernel(model, need, budget, 2 * nb, kernel,
                      seed=seed, stream=stream, threads=threads)

    def profile(s: BatchSums) -> list[BinnedEstimate]:
        out = []
        for b in range(nb):
            events, marked = float(s.cols[:, b].sum()), float(s.cols[:, nb + b].sum())
            out.append(BinnedEstimate(float(bins[b, 0]), float(bins[b, 1]),
                                      finish(s, b, events, marked), events, marked))
        return out

    return [profile(s) for s in sums.members]


def est_palm_zero(
    model: ProcessModel,
    group,
    x: float,
    budget: int,
    *,
    seed: int = 0,
    stream="palm_zero",
    threads: int = 1,
) -> list[Estimate]:
    """Event-centered probability for a time-stationary model, as the ratio
    of marked to total occurrence counts on (0, x]: the shifted law of the
    one bin (0, x], which raises ZeroDenominator if it holds no event."""
    if not model.is_ts:
        raise ValueError("est_palm_zero needs a time-stationary model")
    if not x > 0:
        raise ValueError("need x > 0")
    profiles = _binned(model, group, np.array([[0.0, x]]), budget, seed, stream, threads,
                       lambda s, b, events, marked: ratio_estimate(s, 1, 0))
    return [bin0.estimate for (bin0,) in profiles]


def est_shifted_palm(
    model: ProcessModel,
    group,
    bin_edges: np.ndarray,
    budget: int,
    *,
    seed: int = 0,
    stream="shifted_palm",
    threads: int = 1,
) -> list[list[BinnedEstimate]]:
    """Per-bin event-centered probabilities: ratio of marked to total
    occurrences among events falling in each bin, one profile per member.
    Bins are increasing edges or disjoint rows (lo, hi), as point_bins
    gives.  A bin without events gives nan +- inf."""
    bins = _bins(bin_edges)
    nb = len(bins)

    def finish(s: BatchSums, b: int, events: float, marked: float) -> Estimate:
        if events == 0.0:
            return Estimate(math.nan, math.inf, budget, int(s.rejected.sum()), 0.0)
        return ratio_estimate(s, nb + b, b)

    return _binned(model, group, bins, budget, seed, stream, threads, finish)


def est_intensity(
    model: ProcessModel,
    group,
    bin_edges: np.ndarray,
    budget: int,
    *,
    seed: int = 0,
    stream="intensity",
    threads: int = 1,
) -> list[list[BinnedEstimate]]:
    """Occurrence rate per unit time per bin of the events where each member
    holds, one profile per member; the group [ev_true()] gives the rate of
    all events; bins as for est_shifted_palm.  A bin without marked
    events gives 0 +- inf."""
    bins = _bins(bin_edges)
    nb = len(bins)

    def finish(s: BatchSums, b: int, events: float, marked: float) -> Estimate:
        if marked == 0.0:
            return Estimate(0.0, math.inf, budget, int(s.rejected.sum()), 0.0)
        est = ratio_estimate(s, nb + b)
        width = float(bins[b, 1] - bins[b, 0])
        return Estimate(est.value / width, est.std_error / width, est.reps,
                        est.rejected, est.ess)

    return _binned(model, group, bins, budget, seed, stream, threads, finish)


# est_intermediate raises InsufficientCoverage below this accepted share.
MIN_COVERAGE = 0.5


def est_intermediate(
    model: ProcessModel,
    n: int,
    group,
    budget: int,
    *,
    seed: int = 0,
    stream="intermediate",
    threads: int = 1,
) -> list[Estimate]:
    """Probability of each member seen from event T_n, conditioned on T_n
    being stored (the finite-window proxy for conditioning on T_n being
    finite).  Rows are drawn until they hold T_n and what the members read
    from it, so only a sampler that ignores the need leaves rows uncovered.
    Coverage = 1 - rejected/reps."""
    group = _members(group)

    def kernel(batch, ctx):
        pos_n = ctx.pos0() + n
        rep = np.flatnonzero((pos_n >= ctx.off_lo) & (pos_n < ctx.off_hi))
        out = []
        for ev in group:
            # rows where T_n is not covered are indeterminate
            codes = np.full(batch.n, -1, dtype=np.int8)
            codes[rep] = ev.at_events(ctx, pos_n[rep], rep)
            out.append((codes == 1, codes == -1))
        return out

    try:
        ests = mc_mean(model, row_need(group, at=(n, n)), kernel, budget, seed=seed,
                       stream=stream, threads=threads)
    except ZeroDenominator:
        # every row rejected: coverage 0, below any MIN_COVERAGE
        raise InsufficientCoverage("conditioning proxy accepted no replication") from None
    for est in ests:
        if est.coverage < MIN_COVERAGE:
            raise InsufficientCoverage(
                f"conditioning proxy accepted {est.coverage:.1%} of replications"
            )
    return ests
