"""Eventualities: local boolean functionals on patterns, with combinators.

An eventuality declares what it reads of the pattern it is applied to:
its event reach, the positions (a, b) of the events T_a..T_b it reads
(None when it reads none), and its time radius, every event within
[-radius, radius].  Gap comparisons and first-arrival bounds read events
only (radius 0), counts read time only (reach None).  Estimators turn
these declarations into what each sampled row must hold (estimate.row_need),
so a row is drawn just far enough for its kernel.

Evaluations are three-valued.  When the window does not hold the events
needed to decide, the result is Indeterminate (None, or code -1 in array
form); estimators treat that as a rejected replication, never as False.

The scalar `evaluate` is the reference semantics.  Vectorized evaluation
rests on `codes_at`, the code seen from arbitrary positions y of a batch's
rows, and on declared break offsets, the only positions where that code
can change (y = T + d per stored event T, plus window edges for counts).
`codes_at` reads event positions, row bounds and window edges from one
`Positions` view, which finds each offset's positions once.  At events
and at the origin the answer at offset 0 is known and every other offset
is walked from it, event by event, a long walk cut short by a search.
In `integrate` the answers are taken from the sort of the breaks, which
counts the events left of each piece: exact on every piece wider than a
bound on the rounding, walked from the count on the narrower ones.  A
view that knows nothing searches the globally sorted points once, then
walks.  Evaluation at events and at the origin are `codes_at` at those
positions, and `integrate` sums the piecewise-constant code between
sorted breaks to get exact integrals over time shifts, laying out only
the events whose breaks can fall inside the interval and evaluating a
whole block of rows at once.  `integrate_gap` is the one integral over a
gap between two events, per row of a batch, that the Palm kernels share.

Textual form (used by the CLI and round-tripped by the parser):

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := '!' factor | '(' expr ')' | atom
    atom   := 'alpha(' INT ')' ('>' | '==') NUM
            | 'count(' NUM ',' NUM ']==' INT
            | 'T1<=' NUM
            | 'true'
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np

from .errors import IndexOutOfPattern, OutsideWindow
from .pattern import BLOCK_CELLS, PatternBatch, PointPattern, padded_rows, ragged_ranges

_PATTERN_ERRORS = (IndexOutOfPattern, OutsideWindow)

# passes a walk from a known answer takes before the entries still moving
# are searched instead (EventContext.settle)
WALK_PASSES = 16


def _fmt(x: float) -> str:
    xf = float(x)
    if xf == int(xf) and abs(xf) < 1e15:
        return str(int(xf))
    return repr(xf)


class EventContext:
    """Shared precomputation for vectorized evaluation on a batch."""

    __slots__ = ("batch", "points", "off_lo", "off_hi", "wlo", "whi", "_gs", "_pos0")

    def __init__(self, batch: PatternBatch):
        self.batch = batch
        self.points = batch.points
        self.off_lo = batch.offsets[:-1]
        self.off_hi = batch.offsets[1:]
        self.wlo = batch.windows[:, 0]
        self.whi = batch.windows[:, 1]
        self._gs = None
        self._pos0 = None

    def gsorted(self):
        if self._gs is None:
            self._gs = self.batch.global_sorted()
        return self._gs

    def pos0(self) -> np.ndarray:
        """Raw array position of T_0 per replication (see PatternBatch.pos0)."""
        if self._pos0 is None:
            self._pos0 = self.batch.pos0()
        return self._pos0

    def point(self, i: np.ndarray) -> np.ndarray:
        """Event times at array positions i, clipped into the flat array;
        callers mask the positions that fall outside their row."""
        if self.points.size == 0:
            return np.zeros(np.shape(i))
        return np.take(self.points, i, mode="clip")

    def gap(self, i: np.ndarray, bounds=None):
        """(t_lo, t_hi, stored): the times of the events at array positions
        i and i + 1, and whether their row stores both.  bounds are the row
        bounds aligned with i (Positions.bounds); without them i holds one
        position per row.  The reads clip i into [0, size - 2], so t_hi -
        t_lo is always the gap between two distinct stored events; callers
        mask the entries where stored fails."""
        lo, hi = (self.off_lo - 1, self.off_hi - 1) if bounds is None else bounds
        safe = np.clip(i, 0, max(self.points.size - 2, 0))
        return self.point(safe), self.point(safe + 1), (i > lo) & (i < hi)

    def last_le(self, y: np.ndarray, rep: np.ndarray, c: float = 0.0) -> np.ndarray:
        """Array position of the last event T of row rep with T - y <= c
        (off_lo - 1 when there is none), with T - y rounded as in the
        scalar shift_time: one searchsorted on the globally sorted points,
        settled by a view that knows nothing else."""
        return Positions(self, y, rep).le(c)

    def settle(self, j, y, lo, hi, c: float = 0.0, steps=(-1, 1), search=None) -> np.ndarray:
        """The exact last_le from guesses j near it, for aligned flat arrays
        of guesses, positions and row bounds (lo = off_lo - 1, hi = off_hi -
        1).  Comparing unshifted values walks each guess one event at a
        time, so the rounding of a guess never decides a comparison; the
        walk goes on over the entries still moving, compacted once fewer
        than half of them move.  steps are the directions to walk, both
        unless the caller knows on which side of the answer its guesses
        lie.  With search, a walk still moving after WALK_PASSES passes
        stops: search(at) guesses afresh at the flat indices at, and those
        guesses are settled both ways."""
        j = np.clip(j, lo, hi)
        for step in steps:
            # k, t and end are j, y and the bound at the flat indices at
            # (every entry, k being j itself, while at is None)
            at, k, t, end = None, j, y, lo if step < 0 else hi
            for passes in itertools.count():
                if step < 0:
                    move = (k > end) & (self.point(k) - t > c)
                else:
                    move = (k < end) & (self.point(k + 1) - t <= c)
                moving = np.count_nonzero(move)
                cut = search is not None and passes == WALK_PASSES
                if moving and not cut and 2 * moving >= k.size:
                    (np.add if step > 0 else np.subtract)(k, move, out=k)
                    continue
                if at is not None:
                    j[at] = k
                if not moving:
                    break
                sel = np.flatnonzero(move)
                at = sel if at is None else at[sel]
                if cut:
                    j[at] = self.settle(search(at), y[at], lo[at], hi[at], c)
                    break
                k, t, end = k[sel] + step, t[sel], end[sel]
        return j


class Positions:
    """Event positions seen from positions y of rows rep: le(c) is
    ctx.last_le(y, rep, c) at every live entry, found once per offset c
    and kept.  y and rep broadcast: integrate passes its (rows, pieces)
    matrix of midpoints with rep a (rows, 1) column, and live marks the
    pieces of positive width, the only entries whose codes it reads (None:
    every entry is read).

    The view owns every per-row read, gathered once per view (or once per
    row, broadcast): bounds, the positions before each row's first event
    and of its last (off_lo - 1, off_hi - 1), and window, its edges (wlo,
    whi).  How le(c) is found:

    - known: the answer at c = 0, where the caller has it (the events
      themselves at events, T_0 at the origin); every other offset is
      walked from it by settle, one event at a time, in the one direction
      le moves with c, and searched where the walk is still moving after
      WALK_PASSES passes;
    - taken from the sort: guess(d), where it gives counts, counts per
      entry the events with T + d left of it (integrate reads them off the
      sort of its breaks); the counts are exact except at the flat indices
      unsure (every entry when unsure is None), which settle walks;
    - searched: a view that knows nothing (last_le, and through it
      integrate's bounds and the kernels' own searches) looks each entry up
      once in the globally sorted points, then settle walks.
    """

    def __init__(self, ctx: EventContext, y, rep, known=None, guess=None,
                 live=None, unsure=None):
        self.ctx, self.y, self.rep = ctx, y, rep
        self.guess, self.live, self.unsure = guess, live, unsure
        self._le = {} if known is None else {0.0: known}

    @functools.cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the position before each row's first event and of its last."""
        return self.ctx.off_lo[self.rep] - 1, self.ctx.off_hi[self.rep] - 1

    @functools.cached_property
    def window(self) -> tuple[np.ndarray, np.ndarray]:
        """(wlo, whi): each row's window edges."""
        return self.ctx.wlo[self.rep], self.ctx.whi[self.rep]

    def le(self, c: float = 0.0) -> np.ndarray:
        if c not in self._le:
            j = None if self.guess is None else self.guess(-c)
            if j is not None:
                self._le[c] = self.settle(j, c, self.unsure)
            elif 0.0 in self._le:
                # le grows with c, so the walk from le(0) goes one way; a
                # long walk is cut short by a search
                self._le[c] = self.settle(self._le[0.0], c, steps=(1,) if c > 0 else (-1,),
                                          search=True)
            else:
                self._le[c] = self.settle(self._search(self.y, self.rep, c), c)
        return self._le[c]

    def _search(self, y, rep, c: float) -> np.ndarray:
        """Guesses of le(c) at positions y of rows rep, from one search of
        the globally sorted points."""
        gs, shifts = self.ctx.gsorted()
        return np.searchsorted(gs, (y + c) + shifts[rep], side="right") - 1

    def settle(self, j: np.ndarray, c: float, at=None, steps=(-1, 1),
               search=False) -> np.ndarray:
        """ctx.settle of the guesses j at offset c, at every entry or at the
        flat indices at (the others are kept as they are); with search, a
        long walk is cut short by _search."""
        lo, hi = self.bounds
        if at is None:
            y, lo, hi = (np.broadcast_to(a, j.shape).ravel() for a in (self.y, lo, hi))
            rep = np.broadcast_to(self.rep, j.shape).flat
            found = (lambda at: self._search(y[at], rep[at], c)) if search else None
            return self.ctx.settle(j.ravel(), y, lo, hi, c, steps, found).reshape(j.shape)
        if at.size:
            idx = np.unravel_index(at, j.shape)
            y, lo, hi = (np.broadcast_to(a, j.shape)[idx] for a in (self.y, lo, hi))
            j[idx] = self.ctx.settle(j[idx], y, lo, hi, c)
        return j


def _kleene_and(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.full(u.shape, -1, dtype=np.int8)
    out[(u == 0) | (v == 0)] = 0
    out[(u == 1) & (v == 1)] = 1
    return out


def _kleene_or(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.full(u.shape, -1, dtype=np.int8)
    out[(u == 1) | (v == 1)] = 1
    out[(u == 0) & (v == 0)] = 0
    return out


def _kleene_not(u: np.ndarray) -> np.ndarray:
    return np.where(u >= 0, 1 - u, u)


class Eventuality:
    """Base class; subclasses are immutable and safe to share.

    Each subclass has a scalar `evaluate` (the reference semantics), a
    vectorized `codes_at`, the three-valued code seen from given positions,
    and declared break offsets, the only y where that code can change: T + d
    for every stored event T and d in `offsets`, and wlo + p, whi + q (the
    row's window edges) for every (p, q) in `edge_offsets`.  It reads the
    events at positions `reach` (from T_0 of the point it is seen from) and
    every event within `radius` of that point.
    """

    label: str
    radius: float
    reach: tuple[int, int] | None = None
    offsets: tuple[float, ...] = ()
    edge_offsets: tuple[tuple[float, float], ...] = ()

    def evaluate(self, p: PointPattern) -> bool | None:
        """True/False, or None when the pattern lacks the needed context."""
        raise NotImplementedError

    def codes_at(self, pos: Positions) -> np.ndarray:
        """Codes (1/0/-1) of the eventuality seen from positions pos.y in
        rows pos.rep, i.e. of evaluate(pattern.shift_time(y)); the event
        positions it needs come from pos.le."""
        raise NotImplementedError

    def at_events(self, ctx: EventContext, e: np.ndarray, rep: np.ndarray) -> np.ndarray:
        """Codes (1/0/-1) of the eventuality seen from events at array positions e."""
        return self.codes_at(Positions(ctx, ctx.points[e], rep, known=e))

    def at_origin(self, ctx: EventContext) -> np.ndarray:
        """Codes (1/0/-1) of the eventuality at each replication's own origin."""
        n = ctx.batch.n
        return self.codes_at(Positions(ctx, np.zeros(n), np.arange(n), known=ctx.pos0()))

    def integrate(self, ctx: EventContext, rows: np.ndarray, y_lo, y_hi, cuts=None):
        """Exact integral of the indicator seen from y over y in (y_lo, y_hi].

        rows are replication ids; y_lo and y_hi are scalars or arrays aligned
        with rows.  The integrand is constant between consecutive breaks, so
        it is evaluated once per piece, at the piece's midpoint; only the
        events whose breaks can fall inside (y_lo, y_hi) are laid out, so the
        cost follows the pieces inside the interval, not the row's length.
        Rows go in blocks of at most BLOCK_CELLS laid-out cells, and codes_at
        sees a block whole: one Positions over its (rows, pieces) matrix of
        midpoints, whose pieces of zero width count neither in ok nor in the
        sums.  With cuts (fixed positions), column k holds the integral over
        (y_lo, min(cuts[k], y_hi)].  Returns (values, ok): ok is False for
        rows where a piece of positive width is indeterminate; their values
        are 0.

        The sort of a block's breaks counts, per piece and declared offset d,
        the laid-out events with T + d left of it, which is the piece's guess
        of le(-d).  Every event before the laid-out ones has T - y <= -d and
        none after them has (see the bounds below), so the guess is exact
        when every laid-out event's break sits on the side of the piece
        where T - y, rounded, puts it.  Let M be a row's largest magnitude of
        y_lo, y_hi and its laid-out T, plus the largest |d|, and s =
        spacing(M).  Rounding moves T + d by at most s/2, the midpoint y by
        at most s/2, T - y by at most s and the piece's width w by at most s.
        A break left of the piece then has T + d <= y exactly once w/2 >= s,
        so T - y <= -d also after rounding; a break right of it has T + d - y
        >= w/2 - s, which keeps the rounded T - y above -d once w/2 > 2 s.
        With the width's own rounding, every piece wider than 8 s (half its
        width above 4 s) takes its guesses as they stand, and only the
        narrower pieces of positive width are walked.
        """
        rows = np.asarray(rows, dtype=np.int64)
        m_all = rows.size
        y_lo = np.broadcast_to(np.asarray(y_lo, dtype=np.float64), (m_all,))
        y_hi = np.broadcast_to(np.asarray(y_hi, dtype=np.float64), (m_all,))
        cuts = None if cuts is None else np.asarray(cuts, dtype=np.float64)
        values = np.zeros(m_all if cuts is None else (m_all, cuts.size))
        ok = np.ones(m_all, dtype=bool)
        starts = stops = ctx.off_lo[rows]
        if self.offsets:
            # Breaks outside (y_lo, y_hi) clip to an end: zero-width pieces.
            # Every event before starts has T - y <= -d for all d and all
            # y > y_lo, and every event from the one after last_le(y_hi, -d
            # for the smallest d) on has T - y > -d for all d and y <= y_hi;
            # one more event past it absorbs the rounding of T - y against
            # T + d, so that every break inside lies in the laid-out span.
            starts = np.maximum(ctx.last_le(y_lo, rows, -self.offsets[-1]), starts)
            stops = np.minimum(ctx.last_le(y_hi, rows, -self.offsets[0]) + 2, ctx.off_hi[rows])
        laid = stops > starts
        mag = np.maximum(np.abs(y_lo), np.abs(y_hi))
        mag[laid] = np.maximum(mag[laid], np.maximum(np.abs(ctx.point(starts[laid])),
                                                     np.abs(ctx.point(stops[laid] - 1))))
        # pieces wider than this take their guesses as they stand (see above)
        sure_width = 8.0 * np.spacing(mag + max(map(abs, self.offsets), default=0.0))
        fixed = 2 + 2 * len(self.edge_offsets) + (0 if cuts is None else cuts.size)
        widest = fixed + len(self.offsets) * int(np.max(stops - starts, initial=0))
        step = max(1, BLOCK_CELLS // widest)
        for b0 in range(0, m_all, step):
            blk = slice(b0, b0 + step)
            r = rows[blk]
            lo, hi = y_lo[blk, None], y_hi[blk, None]
            flat, _ = ragged_ranges(starts[blk], stops[blk])
            pts, _ = padded_rows(ctx.points[flat], stops[blk] - starts[blk])
            width = pts.shape[1]
            cols = [lo, hi] + [pts + d for d in self.offsets]
            for p, q in self.edge_offsets:
                cols += [(ctx.wlo[r] + p)[:, None], (ctx.whi[r] + q)[:, None]]
            if cuts is not None:
                cols.append(np.broadcast_to(cuts, (r.size, cuts.size)))
            raw = np.clip(np.concatenate(cols, axis=1), lo, hi)
            order = np.argsort(raw, axis=1, kind="stable")
            edges = raw.ravel()[order + np.arange(0, raw.size, raw.shape[1])[:, None]]
            widths = np.diff(edges, axis=1)
            live = widths > 0
            # the pieces past the last one of positive width in any row are
            # all at hi: they are neither evaluated nor summed
            n = int(np.max(np.flatnonzero(live.any(axis=0)), initial=-1)) + 1
            left, right = edges[:, :n], edges[:, 1:n + 1]
            widths, live = widths[:, :n], live[:, :n]
            # the offset of each sorted break column (-1: bounds, window
            # edges, cuts); pads clip to hi and so never sit left of a piece
            # of positive width
            kind = np.full(raw.shape[1], -1, dtype=np.int16)
            kind[2:2 + len(self.offsets) * width] = np.repeat(
                np.arange(len(self.offsets), dtype=np.int16), width)
            kind = kind[order[:, :n]]
            before = starts[blk, None] - 1

            def guess(d):
                # before + 1 is each row's first laid-out event, so the
                # count of offset d's breaks left of a piece guesses
                # last_le(y, rep, -d)
                if d not in self.offsets:
                    return None
                count = np.cumsum(kind == self.offsets.index(d), axis=1)
                count += before
                return count

            unsure = np.flatnonzero(live & (widths <= sure_width[blk, None]))
            codes = self.codes_at(Positions(ctx, 0.5 * (left + right), r[:, None],
                                            guess=guess, live=live, unsure=unsure))
            ok[blk] = ~((codes == -1) & live).any(axis=1)
            # one sequential running sum per row, from 0 over the pieces in
            # order; a piece of zero width adds 0 whatever its code
            run = np.zeros(edges.shape)
            np.cumsum(widths * (codes == 1), axis=1, out=run[:, 1:n + 1])
            run[:, n + 1:] = run[:, n:n + 1]
            if cuts is None:
                values[blk] = run[:, -1]
            else:
                # the pieces left of a cut's sorted position are those with
                # right edge <= cut, up to pieces of zero width: the cut
                # columns come last, so they sort after every equal break
                first = raw.shape[1] - cuts.size
                row, at = np.nonzero(order >= first)
                values[blk][row, order[row, at] - first] = run[row, at]
        values[~ok] = 0.0
        return values, ok

    def integrate_gap(self, ctx: EventContext, i: np.ndarray, keep: np.ndarray):
        """Per row of the batch, (values, reject) of the exact integral over
        the gap (T, T'] between the events at array positions i and i + 1:
        kept where keep holds, the row stores both ends and the integral is
        determinate; every other row is rejected with value 0."""
        t_lo, t_hi, stored = ctx.gap(i)
        rows = np.flatnonzero(keep & stored)
        integrals, ok = self.integrate(ctx, rows, t_lo[rows], t_hi[rows])
        values = np.zeros(ctx.batch.n)
        values[rows] = integrals
        reject = np.ones(ctx.batch.n, dtype=bool)
        reject[rows[ok]] = False
        return values, reject

    def __eq__(self, other):
        return isinstance(other, Eventuality) and self.label == other.label

    def __hash__(self):
        return hash(self.label)

    def __repr__(self):
        return f"<Eventuality {self.label}>"


class _True(Eventuality):
    """The sure eventuality; its negation is ev_not(ev_true()), label !true."""

    label = "true"
    radius = 0.0

    def evaluate(self, p):
        return True

    def codes_at(self, pos):
        return np.full(pos.y.shape, 1, dtype=np.int8)


class _AlphaCmp(Eventuality):
    """Gap comparison [alpha_n > c] or [alpha_n == c]."""

    radius = 0.0

    def __init__(self, n: int, c: float, op: str):
        if op not in (">", "=="):
            raise ValueError(f"unsupported comparison {op!r}")
        self.n = int(n)
        self.c = float(c)
        self.op = op
        self.reach = (self.n, self.n + 1)
        self.label = f"alpha({self.n}){op}{_fmt(self.c)}"
        # the gap in question changes only when y crosses an event
        self.offsets = (0.0,)

    def _cmp(self, gap):
        return gap > self.c if self.op == ">" else gap == self.c

    def evaluate(self, p):
        try:
            return bool(self._cmp(p.interval(self.n)))
        except _PATTERN_ERRORS:
            return None

    def codes_at(self, pos):
        # not ctx.gap: this read runs at every event of an event trace, and
        # holding both gap ends with a clipped copy of g raises peak memory
        ctx, y = pos.ctx, pos.y
        g = pos.le() + self.n
        lo, hi = pos.bounds
        valid = (g > lo) & (g < hi)
        # the gap between the shifted times, rounded as the scalar form rounds it
        out = self._cmp((ctx.point(g + 1) - y) - (ctx.point(g) - y)).astype(np.int8)
        out[~valid] = -1
        return out


class _CountEq(Eventuality):
    """[N(a, b] == k] with the count taken around the evaluation origin."""

    def __init__(self, a: float, b: float, k: int):
        if not a < b:
            raise ValueError("need a < b")
        if k < 0:
            raise ValueError("need k >= 0")
        self.a = float(a)
        self.b = float(b)
        self.k = int(k)
        self.radius = max(abs(self.a), abs(self.b))
        self.label = f"count({_fmt(self.a)},{_fmt(self.b)}]=={self.k}"
        # event T sits in (y+a, y+b] exactly for y in [T-b, T-a); the
        # window covers (y+a, y+b] exactly for y in [wlo-a, whi-b]
        self.offsets = (-self.b, -self.a)
        self.edge_offsets = ((-self.a, -self.b),)

    def evaluate(self, p):
        try:
            return p.count(self.a, self.b) == self.k
        except OutsideWindow:
            return None

    def codes_at(self, pos):
        out = (pos.le(self.b) - pos.le(self.a) == self.k).astype(np.int8)
        wlo, whi = pos.window
        valid = (wlo - pos.y <= self.a) & (whi - pos.y >= self.b)
        out[~valid] = -1
        return out


class _FirstLe(Eventuality):
    """[T_1 <= t]: the first event after the origin arrives within t."""

    def __init__(self, t: float):
        if not t > 0:
            raise ValueError("need t > 0")
        self.t = float(t)
        self.radius = 0.0
        self.reach = (1, 1)
        self.label = f"T1<={_fmt(self.t)}"
        # an event T is T_1 for y in [T_0, T) and within t for y >= T-t
        self.offsets = (-self.t, 0.0)

    def evaluate(self, p):
        try:
            return bool(p.t(1) <= self.t)
        except _PATTERN_ERRORS:
            return None

    def codes_at(self, pos):
        j = pos.le()  # T_1 is j + 1; indeterminate when no stored event follows y
        valid = j < pos.bounds[1]
        out = (pos.ctx.point(j + 1) - pos.y <= self.t).astype(np.int8)
        out[~valid] = -1
        return out


def straddle_codes(pos: Positions, k: int, x):
    """Codes of [T_-k <= -x < T_-k+1] seen from positions pos (as codes_at);
    x is one distance or an array of distances aligned with pos.y."""
    t_lo, t_hi, valid = pos.ctx.gap(pos.le() - k, pos.bounds)
    out = ((t_lo - pos.y <= -x) & (-x < t_hi - pos.y)).astype(np.int8)
    out[~valid] = -1
    return out


class _PrevStraddle(Eventuality):
    """[T_-k <= -x < T_-k+1]: standing on an event, the origin of the original
    frame at distance x falls between the k-th previous event and its successor."""

    def __init__(self, k: int, x: float):
        self.k = int(k)
        self.x = float(x)
        self.radius = 0.0
        self.reach = (-self.k, -self.k + 1)
        self.label = f"straddle({self.k},{_fmt(self.x)})"
        # T_-k <= y - x flips at y = T + x
        self.offsets = tuple(sorted({0.0, self.x}))

    def evaluate(self, p):
        try:
            return bool(p.t(-self.k) <= -self.x < p.t(-self.k + 1))
        except _PATTERN_ERRORS:
            return None

    def codes_at(self, pos):
        return straddle_codes(pos, self.k, self.x)


class _Not(Eventuality):
    def __init__(self, inner: Eventuality):
        self.inner, self.radius, self.reach = inner, inner.radius, inner.reach
        self.offsets, self.edge_offsets = inner.offsets, inner.edge_offsets
        body = inner.label
        if isinstance(inner, _Binary):
            body = f"({body})"
        self.label = f"!{body}"

    def evaluate(self, p):
        v = self.inner.evaluate(p)
        return None if v is None else not v

    def codes_at(self, pos):
        return _kleene_not(self.inner.codes_at(pos))


class _Binary(Eventuality):
    """Shared by & and |: what both sides read, the label and the union of
    the breaks."""

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.radius = max(left.radius, right.radius)
        reach = [r for r in (left.reach, right.reach) if r is not None]
        self.reach = (min(r[0] for r in reach), max(r[1] for r in reach)) if reach else None
        self.label = f"({left.label} {self.op} {right.label})"
        self.offsets = tuple(sorted({*left.offsets, *right.offsets}))
        self.edge_offsets = tuple(sorted({*left.edge_offsets, *right.edge_offsets}))


class _And(_Binary):
    op = "&"

    def evaluate(self, p):
        u, v = self.left.evaluate(p), self.right.evaluate(p)
        if u is False or v is False:
            return False
        if u is None or v is None:
            return None
        return True

    def codes_at(self, pos):
        return _kleene_and(self.left.codes_at(pos), self.right.codes_at(pos))


class _Or(_Binary):
    op = "|"

    def evaluate(self, p):
        u, v = self.left.evaluate(p), self.right.evaluate(p)
        if u is True or v is True:
            return True
        if u is None or v is None:
            return None
        return False

    def codes_at(self, pos):
        return _kleene_or(self.left.codes_at(pos), self.right.codes_at(pos))


# -- catalog constructors -------------------------------------------------


def ev_true() -> Eventuality:
    return _True()


def ev_interval_gt(n: int, c: float) -> Eventuality:
    """[alpha_n > c]; it reads T_n and T_n+1."""
    if c < 0:
        raise ValueError("need c >= 0")
    return _AlphaCmp(n, c, ">")


def ev_interval_eq(n: int, c: float) -> Eventuality:
    """[alpha_n == c]; useful for lattice patterns where gaps are exact floats."""
    return _AlphaCmp(n, c, "==")


def ev_count_eq(a: float, b: float, k: int) -> Eventuality:
    """[N(a, b] == k]; radius max(|a|, |b|)."""
    return _CountEq(a, b, k)


def ev_first_point_le(t: float) -> Eventuality:
    """[T_1 <= t]."""
    return _FirstLe(t)


def ev_straddle(k: int, x: float) -> Eventuality:
    """[T_-k <= -x < T_-k+1] on event-centered patterns (identity plumbing)."""
    return _PrevStraddle(k, x)


def ev_and(e: Eventuality, f: Eventuality) -> Eventuality:
    return _And(e, f)


def ev_or(e: Eventuality, f: Eventuality) -> Eventuality:
    return _Or(e, f)


def ev_not(e: Eventuality) -> Eventuality:
    if isinstance(e, _Not):
        return e.inner
    return _Not(e)


# [alpha_0 = 1]: the distinguished eventuality of the non-AMS lattice model,
# whose gap encoding makes its indicator at T_i reproduce the 0/1 label x_i.
def ev_example44() -> Eventuality:
    return ev_interval_eq(0, 1.0)


# -- parser ---------------------------------------------------------------

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(
    r"\s*(alpha|count|T1|true|==|<=|>|!|\(|\)|\]|,|&|\|" + f"|{_NUM})"
)


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise ValueError(f"cannot tokenize eventuality text at: {text[pos:]!r}")
            self.toks.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def pop(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of eventuality text")
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, got {tok!r}")
        self.i += 1
        return tok

    def pop_number(self) -> float:
        tok = self.pop()
        try:
            return float(tok)
        except ValueError:
            raise ValueError(f"expected a number, got {tok!r}") from None


def parse_eventuality(text: str) -> Eventuality:
    """Parse the textual eventuality language; inverse of the label form."""
    toks = _Tokens(text)
    expr = _parse_or(toks)
    if toks.peek() is not None:
        raise ValueError(f"trailing input in eventuality text: {toks.peek()!r}")
    return expr


def _parse_or(toks):
    node = _parse_and(toks)
    while toks.peek() == "|":
        toks.pop()
        node = ev_or(node, _parse_and(toks))
    return node


def _parse_and(toks):
    node = _parse_factor(toks)
    while toks.peek() == "&":
        toks.pop()
        node = ev_and(node, _parse_factor(toks))
    return node


def _parse_factor(toks):
    tok = toks.peek()
    if tok == "!":
        toks.pop()
        return ev_not(_parse_factor(toks))
    if tok == "(":
        toks.pop()
        node = _parse_or(toks)
        toks.pop(")")
        return node
    return _parse_atom(toks)


def _parse_atom(toks):
    tok = toks.pop()
    if tok == "true":
        return ev_true()
    if tok == "alpha":
        toks.pop("(")
        n = toks.pop_number()
        if n != int(n):
            raise ValueError("alpha() index must be an integer")
        toks.pop(")")
        op = toks.pop()
        c = toks.pop_number()
        if op == ">":
            return ev_interval_gt(int(n), c)
        if op == "==":
            return ev_interval_eq(int(n), c)
        raise ValueError(f"unsupported alpha comparison {op!r}")
    if tok == "count":
        toks.pop("(")
        a = toks.pop_number()
        toks.pop(",")
        b = toks.pop_number()
        toks.pop("]")
        toks.pop("==")
        k = toks.pop_number()
        if k != int(k):
            raise ValueError("count comparison needs an integer")
        return ev_count_eq(a, b, int(k))
    if tok == "T1":
        toks.pop("<=")
        return ev_first_point_le(toks.pop_number())
    raise ValueError(f"unexpected token {tok!r}")


# Ten-member comparison battery used by the model-agreement invariants.
BATTERY = tuple(
    parse_eventuality(text)
    for text in (
        "alpha(0)>0.5",
        "alpha(0)>1",
        "alpha(0)>2",
        "alpha(1)>1",
        "alpha(-1)>1",
        "count(0,1]==0",
        "count(0,1]==1",
        "count(-1,1]==2",
        "T1<=0.5",
        "(alpha(0)>1 & count(0,2]==1)",
    )
)

# Smaller battery used when sweeping the identity registry.
SUITE_BATTERY = tuple(
    parse_eventuality(text)
    for text in ("alpha(0)>1", "count(0,1]==0", "alpha(-1)>0.5")
)
