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
`codes_at` reads event positions from one `Positions` view, which finds
each offset's positions once: known at events and at the origin, settled
from a guess in `integrate`, searched otherwise.  Evaluation at events
and at the origin are `codes_at` at those positions, and `integrate` sums
the piecewise-constant code between sorted breaks to get exact integrals
over time shifts, laying out only the events whose breaks can fall inside
the interval; the sort of those breaks says which events lie left of each
piece, which is its guess.  `integrate_gap` is the one integral over a gap
between two events, per row of a batch, that the Palm kernels share.

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

import re

import numpy as np

from .errors import IndexOutOfPattern, OutsideWindow
from .pattern import BLOCK_CELLS, PatternBatch, PointPattern, padded_rows, ragged_ranges

_PATTERN_ERRORS = (IndexOutOfPattern, OutsideWindow)


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

    def gap(self, i: np.ndarray, rep: np.ndarray | None = None):
        """(t_lo, t_hi, stored): the times of the events at array positions
        i and i + 1, and whether row rep stores both (without rep, i holds
        one position per row).  The reads clip i into [0, size - 2], so
        t_hi - t_lo is always the gap between two distinct stored events;
        callers mask the rows where stored fails."""
        rows = slice(None) if rep is None else rep
        safe = np.clip(i, 0, max(self.points.size - 2, 0))
        return (self.point(safe), self.point(safe + 1),
                (i >= self.off_lo[rows]) & (i + 1 < self.off_hi[rows]))

    def last_le(self, y: np.ndarray, rep: np.ndarray, c: float = 0.0) -> np.ndarray:
        """Array position of the last event T of row rep with T - y <= c
        (off_lo - 1 when there is none), with T - y rounded as in the
        scalar shift_time.

        One searchsorted on the globally sorted points gives a first guess,
        which `settle` moves to the exact position.
        """
        gs, shifts = self.gsorted()
        j = np.searchsorted(gs, (y + c) + shifts[rep], side="right") - 1
        return self.settle(j, y, rep, c)

    def settle(self, j: np.ndarray, y: np.ndarray, rep: np.ndarray, c: float = 0.0) -> np.ndarray:
        """The exact last_le(y, rep, c) from guesses j near it: comparing
        unshifted values moves each guess one event at a time, so the
        rounding of a guess's search key never decides a comparison."""
        lo = self.off_lo[rep] - 1
        hi = self.off_hi[rep] - 1
        j = np.clip(j, lo, hi)
        while True:
            down = (j > lo) & (self.point(j) - y > c)
            up = (j < hi) & (self.point(j + 1) - y <= c)
            if not (down.any() or up.any()):
                return j
            j = j - down + up


class Positions:
    """Event positions seen from positions y of rows rep: le(c) is
    ctx.last_le(y, rep, c), found once per offset c and kept.

    known is the answer at c = 0 where the caller has it (the events
    themselves, or T_0 at the origin); guess(d), where it is not None,
    gives positions near the answer at c = -d, which ctx.settle makes
    exact (integrate reads them off its sorted breaks); any other offset
    is searched.
    """

    __slots__ = ("ctx", "y", "rep", "guess", "_le")

    def __init__(self, ctx: EventContext, y, rep, known=None, guess=None):
        self.ctx, self.y, self.rep, self.guess = ctx, y, rep, guess
        self._le = {} if known is None else {0.0: known}

    def le(self, c: float = 0.0) -> np.ndarray:
        if c not in self._le:
            j = None if self.guess is None else self.guess(-c)
            self._le[c] = (self.ctx.last_le(self.y, self.rep, c) if j is None
                           else self.ctx.settle(j, self.y, self.rep, c))
        return self._le[c]


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
        Rows go in blocks of at most BLOCK_CELLS laid-out cells.  The sort of
        a block's breaks counts, per piece and declared offset d, the
        laid-out events with T + d left of it: the guess of the Positions
        that codes_at reads, so no piece searches at a declared offset.
        With cuts (fixed positions), column k holds the integral over
        (y_lo, min(cuts[k], y_hi)].  Returns (values, ok): ok is False for
        rows where a piece of positive width is indeterminate; their values
        are 0.
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
            # The searches bound the events with T + d inside, up to the
            # rounding of T - y against T + d, which one more event on each
            # side absorbs (events are more than MIN_GAP apart).  Every event
            # before starts has T - y <= -d for all d and all y > y_lo.
            starts = np.maximum(ctx.last_le(y_lo, rows, -self.offsets[-1]), starts)
            stops = np.minimum(ctx.last_le(y_hi, rows, -self.offsets[0]) + 2, ctx.off_hi[rows])
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
            edges = np.take_along_axis(raw, order, axis=1)
            left, right = edges[:, :-1], edges[:, 1:]
            widths = right - left
            # the pieces of positive width, as flat indices in row order
            live = np.flatnonzero(widths > 0)
            at = live // widths.shape[1]
            y = (0.5 * (left + right)).ravel()[live]
            rep = r[at]
            # the offset of each sorted break column (-1: bounds, window
            # edges, cuts); pads clip to hi and so never sit left of a piece
            kind = np.full(raw.shape[1], -1, dtype=np.int16)
            kind[2:2 + len(self.offsets) * width] = np.repeat(
                np.arange(len(self.offsets), dtype=np.int16), width)
            kind = kind[order[:, :-1]]
            before = starts[blk][at] - 1

            def guess(d):
                # before + 1 is each piece's first laid-out event, so the
                # count of offset d's breaks left of the piece guesses
                # last_le(y, rep, -d)
                if d not in self.offsets:
                    return None
                count = np.cumsum(kind == self.offsets.index(d), axis=1, dtype=np.int32)
                return before + count.ravel()[live]

            codes = np.zeros(widths.shape, dtype=np.int8)
            codes.ravel()[live] = self.codes_at(Positions(ctx, y, rep, guess=guess))
            ok[blk] = ~(codes == -1).any(axis=1)
            # one sequential running sum per row, from 0 over the pieces in order
            run = np.zeros(edges.shape)
            np.cumsum(np.where(codes == 1, widths, 0.0), axis=1, out=run[:, 1:])
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

    # -- sugar --------------------------------------------------------------

    def __and__(self, other):
        return ev_and(self, other)

    def __or__(self, other):
        return ev_or(self, other)

    def __invert__(self):
        return ev_not(self)

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

    def __init__(self, n: int, c: float, op: str, radius: float = 0.0):
        if op not in (">", "=="):
            raise ValueError(f"unsupported comparison {op!r}")
        self.n = int(n)
        self.c = float(c)
        self.op = op
        self.radius = float(radius)
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
        ctx, y, rep = pos.ctx, pos.y, pos.rep
        g = pos.le() + self.n
        valid = (g >= ctx.off_lo[rep]) & (g + 1 < ctx.off_hi[rep])
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
        ctx, y, rep = pos.ctx, pos.y, pos.rep
        out = (pos.le(self.b) - pos.le(self.a) == self.k).astype(np.int8)
        valid = (ctx.wlo[rep] - y <= self.a) & (ctx.whi[rep] - y >= self.b)
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
        nxt = pos.le() + 1  # T_1; indeterminate when no stored event follows y
        valid = nxt < pos.ctx.off_hi[pos.rep]
        out = (pos.ctx.point(nxt) - pos.y <= self.t).astype(np.int8)
        out[~valid] = -1
        return out


def straddle_codes(pos: Positions, k: int, x):
    """Codes of [T_-k <= -x < T_-k+1] seen from positions pos (as codes_at);
    x is one distance or an array of distances aligned with pos.y."""
    t_lo, t_hi, valid = pos.ctx.gap(pos.le() - k, pos.rep)
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


def ev_interval_gt(n: int, c: float, radius: float = 0.0) -> Eventuality:
    """[alpha_n > c]; it reads T_n and T_n+1, and radius is a time radius the
    caller declares it reads as well."""
    if c < 0:
        raise ValueError("need c >= 0")
    return _AlphaCmp(n, c, ">", radius)


def ev_interval_eq(n: int, c: float, radius: float = 0.0) -> Eventuality:
    """[alpha_n == c]; useful for lattice patterns where gaps are exact floats."""
    return _AlphaCmp(n, c, "==", radius)


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
