"""Seedable exact samplers for every process law the toolkit verifies.

Every law is a draw, draw(rng, need, k): k rows, each holding what a
kernel reads of it, the Need.  Every two-sided row holds two anchor
events, T_0 and T_1, and draws i.i.d. gaps outward from them, each side
until the row holds the need measured from its anchor (T_0 leftwards, T_1
rightwards); such a row's window ends at its outermost stored events.
When every row keeps the same columns (a pure event need such as
Need(right=256), or Need() for the anchors alone) the drawn matrix is kept
whole, with no mask to gather through.  ProcessModel.sample_batch is the
one sampler around a draw: it redraws, one row at a time in row order,
every row that comes out empty or holds two events within MIN_GAP, and
sample_window is the one reader of a plain window (lo, hi).
All samplers are pure functions of (generator, need), so replications are
reproducible and parallelism-independent.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InsufficientContext, InsufficientWindow, NoMean, UnknownTilt
from .pattern import MIN_GAP, PatternBatch

LAW_TS = "TS"
LAW_ES = "ES"
LAW_TILTED_TS = "TILTED_TS"
LAW_DETERMINISTIC = "DETERMINISTIC"

# the parameters of each gap family, in the order IntervalDistribution.params
# holds them and a model config names them
GAP_PARAMS = {"exponential": ("rate",), "gamma": ("shape", "rate"),
              "deterministic": ("value",), "uniform": ("lo", "hi")}
# how many gaps each registered tilt reads, the straddling gap first
TILT_GAPS = {"identity": 1, "alpha0": 1, "alpha01": 2}


def _label(name: str, params) -> str:
    """name(p1,p2,...), each parameter by its repr."""
    return f"{name}({','.join(repr(p) for p in params)})"


# -- interval distributions ------------------------------------------------


@dataclass(frozen=True)
class IntervalDistribution:
    """Positive gap law with an exact sampler, exact mean, and an exact
    sampler of its length-biased version (density x f(x) / mean)."""

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in GAP_PARAMS:
            raise ValueError(f"unknown interval family {self.family!r}")

    @property
    def mean(self) -> float:
        if self.family == "exponential":
            return 1.0 / self.params[0]
        if self.family == "gamma":
            shape, rate = self.params
            return shape / rate
        if self.family == "deterministic":
            return self.params[0]
        a, b = self.params
        return 0.5 * (a + b)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "exponential":
            # rng.exponential(scale) is scale times the standard draw, so
            # scaling in place gives the same bits without its slower path
            g = rng.standard_exponential(size)
            g *= 1.0 / self.params[0]
            return g
        if self.family == "gamma":
            shape, rate = self.params
            if shape == 2.0:
                # Erlang(2) as -log((1 - u1)(1 - u2)) / rate, in place; 1 - u
                # lies in (0, 1], so the product cannot be 0
                g = rng.random(size)
                np.subtract(1.0, g, out=g)
                u2 = rng.random(size)
                np.subtract(1.0, u2, out=u2)
                g *= u2
                np.log(g, out=g)
                g /= -rate
                return g
            return rng.gamma(shape, 1.0 / rate, size)
        if self.family == "deterministic":
            return np.full(size, self.params[0])
        a, b = self.params
        return rng.uniform(a, b, size)

    def sample_length_biased(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.family == "exponential":
            return rng.gamma(2.0, 1.0 / self.params[0], size)
        if self.family == "gamma":
            shape, rate = self.params
            return rng.gamma(shape + 1.0, 1.0 / rate, size)
        if self.family == "deterministic":
            return np.full(size, self.params[0])
        # inverse CDF of x f(x)/m on [a, b]: F(x) = (x^2 - a^2)/(b^2 - a^2)
        a, b = self.params
        u = rng.random(size)
        return np.sqrt(a * a + u * (b * b - a * a))

    @property
    def label(self) -> str:
        return _label(self.family, self.params)


def exponential(rate: float) -> IntervalDistribution:
    if not rate > 0:
        raise ValueError("need rate > 0")
    return IntervalDistribution("exponential", (float(rate),))


def gamma_intervals(shape: float, rate: float) -> IntervalDistribution:
    if not (shape > 0 and rate > 0):
        raise ValueError("need shape > 0 and rate > 0")
    return IntervalDistribution("gamma", (float(shape), float(rate)))


def deterministic(value: float) -> IntervalDistribution:
    if not value > 0:
        raise ValueError("need value > 0")
    return IntervalDistribution("deterministic", (float(value),))


def uniform_intervals(a: float, b: float) -> IntervalDistribution:
    if not (0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return IntervalDistribution("uniform", (float(a), float(b)))


# -- weight functionals (tilts) ---------------------------------------------


@dataclass(frozen=True)
class Tilt:
    """Nonnegative weight functional of the straddling gaps.

    Registered families read only the gaps around the origin, so their
    value is constant while the origin moves inside the straddling
    interval; that property is what identity checks on the re-centered
    law rely on.
    """

    name: str
    params: tuple[float, ...]

    @property
    def gaps(self) -> int:
        """How many gaps the tilt reads, the straddling gap first."""
        if self.name not in TILT_GAPS:
            raise UnknownTilt(self.name)
        return TILT_GAPS[self.name]

    @property
    def need(self) -> "Need":
        """What the tilt reads of a row past T_1: its gaps after the
        straddling one."""
        return Need(right=self.gaps - 1)

    def value_batch(self, batch: PatternBatch) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the value at the row's own origin and whether the row
        stores every gap the tilt reads (see values_at)."""
        pos0 = batch.pos0()
        return self.values_at(batch.points, pos0, batch.straddled(pos0), batch.offsets[1:])

    def values_at(self, points, i, ok, row_end) -> tuple[np.ndarray, np.ndarray]:
        """Values read from the gap (points[i], points[i+1]) and the ones
        after it, per row, and the rows whose values are defined: those
        where ok (the gap is stored) and every further gap read ends before
        the row's end offset row_end.  Values are 0 where not defined."""
        ok = ok & (i + self.gaps < row_end)
        i = i[ok]
        values = np.zeros(ok.size)
        if self.name == "identity":
            values[ok] = 1.0
        elif self.name == "alpha0":
            values[ok] = self.params[0] * (points[i + 1] - points[i])
        else:
            g0, g1 = self.params
            values[ok] = g0 * (points[i + 1] - points[i]) + g1 * (points[i + 2] - points[i + 1])
        return values, ok

    @property
    def label(self) -> str:
        return _label(self.name, self.params)


def make_tilt(name: str, *params: float) -> Tilt:
    if name == "identity":
        return Tilt("identity", ())
    if name == "alpha0":
        (c,) = params
        if not c > 0:
            raise UnknownTilt("alpha0 tilt needs c > 0")
        return Tilt("alpha0", (float(c),))
    if name == "alpha01":
        g0, g1 = params
        if g0 < 0 or g1 < 0 or (g0 == 0 and g1 == 0):
            raise UnknownTilt("alpha01 tilt needs nonnegative weights, not both zero")
        return Tilt("alpha01", (float(g0), float(g1)))
    raise UnknownTilt(name)


# -- core model type ---------------------------------------------------------


class ProcessModel:
    """A named law, its draw and metadata used by estimators.

    draw(rng, need, k) returns k rows of the law, each holding the need, as
    the law makes them: it may leave a row empty or with two events within
    MIN_GAP, and sample_batch redraws such rows.  Relations to other laws
    are stored values: palm, the Palm version; tilt and untilted, the weight
    of a reweighted law and the time-stationary law it reweights."""

    def __init__(
        self,
        law_tag: str,
        descriptor: dict,
        scale: float,
        draw: Callable[[np.random.Generator, "Need", int], PatternBatch],
        *,
        exact_rate: float | None = None,
        interval: IntervalDistribution | None = None,
        palm: "ProcessModel | None" = None,
        tilt: Tilt | None = None,
        untilted: "ProcessModel | None" = None,
    ):
        self.law_tag = law_tag
        self.descriptor = dict(descriptor)
        self.scale = float(scale)
        self.exact_rate = exact_rate
        self.interval = interval
        self.tilt = tilt
        self.untilted = untilted
        self._draw = draw
        self._palm = palm

    @property
    def is_ts(self) -> bool:
        return self.law_tag == LAW_TS

    @property
    def is_es(self) -> bool:
        return self.law_tag == LAW_ES

    @property
    def is_deterministic(self) -> bool:
        return self.law_tag == LAW_DETERMINISTIC

    def sample_batch(self, rng, need: "Need", n: int) -> PatternBatch:
        """n rows drawn to the need.  A row that comes out empty or holds
        two events within MIN_GAP is replaced, in row order, by the first
        one-row draw without either."""
        if not isinstance(need, Need):
            raise TypeError(f"sample_batch takes a Need, got {need!r}; "
                            "a plain window (lo, hi) is drawn by models.sample_window")

        def draw_row():
            row = self._draw(rng, need, 1)
            return None if _row_flaws(row)[0] else row

        batch = self._draw(rng, need, n)
        return redraw_rows(batch, _row_flaws(batch), draw_row)

    def palm_companion(self) -> "ProcessModel | None":
        """The event-stationary law standing to this one as its Palm version."""
        return self._palm

    @property
    def label(self) -> str:
        name = self.descriptor.get("model", self.law_tag)
        rest = ",".join(
            f"{k}={v}" for k, v in sorted(self.descriptor.items()) if k != "model"
        )
        return f"{name}({rest})"

    def __repr__(self):
        return f"<ProcessModel {self.label} [{self.law_tag}]>"


# -- what a row must hold --------------------------------------------------------


@dataclass(frozen=True)
class Need:
    """What a kernel reads of each row, measured outward from the row's
    anchors (T_0 leftwards, T_1 rightwards): every event within `before`
    of T_0 and `after` of T_1, `left` and `right` more events past the
    outermost of those on each side, and `radius` of time past the
    outermost event read.  Anchored this way, one need serves every row,
    wherever its origin sits between T_0 and T_1.  The union of two needs
    (a | b) holds both."""

    before: float = 0.0
    after: float = 0.0
    left: int = 0
    right: int = 0
    radius: float = 0.0

    def __post_init__(self):
        if not all(0 <= v < math.inf for v in dataclasses.astuple(self)):
            raise InsufficientWindow(f"a need must be finite and nonnegative, got {self}")

    def __or__(self, other: "Need") -> "Need":
        return Need(*(max(a, b) for a, b in zip(dataclasses.astuple(self),
                                                dataclasses.astuple(other))))


def _stop(cum: np.ndarray, span: float, k: int, r: float) -> np.ndarray:
    """Per row of sums c_1 < c_2 < ... outward from an anchor (c_0 = 0), the
    number of sums the row keeps: through the first c_m >= max(span, c_q +
    r), where q is k past the last sum within span; -1 where the row's sums
    end too soon to tell."""
    n, w = cum.shape
    below = cum <= span
    q = _row_counts(below) + k
    # q == 0 reads column -1, which the where discards
    c_q = np.where(q > 0, cum[np.arange(n), np.minimum(q, w) - 1], 0.0)
    t = np.maximum(span, c_q + r)
    m = _row_counts(np.less(cum, t[:, None], out=below)) + (t > 0)
    return np.where((q <= w) & (m <= w), m, -1)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The True cells of each row of a 2-D mask whose rows run True, then
    False (a comparison of sorted sums): the first False, or the width where
    a row has none.  argmin stops at the first False, where a count reads
    every cell: 22 against 53 us on a 4096 x 13 mask, 39 against 571 us at
    4096 x 290 (np.einsum; count_nonzero(axis=1) is slower still)."""
    return np.where(mask[:, -1], mask.shape[1], mask.argmin(axis=1))


# slack of the gap draws, in standard deviations of a Poisson count: a side
# draws per + c*sqrt(per + 1) + c gaps for a need of per mean gaps, and a row
# still short of it gets blocks of c*sqrt(per + 1) + c more gaps
GAP_SLACK = 1.0


def _side_cumsum(rng, dist: IntervalDistribution, n_rows: int, span: float, k: int = 0,
                 r: float = 0.0):
    """Per-row cumulative sums of i.i.d. gaps outward from an anchor, each
    row drawn until it holds every sum within span, k sums past those and
    r of time past the last of them (_stop).

    Returns (blocks, keep): blocks (rows, sums) in drawing order, where a
    later block holds its rows' sums in full, and keep, the sums each row
    keeps.  The first block holds every row; each later block tops up only
    the rows still short.  Whether a row draws again reads only its own
    sums, so every row stays an i.i.d. gap sequence.
    """
    per = (span + r) / dist.mean + k
    if per == 0.0:
        # nothing past the anchor is read
        return [], np.zeros(n_rows, dtype=np.int64)
    extra = max(1, int(GAP_SLACK * (math.sqrt(per + 1.0) + 1.0)))
    cum = dist.sample(rng, (n_rows, int(per) + extra))
    np.cumsum(cum, axis=1, out=cum)
    rows, blocks = slice(None), []
    keep = np.empty(n_rows, dtype=np.int64)
    while True:
        blocks.append((rows, cum))
        m = _stop(cum, span, k, r)
        keep[rows] = m
        short = np.flatnonzero(m < 0)
        if not short.size:
            return blocks, keep
        top = dist.sample(rng, (short.size, extra))
        top[:, 0] += cum[short, -1]
        np.cumsum(top, axis=1, out=top)
        rows = np.arange(n_rows)[rows][short]
        cum = np.hstack((cum[short], top))


def _put_side(blocks, op, anchor: np.ndarray, dst: np.ndarray) -> None:
    """Write op(anchor, sums) of each block's rows into the leading columns
    of dst, later blocks over earlier ones; cells past a row's sums are
    left as they are.  The first block, which holds every row, is written
    straight into dst."""
    for rows, b in blocks:
        w = min(b.shape[1], dst.shape[1])
        if isinstance(rows, slice):
            op(anchor, b[:, :w], out=dst[:, :w])
        else:
            dst[rows, :w] = op(anchor[rows], b[:, :w])


def _assemble_two_sided(rng, need: Need, n: int, anchors: np.ndarray,
                        d: IntervalDistribution) -> PatternBatch:
    """Anchor columns T_0, T_1 per row plus i.i.d. gaps of law d outward
    from them, each side drawn until the row holds the need."""
    left, lkeep = _side_cumsum(rng, d, n, need.before, need.left, need.radius)
    right, rkeep = _side_cumsum(rng, d, n, need.after, need.right, need.radius)
    kl, kr, ka = int(np.max(lkeep)), int(np.max(rkeep)), anchors.shape[1]
    matrix = np.empty((n, kl + ka + kr))
    _put_side(left, np.subtract, anchors[:, :1], matrix[:, :kl][:, ::-1])
    matrix[:, kl:kl + ka] = anchors
    _put_side(right, np.add, anchors[:, -1:], matrix[:, kl + ka:])
    if lkeep.min() == kl and rkeep.min() == kr:
        # every row keeps every column: no mask to build or gather through
        w = matrix.shape[1]
        return PatternBatch(matrix.ravel(), np.arange(0, (n + 1) * w, w, dtype=np.int64),
                            np.column_stack((matrix[:, 0], matrix[:, -1])), np.ones(n))
    # each row drops the cells left of its first kept one, keeps its run and
    # drops the rest: the kept-cell mask is one repeat of those run lengths
    runs = np.column_stack((kl - lkeep, lkeep + ka + rkeep, kr - rkeep))
    valid = np.repeat(np.tile((False, True, False), n), runs.ravel())
    points = matrix.ravel()[valid]
    offsets = np.concatenate(([0], np.cumsum(runs[:, 1])))
    return PatternBatch(points, offsets,
                        np.column_stack((points[offsets[:-1]], points[offsets[1:] - 1])),
                        np.ones(n))


def clip_rows(batch: PatternBatch, window) -> PatternBatch:
    """The batch seen through the plain window (lo, hi): events outside it
    are dropped and every row's window is (lo, hi).  Raises
    InsufficientWindow if a row's own window does not hold (lo, hi)."""
    lo, hi = window
    if np.any(batch.windows[:, 0] > lo) or np.any(batch.windows[:, 1] < hi):
        raise InsufficientWindow(
            f"window ({lo}, {hi}) reaches past what the rows store: "
            f"({batch.windows[:, 0].max()}, {batch.windows[:, 1].min()})")
    keep = (batch.points >= lo) & (batch.points <= hi)
    counts = np.add.reduceat(np.append(keep, False), batch.offsets[:-1])
    counts[np.diff(batch.offsets) == 0] = 0
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    windows = np.tile(np.array((lo, hi), dtype=np.float64), (batch.n, 1))
    return PatternBatch(batch.points[keep], offsets, windows, batch.weights)


def sample_window(model: ProcessModel, rng, window, n: int) -> PatternBatch:
    """n rows of the model clipped to the plain window (lo, hi), finite and
    around the origin, from rows drawn to Need(before=-lo, after=hi), which
    hold it.  Rows of sample_batch hold no two events within MIN_GAP, and a
    clip keeps a run of a sorted row, so only empty rows are redrawn."""
    lo, hi = float(window[0]), float(window[1])
    if not (-math.inf < lo < 0.0 < hi < math.inf):
        raise InsufficientWindow(f"window must be finite and contain the origin, got ({lo}, {hi})")
    need = Need(before=-lo, after=hi)
    batch = clip_rows(model.sample_batch(rng, need, n), (lo, hi))

    def draw_row():
        row = clip_rows(model.sample_batch(rng, need, 1), (lo, hi))
        return row if row.points.size else None

    return redraw_rows(batch, np.diff(batch.offsets) == 0, draw_row)


# redraw_rows gives up on a row after this many rejected draws in a row:
# the window is then too small for the law to fill it
MAX_ROW_DRAWS = 10_000


def redraw_rows(batch: PatternBatch, bad: np.ndarray, draw_row) -> PatternBatch:
    """Replace each flagged row's points, window and weight, in row order,
    with the first one-row batch that draw_row() returns; None rejects a
    draw, and MAX_ROW_DRAWS rejections for one row raise InsufficientWindow."""
    if not bad.any():
        return batch
    windows = batch.windows.copy()
    weights = batch.weights.copy()
    counts = np.diff(batch.offsets)
    # the kept points between flagged rows go over in one piece each
    pieces, kept_from = [], 0
    for i in np.flatnonzero(bad):
        for _ in range(MAX_ROW_DRAWS):
            row = draw_row()
            if row is not None:
                break
        else:
            raise InsufficientWindow(
                f"no acceptable row in {MAX_ROW_DRAWS} draws: the window is too small for the law")
        pieces += [batch.points[kept_from:batch.offsets[i]], row.points]
        kept_from = batch.offsets[i + 1]
        windows[i], weights[i], counts[i] = row.windows[0], row.weights[0], row.points.size
    pieces.append(batch.points[kept_from:])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return PatternBatch(np.concatenate(pieces), offsets, windows, weights)


def _row_flaws(batch: PatternBatch) -> np.ndarray:
    """Rows that are empty or hold two events within MIN_GAP."""
    bad = np.diff(batch.offsets) == 0
    tiny = np.diff(batch.points) <= MIN_GAP
    # a difference across a row boundary compares two rows' events
    inner = batch.offsets[1:-1]
    tiny[inner[(inner > 0) & (inner <= tiny.size)] - 1] = False
    bad[np.searchsorted(batch.offsets[1:], np.flatnonzero(tiny), side="right")] = True
    return bad


def _anchored_ts(straddle_length, d: IntervalDistribution):
    """Draw of a time-stationary law built from its event-centered one: the
    origin-straddling gap has the law of straddle_length(rng, k), the
    origin lands uniformly inside it, and i.i.d. gaps of law d extend
    outward on both sides."""

    def draw(rng, need, k):
        length = straddle_length(rng, k)
        u = rng.random(k)
        t0 = -u * length
        return _assemble_two_sided(rng, need, k, np.column_stack((t0, t0 + length)), d)

    return draw


# -- model factories ----------------------------------------------------------


def _renewal_ts(d: IntervalDistribution, descriptor: dict, rate: float) -> ProcessModel:
    """The time-stationary renewal law with gaps of law d, built by inversion
    from its Palm version renewal_es(d), stored as its palm: the straddling
    gap is drawn length-biased and the origin lands uniformly inside it."""
    return ProcessModel(LAW_TS, descriptor, d.mean, _anchored_ts(d.sample_length_biased, d),
                        exact_rate=rate, interval=d, palm=renewal_es(d))


def poisson_ts(rate: float) -> ProcessModel:
    """Time-stationary homogeneous Poisson law: the renewal law with
    exponential gaps (_renewal_ts), so the straddling gap is Gamma(2, rate)."""
    return _renewal_ts(exponential(rate), {"model": "poisson_ts", "rate": rate}, rate)


def renewal_es(d: IntervalDistribution) -> ProcessModel:
    """Event-stationary renewal law: an event at exactly 0, the anchor T_0,
    and i.i.d. gaps extended independently to both sides, the first of them
    to the anchor T_1."""

    def draw(rng, need, k):
        anchors = np.column_stack((np.zeros(k), d.sample(rng, k)))
        return _assemble_two_sided(rng, need, k, anchors, d)

    return ProcessModel(
        LAW_ES,
        {"model": "renewal_es", "interval": d.label},
        d.mean,
        draw,
        interval=d,
    )


def renewal_ts_from_es(d: IntervalDistribution) -> ProcessModel:
    """Time-stationary renewal law with gaps of law d (_renewal_ts); raises
    NoMean unless their mean is finite and positive."""
    mean = d.mean
    if not (math.isfinite(mean) and mean > 0):
        raise NoMean("interval distribution must have a finite positive mean")
    return _renewal_ts(d, {"model": "renewal_ts", "interval": d.label}, 1.0 / mean)


def tilted_ts(base: ProcessModel, tilt: Tilt) -> ProcessModel:
    """Importance sampler for the law obtained by reweighting a TS base with
    the given functional; estimators self-normalize the weights.  The base
    rows are drawn to the need widened by the gaps the tilt reads, by the
    base's own draw, so the tilted rows are redrawn once, by the tilted
    model's sample_batch.  The base is stored as the law's untilted."""
    if not base.is_ts:
        raise ValueError("tilted_ts needs a time-stationary base model")
    if base.exact_rate is None:
        raise ValueError("tilted_ts needs a base with known intensity")

    def draw(rng, need, k):
        out = base._draw(rng, need | tilt.need, k)
        sigma, ok = tilt.value_batch(out)
        if not ok.all():
            raise InsufficientContext("tilt evaluation needs origin-straddling patterns "
                                      "that store every gap the tilt reads")
        return PatternBatch(out.points, out.offsets, out.windows, out.weights * sigma)

    return ProcessModel(
        LAW_TILTED_TS,
        dict(base.descriptor, model="tilted_ts", base=base.descriptor["model"], tilt=tilt.label),
        base.scale,
        draw,
        tilt=tilt,
        untilted=base,
    )


def pstar_model(base: ProcessModel) -> ProcessModel:
    """The pushforward of the base law under uniform re-centering: the
    origin moves to T_0 + u * alpha_0 with u uniform(0, 1).

    The new origin stays inside the straddling gap, so the base row's
    anchors are the new row's, and a need measured from them is held by
    the base row as it stands.  The base rows come from the base's
    sample_batch, redrawn there before the re-centered rows are.  It keeps
    the base's tilt and untilted law, and has no palm of its own."""

    def draw(rng, need, k):
        out = base.sample_batch(rng, need, k)
        pos0 = out.pos0()
        if not out.straddled(pos0).all():
            raise InsufficientContext("pstar_model needs a base whose rows hold T_0 and T_1")
        y = out.points[pos0] + rng.random(k) * (out.points[pos0 + 1] - out.points[pos0])
        return PatternBatch(out.points - np.repeat(y, np.diff(out.offsets)), out.offsets,
                            out.windows - y[:, None], out.weights)

    return ProcessModel(
        LAW_TS if base.is_ts else LAW_TILTED_TS,
        dict(base.descriptor, model="pstar", base=base.descriptor["model"]),
        base.scale,
        draw,
        tilt=base.tilt,
        untilted=base.untilted,
    )


def example84_exact(rate: float) -> ProcessModel:
    """Exact unweighted sampler of the gap-reweighted Poisson law: the
    origin-straddling gap has a Gamma(3, rate) length with the origin
    uniform inside it, and plain exponential gaps extend outward; it is
    poisson_ts(rate), its untilted law, reweighted by alpha0(rate / 2)."""
    if not rate > 0:
        raise ValueError("need rate > 0")
    return ProcessModel(
        LAW_TILTED_TS,
        {"model": "example84", "rate": rate},
        1.0 / rate,
        _anchored_ts(lambda rng, k: rng.gamma(3.0, 1.0 / rate, k), exponential(rate)),
        tilt=make_tilt("alpha0", rate / 2.0),
        untilted=poisson_ts(rate),
    )


# -- the non-AMS lattice construction ----------------------------------------


def example44_run_lengths(k_max: int) -> list[int]:
    """Block lengths a(1..k_max): a(k) repeats the previous value at even k
    and jumps to the running total at odd k."""
    a = [4]
    for k in range(2, k_max + 1):
        a.append(a[-1] if k % 2 == 0 else sum(a))
    return a


def example44_block_ends(k_max: int) -> list[int]:
    """Cumulative block ends b(1..k_max)."""
    out = []
    total = 0
    for ak in example44_run_lengths(k_max):
        total += ak
        out.append(total)
    return out


def example44_labels(n: int) -> np.ndarray:
    """The 0/1 label sequence x_1..x_n: blocks alternate 1-runs and 0-runs
    with the run lengths above."""
    k = 1
    while example44_block_ends(k)[-1] < n:
        k += 1
    runs = np.repeat(1 - np.arange(k) % 2, example44_run_lengths(k))
    return runs[:n].astype(np.int8)


def example44_times(n: int) -> np.ndarray:
    """Event times T_1..T_n+1 of the realization: T_1 = 1, and gap i is 1
    where x_i = 1 and 2 where x_i = 0 (exact integers)."""
    return np.concatenate(([1.0], 1.0 + np.cumsum(2.0 - example44_labels(n))))


def example44_cesaro_exact(n: int) -> Fraction:
    """Exact running average of the labels, as a rational."""
    labels = example44_labels(n)
    return Fraction(int(labels.sum()), n)


def example44(pattern_len: int) -> ProcessModel:
    """Deterministic realization of the non-AMS label sequence: unit gaps at
    and left of the origin, and gap i equal to 1 where x_i = 1 and 2 where
    x_i = 0, so the indicator of [alpha_0 = 1] seen from event i is x_i."""
    if pattern_len < 1:
        raise ValueError("need pattern_len >= 1")
    right = example44_times(pattern_len)

    def draw(rng, need, n):
        # the need, held on the unit gaps left of the anchor T_0 = 0 and on
        # the stored gaps right of the anchor T_1 = 1; a need that reaches
        # past the realization gets all of it, and the row's window ends at
        # its last event, so what lies past it reads as unknown
        before = np.arange(1.0, need.before + need.left + need.radius + 3.0)
        (kl,) = _stop(before[None], need.before, need.left, need.radius)
        (kr,) = _stop(right[None, 1:] - right[0], need.after, need.right, need.radius)
        pts = np.concatenate((-before[:kl][::-1], [0.0], right if kr < 0 else right[:kr + 1]))
        counts = np.full(n, pts.size, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        windows = np.tile(np.array((pts[0], pts[-1])), (n, 1))
        return PatternBatch(np.tile(pts, n), offsets, windows, np.ones(n))

    return ProcessModel(
        LAW_DETERMINISTIC,
        {"model": "example44", "pattern_len": pattern_len},
        1.5,
        draw,
    )


def example44_natural_window(pattern_len: int) -> tuple[float, float]:
    """simulate's default window: from -2.5 to the last stored event, T_n+1."""
    return (-2.5, float(example44_times(pattern_len)[-1]))


# -- models from config ------------------------------------------------------


# the factory of each gap family, in the order of GAP_PARAMS
_GAP_FACTORIES = dict(zip(GAP_PARAMS, (exponential, gamma_intervals, deterministic,
                                       uniform_intervals)))


def _interval_from_config(cfg) -> IntervalDistribution:
    """The gap law a config names by its family and GAP_PARAMS fields."""
    family = cfg["interval"]
    if family not in GAP_PARAMS:
        raise ValueError(f"unknown interval family {family!r}")
    return _GAP_FACTORIES[family](*(float(cfg[p]) for p in GAP_PARAMS[family]))


def model_from_config(cfg) -> ProcessModel:
    """The law a flat key-value config names (the CLI's model sections)."""
    name = cfg.get("model")
    if name == "poisson_ts":
        return poisson_ts(float(cfg["rate"]))
    if name == "renewal_es":
        return renewal_es(_interval_from_config(cfg))
    if name == "renewal_ts":
        return renewal_ts_from_es(_interval_from_config(cfg))
    if name == "example84":
        return example84_exact(float(cfg["rate"]))
    if name == "example44":
        return example44(int(cfg["pattern_len"]))
    if name == "tilted_ts":
        base_name = cfg.get("base", "poisson_ts")
        if base_name != "poisson_ts":
            raise ValueError("tilted_ts config supports poisson_ts bases")
        base = poisson_ts(float(cfg["rate"]))
        tilt_params = []
        i = 0
        while f"tilt_p{i}" in cfg:
            tilt_params.append(float(cfg[f"tilt_p{i}"]))
            i += 1
        return tilted_ts(base, make_tilt(cfg["tilt"], *tilt_params))
    raise ValueError(f"unknown model {name!r}")
