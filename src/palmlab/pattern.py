"""Point patterns on a finite observation window.

A pattern is a finite, strictly increasing set of event times inside a
window [lo, hi] with lo <= 0 < hi.  Event indexing follows the convention
that T_0 is the largest time <= 0 and T_1 the smallest time > 0; other
indices are offsets from there.  A window may start at an event at 0, as
the window of a row drawn to a need starts at its first stored event.
Counting uses half-open intervals (a, b].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfPattern, OutsideWindow

# Simpleness guard: two events closer than this are a construction error.
MIN_GAP = 1e-12

# Cells per block wherever ragged rows are laid out as a padded matrix: a
# block holds as many rows as fit this many cells at the laid-out width
# (the longest row's column count), and always at least one row.
BLOCK_CELLS = 65536


@dataclass(frozen=True)
class PointPattern:
    """Immutable sorted realization on a window. All operations are pure."""

    points: np.ndarray
    window: tuple[float, float]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        lo, hi = self.window
        object.__setattr__(self, "window", (float(lo), float(hi)))
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("pattern must hold at least one event time")
        if not (lo <= 0.0 < hi):
            raise ValueError(f"window must hold the origin, lo <= 0 < hi, got {self.window}")
        if pts[0] < lo or pts[-1] > hi:
            raise OutsideWindow(f"events outside window [{lo}, {hi}]")
        if pts.size > 1 and np.min(np.diff(pts)) <= MIN_GAP:
            raise ValueError(f"events closer than {MIN_GAP}; patterns must be simple")

    # -- indexing -------------------------------------------------------

    def position(self, n: int) -> int:
        """Array position of T_n; raises IndexOutOfPattern if absent.

        T_0 exists whenever some event is <= 0 and T_1 whenever some event
        is > 0; neither requires the other side to be occupied.
        """
        pos = int(np.searchsorted(self.points, 0.0, side="right")) - 1 + n
        if pos < 0 or pos >= self.points.size:
            raise IndexOutOfPattern(f"T_{n} is not inside the window")
        return pos

    def t(self, n: int) -> float:
        """Time of event T_n."""
        return float(self.points[self.position(n)])

    def interval(self, n: int) -> float:
        """Gap length between T_n and T_n+1 (always > 0)."""
        pos = self.position(n)
        if pos + 1 >= self.points.size:
            raise IndexOutOfPattern(f"T_{n + 1} is not inside the window")
        return float(self.points[pos + 1] - self.points[pos])

    # -- shifts ---------------------------------------------------------

    def shift_time(self, y: float) -> "PointPattern":
        """View from position y: events move to T_k - y, window moves with them."""
        if y == 0.0:
            return self
        lo, hi = self.window
        return PointPattern(self.points - y, (lo - y, hi - y))

    # -- counting -------------------------------------------------------

    def count(self, a: float, b: float) -> int:
        """Number of events in (a, b]."""
        lo, hi = self.window
        if a > b:
            raise ValueError("need a <= b")
        if a < lo or b > hi:
            raise OutsideWindow(f"({a}, {b}] not contained in [{lo}, {hi}]")
        right = np.searchsorted(self.points, b, side="right")
        left = np.searchsorted(self.points, a, side="right")
        return int(right - left)

    # -- misc -----------------------------------------------------------

    def __len__(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class PatternBatch:
    """Many replications packed into flat arrays (rows sorted per replication).

    ``points[offsets[i]:offsets[i+1]]`` are replication i's event times and
    ``windows[i]`` its window.  Samplers emit batches; estimator kernels
    work on them without materializing per-replication objects.
    """

    points: np.ndarray    # float64, concatenated
    offsets: np.ndarray   # int64, len n+1
    windows: np.ndarray   # float64, shape (n, 2)
    weights: np.ndarray   # float64, shape (n,)

    @property
    def n(self) -> int:
        return int(self.offsets.size - 1)

    def pattern(self, i: int) -> PointPattern:
        lo, hi = self.windows[i]
        return PointPattern(self.points[self.offsets[i]:self.offsets[i + 1]].copy(), (lo, hi))

    def pos0(self) -> np.ndarray:
        """Array position of T_0 (the last event <= 0) per replication.

        Counted exactly, row by row.  Equals offsets[i] - 1 when row i has
        no event <= 0 and offsets[i+1] - 1 when it has no positive event;
        the origin is straddled where offsets[i] <= pos0 < offsets[i+1] - 1.
        """
        starts = self.offsets[:-1]
        # the sentinel keeps trailing empty rows' start indices in range
        nonpos = np.append(self.points <= 0.0, False)
        counts = np.add.reduceat(nonpos, starts) if starts.size else starts
        counts[starts == self.offsets[1:]] = 0
        return starts + counts - 1

    def straddled(self, pos0: np.ndarray) -> np.ndarray:
        """Rows whose origin has a stored event on each side, given pos0()."""
        return (pos0 >= self.offsets[:-1]) & (pos0 + 1 < self.offsets[1:])

    def global_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """Points offset per replication so the flat array is globally sorted.

        Returns (shifted_points, per-replication shift).  Lets a single
        searchsorted answer per-replication interval queries.
        """
        span = float(np.max(np.abs(self.windows))) if self.windows.size else 1.0
        stride = 4.0 * span + 4.0
        shifts = stride * np.arange(self.n, dtype=np.float64)
        return self.points + np.repeat(shifts, np.diff(self.offsets)), shifts


def ragged_ranges(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices covering [starts[i], stops[i]) for each row i.

    Returns (flat_index, row_id) arrays.
    """
    lengths = stops - starts
    lengths = np.maximum(lengths, 0)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    row_id = np.repeat(np.arange(starts.size), lengths)
    head = np.cumsum(lengths) - lengths
    flat = np.arange(total, dtype=np.int64) - np.repeat(head, lengths) + np.repeat(starts, lengths)
    return flat, row_id


def padded_rows(values: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows stored back to back in values, laid out as a matrix padded with +inf.

    Returns the (rows, longest row) matrix and the mask of its filled cells.
    """
    filled = np.arange(int(np.max(lengths, initial=0))) < lengths[:, None]
    out = np.full(filled.shape, np.inf)
    out[filled] = values
    return out, filled


# -- serialization ------------------------------------------------------
#
# One pattern per line: comma-separated ascending timestamps, preceded by a
# header line "# window lo hi" giving that pattern's window.


def write_patterns(path, patterns) -> None:
    with open(path, "w", encoding="utf8") as fh:
        for p in patterns:
            lo, hi = p.window
            fh.write(f"# window {lo!r} {hi!r}\n")
            fh.write(",".join(repr(float(t)) for t in p.points) + "\n")


def read_patterns(path) -> list[PointPattern]:
    out: list[PointPattern] = []
    window: tuple[float, float] | None = None
    with open(path, "r", encoding="utf8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if len(fields) == 3 and fields[0] == "window":
                    window = (float(fields[1]), float(fields[2]))
                continue
            if window is None:
                raise ValueError("pattern line before any '# window lo hi' header")
            pts = np.array([float(tok) for tok in line.split(",")], dtype=np.float64)
            out.append(PointPattern(pts, window))
    return out
