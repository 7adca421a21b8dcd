"""Shared assertion helpers and independent simulation oracles.

Oracles deliberately avoid the estimator code paths they certify: they
simulate with plain numpy generators and evaluate predicates by hand.
"""

import numpy as np
import pytest

from palmlab.estimate import Estimate

DEFAULT_ATOL = 0.002


def within(est: Estimate, expected: float, z: float = 3.0, atol: float = DEFAULT_ATOL,
           label: str = "") -> None:
    """Assert |est - expected| <= z * s.e. + atol."""
    tol = z * est.std_error + atol
    diff = abs(est.value - expected)
    assert diff <= tol, (
        f"{label or 'estimate'}: {est.value:.5f} vs expected {expected:.5f} "
        f"(diff {diff:.5f} > tol {tol:.5f}, se {est.std_error:.5f})"
    )


def agree(a: Estimate, b: Estimate, z: float = 3.0, atol: float = DEFAULT_ATOL,
          label: str = "") -> None:
    """Assert two estimates agree within z combined s.e. plus atol."""
    se = float(np.hypot(a.std_error, b.std_error))
    diff = abs(a.value - b.value)
    assert diff <= z * se + atol, (
        f"{label or 'pair'}: {a.value:.5f} vs {b.value:.5f} "
        f"(diff {diff:.5f} > tol {z * se + atol:.5f})"
    )


# -- independent oracles --------------------------------------------------


def palm_renewal_oracle(gap_sampler, statistic, reps: int, seed: int,
                        n_left: int = 8, n_right: int = 8):
    """Event-centered renewal simulation with plain numpy.

    Builds gap vectors (alpha_-n_left..alpha_-1, alpha_0..alpha_n_right-1)
    as i.i.d. draws and applies `statistic(left_gaps, right_gaps)` per
    replication (vectorized over rows).  Returns (mean, s.e.).
    """
    rng = np.random.default_rng(seed)
    left = gap_sampler(rng, (reps, n_left))
    right = gap_sampler(rng, (reps, n_right))
    vals = statistic(left, right)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(reps))


def random_pattern(rng, span: float = 12.0, rate: float = 1.0):
    """A straddling Poisson test pattern with plain numpy (for property tests)."""
    from palmlab.pattern import PointPattern

    while True:
        n = rng.poisson(rate * 2 * span)
        pts = np.sort(rng.uniform(-span, span, n))
        if n >= 2 and pts[0] <= 0.0 < pts[-1] and np.all(np.diff(pts) > 1e-9):
            return PointPattern(pts, (-span, span))


def rows_batch(rows, window):
    """A PatternBatch of hand-written rows (ascending event times), all on
    one window, with unit weights."""
    from palmlab.pattern import PatternBatch

    pts = np.concatenate([np.array(r, dtype=float) for r in rows])
    offsets = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
    return PatternBatch(pts, offsets, np.tile(window, (len(rows), 1)), np.ones(len(rows)))


def declared_breaks(ev, pts, wlo, whi) -> np.ndarray:
    """The break matrix of ev built from its declared offsets: one column
    T + d per event column of pts (rows of events, padded with +inf) and
    offset d, and the columns wlo + p, whi + q per window offset pair."""
    wlo = np.asarray(wlo, dtype=np.float64)[:, None]
    whi = np.asarray(whi, dtype=np.float64)[:, None]
    cols = [pts + d for d in ev.offsets]
    for p, q in ev.edge_offsets:
        cols += [wlo + p, whi + q]
    return np.concatenate(cols + [np.empty((pts.shape[0], 0))], axis=1)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
