"""Seeded random streams, one per sampling chunk.

Every replication chunk draws from its own SFC64 generator, seeded by a
SeedSequence over (root seed, stream tag, chunk index).  A chunk's draws
are therefore a pure function of those three numbers, independent of
execution order and of the number of worker threads, which is what makes
runs reproducible bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Replications are sampled in fixed-size chunks.  The chunk grid is part of
# the reproducibility contract: partial results merge on chunk boundaries.
CHUNK = 4096

# Variance is estimated from batch means; counts within one replication are
# dependent, so the batch is the independence unit.
VARIANCE_BATCH = 64

MASK64 = 0xFFFFFFFFFFFFFFFF


def stream_tag(label: str | int) -> int:
    """Stable 64-bit tag for a named stream (not Python's randomized hash)."""
    if isinstance(label, int):
        return label & MASK64
    digest = hashlib.sha256(label.encode("utf8")).digest()
    return int.from_bytes(digest[:8], "little")


def chunk_rng(seed: int, stream: str | int, chunk: int) -> np.random.Generator:
    """Generator for one sampling chunk of one stream."""
    entropy = [seed & MASK64, stream_tag(stream), chunk]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))
