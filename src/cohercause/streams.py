"""Deterministic random-stream derivation for parallel Monte Carlo."""
from __future__ import annotations

# numpy loads numpy.random lazily; importing it here keeps that cost out of
# the first draw of a run.
from numpy.random import Generator, SeedSequence, default_rng


def stream_rng(seed: int, *key: int) -> Generator:
    """Return an independent generator for (master seed, stream key).

    Streams with distinct keys are statistically independent; the same
    (seed, key) pair always yields the same generator state, regardless
    of how many workers the caller partitions its job across.
    """
    if any(k < 0 for k in key):
        raise ValueError("stream key indices must be non-negative")
    return default_rng(SeedSequence(seed, spawn_key=tuple(int(k) for k in key)))
