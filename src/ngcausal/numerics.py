"""Seeded random streams.

All arithmetic is float64.
"""

import numpy as np


class SeededRng:
    """Reproducible random stream: identical seeds give identical draws.

    Wraps ``numpy.random.Generator`` over PCG64 keyed by a ``SeedSequence``,
    so streams are stable across runs and platforms.  A ``SeededRng`` is
    single-owner; parallel work must seed its own streams with
    :func:`child_seed`, never share one instance.
    """

    def __init__(self, seed):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed}")
        self.seed = seed
        self.gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def __repr__(self):
        return f"SeededRng(seed={self.seed})"


def child_seed(seed, index):
    """Derive an integer child seed from (parent seed, stream index)."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])
