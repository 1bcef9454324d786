"""Seeded random streams.

All arithmetic is float64.
"""

import numpy as np


class SeededRng(np.random.Generator):
    """Reproducible random stream: a numpy ``Generator`` over PCG64 keyed by
    ``seed``, so identical seeds give identical draws on every run and platform.

    A ``SeededRng`` is single-owner; parallel work must seed its own streams
    with :func:`child_seed`, never share one instance.
    """

    def __init__(self, seed):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed}")
        super().__init__(np.random.PCG64(seed))


def child_seed(seed, index):
    """Derive an integer child seed from (parent seed, stream index)."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])
