"""Seeding helpers.

All randomness in the package flows through the counter-based Philox
bit generator so that seeds are portable across platforms, and sub-seeds
are derived by SeedSequence spawning so that one integer reproduces an
entire experiment.  Both functions check a seed by ``linalg._as_count``.
"""

from __future__ import annotations

import numpy as np

from .linalg import _as_count


def philox_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_as_count(seed, "seed", minimum=0)))


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent integer sub-seeds from one master seed."""
    children = np.random.SeedSequence(_as_count(seed, "seed", minimum=0)).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]
