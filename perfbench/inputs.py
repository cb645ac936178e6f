"""Seeded benchmark inputs, written once per seed to a cache in the checkout.

The generators use numpy only and never call the library under test, so a
change to the library cannot change the bytes the benchmark feeds it.  Each
file is written to a temporary name and renamed into place, and its SHA-256
is recorded so that two commits can be shown to have read identical inputs.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

# MovieLens-1M shape: 6040 users, 3706 rated items (ids drawn from 1..3952),
# 1,000,209 ratings, at least 20 ratings per user.
ML_USERS = 6040
ML_ITEMS = 3706
ML_ITEM_ID_SPACE = 3952
ML_RATINGS = 1_000_209
ML_MIN_PER_USER = 20
ML_SIGNAL_RANK = 5

IMAGE_SIDE = 256

CACHE_KEEP = 4


def sub_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from one benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, np.uint32)]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def ratings_bytes(seed: int) -> bytes:
    """A ``user::item::rating::timestamp`` file shaped like MovieLens-1M.

    Per-user counts are 20 plus a lognormal tail; item popularity follows a
    Zipf-like 1/(rank + 10) law over a shuffled item order, so a few items
    are rated by thousands of users and most by a few dozen.  Ratings are the
    integers 1..5 obtained by rounding a rank-5 signal plus user and item
    biases and noise.
    """
    rng = np.random.default_rng(seed)
    tail = rng.lognormal(mean=0.0, sigma=1.0, size=ML_USERS)
    extra = ML_RATINGS - ML_MIN_PER_USER * ML_USERS
    counts = ML_MIN_PER_USER + np.floor(tail / tail.sum() * extra).astype(np.int64)
    short = ML_RATINGS - int(counts.sum())
    counts[rng.choice(ML_USERS, size=short, replace=False)] += 1
    counts = np.minimum(counts, ML_ITEMS)

    popularity = 1.0 / (np.arange(ML_ITEMS) + 10.0)
    popularity = popularity[rng.permutation(ML_ITEMS)]
    popularity /= popularity.sum()
    items = np.concatenate(
        [rng.choice(ML_ITEMS, size=c, replace=False, p=popularity) for c in counts]
    )
    users = np.repeat(np.arange(ML_USERS), counts)

    u = rng.standard_normal((ML_USERS, ML_SIGNAL_RANK))
    v = rng.standard_normal((ML_ITEMS, ML_SIGNAL_RANK))
    user_bias = 0.4 * rng.standard_normal(ML_USERS)
    item_bias = 0.5 * rng.standard_normal(ML_ITEMS)
    signal = np.einsum("ij,ij->i", u[users], v[items]) / np.sqrt(ML_SIGNAL_RANK)
    score = 3.6 + user_bias[users] + item_bias[items] + 0.6 * signal
    score += 0.5 * rng.standard_normal(score.size)
    ratings = np.clip(np.rint(score), 1, 5).astype(np.int64)

    item_ids = np.sort(rng.choice(ML_ITEM_ID_SPACE, size=ML_ITEMS, replace=False)) + 1
    stamps = 956_703_932 + rng.integers(0, 90_000_000, size=users.size)
    order = np.lexsort((stamps, users))
    cols = np.stack(
        [users[order] + 1, item_ids[items[order]], ratings[order], stamps[order]], axis=1
    )
    lines = "\n".join(f"{a}::{b}::{c}::{d}" for a, b, c, d in cols.tolist())
    return (lines + "\n").encode("ascii")


def image_bytes(seed: int) -> bytes:
    """A 256x256 binary PGM: a smooth shaded background plus flat-shaded
    rectangles and discs whose borders are sharp edges."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE] / IMAGE_SIDE
    img = 110.0 + 40.0 * xx + 30.0 * yy
    for _ in range(3):
        fx, fy = rng.uniform(0.5, 2.5, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        img += 15.0 * np.cos(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    for _ in range(6):
        x0, y0 = rng.uniform(0.0, 0.8, size=2)
        w, h = rng.uniform(0.1, 0.35, size=2)
        inside = (xx >= x0) & (xx < x0 + w) & (yy >= y0) & (yy < y0 + h)
        img[inside] += rng.uniform(-70.0, 70.0)
    for _ in range(4):
        cx, cy = rng.uniform(0.15, 0.85, size=2)
        rad = rng.uniform(0.05, 0.2)
        inside = (xx - cx) ** 2 + (yy - cy) ** 2 < rad**2
        img[inside] = rng.uniform(20.0, 235.0)
    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (IMAGE_SIDE, IMAGE_SIDE) + pixels.tobytes()


_GENERATORS = {"ratings": (ratings_bytes, "dat"), "image": (image_bytes, "pgm")}


def cached_input(kind: str, seed: int, cache_dir: Path) -> tuple[Path, str]:
    """Path and SHA-256 of the ``kind`` input for ``seed``, generated on a miss.

    The cache keeps the ``CACHE_KEEP`` most recently used files of each kind
    (a ratings file is 25 MB).
    """
    make, ext = _GENERATORS[kind]
    path = cache_dir / f"{kind}-seed{seed}.{ext}"
    if path.exists():
        os.utime(path)
    else:
        _write_atomic(path, make(seed))
        older = sorted(cache_dir.glob(f"{kind}-seed*.{ext}"), key=lambda f: f.stat().st_mtime)
        for stale in older[:-CACHE_KEEP]:
            stale.unlink()
    return path, sha256_file(path)
