"""Instance generation and ingestion: synthetic matrices, rating files,
train/test splits, and binary PGM images.

A parsed rating file is a ``RatingSet``: the ``SparseObservations`` of its
users (rows) and items (columns) plus the original ids, so the solver, the
split and ``metrics.rmse`` all read the same sorted coordinate arrays.

Ratings are read by numpy's C text reader, ``np.loadtxt``, in one pass over
the stream.  A "double-colon" stream is first scanned, one numpy pass over
each block's bytes, for a stray ':', which the reader would split on.  A
Python loop over the lines is the fallback: it reads every stream the C
reader declines or rejects (a whitespace-only line is rejected once the
reader reaches it) and raises every ``DataFormatError``, and both give the
same result for every input.  Ids are remapped by a presence table where
they are dense, and duplicate (user, item) lines are resolved by one sort
of their keys.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .linalg import _as_count
from .rng import philox_rng, spawn_seeds
from .sparse_obs import SparseObservations, sample_mask

__all__ = [
    "SyntheticInstance",
    "RatingSet",
    "GrayImage",
    "Corruption",
    "DataFormatError",
    "FORMATS",
    "gen_synthetic",
    "parse_movielens",
    "split_train_test",
    "read_pgm",
    "write_pgm",
    "corrupt_image",
]

# format -> (the line loop's separator, np.loadtxt's one-character delimiter,
# the loadtxt columns of user, item, rating): loadtxt reads "::" as ":" with
# an empty field between the two colons
_FORMATS = {
    "double-colon": ("::", ":", (0, 2, 4)),
    "tab": ("\t", "\t", (0, 1, 2)),
    "csv": (",", ",", (0, 1, 2)),
}
FORMATS = tuple(_FORMATS)
_TABLE_DTYPE = np.dtype([("user", np.int64), ("item", np.int64), ("value", np.float64)])
_SCAN_CHARS = 1 << 20  # block size of the scan ahead of np.loadtxt


class DataFormatError(ValueError):
    """Malformed input data; carries the offending 1-based line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True, eq=False)
class SyntheticInstance:
    """Ground truth Z = U V^T plus a noisy, subsampled observation set."""

    ground_truth: np.ndarray
    observations: SparseObservations


def gen_synthetic(m: int, n: int, r: int, nf: float, sr: float, seed: int) -> SyntheticInstance:
    """Rank-r ground truth from i.i.d. standard normal factors, observed on a
    uniform mask with additive noise nf * E on the observed entries.
    """
    m, n, r = _as_count(m, "m"), _as_count(n, "n"), _as_count(r, "r")
    if r > min(m, n):
        raise ValueError(f"rank must be in [1, min(m, n)], got {r}")
    if not (0.0 < sr <= 1.0):
        raise ValueError(f"sampling ratio must be in (0, 1], got {sr}")
    if not 0.0 <= nf < math.inf:
        raise ValueError(f"noise factor must be finite and >= 0, got {nf}")
    factor_seed, mask_seed, noise_seed = spawn_seeds(seed, 3)
    rng = philox_rng(factor_seed)
    u = rng.standard_normal((m, r))
    v = rng.standard_normal((n, r))
    z = u @ v.T
    rows, cols = sample_mask(m, n, sr, mask_seed)
    vals = z[rows, cols]
    if nf > 0:
        vals = vals + nf * philox_rng(noise_seed).standard_normal(rows.size)
    return SyntheticInstance(z, SparseObservations(m, n, rows, cols, vals))


@dataclass(frozen=True, eq=False)
class RatingSet(SparseObservations):
    """Parsed ratings: users are rows, items are columns, both remapped to
    dense zero-based indices.

    ``user_ids``/``item_ids`` map dense index -> original id;
    ``duplicate_count`` is the number of repeated (user, item) lines dropped.
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    duplicate_count: int


def parse_movielens(stream, fmt: str = "double-colon") -> RatingSet:
    """Parse "user<sep>item<sep>rating[<sep>timestamp]" lines.

    Formats: "double-colon" ("::"-separated .dat), "tab", and "csv" (a
    non-numeric header line is skipped).  Duplicate (user, item) pairs keep
    the last value and are counted.  Values are kept as-is.

    ``_parse_table`` reads a seekable text stream with ``np.loadtxt``; the
    line loop ``_parse_lines`` reads whatever it declines.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    users, items, vals = _parse_table(stream, fmt) or _parse_lines(stream, fmt)
    user_ids, u_dense = _dense_ids(users)
    item_ids, i_dense = _dense_ids(items)
    n = item_ids.size
    keep = _last_of_each_key(u_dense * n + i_dense)
    duplicates = int(u_dense.size - keep.size)
    # np.take first copies a strided source whole, and the C reader's values
    # are a field of its structured table, so they keep the indexing gather
    rows, cols, vals = u_dense.take(keep), i_dense.take(keep), vals[keep]
    # free the temporaries before the constructor's checks allocate their own:
    # the heap keeps its high-water mark through the solve that follows
    del users, items, u_dense, i_dense, keep
    return RatingSet(user_ids.size, n, rows, cols, vals, user_ids, item_ids, duplicates)


def _last_of_each_key(key):
    """The position of the last occurrence of each distinct key, in key order."""
    order = np.argsort(key)
    sorted_key = key.take(order)
    run_starts = np.flatnonzero(np.concatenate(([True], sorted_key[1:] != sorted_key[:-1])))
    # each run holds the positions of one key in any order; its largest is the last
    return np.maximum.reduceat(order, run_starts)


def _dense_ids(ids):
    """``np.unique(ids, return_inverse=True)`` for a 1-D int64 array: the
    sorted distinct ids and each element's index among them.

    Where the ids span no more values than there are elements, a presence
    table and its running count give the same arrays without a sort.
    """
    lo = int(ids.min())
    span = int(ids.max()) - lo  # in Python ints: int64 extremes overflow in numpy
    if span > ids.size:
        return np.unique(ids, return_inverse=True)
    offset = ids - lo
    present = np.zeros(span + 1, dtype=bool)
    present[offset] = True
    rank = np.cumsum(present, dtype=np.intp) - 1
    return np.flatnonzero(present) + lo, rank[offset]


def _fields(parts):
    """(user, item, rating) of a split line; ValueError where one does not parse."""
    return int(parts[0]), int(parts[1]), float(parts[2])


def _is_csv_header(line: str) -> bool:
    """Whether a csv file's first line is a header: three or more fields, of
    which the first three do not parse as a rating."""
    parts = line.strip().split(",")
    if len(parts) < 3:
        return False
    try:
        _fields(parts)
    except ValueError:
        return True
    return False


def _parse_lines(stream, fmt):
    """The line loop: (users, items, values) arrays, or DataFormatError with
    the 1-based line number of the first bad line."""
    sep = _FORMATS[fmt][0]
    # typed arrays, not lists: a list holds a Python object per field, about
    # 100 MB for a million ratings, and the heap keeps much of it after it is freed
    users, items, vals = array("q"), array("q"), array("d")
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", errors="replace")
        line = raw.strip()
        if not line or (fmt == "csv" and lineno == 1 and _is_csv_header(line)):
            continue
        parts = line.split(sep)
        if len(parts) < 3:
            raise DataFormatError(
                f"expected at least 3 {fmt!r} fields, got {len(parts)}", lineno
            )
        try:
            uid, iid, val = _fields(parts)
        except ValueError:
            raise DataFormatError(f"cannot parse fields {parts[:3]}", lineno) from None
        if not math.isfinite(val):
            raise DataFormatError(f"non-finite rating {parts[2]!r}", lineno)
        try:
            users.append(uid)
            items.append(iid)
        except OverflowError:
            raise DataFormatError(f"id outside the int64 range in {parts[:2]}", lineno) from None
        vals.append(val)
    if not users:
        raise DataFormatError("no ratings found in input")
    return (
        np.frombuffer(users, dtype=np.int64),
        np.frombuffer(items, dtype=np.int64),
        np.frombuffer(vals, dtype=np.float64),
    )


_COLON = ord(":")


def _colons_paired(text: str) -> bool:
    """Whether ``text`` holds no single ':' and no ':::', so that every ':'
    is a half of a "::"."""
    # a lone surrogate (a surrogateescape stream) encodes to bytes without ':'
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    # every ':' has exactly one ':' neighbour; a ':' byte never occurs
    # inside a multi-byte UTF-8 character
    is_colon = np.zeros(raw.size + 2, dtype=bool)
    np.equal(raw, _COLON, out=is_colon[1:-1])
    return not (is_colon[1:-1] & (is_colon[:-2] == is_colon[2:])).any()


def _stream_colons_paired(stream) -> bool:
    """``_colons_paired`` over the rest of the stream, read in blocks cut at
    their last newline, so that no '::' is split across two blocks."""
    tail = ""
    while block := stream.read(_SCAN_CHARS):
        block = tail + block
        cut = block.rfind("\n") + 1
        if not _colons_paired(block[:cut]):
            return False
        tail = block[cut:]
    return _colons_paired(tail)


def _read_table(stream, fmt, start):
    """One ``np.loadtxt`` pass from ``start``; None where its result could
    differ from the line loop's."""
    _, delimiter, usecols = _FORMATS[fmt]
    if fmt == "double-colon":
        # ':' as the delimiter would read "1::2::3:4::5" as (1, 2, 3)
        if not _stream_colons_paired(stream):
            return None
        stream.seek(start)
    if fmt == "csv" and not _is_csv_header(stream.readline()):
        stream.seek(start)
    with warnings.catch_warnings():
        # e.g. an int parsed through float ("2.0"), deprecated on some numpy versions
        warnings.simplefilter("error")
        table = np.loadtxt(
            stream, dtype=_TABLE_DTYPE, delimiter=delimiter, usecols=usecols,
            comments=None, ndmin=1,
        )
    if table.size == 0 or not np.isfinite(table["value"]).all():
        return None
    return table["user"], table["item"], table["value"]


def _parse_table(stream, fmt):
    """(users, items, values) from numpy's C reader, or None, with the
    stream back at its start, where the reader declines: a binary or
    non-seekable stream, or an input it rejects, warns about, finds empty
    or reads a non-finite rating from."""
    if not isinstance(stream, io.TextIOBase):
        return None
    try:
        if not stream.seekable():
            return None
        start = stream.tell()
    except (OSError, ValueError):
        return None
    try:
        parsed = _read_table(stream, fmt, start)
    except (ValueError, OverflowError, OSError, Warning):
        parsed = None
    if parsed is None:
        stream.seek(start)
    return parsed


def split_train_test(rs: SparseObservations, train_fraction: float, seed: int):
    """Seeded uniform split by rating record -> (train, test) observations.

    Each side is a sorted index subset of ``rs``, so it keeps its layout:
    the first ``k`` positions of a seeded permutation are marked as train,
    and each side's indices are read off the mark in order.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    k = int(math.floor(train_fraction * rs.nnz + 1e-9))
    is_train = np.zeros(rs.nnz, dtype=bool)
    is_train[philox_rng(seed).permutation(rs.nnz)[:k]] = True

    def subset(idx):
        return SparseObservations(
            rs.m, rs.n, rs.row_idx.take(idx), rs.col_idx.take(idx), rs.values.take(idx)
        )

    return subset(np.flatnonzero(is_train)), subset(np.flatnonzero(~is_train))


@dataclass(frozen=True, eq=False)
class GrayImage:
    """8-bit grayscale image; pixels shape (height, width), values 0..255."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {px.shape}")
        if 0 in px.shape:
            raise ValueError(f"image height and width must be >= 1, got shape {px.shape}")
        if px.dtype != np.uint8:
            # astype would turn nan into 0 and 1.7 into 1
            if not (np.isfinite(px) & (px == np.trunc(px))).all():
                raise ValueError("pixel values must be finite whole numbers")
            if px.min() < 0 or px.max() > 255:
                raise ValueError("pixel values outside [0, 255]")
            px = px.astype(np.uint8)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


# a '#' comment runs to the end of its line, and starts one only where a
# token would
_PGM_TOKEN = re.compile(rb"#[^\r\n]*|(\S+)")


def _pgm_tokens(data: bytes):
    """Yield (token, end offset) for each whitespace-separated header token,
    skipping '#' comments."""
    for match in _PGM_TOKEN.finditer(data):
        if match.group(1) is not None:
            yield match.group(1).decode("ascii", errors="replace"), match.end()


def read_pgm(stream) -> GrayImage:
    """Read a binary (P5) PGM with maxval 255."""
    data = stream.read()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise DataFormatError("empty PGM stream") from None
    if magic != "P5":
        raise DataFormatError(f"unsupported PGM magic {magic!r}, expected 'P5'")
    try:
        (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (StopIteration, ValueError):
        raise DataFormatError("malformed PGM header") from None
    if maxval != 255:
        raise DataFormatError(f"unsupported maxval {maxval}, expected 255")
    if width < 1 or height < 1:
        raise DataFormatError(f"bad dimensions {width} x {height}")
    payload = data[end + 1 :]  # single whitespace byte after maxval
    need = width * height
    if len(payload) < need:
        raise DataFormatError(f"truncated payload: {len(payload)} < {need} bytes")
    px = np.frombuffer(payload[:need], dtype=np.uint8).reshape(height, width)
    return GrayImage(px.copy())


def write_pgm(img: GrayImage, stream) -> None:
    stream.write(b"P5\n%d %d\n255\n" % (img.width, img.height))
    stream.write(img.pixels.tobytes())


@dataclass(frozen=True, eq=False)
class Corruption:
    """Corrupted-pixel mask plus the degraded image with noise in place."""

    mask: np.ndarray  # bool (height, width); True where corrupted
    degraded: GrayImage


def corrupt_image(img: GrayImage, fraction: float, noise_sigma: float, seed: int):
    """Replace a uniform fraction of pixels by Gaussian noise.

    Corrupted positions are treated as missing: the returned observation
    set holds only the kept pixels.  The degraded image (noise written over
    the corrupted positions, centered mid-range) is returned for reporting.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"corruption fraction must be in [0, 1), got {fraction}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    h, w = img.height, img.width
    mask_seed, noise_seed = spawn_seeds(seed, 2)
    mask = np.zeros((h, w), dtype=bool)
    if fraction > 0.0:
        rows, cols = sample_mask(h, w, fraction, mask_seed)
        mask[rows, cols] = True
    keep_r, keep_c = np.nonzero(~mask)
    obs = SparseObservations(
        h, w, keep_r, keep_c, img.pixels[keep_r, keep_c].astype(np.float64)
    )
    degraded = img.pixels.astype(np.float64)
    n_bad = int(mask.sum())
    if n_bad:
        noise = philox_rng(noise_seed).normal(127.5, noise_sigma, size=n_bad)
        degraded[mask] = noise
    degraded = np.clip(np.rint(degraded), 0, 255).astype(np.uint8)
    return obs, Corruption(mask=mask, degraded=GrayImage(degraded))
