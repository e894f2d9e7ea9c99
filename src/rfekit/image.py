"""Page images: PGM decode/encode and the deterministic grid-mean featurizer.

The featurizer stands in for a frozen pretrained feature extractor: it
partitions a page into a 32x32 grid (cell boundaries at ``floor(k*H/32)`` /
``floor(k*W/32)``) and emits the mean intensity of each cell scaled to [0, 1],
row-major, always 1024 values. A trainable linear head sits on top of it.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass

import numpy as np

GRID = 32
FEATURE_DIM = GRID * GRID
FEATURIZER_VERSION = "grid-mean-32x32/1"


# The netpbm header: the magic, then width, height and maxval, each after any
# whitespace and ``#`` comments (to a newline), then one whitespace byte. A
# field never starts with ``#``, so no backtracking reads a comment as one.
_HEADER = re.compile(rb"P[25]" + rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)\s" * 3)


class PgmError(ValueError):
    """Base class for PGM decode failures."""


class PgmFormatError(PgmError):
    """Malformed or unsupported header."""


class PgmTruncatedError(PgmError):
    """Payload shorter than the header promises."""


@dataclass(frozen=True)
class PageImage:
    """Grayscale page: row-major intensities in [0, 255], shape (height, width)."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if self.pixels.shape != (self.height, self.width):
            raise ValueError(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}"
            )


def decode_pgm(data: bytes) -> PageImage:
    """Decode a binary (P5) or ASCII (P2) PGM with maxval <= 255.

    Header comments (``#`` to end of line) are honored. Unsupported magic
    numbers, malformed headers, samples out of range or not ASCII digits,
    and short payloads all raise explicit errors. The pixels are ``uint8``
    intensities in [0, 255]: a sample ``v`` of a page with maxval ``m``
    becomes ``v * 255 / m`` rounded to the nearest integer, halves up, so
    white is 255 at every maxval.
    """
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"unsupported PGM magic {magic!r} (want P2 or P5)")
    header = _HEADER.match(data)
    if header is None:
        raise PgmFormatError("header ended before width, height, maxval and a whitespace byte")
    if bad := next((t for t in header.groups() if not t.isdigit()), None):
        raise PgmFormatError(f"bad header token {bad!r}")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:  # past int's digit limit
        raise PgmFormatError("header field out of range") from None
    offset = header.end()
    if width < 1 or height < 1:
        raise PgmFormatError(f"bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise PgmFormatError(f"unsupported maxval {maxval} (want 1..255)")
    count = width * height
    if magic == b"P5":
        payload = data[offset : offset + count]
        if len(payload) < count:
            raise PgmTruncatedError(
                f"expected {count} pixel bytes, found {len(payload)}"
            )
        values = np.frombuffer(payload, dtype=np.uint8).copy()
    else:
        tokens = re.sub(rb"#[^\n]*", b"", data[offset:]).split()[:count]
        if len(tokens) < count:
            raise PgmTruncatedError(
                f"expected {count} pixel samples, found {len(tokens)}"
            )
        if bad := next((t for t in tokens if not t.isdigit()), None):  # as in the header
            raise PgmFormatError(f"pixel sample {bad!r} out of range: want ASCII digits")
        try:
            values = np.array([int(t) for t in tokens], dtype=np.int64)
        except (ValueError, OverflowError):  # past int's digit limit or 64 bits
            raise PgmFormatError("pixel sample out of range") from None
    if values.max() > maxval:
        raise PgmFormatError("pixel sample out of range")
    if maxval != 255:  # to [0, 255], to the nearest integer, halves up
        values = (values.astype(np.int64) * 255 + maxval // 2) // maxval
    pixels = values.astype(np.uint8, copy=False).reshape(height, width)
    return PageImage(width=width, height=height, pixels=pixels)


def encode_pgm(image: PageImage) -> bytes:
    """Binary (P5) encoding, maxval 255."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.astype(np.uint8).tobytes()


def read_pgm(path) -> PageImage:
    with open(path, "rb") as fh:
        return decode_pgm(fh.read())


def image_features(image: PageImage) -> np.ndarray:
    """1024 grid-cell mean intensities in [0, 1], row-major.

    Images narrower or shorter than 32 px leave some grid cells empty; an
    empty cell copies the nearest previous non-empty cell in scan order (the
    head of the scan, before any non-empty cell, copies the first non-empty
    one). Every pixel belongs to exactly one cell, so at least one cell is
    always non-empty.
    """
    row_starts, col_starts, areas, filled, source = _grid_layout(
        image.height, image.width
    )
    pixels = image.pixels.astype(np.float64)
    sums = np.add.reduceat(
        np.add.reduceat(pixels, row_starts, axis=0), col_starts, axis=1
    )
    cells = np.zeros(FEATURE_DIM)
    cells[filled] = (sums / areas / 255.0).ravel()
    return cells[source]


# Bounded: scanned pages come in many shapes, and each layout holds ~17 KB.
@functools.lru_cache(maxsize=64)
def _grid_layout(height: int, width: int) -> tuple[np.ndarray, ...]:
    """The grid of one page shape: the start of each non-empty row and column
    band, the pixel count of each non-empty cell, the mask of the non-empty
    cells in scan order, and the cell each of the FEATURE_DIM features reads.

    Empty bands are left out, not reduced: reduceat returns a[i], not 0, for
    an empty segment. The kept bands still tile the page, so each segment
    ends where the next kept band starts.
    """
    row_starts, row_sizes, row_kept = _grid_bands(height)
    col_starts, col_sizes, col_kept = _grid_bands(width)
    filled = np.outer(row_kept, col_kept).ravel()
    # Each cell reads the last filled cell at or before it in scan order; the
    # head of the scan reads the first filled cell (filled.argmax()).
    source = np.maximum.accumulate(
        np.where(filled, np.arange(FEATURE_DIM), filled.argmax())
    )
    layout = (row_starts, col_starts, np.outer(row_sizes, col_sizes), filled, source)
    for part in layout:
        part.setflags(write=False)  # shared by every page of this shape
    return layout


def _grid_bands(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start and size of each non-empty grid band along one axis, plus the
    mask of which of the GRID bands are non-empty."""
    edges = (np.arange(GRID + 1) * size) // GRID
    sizes = np.diff(edges)
    kept = sizes > 0
    return edges[:-1][kept], sizes[kept], kept


def featurizer_sha256() -> str:
    """Hash of the featurizer version tag; plays the vocabulary-hash role for
    image-side models."""
    return hashlib.sha256(FEATURIZER_VERSION.encode("ascii")).hexdigest()
