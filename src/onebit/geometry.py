"""Points on the unit sphere, the geodesic metric, and the points CSV format.

The normalized geodesic distance between unit vectors x and y is
arccos(x.y)/pi, so antipodal points are at distance 1.  A direction theta
"separates" x and y when sgn(x.theta) != sgn(y.theta); for theta uniform on
the sphere the probability of separation equals the geodesic distance, which
is what makes one-bit sign maps approximate the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

#: Tolerance on |norm - 1| for vectors claimed to lie on the sphere.
UNIT_NORM_TOL = 1e-9

#: Rows per block of geodesic_blocks, the one walk over a point set's pairs.
PAIR_BLOCK_ROWS = 256


class PointSetParseError(ValueError):
    """A points CSV file is malformed; the message names the offending row."""


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered set of n >= 1 points on a common sphere of dimension >= 2, stored as an (n, dim) matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        # Rows are checked where the file is read, by read_point_set; this is a read-only float64 copy.
        mat = np.array(self.matrix, dtype=np.float64)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

def geodesic_matrix(points: PointSet, lo: int, hi: int) -> np.ndarray:
    """Normalized geodesic distances from points lo..hi-1 to points lo..n-1: arccos of the clamped Gram block over pi.

    Pairs left of the block's diagonal are skipped, as each also appears to its
    right.  Computed in place in the Gram block, so only one array is allocated.
    """
    geo = points.matrix[lo:hi] @ points.matrix[lo:].T
    np.clip(geo, -1.0, 1.0, out=geo)
    np.arccos(geo, out=geo)
    geo /= math.pi
    return geo


def geodesic_blocks(points: PointSet) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, geodesic_matrix(points, lo, lo + PAIR_BLOCK_ROWS)) for lo = 0, PAIR_BLOCK_ROWS, ... below n - 1.

    Together the blocks hold every pair i < j once, and memory grows as n, not n^2.
    """
    for lo in range(0, points.n - 1, PAIR_BLOCK_ROWS):
        yield lo, geodesic_matrix(points, lo, lo + PAIR_BLOCK_ROWS)


def read_point_set(path: str | Path, normalize: bool = False) -> PointSet:
    """Parse a points CSV: one vector per line, comma-separated decimals, no header.

    With ``normalize`` each row is rescaled to unit norm (zero rows are
    rejected); without it, rows whose norm deviates from 1 by more than
    ``UNIT_NORM_TOL`` are rejected.  Errors name the offending 1-based row.
    """
    text = Path(path).read_text(encoding="utf-8")  # universal newlines: \r\n and a lone \r end a row, as \n does
    lines = text.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:  # here, before np.loadtxt, which warns on a file without data
        raise PointSetParseError("empty points file")

    # numpy's C reader converts each component with PyOS_string_to_double, as float() does.  But it skips
    # blank lines, takes non-finite values and one-component rows, and strips U+001C..U+001F around a
    # component, which float() refuses; and it refuses underscores and non-ASCII digits, which float() reads.
    # A file it does not take whole, one row per line, goes to _parse_rows, which names the first bad row.
    try:
        mat = np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        mat = None
    if (mat is None or mat.shape[0] != len(lines) or mat.shape[1] < 2 or not np.isfinite(mat).all()
            or any(sep in text for sep in "\x1c\x1d\x1e\x1f")):
        mat = _parse_rows(lines)

    norms = np.linalg.norm(mat, axis=1)
    if normalize:
        zero = np.nonzero(norms < 1e-12)[0]
        if zero.size:
            raise PointSetParseError(f"row {int(zero[0]) + 1}: zero-norm vector cannot be normalized")
        mat = mat / norms[:, None]
    else:
        bad = np.nonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise PointSetParseError(f"row {i + 1}: norm {float(norms[i])!r} is not 1 within {UNIT_NORM_TOL} (pass normalize to rescale)")
    return PointSet(mat)


def _parse_rows(lines: list[str]) -> np.ndarray:
    """The matrix of one row per line, each component parsed by float(); errors name the first bad 1-based row."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(",")
        try:
            values = list(map(float, parts))
        except ValueError:
            raise PointSetParseError(f"row {lineno}: cannot parse components {line!r}") from None
        if len(values) < 2:
            raise PointSetParseError(f"row {lineno}: need at least 2 components, got {len(values)}")
        if not all(map(math.isfinite, values)):
            raise PointSetParseError(f"row {lineno}: components must be finite")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise PointSetParseError(f"row {lineno}: ragged row, expected {width} components, got {len(values)}")
        rows.append(values)
    return np.array(rows, dtype=np.float64)
