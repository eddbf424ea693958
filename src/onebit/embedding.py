"""The random m-dimensional one-bit map, bit-packed Hamming codes, and pair checkers.

A map is an (m, dim) array of m uniform directions theta_1..theta_m; a sphere
point x is sent to the m-bit code with bit j = 1 iff x.theta_j >= 0.  The normalized
Hamming distance between two codes is popcount(xor)/m, a multiple of 1/m.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .geometry import PointSet, geodesic_blocks

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1

#: Header of the binary code-set format: magic, version byte, then n and m as
#: 8-byte little-endian integers, then each code's words little-endian.
CODESET_MAGIC = b"OB1J"
CODESET_VERSION = 1

#: band_fails' two readings of a deviation exactly equal to delta: it passes (strict) or fails (inclusive).
BOUNDARIES = ("strict", "inclusive")

#: Rows per slab of pair_stream; it divides PAIR_BLOCK_ROWS, so a geodesic block splits into whole slabs.
PAIR_SLAB_ROWS = 16


def words_needed(m: int) -> int:
    return (m + WORD_BITS - 1) // WORD_BITS


def _tail_mask(m: int) -> int:
    r = m % WORD_BITS
    return _WORD_MASK if r == 0 else (1 << r) - 1


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 (or bool) bits of shape (..., m) into little-endian uint64 words of shape (..., words_needed(m)).

    Bit j goes to word j // 64 at position j % 64; padding bits past m are zero.
    """
    *lead, m = bits.shape
    packed = np.packbits(bits.reshape(-1, m), axis=1, bitorder="little")
    padded = np.zeros((packed.shape[0], 8 * words_needed(m)), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8").reshape(*lead, -1)


def draw_codes(shape: tuple[int, ...], m: int, rng: np.random.Generator) -> np.ndarray:
    """iid uniform m-bit codes as packed words of shape (*shape, words_needed(m)), padding bits zero."""
    words = rng.integers(0, 2**WORD_BITS, size=(*shape, words_needed(m)), dtype=np.uint64)
    words[..., -1] &= np.uint64(_tail_mask(m))
    return words


class CodeSet:
    """An ordered sequence of n codes sharing one length m, held as one read-only (n, words_needed(m)) uint64 array.

    Row i is code i's words: bit j in word j // 64 at position j % 64
    (little-endian within the word).  Padding bits past m in the last word
    must be zero, so equal codes are equal rows.
    """

    __slots__ = ("words", "m")

    def __init__(self, words: np.ndarray, m: int) -> None:
        words = np.array(words, dtype=np.uint64)
        bad = np.flatnonzero(words[:, -1] & ~np.uint64(_tail_mask(m)))
        if bad.size:
            raise ValueError(f"code {bad[0]}: padding bits past m must be zero")
        words.setflags(write=False)  # a copy, so the caller's array stays writable
        self.words = words
        self.m = m

    @property
    def n(self) -> int:
        return self.words.shape[0]


def sample_map(m: int, dim: int, seed: int) -> np.ndarray:
    """Draw m iid uniform directions, as an (m, dim) array, from a stream deterministically derived from ``seed``.

    Each direction is a vector of independent standard normals scaled to unit
    norm, the standard rotation-invariant construction.  Calling twice with
    equal (m, dim, seed) reproduces the map bit-exactly.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, dim))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def embed_points(directions: np.ndarray, points: PointSet) -> np.ndarray:
    """The one-bit sign map: bit j of point x is x.theta_j >= 0, for every point of the set in order.

    ``directions`` is one (m, dim) map, giving (n, m) bits, or a (T, m, dim)
    stack of maps, giving (T, n, m) bits.
    """
    return points.matrix @ np.swapaxes(directions, -1, -2) >= 0.0


def pair_stream(codes: CodeSet, points: PointSet) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Slabs (lo, h, g) of PAIR_SLAB_ROWS rows or fewer that cover every pair i < j once.

    h[r, c] is the number of bits in which codes lo + r and lo + c differ, and
    g[r, c] is their geodesic, for columns lo..n-1; only c > r are pairs.  The
    counts are XOR and popcount one word column at a time; the geodesics are
    slices of geometry.geodesic_blocks, so memory grows as n, not n^2.  A
    block's last slab is yielded as a copy and the block freed before the next
    is computed, so no view the caller holds keeps two blocks alive.
    """
    columns = np.ascontiguousarray(codes.words.T)
    count_type = np.min_scalar_type(codes.m)  # the narrowest unsigned type that holds m: less memory traffic per add
    for b_lo, geo in geodesic_blocks(points):
        b_hi = min(b_lo + len(geo), codes.n - 1)
        for lo in range(b_lo, b_hi, PAIR_SLAB_ROWS):
            hi = min(lo + PAIR_SLAB_ROWS, b_hi)
            h = np.zeros((hi - lo, codes.n - lo), dtype=count_type)
            for col in columns:
                h += np.bitwise_count(col[lo:hi, None] ^ col[None, lo:])
            g = geo[lo - b_lo : hi - b_lo, lo - b_lo :]
            if hi == b_hi:
                g = g.copy()  # bound to g too: a view left in this frame would keep the block alive into the next
            yield lo, h, g
        del geo


def code_keys(words: np.ndarray) -> np.ndarray:
    """One sort key per code of a C-contiguous (..., n, w) uint64 word array, as a (..., n) view of it.

    A one-word code's key is its word; a longer code's is its 8w bytes as one np.void, which numpy
    compares bytewise.  Either way two keys are equal iff their codes are, so any sort of the keys puts
    equal codes next to each other, and sorting the view in place sorts the codes.
    """
    if words.shape[-1] == 1:
        return words[..., 0]
    return words.view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


def check_one_to_one(codes: CodeSet) -> list[np.ndarray]:
    """Each group of k >= 2 equal codes (C(k, 2) colliding pairs) as an ascending index array: none iff all distinct."""
    keys = code_keys(codes.words)
    order = np.argsort(keys, kind="stable")  # stable: equal keys keep their indices ascending
    ranked = keys[order]
    same = ranked[1:] == ranked[:-1]
    # same changes value at the edges a, b of each run same[a:b] of True, whose equal keys are ranked[a : b + 1].
    runs = np.flatnonzero(np.diff(same, prepend=False, append=False)).reshape(-1, 2).tolist()
    return [order[a : b + 1] for a, b in runs]


def rip_failures(codes: CodeSet, points: PointSet, delta: float, boundary: str = "strict") -> Iterator[tuple]:
    """Per slab of pair_stream, the arrays (i, j, h, geodesic) of its pairs band_fails fails, in (i, j) order, h
    their differing-bit counts, and the slab's max deviation |h/m - geodesic|.  Every slab is yielded, with empty
    arrays where no pair fails.
    """
    for lo, h, g in pair_stream(codes, points):
        below = np.tri(len(h), dtype=bool)  # c <= r among the slab's first columns: not pairs
        dev = h / codes.m
        dev -= g
        dev[:, : len(h)][below] = 0.0
        max_dev = float(np.abs(dev, out=dev).max())
        fails = band_fails(h, codes.m, g, delta, boundary)
        fails[:, : len(h)][below] = False
        r, c = np.nonzero(fails)
        del dev, fails  # freed before the caller's turn
        yield lo + r, lo + c, h[r, c], g[r, c], max_dev
        del r, c  # freed before pair_stream makes the next slab


def check_rip(codes: CodeSet, points: PointSet, delta: float, boundary: str = "strict") -> tuple[int, float]:
    """The number of pairs rip_failures fails and the max deviation over all pairs: the map passes iff the first is 0."""
    failing, max_dev = 0, 0.0
    for i, _, _, _, slab_max in rip_failures(codes, points, delta, boundary):
        failing += len(i)
        max_dev = max(max_dev, slab_max)
    return failing, max_dev


def band_fails(h, m: int, geodesic, delta: float, boundary: str) -> np.ndarray:
    """The one delta-band rule: does a pair with h of m bits differing, at geodesic distance g, fail?

    The pair's deviation |h/m - g| is compared with delta as |2h - 2m*g|
    against 2m*delta: ``strict`` fails only a larger value (equality passes),
    ``inclusive`` fails equality too.  delta is read as the decimal it prints
    as, Fraction(str(delta)), so 2m*delta is exact; at g = 1/2 (orthogonal
    points) the left side is an exact integer too.  Broadcasts over arrays of
    h and g; 2h is formed as a double, which is exact and cannot overflow a
    narrow count type.
    """
    below, equal_fails = _band_edge(m, delta, boundary)
    dev = np.abs(2.0 * np.asarray(h) - 2 * m * np.asarray(geodesic, dtype=np.float64))
    return dev >= below if equal_fails else dev > below


@functools.lru_cache
def _band_edge(m: int, delta: float, boundary: str) -> tuple[float, bool]:
    """band_fails' edge 2m*delta as a double a failing deviation exceeds, and whether reaching it fails too.

    dev is a double: it exceeds (or reaches) an edge no double equals iff it
    exceeds the largest double below it, so only an exact edge under the
    ``inclusive`` boundary fails on equality.
    """
    edge = 2 * m * Fraction(str(delta))
    below = float(edge)
    if Fraction(below) > edge:
        below = float(np.nextafter(below, 0.0))
    return below, boundary == "inclusive" and Fraction(below) == edge


def band_range(m: int, geodesic, delta: float, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Per geodesic g (any array shape), the differing-bit counts h_lo..h_hi in 0..m that pass band_fails.

    |2h - 2m*g| is V-shaped in h, so they form one interval, whose ends band_fails itself
    decides, stepping inward from just outside m*g -+ m*delta.  An empty band is (m + 1, m).
    """
    g = np.asarray(geodesic, dtype=np.float64)
    h_lo = np.floor(m * (g - delta)).astype(np.int64) - 1
    h_hi = np.floor(m * (g + delta)).astype(np.int64) + 2
    for _ in range(3):
        h_lo += band_fails(h_lo, m, g, delta, boundary)
        h_hi -= band_fails(h_hi, m, g, delta, boundary)
    empty = band_fails(h_lo, m, g, delta, boundary)
    return np.where(empty, m + 1, np.maximum(h_lo, 0)), np.where(empty, m, np.minimum(h_hi, m))


def write_code_set(codes: CodeSet, f: BinaryIO) -> None:
    """Serialize a code set in the binary format (see CODESET_MAGIC) to the binary stream f."""
    header = CODESET_MAGIC + bytes([CODESET_VERSION]) + codes.n.to_bytes(8, "little") + codes.m.to_bytes(8, "little")
    f.write(header + codes.words.astype("<u8", copy=False).tobytes())


def read_code_set(path: str | Path) -> CodeSet:
    """Parse the binary code-set format, validating its header and size; CodeSet refuses nonzero padding bits."""
    data = Path(path).read_bytes()
    if len(data) < 21:
        raise ValueError("truncated header")
    if data[:4] != CODESET_MAGIC:
        raise ValueError(f"bad magic {data[:4]!r}")
    if data[4] != CODESET_VERSION:
        raise ValueError(f"unsupported version {data[4]}")
    n = int.from_bytes(data[5:13], "little")
    m = int.from_bytes(data[13:21], "little")
    if n < 1 or m < 1:
        raise ValueError(f"invalid counts n={n}, m={m}")
    nw = words_needed(m)
    expect = 21 + 8 * nw * n
    if len(data) != expect:
        raise ValueError(f"expected {expect} bytes for n={n}, m={m}, got {len(data)}")
    words = np.frombuffer(data, dtype="<u8", offset=21).reshape(n, nw)
    return CodeSet(words, m)


def code_set_hexdump(codes: CodeSet) -> str:
    """Human-readable dump: one line per code, index then hex bytes (little-endian words)."""
    width = len(str(codes.n - 1))
    words = codes.words.astype("<u8", copy=False)
    lines = [f"{i:>{width}}: {row.tobytes().hex()}" for i, row in enumerate(words)]
    return "\n".join(lines) + "\n"
