"""Seeded, reproducible, parallelizable trial engine for injectivity and isometry probabilities.

Determinism contract: trials are processed in fixed-size chunks, and every
chunk draws from its own random stream derived from (base_seed, m, chunk
index).  Chunk results are combined by summation, so the output is
bit-identical no matter how chunks are scheduled across workers -- 1 thread
and 8 threads produce the same bytes.

Two paths are supported, chosen by whether the config holds points.  Without
points (the orthogonal fast path) the code bits are drawn as fair coins
directly, which is exact for pairwise orthogonal points: their sign bits are
independent fair coins, at geodesic distance 1/2.  With an explicit PointSet
every trial embeds it through a fresh random map, by embedding.embed_points.
Every path walks a chunk one block of trials at a time, each block drawn
from the chunk's stream, so that memory stays bounded as n grows.

One kernel decides the band on both paths and at every n.  For ±1 code rows
<s_i, s_j> = m - 2H, so embedding.band_range turns each pair's geodesic into
a range of that inner product; a trial succeeds iff its ±1 Gram matrix (one batched
matmul) lies in those ranges off its diagonal, as band_fails decides check_rip.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import ETA_FORMS, PhaseWindow, csv_text, one_to_one_window, rip_window
from .embedding import band_range, code_keys, draw_codes, embed_points, pack_bits, words_needed
from .geometry import PointSet, geodesic_blocks

#: Largest units * trials * 64-bit words one estimate may cost: a rip unit is a pair, which its kernel visits,
#: an injectivity unit a code, since a trial sorts its n codes and never visits a pair.
PAIR_WORD_BUDGET = 10**10

#: Byte cap on one block of trials, as _trial_bytes counts a trial; a trial that alone costs more is a block by
#: itself.  At 1 MiB a block fits a core's 2 MiB L2 cache with room to spare, and no array reaches the 4 MiB at
#: which numpy asks Linux for huge pages.  At 2 MiB the fast rip path at n=100 took 1.4 times as long as here; at
#: 1 MiB no path measured took over 3% longer than at 8 MiB (BENCH_blockbytes.json).
_BLOCK_BYTES = 1 << 20

#: Largest byte count of one trial, as _trial_bytes counts it, that an estimate accepts.  That count is at least
#: the 8n^2 bytes of an explicit rip estimate's (2, n, n) band and of a fast trial's Gram matrix and masks.
TRIAL_BYTES_BUDGET = 1 << 30

#: The two-sided 95% normal critical value, NormalDist().inv_cdf(0.975) to the last bit.
Z95 = 1.9599639845400536


class ResourceBudgetError(ValueError):
    """The requested simulation exceeds the configured work budget."""


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one Monte Carlo estimate.

    A config with ``delta`` estimates the delta-band isometry (rip), one
    without it injectivity.  ``points``, when given, must have n rows and
    selects the explicit path; without it the points are n pairwise
    orthogonal ones on the fast path.  The CLI, which builds every config, has checked its fields.
    """

    n: int
    m: int
    trials: int
    base_seed: int
    delta: Optional[float] = None
    boundary: str = "strict"
    points: Optional[PointSet] = None


@dataclass(frozen=True)
class EstimateRow:
    """One Monte Carlo estimate with its Wilson interval and its analytic window; None is no window."""

    m: int
    successes: int
    trials: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    window: Optional[PhaseWindow] = None
    wall_time: float = 0.0


CSV_HEADER = "m,trials,successes,p_hat,ci_lo,ci_hi,window_lo,window_hi,eta_form"


def rows_csv(rows: tuple[EstimateRow, ...]) -> str:
    """Estimate rows as CSV (10 significant digits; wall times are deliberately excluded); no window prints nan,nan,."""
    windows = [(r.window.lo, r.window.hi, r.window.eta_form) if r.window else (math.nan, math.nan, None) for r in rows]
    return csv_text(CSV_HEADER, [(r.m, r.trials, r.successes, r.p_hat, r.ci_lo, r.ci_hi, *w) for r, w in zip(rows, windows)])


def wilson_interval(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval at critical value z > 0, for 0 <= successes <= trials, trials >= 1.

    Its ends are exactly 0 at no successes and exactly 1 at all, where the formula rounds to within 1e-16 of them.
    """
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return (center - half if successes else 0.0), (center + half if successes < trials else 1.0)


def _chunk_stream(base_seed: int, m: int, chunk_index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(m, chunk_index))
    return np.random.default_rng(seq)


def _chunk_size(config: TrialConfig) -> int:
    """Fixed chunk size per config -- a unit of determinism, never tied to worker count.

    A chunk fixes only which random stream its trials draw from: memory follows _run_chunk's
    blocks, which split every chunk under _BLOCK_BYTES, so these budgets do not bound it.
    """
    if config.points is not None:
        per_trial = config.m * config.points.dim * 8
        cap = 4096
        budget = 1 << 24
    elif config.delta is None:
        per_trial = config.n * words_needed(config.m) * 8
        cap = 8192
        budget = 1 << 22
    else:
        per_trial = config.n * config.m
        cap = 4096
        budget = 1 << 24
    return max(1, min(cap, budget // per_trial))


def _count_distinct(words: np.ndarray) -> int:
    """Trials of a fresh (T, n, w) uint64 word block whose n codes are pairwise distinct.

    The block's code keys are sorted in place, which puts equal codes of a set next to each other.
    """
    keys = code_keys(words)
    keys.sort(axis=-1)
    return int(np.count_nonzero((keys[:, 1:] != keys[:, :-1]).all(axis=-1)))


def _count_band_ok(bits: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray) -> int:
    """Trials of a (T, n, m) block of 0/1 bits whose ±1 Gram matrix lies in [g_lo, g_hi] off its diagonal.

    g_lo and g_hi are n x n or one number each; the diagonal (always m) passes here, so no band holds it.
    One call per block frees the block's Gram matrix before the next block is drawn.
    """
    s = bits.astype(g_lo.dtype)
    s *= 2
    s -= 1
    gram = np.matmul(s, s.transpose(0, 2, 1))
    inside = (gram >= g_lo) & (gram <= g_hi)
    t, n, _ = bits.shape
    inside.reshape(t, -1)[:, :: n + 1] = True
    return int(np.count_nonzero(inside.all(axis=(1, 2))))


def _trial_bytes(config: TrialConfig) -> int:
    """Bytes one trial of a _run_chunk block allocates, at most: the per-trial cost _BLOCK_BYTES caps.

    Per point, a band check holds 12m bytes of float64 projections, bits and float ±1 rows and 8n of
    its Gram row and comparison masks; an injectivity check holds its packed code and a mask byte, and
    on the explicit path 10m of projections, bits and packed bytes.  An explicit map adds its normals.
    """
    n, m = config.n, config.m
    normals = 0 if config.points is None else 8 * m * config.points.dim
    if config.delta is not None:
        return normals + n * (12 * m + 8 * n)
    return normals + n * (8 * words_needed(m) + 1 + (0 if config.points is None else 10 * m))


def check_budget(config: TrialConfig) -> None:
    """Refuse an estimate whose work is over PAIR_WORD_BUDGET or one of whose trials is over TRIAL_BYTES_BUDGET.

    It draws nothing, so a caller can refuse every m of a grid before it opens an output file.
    """
    units, unit = (math.comb(config.n, 2), "pairs") if config.delta is not None else (config.n, "codes")
    cost = units * config.trials * words_needed(config.m)
    if cost > PAIR_WORD_BUDGET:
        raise ResourceBudgetError(f"{unit}*trials*words = {cost} exceeds budget {PAIR_WORD_BUDGET}; reduce trials")
    need = _trial_bytes(config)
    if need > TRIAL_BYTES_BUDGET:
        held = "codes, band and Gram matrix" if config.delta is not None else "draws and codes"
        raise ResourceBudgetError(f"the {held} of a trial need up to {need} bytes, over budget {TRIAL_BYTES_BUDGET}; reduce n or m")


def _run_chunk(config: TrialConfig, chunk_index: int, count: int, band) -> int:
    rng = _chunk_stream(config.base_seed, config.m, chunk_index)
    n, m = config.n, config.m
    # Blocks of a multiple of 4 // gcd(n*m, 4) trials: numpy takes uint8 coins four to a 32-bit word,
    # so such draws continue one chunk draw exactly, as full-range uint64 words and standard normals
    # do at any block size.
    step = max(1, _BLOCK_BYTES // _trial_bytes(config))
    step += -step % (4 // math.gcd(n * m, 4))
    sizes = (min(step, count - k) for k in range(0, count, step))
    if config.points is not None:
        # A fresh map per trial; only signs matter, so the directions are not normalized.
        blocks = (embed_points(rng.standard_normal((t, m, config.points.dim)), config.points) for t in sizes)
        if config.delta is None:
            blocks = map(pack_bits, blocks)
    elif config.delta is None:
        blocks = (draw_codes((t, n), m, rng) for t in sizes)
    else:
        blocks = (rng.integers(0, 2, size=(t, n, m), dtype=np.uint8) for t in sizes)
    count_ok = _count_distinct if config.delta is None else lambda bits: _count_band_ok(bits, *band)
    # map keeps no block past its call, so each block is freed before the next is drawn.
    return sum(map(count_ok, blocks))


def run_trials(config: TrialConfig, threads: int = 1) -> EstimateRow:
    """Estimate the success probability for one (n, m) cell.

    Success means check_one_to_one passes (no delta) or every pair stays
    inside the delta band (boundary per config).  The result depends only
    on (config), never on ``threads``.
    """
    check_budget(config)

    band = None
    if config.delta is not None:
        n, m = config.n, config.m
        # Sums of m products of ±1 are exact integers in float32 up to 2**24, so the Gram matrix
        # is exactly symmetric: the explicit path decides each pair above the diagonal only.
        dtype = np.dtype(np.float32 if m <= 1 << 24 else np.float64)
        if config.points is None:
            h_lo, h_hi = band_range(m, 0.5, config.delta, config.boundary)
            band = np.array([m - 2 * h_hi, m - 2 * h_lo], dtype)
        else:
            band = np.empty((2, n, n), dtype)
            band[0], band[1] = -m, m
            for lo, geo in geodesic_blocks(config.points):
                h_lo, h_hi = band_range(m, geo, config.delta, config.boundary)
                band[:, lo : lo + len(geo), lo:] = m - 2 * h_hi, m - 2 * h_lo

    size = _chunk_size(config)
    counts = [min(size, config.trials - k) for k in range(0, config.trials, size)]

    start = time.perf_counter()
    if threads == 1:
        successes = sum(_run_chunk(config, i, c, band) for i, c in enumerate(counts))
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so a serial run never imports it

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_chunk, config, i, c, band) for i, c in enumerate(counts)]
            successes = sum(f.result() for f in futures)
    elapsed = time.perf_counter() - start

    p_hat = successes / config.trials
    lo, hi = wilson_interval(successes, config.trials, Z95)
    return EstimateRow(
        m=config.m,
        successes=successes,
        trials=config.trials,
        p_hat=p_hat,
        ci_lo=lo,
        ci_hi=hi,
        wall_time=elapsed,
    )


def sweep(
    config: TrialConfig,
    m_grid: list[int],
    threads: int = 1,
    eta_form: Optional[str] = None,
) -> tuple[EstimateRow, ...]:
    """One estimate per m in a strictly increasing grid, each with its analytic window.

    Injectivity rows carry the e^{-C(n,2)/2^m} +- eta window (pairwise width by
    default); rip rows carry the [e^{-lambda2} - eta, e^{-lambda1} + eta]
    window, which only exists in the general form.  Both windows are for n
    pairwise orthogonal points, so explicit points with any other geodesic
    get no window (window None).
    """
    # Every window is evaluated first, so that a config they reject (delta >= 1/2)
    # fails before any trial runs.
    if config.delta is None:
        windows = [one_to_one_window(config.n, int(m), eta_form or ETA_FORMS[0]) for m in m_grid]
    else:
        windows = [rip_window(config.n, int(m), config.delta) for m in m_grid]
    if config.points is not None and not _pairwise_orthogonal(config.points):
        windows = [None] * len(windows)
    return tuple(
        dataclasses.replace(run_trials(dataclasses.replace(config, m=int(m)), threads=threads), window=w)
        for m, w in zip(m_grid, windows)
    )


def _pairwise_orthogonal(points: PointSet) -> bool:
    """Is every off-diagonal geodesic exactly 1/2, as the closed-form windows assume?  Checked in row blocks."""
    return not any(np.triu(geo - 0.5, 1).any() for _, geo in geodesic_blocks(points))


def first_upward_crossing(rows: tuple[EstimateRow, ...]) -> float:
    """Linearly interpolated m where the estimated curve first rises through 1/2.

    Returns NaN when the curve never crosses.  With a jagged or noisy curve
    this picks the leftmost upward crossing.
    """
    for a, b in zip(rows, rows[1:]):
        if a.p_hat < 0.5 <= b.p_hat:
            frac = (0.5 - a.p_hat) / (b.p_hat - a.p_hat)
            return a.m + frac * (b.m - a.m)
    return math.nan


def default_phase_grid(m_eps1: float, m_eps2: float) -> list[int]:
    """20 evenly spaced values, rounded to distinct integers, spanning [0.8 * m_eps1, 1.1 * m_eps2]."""
    lo = 0.8 * m_eps1
    hi = 1.1 * m_eps2
    if not lo < hi:
        raise ValueError(f"degenerate grid span [{lo}, {hi}]")
    vals = sorted({max(1, int(round(v))) for v in np.linspace(lo, hi, 20)})
    return vals
