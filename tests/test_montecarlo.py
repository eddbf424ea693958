import dataclasses
import math
import statistics
import tracemalloc

import numpy as np
import pytest

import onebit.montecarlo as mc
from onebit.bounds import one_to_one_window, rip_window
from onebit.embedding import band_fails, draw_codes, embed_points, pack_bits
from onebit.geometry import PAIR_BLOCK_ROWS, PointSet, geodesic_matrix
from onebit.montecarlo import (
    CSV_HEADER,
    Z95,
    EstimateRow,
    TrialConfig,
    default_phase_grid,
    first_upward_crossing,
    rows_csv,
    run_trials,
    sweep,
    wilson_interval,
)
from onebit.oracles import birthday_exact, rip_exact_three
from reference import usage_error


def count_band_ok_pairwise(config: TrialConfig) -> int:
    """Reference: the per-pair band rule both of _count_band_ok's kernels replace, on the chunk streams run_trials draws.

    Every chunk's bits come from one draw (the fair coins, or the full
    projection of the chunk's normals), and each pair i < j is decided by
    band_fails on its differing-bit count.
    """
    n, m = config.n, config.m
    geo = np.full((n, n), 0.5) if config.points is None else geodesic_matrix(config.points, 0, n)
    size = mc._chunk_size(config)
    ok = 0
    for index, start in enumerate(range(0, config.trials, size)):
        count = min(size, config.trials - start)
        rng = mc._chunk_stream(config.base_seed, m, index)
        if config.points is None:
            bits = rng.integers(0, 2, size=(count, n, m), dtype=np.uint8)
        else:
            normals = rng.standard_normal((count, m, config.points.dim))
            bits = np.einsum("tmd,nd->tnm", normals, config.points.matrix) >= 0.0
        fails = np.zeros(count, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                h = np.count_nonzero(bits[:, i] != bits[:, j], axis=1)
                fails |= band_fails(h, m, geo[i, j], config.delta, config.boundary)
        ok += int(count - fails.sum())
    return ok


def blockwise_counts(monkeypatch, config: TrialConfig) -> list[int]:
    """Successes of config with one block per chunk, then with blocks of 1, 37 and 5 trials (before rounding)."""
    per_trial = mc._trial_bytes(config)
    counts = []
    for block_bytes in (1 << 40, 1, 37 * per_trial, 5 * per_trial):
        monkeypatch.setattr(mc, "_BLOCK_BYTES", block_bytes)
        counts.append(run_trials(config).successes)
    return counts


def clustered_points() -> PointSet:
    """40 unit points clustered around e_1 in dim 8: the rows of e_1 + 0.15 N(0, I), normalised."""
    raw = np.eye(8)[0] + 0.15 * np.random.default_rng(0).standard_normal((40, 8))
    return PointSet(raw / np.linalg.norm(raw, axis=1)[:, None])


def signed_coordinate_vectors(n: int) -> PointSet:
    """The n coordinate vectors of R^n, each negated by a fair coin from default_rng(1): pairwise orthogonal."""
    signs = np.where(np.random.default_rng(1).random(n) < 0.5, -1.0, 1.0)
    return PointSet(np.eye(n) * signs[:, None])


def inj_config(n, m, trials, seed, **kw) -> TrialConfig:
    return TrialConfig(n=n, m=m, trials=trials, base_seed=seed, **kw)


def rip_config(n, m, delta, trials, seed, **kw) -> TrialConfig:
    return TrialConfig(n=n, m=m, delta=delta, trials=trials, base_seed=seed, **kw)


class TestWilson:
    def test_z95_is_the_two_sided_95_percent_critical_value(self):
        assert Z95 == statistics.NormalDist().inv_cdf(0.5 * (1.0 + 0.95))

    def test_zero_successes_floor(self):
        lo, hi = wilson_interval(0, 100, Z95)
        assert lo == 0.0 and 0.0 < hi < 0.1

    def test_all_successes_ceiling(self):
        lo, hi = wilson_interval(100, 100, Z95)
        assert hi == 1.0 and 0.9 < lo < 1.0

    def test_half_contains_and_symmetric(self):
        lo, hi = wilson_interval(50, 100, Z95)
        assert lo < 0.5 < hi
        assert (0.5 - lo) == pytest.approx(hi - 0.5, abs=1e-12)

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(50, 100, Z95)
        lo2, hi2 = wilson_interval(5000, 10000, Z95)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_ends_are_exact(self):
        # The formula alone rounds to about 1e-17 at no successes and to 1 - 2^-53 at all, for many trial counts.
        for t in range(1, 5001):
            assert wilson_interval(0, t, Z95)[0] == 0.0 and wilson_interval(t, t, Z95)[1] == 1.0, t
            lo, hi = wilson_interval(1, t, Z95)
            assert 0.0 < lo < hi <= 1.0, t

    def test_z_variant_wider_for_larger_z(self):
        lo3, hi3 = wilson_interval(60, 100, 3.0)
        lo2, hi2 = wilson_interval(60, 100, 2.0)
        assert lo3 < lo2 and hi3 > hi2


class TestTrialConfig:
    """A TrialConfig holds values the CLI has checked: its flags' parser types, --boundary's choices and --points' rows."""

    def test_explicit_needs_points(self, tmp_path, capsys):
        (tmp_path / "pts.csv").write_text("1,0,0,0,0\n0,1,0,0,0\n0,0,1,0,0\n")
        err = usage_error(capsys, "simulate", "--n", "4", "--points", str(tmp_path / "pts.csv"), "--m", "8",
                          "--trials", "10", "--seed", "0")
        assert "--n 4 contradicts --points with 3 rows" in err

    def test_bad_enums(self, capsys):
        err = usage_error(capsys, "simulate", "--n", "4", "--m", "8", "--delta", "0.2", "--trials", "10", "--seed", "0",
                          "--boundary", "loose")
        assert "argument --boundary: invalid choice: 'loose'" in err


class TestDeterminism:
    def test_repeatable(self):
        cfg = inj_config(10, 7, 20_000, seed=77)
        a = run_trials(cfg)
        b = run_trials(cfg)
        assert a.successes == b.successes
        assert a.p_hat == b.p_hat and a.ci_lo == b.ci_lo and a.ci_hi == b.ci_hi

    def test_thread_count_invariance(self):
        cfg = rip_config(20, 24, 0.2, 30_000, seed=5)
        results = {t: run_trials(cfg, threads=t).successes for t in (1, 2, 8)}
        assert len(set(results.values())) == 1

    def test_seed_changes_stream(self):
        a = run_trials(inj_config(10, 7, 20_000, seed=1))
        b = run_trials(inj_config(10, 7, 20_000, seed=2))
        assert a.successes != b.successes  # astronomically unlikely to tie


class TestInjectivityAgainstBirthday:
    def test_two_points_one_bit(self):
        row = run_trials(inj_config(2, 1, 100_000, seed=3))
        lo, hi = wilson_interval(row.successes, row.trials, 3.0)
        assert lo <= 0.5 <= hi

    @pytest.mark.parametrize("m", [5, 9, 13])
    def test_matches_exact_probability(self, m):
        exact = birthday_exact(10, m).float_value
        row = run_trials(inj_config(10, m, 30_000, seed=11), threads=2)
        lo, hi = wilson_interval(row.successes, row.trials, 3.0)
        assert lo <= exact <= hi

    def test_multiword_codes(self):
        # m > 64 exercises the multi-word collision detector; collisions are
        # then essentially impossible, so every trial succeeds.
        row = run_trials(inj_config(6, 100, 5_000, seed=9))
        assert row.successes == row.trials


class TestInjectivityGoldenCounts:
    """Success counts pinned at fixed seeds: a change to the draws, the chunking or the distinctness test moves one."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_n10(self, threads):
        golden = [540, 4081, 9522, 13956, 16787, 18350, 19105, 19578, 19774, 19874, 19951]
        counts = [run_trials(inj_config(10, m, 20_000, seed=1), threads=threads).successes for m in range(4, 15)]
        assert counts == golden

    @pytest.mark.parametrize("threads", [1, 2])
    def test_large_n(self, threads):
        assert run_trials(inj_config(300, 16, 500, seed=5), threads=threads).successes == 266

    @pytest.mark.parametrize("threads", [1, 2])
    def test_explicit_path(self, threads):
        raw = np.random.default_rng(0).standard_normal((20, 5))
        pts = PointSet(raw / np.linalg.norm(raw, axis=1)[:, None])
        assert run_trials(inj_config(20, 12, 3_000, seed=7, points=pts), threads=threads).successes == 878

    @pytest.mark.parametrize("threads", [1, 2])
    def test_explicit_path_word_boundary(self, threads):
        # 5 near-duplicate pairs collide often, so the counts move at m = 63, 64 (one word) and 65 (two words).
        rng = np.random.default_rng(64)
        base = rng.standard_normal((5, 6))
        raw = np.vstack([base, base + 0.02 * rng.standard_normal((5, 6))])
        pts = PointSet(raw / np.linalg.norm(raw, axis=1)[:, None])
        counts = [run_trials(inj_config(10, m, 2_000, seed=9, points=pts), threads=threads).successes for m in (63, 64, 65)]
        assert counts == [5, 8, 12]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_large_n_many_trials(self, threads):
        assert run_trials(inj_config(300, 20, 20_000, seed=5), threads=threads).successes == 19160


@pytest.mark.parametrize("m", [1, 7, 63, 64])
@pytest.mark.parametrize("n", [2, 3, 10])
def test_one_word_count_matches_sort_codes(n, m):
    """The in-place sort of one-word codes as integers counts the sets a per-set Python reference finds distinct."""
    rng = np.random.default_rng(100 * m + n)
    trials = 600
    words = draw_codes((trials, n), m, rng)
    i = rng.integers(0, n, trials)
    j = (i + rng.integers(1, n, trials)) % n
    dup, near = np.arange(0, trials, 3), np.arange(1, trials, 3)  # an equal pair, a pair one top bit apart
    words[dup, j[dup]] = words[dup, i[dup]]
    words[near, j[near]] = words[near, i[near]] ^ np.uint64(1 << (m - 1))
    expect = sum(len(set(map(tuple, trial.tolist()))) == n for trial in words)
    assert 0 < expect < trials or (m == 1 and n > 2)
    if m == 64:
        assert (words >= np.uint64(1 << 63)).any()  # the integer sort must not read them as negative
    assert mc._count_distinct(words.copy()) == expect


class TestRipGoldenCounts:
    """Rip success counts pinned at fixed seeds: they guard the path a config with delta selects."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fast_path(self, threads):
        assert run_trials(rip_config(20, 60, 0.2, 30_000, seed=5), threads=threads).successes == 24520

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("boundary, golden", [("strict", 14091), ("inclusive", 5655)])
    def test_lattice_both_boundaries(self, threads, boundary, golden):
        assert run_trials(rip_config(3, 10, 0.2, 20_000, seed=1, boundary=boundary), threads=threads).successes == golden

    @pytest.mark.parametrize("threads", [1, 2])
    def test_large_n(self, threads):
        assert run_trials(rip_config(800, 140, 0.2, 40, seed=7), threads=threads).successes == 25

    @pytest.mark.parametrize("threads", [1, 2])
    def test_explicit_path(self, threads):
        raw = np.random.default_rng(0).standard_normal((10, 5))
        pts = PointSet(raw / np.linalg.norm(raw, axis=1)[:, None])
        assert run_trials(rip_config(10, 40, 0.2, 3_000, seed=7, points=pts), threads=threads).successes == 2334


class TestRipAgainstExactThree:
    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    def test_matches_dp_oracle_m16(self, boundary):
        exact = rip_exact_three(16, 0.2, boundary).float_value
        row = run_trials(rip_config(3, 16, 0.2, 30_000, seed=21, boundary=boundary))
        lo, hi = wilson_interval(row.successes, row.trials, 3.0)
        assert lo <= exact <= hi

    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    def test_lattice_m10_separates_conventions(self, boundary):
        # At m=10, delta=0.2 the band edge is hit with positive probability,
        # so the two conventions have genuinely different oracles.
        exact = rip_exact_three(10, 0.2, boundary).float_value
        row = run_trials(rip_config(3, 10, 0.2, 40_000, seed=22, boundary=boundary))
        lo, hi = wilson_interval(row.successes, row.trials, 3.0)
        assert lo <= exact <= hi

    def test_gram_path_probability_sandwich(self):
        # At n=12 the success probability is sandwiched between the union
        # bound 1 - 66*p and the single-pair bound 1 - p, both exactly computable.
        from onebit.bounds import p_delta_exact

        row = run_trials(rip_config(12, 64, 0.2, 20_000, seed=23))
        p = float(p_delta_exact(64, 0.2))
        lo, hi = wilson_interval(row.successes, row.trials, 4.0)
        assert hi >= 1.0 - 66.0 * p
        assert lo <= 1.0 - p


#: The point counts and paths of TestBandKernel.test_matches_pairwise_reference; every path but "fast" is explicit.
BAND_KERNEL_NS = [2, 3, 8, 9, 10, 30]
BAND_KERNEL_PATHS = ["fast", "orthonormal", "random"]


def band_kernel_cells(n: int) -> list[tuple[int, float]]:
    """The (m, delta) cells test_matches_pairwise_reference runs at n.

    m=10, delta=0.2 puts orthogonal pairs on the band edge (H = 3 or 7); the second cell sits near each
    n's transition.  n=2 adds one bit, n=3 the largest m the trial-major kernel takes and the first past
    it, so both kernels meet the band edge of a small trial, and n=8 a trial-major cell of seven rows.
    """
    edges = {2: [(1, 0.2)], 3: [(42, 0.2), (43, 0.2)], 8: [(4, 0.25)]}
    return [(10, 0.2), (8 * n.bit_length() + 8, 0.25), *edges.get(n, [])]


class TestBandKernel:
    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    @pytest.mark.parametrize("path", BAND_KERNEL_PATHS)
    @pytest.mark.parametrize("n", BAND_KERNEL_NS)
    def test_matches_pairwise_reference(self, n, path, boundary):
        points = None
        if path == "orthonormal":
            points = PointSet(np.eye(n, n + 2))
        elif path == "random":
            raw = np.random.default_rng(n).standard_normal((n, 6))
            points = PointSet(raw / np.linalg.norm(raw, axis=1)[:, None])
        for m, delta in band_kernel_cells(n):
            cfg = rip_config(n, m, delta, 1_500, seed=70 + n, boundary=boundary, points=points)
            assert run_trials(cfg).successes == count_band_ok_pairwise(cfg), (m, delta)

    def test_reference_cells_take_both_kernels(self):
        # Each kernel meets the pairwise reference on the fast path and on an explicit one, and the n=3
        # cells straddle the rule: a change to _TRIAL_MAJOR_PAIR_BITS that breaks either must move the cells.
        cells = [(n, m) for n in BAND_KERNEL_NS for m, _ in band_kernel_cells(n)]
        taken = {(path == "fast", mc._trial_major(n, m)) for path in BAND_KERNEL_PATHS for n, m in cells}
        assert taken == {(True, True), (True, False), (False, True), (False, False)}
        assert mc._trial_major(3, 42) and not mc._trial_major(3, 43)

    @pytest.mark.parametrize("path", ["fast", "signed"])
    def test_matches_pairwise_reference_at_a_block_boundary(self, path):
        # At n = PAIR_BLOCK_ROWS + 1 the last point heads no geodesic block: its
        # pairs sit in the first block's last column, its diagonal in the band's own rule.
        n = PAIR_BLOCK_ROWS + 1
        points = None if path == "fast" else signed_coordinate_vectors(n)
        cfg = rip_config(n, 64, 0.25, 100, seed=71, points=points)
        successes = run_trials(cfg).successes
        assert 0 < successes < cfg.trials
        assert successes == count_band_ok_pairwise(cfg)

    def test_explicit_memory_bounded(self):
        # The chunk's projections are made one trial block at a time, not as one (chunk, n, m) array.
        raw = np.random.default_rng(62).standard_normal((50, 3))
        cfg = rip_config(50, 512, 0.2, 2_000, seed=63, points=PointSet(raw / np.linalg.norm(raw, axis=1)[:, None]))
        tracemalloc.start()
        try:
            run_trials(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_fast_memory_bounded(self):
        # One full chunk (149 trials) at figure size: the coins are drawn one block at a time and
        # the band is two numbers, so neither a (chunk, n, m) coin array nor an n x n band is held.
        # A trial here costs more than the budget, so each block is one trial, which cannot be split.
        cfg = rip_config(800, 140, 0.2, 149, seed=64)
        assert mc._chunk_size(cfg) == cfg.trials
        tracemalloc.start()
        try:
            run_trials(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(mc._BLOCK_BYTES, mc._trial_bytes(cfg))

    @pytest.mark.parametrize("path", ["explicit rip", "explicit injectivity", "fast injectivity", "fast rip"])
    def test_chunk_walked_under_block_budget(self, path):
        # A full chunk whose arrays total well over the budget, of trials far under it: the explicit
        # chunk's (4096, 24, 8) normals alone take 6.3 MB, the fast one's (174, 3000, 1) words 4.2 MB.
        # Both rip chunks take the trial-major kernel; the fast one, at n=2 and the largest m it takes,
        # would hold 2.6 MB of coins, their trial-major copy and XOR bytes.
        if path == "fast injectivity":
            cfg = inj_config(3000, 64, 174, seed=65)
        elif path == "fast rip":
            cfg = rip_config(2, 128, 0.2, 4096, seed=65)
            assert mc._trial_major(2, 128) and not mc._trial_major(2, 129)
        else:
            delta = 0.2 if path == "explicit rip" else None
            cfg = TrialConfig(n=3, m=24, trials=4096, base_seed=65, delta=delta, points=PointSet(np.eye(3, 8)))
        assert mc._chunk_size(cfg) == cfg.trials
        assert 10 * mc._trial_bytes(cfg) < mc._BLOCK_BYTES
        run_trials(dataclasses.replace(cfg, trials=1))  # a first call imports numpy.random: not the walk's memory
        tracemalloc.start()
        try:
            run_trials(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mc._BLOCK_BYTES


class TestExplicitPath:
    def test_injectivity_matches_birthday(self):
        pts = PointSet(np.eye(4, 50))
        cfg = inj_config(4, 6, 20_000, seed=31, points=pts)
        row = run_trials(cfg, threads=2)
        exact = birthday_exact(4, 6).float_value
        lo, hi = wilson_interval(row.successes, row.trials, 3.0)
        assert lo <= exact <= hi

    def test_rip_matches_dp_oracle(self):
        pts = PointSet(np.eye(3, 10))
        cfg = rip_config(3, 16, 0.2, 20_000, seed=32, points=pts)
        row = run_trials(cfg)
        exact = rip_exact_three(16, 0.2).float_value
        lo, hi = wilson_interval(row.successes, row.trials, 3.0)
        assert lo <= exact <= hi

    @pytest.mark.parametrize("delta", [None, 0.3])
    def test_blockwise_normals_equal_one_chunk_draw(self, monkeypatch, delta):
        # A chunk's normals are drawn one trial block at a time; consecutive standard_normal
        # draws continue one draw, so no count depends on the block size.
        raw = np.random.default_rng(9).standard_normal((12, 4))
        cfg = TrialConfig(n=12, m=10, trials=700, base_seed=3, delta=delta,
                          points=PointSet(raw / np.linalg.norm(raw, axis=1)[:, None]))
        counts = blockwise_counts(monkeypatch, cfg)
        assert len(set(counts)) == 1, counts
        assert 0 < counts[0] < cfg.trials

    @pytest.mark.parametrize("n, m", [(7, 9), (6, 7), (4, 4)])  # n*m odd, 2 mod 4, 0 mod 4
    def test_blockwise_coins_equal_one_chunk_draw(self, monkeypatch, n, m):
        # uint8 coins continue one draw only in multiples of 4, so the fast path's blocks are
        # rounded to a multiple of 4 // gcd(n*m, 4) trials; without that the counts differ.
        cfg = rip_config(n, m, 0.3, 700, seed=3)
        counts = blockwise_counts(monkeypatch, cfg)
        assert len(set(counts)) == 1, counts
        assert 0 < counts[0] < cfg.trials
        assert counts[0] == count_band_ok_pairwise(cfg)

    @pytest.mark.parametrize("n, m", [(10, 7), (40, 14), (6, 5)])
    def test_blockwise_words_equal_one_chunk_draw(self, monkeypatch, n, m):
        # The fast injectivity path draws its packed words one block at a time.
        cfg = inj_config(n, m, 700, seed=3)
        counts = blockwise_counts(monkeypatch, cfg)
        assert len(set(counts)) == 1, counts
        assert 0 < counts[0] < cfg.trials

    @pytest.mark.parametrize("n, m", [(10, 7), (3, 64), (5, 130)])
    def test_word_draws_continue_each_other(self, n, m):
        # Full-range uint64 draws continue one draw at any size, so blocks of words fix no count.
        one = draw_codes((700, n), m, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        blocks = [draw_codes((t, n), m, rng) for t in (1, 37, 5, 657)]
        assert np.array_equal(np.concatenate(blocks), one)

    def test_general_points_allowed(self):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((5, 7))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        from onebit.geometry import PointSet

        pts = PointSet(raw)
        cfg = rip_config(5, 64, 0.45, 2_000, seed=33, points=pts)
        row = run_trials(cfg)
        assert row.trials == 2_000 and 0.0 <= row.p_hat <= 1.0


def test_fast_vs_explicit_pair_collision_rates():
    """The coin-flip shortcut and real embeddings of orthogonal points agree pairwise.

    Per-pair collision counts over T trials are compared two ways: two-sample
    agreement at 4 sigma, and each path against the exact rate 2^-16.  Seeds:
    the fast half is one draw_codes draw from default_rng(41); the explicit
    half draws its maps as the simulator's explicit path does, from one
    default_rng(42) stream, standard_normal((5000, m, dim)) per block of
    trials (a sign map needs no normalization).
    """
    trials = 100_000
    n, m, dim = 4, 16, 50
    pair_ids = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def equal_pairs(words):  # counts[i, j]: trials in which codes i and j are equal
        return np.all(words[:, :, None] == words[:, None, :], axis=3).sum(axis=0)

    # One draw of all trials' codes is the same stream as one draw per trial.
    fast_counts = equal_pairs(draw_codes((trials, n), m, np.random.default_rng(41)))

    pts = PointSet(np.eye(n, dim))
    rng = np.random.default_rng(42)
    explicit_counts = np.zeros((n, n), dtype=np.int64)
    block = 5_000
    for _ in range(trials // block):
        explicit_counts += equal_pairs(pack_bits(embed_points(rng.standard_normal((block, m, dim)), pts)))

    oracle = 2.0**-m
    expected = trials * oracle
    for pair in pair_ids:
        c1, c2 = int(fast_counts[pair]), int(explicit_counts[pair])
        pooled = (c1 + c2) / (2 * trials)
        se = math.sqrt(max(2 * trials * pooled * (1 - pooled), 1.0))
        assert abs(c1 - c2) <= 4.0 * se
        for c in (c1, c2):
            assert abs(c - expected) <= 4.0 * math.sqrt(expected) + 1.0


class TestSweep:
    def test_rows_and_windows_attached(self):
        cfg = inj_config(10, 4, 4_000, seed=51)
        rows = sweep(cfg, [4, 6, 8], threads=2)
        assert [r.m for r in rows] == [4, 6, 8]
        for r in rows:
            w = one_to_one_window(10, r.m, "pairwise")
            assert (r.window.lo, r.window.hi) == (w.lo, w.hi)
            assert r.window.eta_form == "pairwise"

    def test_rip_windows_are_general(self):
        cfg = rip_config(8, 16, 0.2, 2_000, seed=52)
        for r in sweep(cfg, [16, 24]):
            w = rip_window(8, r.m, 0.2)
            assert (r.window.lo, r.window.hi) == (w.lo, w.hi)
            assert r.window.eta_form == "general"

    def test_eta_form_general_for_injectivity(self):
        cfg = inj_config(10, 4, 1_000, seed=53)
        rows = sweep(cfg, [5], eta_form="general")
        w = one_to_one_window(10, 5, "general")
        assert rows[0].window.hi == w.hi

    def test_rip_rejects_pairwise_form(self, tmp_path, capsys):
        # refused before the seed is resolved and --out opened, so an existing --out keeps its bytes
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"earlier output\n")
        err = usage_error(capsys, "sweep", "--n", "8", "--m-grid", "16:16:1", "--delta", "0.2", "--trials", "100",
                          "--seed", "54", "--eta-form", "pairwise", "--out", str(out))
        assert err == "onebit: error: rip windows exist only in the general form\n"
        assert out.read_bytes() == b"earlier output\n"

    def test_points_windows_only_for_orthogonal_points(self):
        # The closed-form windows are for n pairwise orthogonal points: 40 points
        # clustered around one pole get none, signed coordinate vectors keep them,
        # also at n = PAIR_BLOCK_ROWS + 1, where the last point heads no geodesic block.
        clustered = clustered_points()
        for points in (clustered, signed_coordinate_vectors(40), signed_coordinate_vectors(PAIR_BLOCK_ROWS + 1)):
            n = points.n
            rows = sweep(rip_config(n, 40, 0.2, 200, seed=1, points=points), [40, 80])
            rows += sweep(inj_config(n, 18, 200, seed=1, points=points), [18, 24])
            windows = [rip_window(n, 40, 0.2), rip_window(n, 80, 0.2)]
            windows += [one_to_one_window(n, 18, "pairwise"), one_to_one_window(n, 24, "pairwise")]
            for r, w in zip(rows, windows):
                if points is clustered:
                    assert r.window is None
                else:
                    assert (r.window.lo, r.window.hi, r.window.eta_form) == (w.lo, w.hi, w.eta_form)

    def test_rip_delta_rejected_before_simulating(self, monkeypatch):
        import onebit.montecarlo as mc

        def no_trials(*args, **kwargs):
            raise AssertionError("run_trials called before the config was validated")

        monkeypatch.setattr(mc, "run_trials", no_trials)
        with pytest.raises(ValueError, match="1/2"):
            sweep(rip_config(10, 4, 0.6, 20_000, seed=1), [4, 6, 8])
        with pytest.raises(ValueError, match="1/2"):
            sweep(rip_config(40, 4, 0.6, 20_000, seed=1, points=clustered_points()), [4, 6, 8])

    def test_grid_validation(self, capsys):
        # --m-grid's type gives only nonempty, strictly increasing grids of m >= 1
        for grid in ("", "4:8", "4:4:0", "8:4:1", "0:4:1", "4:x:1"):
            for command in (["sweep", "--n", "10"], ["figure", "--n", "800"]):
                err = usage_error(capsys, *command, "--m-grid", grid, "--trials", "100", "--seed", "55")
                assert "argument --m-grid: " in err

    def test_csv_schema_and_precision(self):
        cfg = inj_config(10, 4, 3_000, seed=56)
        rows = sweep(cfg, [4, 6])
        text = rows_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert int(fields[0]) == 4 and int(fields[1]) == 3_000
        assert float(fields[3]) == pytest.approx(rows[0].p_hat, rel=1e-9)

    def test_csv_ten_significant_digits(self):
        row = EstimateRow(m=4, successes=1, trials=3, p_hat=1 / 3, ci_lo=0.1, ci_hi=0.7)
        text = rows_csv((row,))
        assert "0.3333333333" in text


class TestCrossing:
    def test_interpolated_crossing(self):
        rows = tuple(
            EstimateRow(m=m, successes=0, trials=1, p_hat=p, ci_lo=0, ci_hi=1)
            for m, p in ((10, 0.1), (20, 0.4), (30, 0.6), (40, 0.9))
        )
        assert first_upward_crossing(rows) == pytest.approx(25.0)

    def test_no_crossing_is_nan(self):
        rows = tuple(
            EstimateRow(m=m, successes=0, trials=1, p_hat=p, ci_lo=0, ci_hi=1)
            for m, p in ((10, 0.1), (20, 0.2))
        )
        assert math.isnan(first_upward_crossing(rows))


class TestDefaultGrid:
    def test_spans_and_counts(self):
        grid = default_phase_grid(115.30517176493419, 203.24603765654422)
        assert len(grid) == 20
        assert grid[0] == round(0.8 * 115.30517176493419)
        assert grid[-1] == round(1.1 * 203.24603765654422)
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert all(isinstance(v, int) for v in grid)


class TestResourceGuard:
    def test_budget_exceeded(self):
        cfg = rip_config(800, 224, 0.2, 100_000, seed=1)
        with pytest.raises(ValueError, match=r"^pairs\*trials\*words = \d+ exceeds budget \d+; reduce trials$"):
            run_trials(cfg)

    def test_band_bytes_capped(self):
        # 2e8 pair-words pass the work budget, but a fast trial's 20000 x 20000 Gram matrix and masks
        # would take up to 3.2 GB, as would the explicit path's band.
        with pytest.raises(ValueError, match="^the codes, band and Gram matrix of a trial need up to"):
            run_trials(rip_config(20_000, 1, 0.2, 1, seed=1))
        points = PointSet(np.tile([[1.0, 0.0]], (20_000, 1)))
        with pytest.raises(ValueError, match="^the codes, band and Gram matrix of a trial need up to"):
            run_trials(rip_config(20_000, 1, 0.2, 1, seed=1, points=points))

    def test_trial_bytes_capped_before_any_draw(self, monkeypatch):
        # One trial of n=2 at m=2^17 counts 3.1 MB on the fast rip path and 4.7 MB on the explicit injectivity
        # path, over a 1 MiB budget: each is refused, and no chunk runs.
        monkeypatch.setattr(mc, "TRIAL_BYTES_BUDGET", 1 << 20)
        monkeypatch.setattr(mc, "_run_chunk", lambda *args: pytest.fail("a chunk ran"))
        for cfg in (rip_config(2, 1 << 17, 0.2, 1, seed=1), inj_config(2, 1 << 17, 1, seed=1, points=PointSet(np.eye(2)))):
            assert mc._trial_bytes(cfg) > mc.TRIAL_BYTES_BUDGET
            with pytest.raises(ValueError, match=r"bytes, over budget 1048576; reduce n or m$"):
                run_trials(cfg)

    def test_injectivity_priced_per_code(self):
        # An injectivity trial sorts its codes and visits no pair: 10001 codes * 200 trials * 1 word
        # is far under the budget, where 10001 * 10000 / 2 pairs * 200 trials would be over it.
        row = run_trials(inj_config(10_001, 64, 200, seed=1))
        assert row.trials == 200

    def test_custom_budget(self, monkeypatch):
        cfg = inj_config(10, 7, 1_000, seed=1)
        monkeypatch.setattr(mc, "PAIR_WORD_BUDGET", 10)
        with pytest.raises(ValueError, match=r"^codes\*trials\*words = 10000 exceeds budget 10; reduce trials$"):
            run_trials(cfg)
        monkeypatch.setattr(mc, "PAIR_WORD_BUDGET", 100_000)
        row = run_trials(cfg)
        assert row.trials == 1_000
