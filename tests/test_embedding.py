import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit.embedding import (
    CODESET_MAGIC,
    CodeSet,
    PAIR_SLAB_ROWS,
    band_fails,
    band_range,
    check_one_to_one,
    check_rip,
    code_keys,
    code_set_hexdump,
    draw_codes,
    embed_points,
    pack_bits,
    pair_stream,
    read_code_set,
    rip_failures,
    sample_map,
    write_code_set,
)
from onebit.geometry import PAIR_BLOCK_ROWS, PointSet
from onebit.montecarlo import _count_distinct
from reference import (
    check_one_to_one_dict,
    check_rip_loop,
    code_bits,
    code_set,
    embed_bits,
    geodesic_pair,
    hamming_bitloop,
    usage_error,
)


def basis(i: int, dim: int) -> np.ndarray:
    return np.eye(dim)[i]


def first_pair_bits(codes: CodeSet) -> int:
    """pair_stream's differing-bit count of codes 0 and 1 of a two-code set, streamed beside two basis points."""
    _, h, _ = next(pair_stream(codes, PointSet(np.eye(2))))
    return int(h[0, 1])


def orthogonal_codes(n: int, m: int, rng) -> CodeSet:
    """Codes of n pairwise orthogonal points: n iid uniform m-bit strings, as the simulator's fast path draws them."""
    return CodeSet(draw_codes((n,), m, rng), m)


def collision_pairs(groups) -> list[tuple[int, int]]:
    """The sorted colliding pairs of check_one_to_one's groups, each checked to be ascending and of two or more codes."""
    assert all(len(g) >= 2 and (np.diff(g) > 0).all() for g in groups)
    return sorted(pair for g in groups for pair in itertools.combinations(g.tolist(), 2))


def failure_list(codes, points, delta, boundary="strict") -> list:
    """rip_failures' slabs joined into one list of ((i, j), hamming, geodesic, deviation), as check_rip_loop lists them."""
    failures = []
    for i, j, h, dg, _ in rip_failures(codes, points, delta, boundary):
        dh = h / codes.m
        failures += zip(zip(i.tolist(), j.tolist()), dh.tolist(), dg.tolist(), (dh - dg).tolist())
    return failures


def random_code_set(rng, n, m, duplicates):
    """n random m-bit codes in which ``duplicates`` rows repeat earlier rows."""
    bits = rng.integers(0, 2, size=(n, m))
    for k in range(duplicates):
        bits[n - 1 - k] = bits[rng.integers(0, n - 1 - k)]
    return code_set(bits)


class TestBitCode:
    """A single m-bit code: one row of a CodeSet."""

    def test_from_bits_roundtrip(self):
        codes = code_set([[1, 0, 1, 1, 0]])
        assert codes.m == 5
        assert code_bits(codes, 0) == [1, 0, 1, 1, 0]

    def test_padding_must_be_zero(self):
        with pytest.raises(ValueError, match="padding"):
            CodeSet(np.array([[1 << 10]], dtype=np.uint64), 5)

    def test_from_int_range(self):
        # Every value below 2^m is a code: all m bits set is accepted, bit m (the first padding bit) is not.
        for m in (5, 63, 64, 65, 130):
            ones = pack_bits(np.ones((1, m), dtype=np.uint8))
            assert code_bits(CodeSet(ones, m), 0) == [1] * m
            if m % 64:
                ones[0, -1] |= np.uint64(1 << (m % 64))
                with pytest.raises(ValueError, match="padding"):
                    CodeSet(ones, m)

    def test_caller_array_stays_writable(self):
        words = pack_bits(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
        codes = CodeSet(words, 3)
        assert words.flags.writeable and not codes.words.flags.writeable
        words[0, 0] = 0
        assert code_bits(codes, 0) == [1, 0, 1]

    def test_multiword(self):
        bits = [1] * 64 + [0, 1, 1]
        codes = code_set([bits])
        assert codes.m == 67 and codes.words.shape == (1, 2)
        assert code_bits(codes, 0) == bits

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=130))
    def test_bytes_roundtrip(self, tmp_path_factory, bits):
        codes = code_set([bits])
        path = tmp_path_factory.mktemp("roundtrip") / "codes.ob1j"
        with open(path, "wb") as f:
            write_code_set(codes, f)
        back = read_code_set(path)
        assert np.array_equal(back.words, codes.words)
        assert code_bits(back, 0) == bits


class TestSampleMap:
    def test_deterministic(self):
        a = sample_map(8, 3, seed=42)
        b = sample_map(8, 3, seed=42)
        assert np.array_equal(a, b)

    def test_single_direction(self):
        emap = sample_map(1, 2, seed=0)
        assert emap.shape == (1, 2)

    def test_row_norms(self):
        emap = sample_map(64, 50, seed=5)
        assert emap.shape[0] == 64
        assert np.all(np.abs(np.linalg.norm(emap, axis=1) - 1.0) <= 1e-9)

    def test_zero_m_rejected(self, tmp_path, capsys):
        # m >= 1 is --m's domain, which the parser checks before the points file is read or the codes file written
        codes = tmp_path / "codes.bin"
        err = usage_error(capsys, "embed", "--points", str(tmp_path / "pts.csv"), "--m", "0", "--codes", str(codes))
        assert "argument --m: m must be >= 1, got 0" in err
        assert not codes.exists()


class TestEmbed:
    def test_direct_signs(self):
        emap = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        codes = code_set(embed_points(emap, PointSet([basis(0, 3)])))
        assert code_bits(codes, 0) == [1, 0]

    def test_deterministic(self):
        emap = sample_map(16, 4, seed=9)
        x = PointSet([basis(2, 4)])
        assert np.array_equal(embed_points(emap, x), embed_points(emap, x))

    def test_stacked_maps_match_single_maps(self):
        rng = np.random.default_rng(12)
        points = random_points(rng, 9, 5)
        maps = np.stack([sample_map(13, 5, seed=s) for s in range(6)])
        bits = embed_points(maps, points)
        assert bits.shape == (6, 9, 13)
        for t in range(6):
            assert np.array_equal(bits[t], embed_points(maps[t], points))

    def test_antipodal_complement(self):
        emap = sample_map(64, 5, seed=77)
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(5)
        x = raw / np.linalg.norm(raw)
        dots = emap @ x
        assert np.min(np.abs(dots)) > 1e-12  # no ties, so the codes of x and -x are exact complements
        points = PointSet([x, -x])
        assert next(pair_stream(code_set(embed_points(emap, points)), points))[1][0, 1] == 64

    def test_embed_points_matches_single(self):
        emap = sample_map(10, 4, seed=21)
        ps = PointSet(np.eye(3, 4))
        cs = code_set(embed_points(emap, ps))
        for i in range(3):
            assert code_bits(cs, i) == embed_bits(emap, ps.matrix[i])


class TestHammingDistance:
    """Differing-bit counts as pair_stream computes them for check and embed, by XOR and popcount."""

    def test_equal_codes(self):
        assert first_pair_bits(code_set([[1, 0, 1], [1, 0, 1]])) == 0

    def test_complement_is_one(self):
        for m in (1, 7, 64, 100):
            bits = np.arange(m) % 2 == 0
            codes = code_set([bits, ~bits])
            assert first_pair_bits(codes) / m == 1.0

    def test_quarter(self):
        codes = code_set([[0] * 8, [1, 1, 0, 0, 0, 0, 0, 0]])
        assert first_pair_bits(codes) / 8 == 0.25

    @given(st.integers(1, 130), st.integers(0, 2**40))
    @settings(max_examples=100)
    def test_packed_equals_bitloop(self, m, seed):
        rng = np.random.default_rng(seed)
        codes = code_set([rng.integers(0, 2, m), rng.integers(0, 2, m)])
        assert first_pair_bits(codes) == hamming_bitloop(codes, 0, 1)


def pair_deviation(emap: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """check_rip's signed deviation (Hamming distance of the images) - (geodesic distance) for one pair."""
    points = PointSet([x, y])
    # At the smallest delta every pair with a nonzero deviation is a violation.
    [(i, _, h, dg, max_dev)] = rip_failures(code_set(embed_points(emap, points)), points, np.nextafter(0.0, 1.0),
                                            boundary="inclusive")  # two points: one slab
    return float(h[0] / len(emap) - dg[0]) if len(i) else max_dev


class TestMetricDeviation:
    """The deviation check_rip reports concentrates near 0 at rate 1/sqrt(m)."""

    def test_same_point_is_zero(self):
        emap = sample_map(32, 3, seed=4)
        x = basis(1, 3)
        assert pair_deviation(emap, x, x) == 0.0

    def test_balanced_map_on_orthogonal_pair(self):
        # Exactly half of the 4 directions separate e1 from e2, so both
        # metrics equal 1/2 and the deviation vanishes exactly.
        s = 1.0 / math.sqrt(2.0)
        emap = np.array([[s, s], [-s, -s], [s, -s], [-s, s]])
        assert pair_deviation(emap, basis(0, 2), basis(1, 2)) == 0.0

    def test_concentration_large_m(self):
        emap = sample_map(100_000, 50, seed=11)
        dev = pair_deviation(emap, basis(0, 50), basis(1, 50))
        assert abs(dev) <= 4.0 * math.sqrt(0.25 / 100_000)

    def test_definition_consistency(self):
        emap = sample_map(40, 6, seed=8)
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((2, 6))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        x, y = raw
        differing = sum(a != b for a, b in zip(embed_bits(emap, x), embed_bits(emap, y)))
        expected = differing / emap.shape[0] - geodesic_pair(x, y)
        assert pair_deviation(emap, x, y) == expected


class TestCheckOneToOne:
    def test_distinct(self):
        cs = code_set([[0, 1], [1, 0]])
        assert check_one_to_one(cs) == []

    def test_single_collision(self):
        cs = code_set([[0, 1], [0, 1], [1, 1]])
        assert collision_pairs(check_one_to_one(cs)) == [(0, 1)]

    def test_collision_list_complete_and_sorted(self):
        a, b = [0, 0], [1, 0]
        cs = code_set([a, a, b, a])
        assert collision_pairs(check_one_to_one(cs)) == [(0, 1), (0, 3), (1, 3)]

    def test_pigeonhole(self):
        rng = np.random.default_rng(0)
        cs = orthogonal_codes(2**3 + 1, 3, rng)
        assert check_one_to_one(cs)

    def test_needs_two(self, tmp_path, capsys):
        # a one-point set has no pair: check refuses a --points file of fewer than 2 rows
        (tmp_path / "pts.csv").write_text("1,0\n")
        with open(tmp_path / "codes.bin", "wb") as f:
            write_code_set(code_set([[1]]), f)
        err = usage_error(capsys, "check", "--points", str(tmp_path / "pts.csv"), "--codes", str(tmp_path / "codes.bin"))
        assert "--points needs at least 2 rows, got 1" in err

    @pytest.mark.parametrize("m", [1, 3, 63, 64, 65, 130])
    def test_matches_dict_reference(self, m):
        rng = np.random.default_rng(1000 + m)
        for duplicates in (0, 1, 5):
            codes = random_code_set(rng, 24, m, duplicates)
            assert collision_pairs(check_one_to_one(codes)) == check_one_to_one_dict(codes)


def planted_trials(rng, n: int, m: int) -> np.ndarray:
    """A (T, n, words) batch of code sets with planted duplicates, some sets distinct (when 2**m >= n) and some not."""
    base = draw_codes((n,), m, rng)
    base[:, 0] = rng.choice(2 ** min(m, 62), n, replace=2**m < n)  # pairwise distinct in word 0 when it can be
    trials = [base]
    dup = base.copy()
    dup[n - 1] = dup[0]  # non-adjacent for n >= 3
    trials.append(dup)
    if n >= 3:
        triple = base.copy()
        triple[n // 2] = triple[n - 1] = triple[0]
        trials.append(triple)
    if n >= 4:
        two_pairs = base.copy()
        two_pairs[n - 2], two_pairs[n - 1] = two_pairs[1], two_pairs[0]
        trials.append(two_pairs)
    if base.shape[1] > 1:
        for word in (-1, 0):  # equal in every word but the last, then in every word but the first
            near = base.copy()
            near[n - 1] = near[0]
            near[n - 1, word] ^= np.uint64(1)
            trials.append(near)
            near_dup = near.copy()
            near_dup[1] = near_dup[n - 1]
            trials.append(near_dup)
    words = base.shape[1]
    for word in sorted({0, words // 2, words - 1}):
        # Two codes equal but for the top bit of one word, which every byte before it leaves zero.
        bit = (m - 1) % 64 if word == words - 1 else 63
        zeros = base.copy()
        zeros[0] = zeros[n - 1] = 0
        zeros[n - 1, word] = np.uint64(1 << bit)
        trials.append(zeros)
    return np.stack(trials)


class TestSortCodes:
    """code_keys, the one sort key per code behind check_one_to_one and the simulator's distinctness count."""

    @pytest.mark.parametrize("m", [1, 5, 7, 63, 64, 65, 128, 130, 190, 512])
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_planted_duplicates(self, m, n):
        batch = planted_trials(np.random.default_rng(100 * m + n), n, m)
        distinct = [len(set(map(tuple, trial.tolist()))) == n for trial in batch]
        assert (True in distinct) == (2**m >= n) and False in distinct
        keys = code_keys(batch)
        assert keys.shape == batch.shape[:2] and np.shares_memory(keys, batch)
        for t, trial in enumerate(batch):
            rows = trial.tolist()
            assert (keys[t][:, None] == keys[t][None, :]).tolist() == [[a == b for b in rows] for a in rows]
            assert _count_distinct(trial[None].copy()) == distinct[t]
            codes = CodeSet(trial, m)
            assert collision_pairs(check_one_to_one(codes)) == check_one_to_one_dict(codes)
        assert _count_distinct(batch.copy()) == sum(distinct)


class TestCheckRip:
    def test_pass_at_half_distance(self):
        pts = PointSet(np.eye(2, 3))
        codes = code_set([[0, 0], [0, 1]])
        assert check_rip(codes, pts, delta=0.1) == (0, 0.0)

    def test_identical_codes_violate(self):
        pts = PointSet(np.eye(2, 3))
        codes = code_set([[0, 0], [0, 0]])
        [(pair, _, _, deviation)] = failure_list(codes, pts, delta=0.4)
        assert pair == (0, 1)
        assert deviation == pytest.approx(-0.5, abs=1e-12)
        failing, max_dev = check_rip(codes, pts, delta=0.4)
        assert failing == 1 and max_dev == pytest.approx(0.5, abs=1e-12)

    def test_delta_near_one_always_passes(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((5, 4))
        raw /= np.linalg.norm(raw, axis=1)[:, None]
        pts = PointSet(raw)
        codes = code_set(embed_points(sample_map(16, 4, seed=1), pts))
        assert check_rip(codes, pts, delta=0.999)[0] == 0

    def test_boundary_conventions(self):
        # Deviation exactly 0.5: passes at delta=0.5 strictly, fails inclusively.
        pts = PointSet(np.eye(2, 3))
        codes = code_set([[0, 0], [1, 1]])
        assert check_rip(codes, pts, delta=0.5, boundary="strict")[0] == 0
        assert check_rip(codes, pts, delta=0.5, boundary="inclusive")[0] == 1

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(14)
        pts = PointSet(np.eye(4, 6))
        codes = orthogonal_codes(4, 8, rng)
        passed_at = [check_rip(codes, pts, d)[0] == 0 for d in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
        # once passing, stays passing at larger delta
        for earlier, later in zip(passed_at, passed_at[1:]):
            assert later or not earlier

    def test_band_edge_decided_exactly(self):
        # m=10, H=7: the deviation 7/10 - 1/2 is exactly delta=0.2 (the float
        # difference is 0.19999999999999996), so inclusive fails and strict passes.
        pts = PointSet(np.eye(2, 3))
        codes = code_set([[0] * 10, [1] * 7 + [0] * 3])
        assert check_rip(codes, pts, delta=0.2, boundary="strict")[0] == 0
        assert [pair for pair, *_ in failure_list(codes, pts, delta=0.2, boundary="inclusive")] == [(0, 1)]

    def test_full_count_in_a_narrow_type(self):
        # m = 255 is the largest m whose counts are one byte each: 2h must not wrap at h = 255.
        pts = PointSet(np.eye(2, 3))
        codes = code_set([[0] * 255, [1] * 255])
        assert failure_list(codes, pts, delta=0.45) == [((0, 1), 1.0, 0.5, 0.5)]
        assert check_rip(codes, pts, delta=0.45) == (1, 0.5)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    def test_matches_loop_reference(self, m, boundary):
        rng = np.random.default_rng(2000 + m)
        raw = rng.standard_normal((14, 5))
        pts = PointSet(raw / np.linalg.norm(raw, axis=1)[:, None])
        for duplicates in (0, 3):
            codes = random_code_set(rng, 14, m, duplicates)
            for delta in (0.05, 0.2, 0.45):
                violations, max_dev = check_rip_loop(codes, pts, delta, boundary)
                assert failure_list(codes, pts, delta, boundary) == violations
                assert check_rip(codes, pts, delta, boundary) == (len(violations), max_dev)

    def test_misalignment(self, tmp_path, capsys):
        (tmp_path / "pts.csv").write_text("1,0,0,0\n0,1,0,0\n0,0,1,0\n")
        with open(tmp_path / "codes.bin", "wb") as f:
            write_code_set(code_set([[0], [1]]), f)
        err = usage_error(capsys, "check", "--points", str(tmp_path / "pts.csv"), "--codes", str(tmp_path / "codes.bin"),
                          "--delta", "0.2")
        assert "--codes has 2 codes but --points has 3 points" in err


def random_points(rng, n: int, dim: int) -> PointSet:
    raw = rng.standard_normal((n, dim))
    return PointSet(raw / np.linalg.norm(raw, axis=1)[:, None])


class TestPairStream:
    """pair_stream, the one source of pair counts and geodesics for check and embed, across its slabs and row blocks."""

    def test_blocks_match_whole_matrix(self):
        n, m, delta = 700, 64, 0.15
        assert n > 2 * PAIR_BLOCK_ROWS  # at least three blocks
        rng = np.random.default_rng(700)
        points = random_points(rng, n, 6)
        codes = code_set(embed_points(sample_map(m, 6, seed=7), points))
        # Whole-matrix references: every pair's XOR popcount, and every pair's geodesic.
        h_all = np.bitwise_count(codes.words[:, None, :] ^ codes.words[None, :, :]).sum(axis=2)
        geo_all = np.arccos(np.clip(points.matrix @ points.matrix.T, -1.0, 1.0)) / math.pi
        rows = []
        for lo, h, g in pair_stream(codes, points):
            hi = lo + len(h)
            rows.extend(range(lo, hi))
            assert h.shape == g.shape == (hi - lo, n - lo) and len(h) <= PAIR_SLAB_ROWS
            assert lo // PAIR_BLOCK_ROWS == (hi - 1) // PAIR_BLOCK_ROWS  # a slab lies in one geodesic block
            assert np.array_equal(h, h_all[lo:hi, lo:])
            for r in range(len(h)):
                assert np.allclose(g[r, r + 1 :], geo_all[lo + r, lo + r + 1 :], rtol=0.0, atol=1e-12)
            # A block's last slab is its own array, so holding it does not keep the block alive.
            assert (g.base is None) == (hi % PAIR_BLOCK_ROWS == 0 or hi == n - 1)
        assert rows == list(range(n - 1))

        iu, ju = np.triu_indices(n, 1)
        for boundary in ("strict", "inclusive"):
            fails = band_fails(h_all[iu, ju], m, geo_all[iu, ju], delta, boundary)
            pairs = [pair for pair, *_ in failure_list(codes, points, delta, boundary)]
            assert pairs == list(zip(iu[fails].tolist(), ju[fails].tolist()))
            assert max(i for i, _ in pairs) >= 2 * PAIR_BLOCK_ROWS  # the last block has violations
            dev = np.abs(h_all[iu, ju] / m - geo_all[iu, ju])
            failing, max_dev = check_rip(codes, points, delta, boundary)
            assert failing == len(pairs) and max_dev == pytest.approx(float(dev.max()), abs=1e-12)

    def test_one_point_has_no_slabs(self):
        codes = code_set([[1, 0, 1]])
        assert list(pair_stream(codes, PointSet(np.eye(1, 2)))) == []

    @pytest.mark.parametrize("n", sorted({PAIR_SLAB_ROWS - 1, PAIR_SLAB_ROWS, PAIR_SLAB_ROWS + 1, PAIR_BLOCK_ROWS - 1,
                                          PAIR_BLOCK_ROWS, PAIR_BLOCK_ROWS + 1, 2 * PAIR_BLOCK_ROWS + 1}))
    @pytest.mark.parametrize("m", [1, 63, 64, 65, 512])
    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    def test_check_rip_matches_loop_at_slab_edges(self, n, m, boundary):
        # n one below, at and one past a slab and a block: the last slab or block is short, full, or one row.
        rng = np.random.default_rng(n * 1000 + m)
        points = random_points(rng, n, 5)
        bits = embed_points(sample_map(m, 5, seed=n + m), points)
        bits[-1] = bits[0]  # equal codes at the two ends of the walk
        bits[-2] = ~bits[-1]  # and complements in its last pair, which fail at any delta below 1 - their geodesic
        codes = code_set(bits)
        delta = 0.3 if m < 64 else 0.05
        violations, max_dev = check_rip_loop(codes, points, delta, boundary)
        assert failure_list(codes, points, delta, boundary) == violations
        assert check_rip(codes, points, delta, boundary) == (len(violations), max_dev)
        assert violations[-1][0] == (n - 2, n - 1)  # the walk's last pair, in its last slab, is reported

    def test_check_rip_memory_bounded(self):
        # The (n, n) float64 geodesic matrix alone would take n * n * 8 = 72 MB at n = 3000.
        n = 3000
        block = PAIR_BLOCK_ROWS * n * 8
        points = random_points(np.random.default_rng(3000), n, 16)

        def peak_of(walk):
            tracemalloc.start()
            try:
                result = walk()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for m in (512, 2048):  # 2048 bits: a transposed word array four times as large beside the block
            codes = code_set(embed_points(sample_map(m, 16, seed=3), points))
            for delta in (0.2, 0.01):  # every pair passes at 0.2; most fail at 0.01
                (failing, _), peak = peak_of(lambda: check_rip(codes, points, delta))
                assert (failing == 0) == (delta == 0.2), (m, delta)
                assert peak < n * n * 8 / 4
                # One geodesic block is live at a time: the next is computed only after the last is freed.
                assert peak < 1.5 * block, (m, delta)

            def walk():  # as check's listing walks: one slab's failure arrays stay bound while the next is made
                listed = 0
                for i, j, h, dg, _ in rip_failures(codes, points, 0.01):
                    listed += len(i)
                return listed

            listed, peak = peak_of(walk)
            assert listed == failing
            assert peak < 2 * block, m


class TestEmbedOrthogonal:
    """The codes of pairwise orthogonal points are iid fair coins, which the fast path draws directly."""

    def test_one_bit_collision_rate(self):
        rng = np.random.default_rng(51)
        trials = 40_000
        equal = sum(1 for _ in range(trials) if draw_codes((2,), 1, rng)[0, 0] == draw_codes((2,), 1, rng)[1, 0])
        # two independent fair bits agree with probability 1/2
        assert abs(equal / trials - 0.5) <= 4.0 * math.sqrt(0.25 / trials)

    def test_birthday_rate(self):
        from onebit.oracles import birthday_exact

        exact = birthday_exact(10, 7).float_value
        rng = np.random.default_rng(52)
        trials = 100_000
        # All trials in one draw (the same stream as one draw per trial), each sorted on its own.
        ok = _count_distinct(draw_codes((trials, 10), 7, rng))
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(ok / trials - exact) <= 3.0 * se

    def test_bits_fair_and_independent(self):
        # 2x2 contingency of two fixed bit positions across draws; chi-squared
        # with 1 dof stays below z^2 = 16 (a 4-sigma criterion).
        rng = np.random.default_rng(53)
        trials = 20_000
        table = np.zeros((2, 2), dtype=np.int64)
        ones_a = 0
        for _ in range(trials):
            cs = orthogonal_codes(3, 7, rng)
            a = code_bits(cs, 0)[2]
            b = code_bits(cs, 2)[5]
            table[a, b] += 1
            ones_a += a
        total = table.sum()
        row = table.sum(axis=1)
        col = table.sum(axis=0)
        chi2 = 0.0
        for i in (0, 1):
            for j in (0, 1):
                expect = row[i] * col[j] / total
                chi2 += (table[i, j] - expect) ** 2 / expect
        assert chi2 <= 16.0
        assert abs(ones_a / trials - 0.5) <= 4.0 * math.sqrt(0.25 / trials)


class TestBandLimit:
    def test_strict_vs_inclusive_on_lattice(self):
        # 2*m*delta = 4 exactly: |2H - m| = 4 (H = 3, 7) passes strictly, fails inclusively.
        assert band_range(10, 0.5, 0.2, "strict") == (3, 7)
        assert band_range(10, 0.5, 0.2, "inclusive") == (4, 6)

    def test_conventions_agree_off_lattice(self):
        assert band_range(8, 0.5, 0.2, "strict") == (3, 5)
        assert band_range(8, 0.5, 0.2, "inclusive") == (3, 5)

    def test_empty_band_is_canonical(self):
        # Odd m with 2*m*delta <= 1 leaves no count within delta of m/2; an empty band is (m + 1, m).
        for boundary in ("strict", "inclusive"):
            assert band_range(1, 0.5, 0.1, boundary) == (2, 1)
            assert band_range(3, 0.5, 0.1, boundary) == (4, 3)
        assert band_range(5, 0.5, 0.1, "inclusive") == (6, 5)
        assert band_range(5, 0.5, 0.1, "strict") == (2, 3)

    def test_delta_read_as_typed(self):
        # 2*50*0.29 is 28.999999999999996 in floating point; as typed it is 29,
        # which |2H - 2*50*0.25| reaches at H = 27.
        assert band_range(50, 0.25, 0.29, "strict") == (0, 27)
        assert band_range(50, 0.25, 0.29, "inclusive") == (0, 26)

    def test_rule_matches_exact_lattice(self):
        # Every (m, delta, boundary, H) cell at geodesic 1/2: the band rule and the
        # passing range derived from it equal the exact rational decision.  At
        # random geodesics the range equals the rule itself.
        rng = np.random.default_rng(61)
        for m in range(1, 200):
            h = np.arange(m + 1)
            s = np.abs(2 * h - m)
            geo = rng.random(4)
            for k in range(1, 50):
                delta = k / 100
                edge = 2 * m * Fraction(k, 100)
                for boundary in ("strict", "inclusive"):
                    scaled = s * edge.denominator
                    exact = scaled > edge.numerator if boundary == "strict" else scaled >= edge.numerator
                    assert np.array_equal(band_fails(h, m, 0.5, delta, boundary), exact), (m, delta, boundary)
                    h_lo, h_hi = band_range(m, 0.5, delta, boundary)
                    assert np.array_equal((h < h_lo) | (h > h_hi), exact), (m, delta, boundary)
                    h_lo, h_hi = band_range(m, geo, delta, boundary)
                    outside = (h[:, None] < h_lo) | (h[:, None] > h_hi)
                    assert np.array_equal(outside, band_fails(h[:, None], m, geo, delta, boundary)), (m, delta, boundary)


class TestSerialization:
    def test_roundtrip_file(self, tmp_path):
        rng = np.random.default_rng(1)
        cs = orthogonal_codes(5, 77, rng)
        path = tmp_path / "codes.bin"
        with open(path, "wb") as f:
            write_code_set(cs, f)
        back = read_code_set(path)
        assert back.n == cs.n and back.m == cs.m
        assert np.array_equal(back.words, cs.words)

    def test_header_layout(self, tmp_path):
        cs = code_set([[1, 0, 1]])
        path = tmp_path / "codes.ob1j"
        with open(path, "wb") as f:
            write_code_set(cs, f)
        data = path.read_bytes()
        assert data[:4] == CODESET_MAGIC == b"OB1J"
        assert data[4] == 1
        assert int.from_bytes(data[5:13], "little") == 1
        assert int.from_bytes(data[13:21], "little") == 3
        assert data[21:29] == (0b101).to_bytes(8, "little")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "codes.ob1j"
        path.write_bytes(b"XXXX" + bytes(17))
        with pytest.raises(ValueError, match="^bad magic b'XXXX'$"):
            read_code_set(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "codes.ob1j"
        with open(path, "wb") as f:
            write_code_set(code_set([[1, 0, 1]]), f)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="^expected 29 bytes for n=1, m=3, got 28$"):
            read_code_set(path)

    def test_nonzero_padding_rejected(self, tmp_path):
        path = tmp_path / "codes.ob1j"
        with open(path, "wb") as f:
            write_code_set(code_set([[1, 0, 1]]), f)
        data = bytearray(path.read_bytes())
        data[22] = 0xFF  # bits past m=3 in the first word
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="^code 0: padding bits past m must be zero$"):
            read_code_set(path)

    def test_hexdump(self):
        cs = code_set([[1, 0, 1], [0, 1, 0]])
        dump = code_set_hexdump(cs)
        lines = dump.strip().split("\n")
        assert lines[0] == "0: " + (0b101).to_bytes(8, "little").hex()
        assert lines[1] == "1: " + (0b010).to_bytes(8, "little").hex()


def test_packed_vs_bitloop_sweep():
    # XOR + popcount counts equal the bit-by-bit comparison across word widths
    rng = np.random.default_rng(99)
    for m in (1, 63, 64, 65, 127, 128, 129, 130):
        for _ in range(25):
            codes = code_set([rng.integers(0, 2, m), rng.integers(0, 2, m)])
            assert first_pair_bits(codes) == hamming_bitloop(codes, 0, 1)


def test_hamming_multiple_of_inverse_m():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 101))
        codes = code_set([rng.integers(0, 2, m), rng.integers(0, 2, m)])
        d = first_pair_bits(codes) / m
        k = round(d * m)
        assert 0 <= k <= m and d == k / m  # a differing-bit count over m
        assert (d == 0.0) == np.array_equal(codes.words[0], codes.words[1])
