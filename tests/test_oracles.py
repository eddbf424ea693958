import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from onebit.bounds import p_delta_exact
from onebit.oracles import (
    EtaComparison,
    ExactProbability,
    birthday_exact,
    eta_comparison,
    rip_exact_three,
)
from reference import p_delta_twice_upper_tail, rip_three_triple_loop, usage_error


def brute_birthday(n: int, m: int) -> Fraction:
    """Enumerate every assignment of n codes over 2^m values; count the injective ones."""
    space = 2**m
    good = 0
    for combo in itertools.product(range(space), repeat=n):
        if len(set(combo)) == n:
            good += 1
    return Fraction(good, space**n)


def brute_rip_three(m: int, delta: float, boundary: str) -> Fraction:
    """Enumerate all (2^m)^3 code triples with numpy popcounts."""
    from onebit.embedding import band_fails

    codes = np.arange(2**m, dtype=np.uint64)
    xor = codes[:, None] ^ codes[None, :]
    h = np.bitwise_count(xor).astype(np.int64)
    band = (~band_fails(h, m, 0.5, delta, boundary)).astype(np.int64)
    # sum over (x, y, s) of band[x,y] * band[y,s] * band[x,s]
    good = int(((band @ band) * band).sum())
    return Fraction(good, 8**m)


class TestExactProbability:
    def test_range_validated(self):
        with pytest.raises(ValueError):
            ExactProbability(Fraction(3, 2))

    def test_fraction_string(self):
        assert birthday_exact(2, 1).fraction_string() == "1/2"

    def test_fraction_string_keeps_digit_limit(self):
        # The int-to-str digit limit is lifted for the one conversion only.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert len(birthday_exact(100, 200).fraction_string()) > 4300
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_float_value_matches(self):
        p = birthday_exact(10, 7)
        assert p.float_value == pytest.approx(float(p.value), rel=1e-15)


class TestBirthdayExact:
    def test_two_points_one_bit(self):
        assert birthday_exact(2, 1).value == Fraction(1, 2)

    def test_ten_points_seven_bits(self):
        p = birthday_exact(10, 7)
        expect = Fraction(1)
        for k in range(1, 10):
            expect *= Fraction(128 - k, 128)
        assert p.value == expect
        assert p.value == Fraction(50242878679888125, 72057594037927936)
        assert p.float_value == pytest.approx(0.6972600091732524, rel=1e-14)

    def test_pigeonhole_zero(self):
        assert birthday_exact(129, 7).value == 0
        assert birthday_exact(3, 1).value == 0

    def test_denominator_dyadic(self):
        for n, m in ((5, 3), (10, 7), (4, 10)):
            den = birthday_exact(n, m).value.denominator
            assert den & (den - 1) == 0  # power of two

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_brute_force_equivalence(self, n, m):
        assert birthday_exact(n, m).value == brute_birthday(n, m)


class TestBinomialTail:
    """p_delta_exact, one minus the band's mass, against twice the upper tail past the band (tests/reference.py)."""

    def test_known_value(self):
        # m = 10, delta = 0.2: the inclusive band is H = 4..6, so the upper tail starts at H = 7
        p = p_delta_exact(10, 0.2)
        assert p == 2 * Fraction(120 + 45 + 10 + 1, 1024)
        assert p == p_delta_twice_upper_tail(10, 0.2)

    def test_full_mass(self):
        # odd m with 2m*delta <= 1: no count is within m*delta of m/2, so the band is empty and every pair fails
        for m, delta in ((5, 0.05), (5, 0.1), (1, 0.2), (1, 0.49), (99, 0.005)):
            assert p_delta_exact(m, delta) == 1 == p_delta_twice_upper_tail(m, delta), (m, delta)

    def test_empty_tail(self):
        # the tail never empties: just below delta = 1/2 only H = 0 and H = m fail
        for m in range(2, 200):
            assert p_delta_exact(m, 0.499) == Fraction(2, 1 << m) == p_delta_twice_upper_tail(m, 0.499)

    def test_out_of_range(self, capsys):
        # m >= 1 is --m's domain, which the parser checks before the oracle runs
        assert "argument --m: m must be >= 1, got 0" in usage_error(capsys, "oracle", "rip_three", "--m", "0", "--delta", "0.2")

    @given(st.integers(1, 120), st.integers(1, 499))
    def test_symmetry(self, m, k):
        # the band is symmetric about m/2, so one minus its mass is twice the upper tail past it
        assert p_delta_exact(m, k / 1000) == p_delta_twice_upper_tail(m, k / 1000)


class TestRipExactThree:
    def test_single_bit_never_in_band(self):
        # each pairwise distance is 0 or 1, deviating from 1/2 by 1/2 > 0.4
        assert rip_exact_three(1, 0.4).value == 0

    def test_parity_obstruction(self):
        # m=2, delta=0.25: every pair would need exactly one differing bit,
        # but the three differing-bit counts always have even sum.
        assert rip_exact_three(2, 0.25).value == 0

    def test_wide_band_full_mass(self):
        assert rip_exact_three(4, 0.75).value == 1
        assert rip_exact_three(9, 0.9).value == 1

    def test_boundary_conventions_differ_on_lattice(self):
        strict = rip_exact_three(10, 0.2, "strict").value
        inclusive = rip_exact_three(10, 0.2, "inclusive").value
        assert strict > inclusive  # the band edge carries positive mass

    def test_denominator_divides_power_of_four(self):
        val = rip_exact_three(6, 0.3).value
        assert (4**6) % val.denominator == 0

    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    @pytest.mark.parametrize("delta", [0.2, 0.3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_brute_force_equivalence_small(self, m, delta, boundary):
        assert rip_exact_three(m, delta, boundary).value == brute_rip_three(m, delta, boundary)

    @pytest.mark.parametrize("boundary", ["strict", "inclusive"])
    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.3, 0.45])
    @pytest.mark.parametrize("m", [1, 2, 3, 10, 17, 24, 33, 64, 101])
    def test_prefix_sums_match_triple_loop(self, m, delta, boundary):
        # crosscheck's m = 10, 17 and 24, odd and even m, and bands from empty (m = 1 at 0.05) to nearly full
        assert rip_exact_three(m, delta, boundary).value == rip_three_triple_loop(m, delta, boundary)


class TestEtaComparison:
    def test_ten_seven_spot_values(self):
        rep = eta_comparison(10, 7)
        assert rep.poisson_estimate == pytest.approx(math.exp(-45.0 / 128.0), rel=1e-15)
        assert rep.deviation == pytest.approx(0.006327865172375158, rel=1e-9)
        assert rep.eta_pairwise == 45 * 4.0**-7
        assert rep.eta_general == 45 * 33 * 4.0**-7
        assert rep.within_pairwise is False
        assert rep.within_general is True

    def test_two_points_always_within_pairwise(self):
        # |(1 - 2^-m) - e^{-2^-m}| <= 2^{-2m}/2 <= eta_pairwise for n=2
        for m in range(1, 31):
            rep = eta_comparison(2, m)
            assert rep.deviation <= rep.eta_pairwise

    def test_large_m_both_contain(self):
        rep = eta_comparison(10, 40)
        assert rep.deviation < 1e-9
        assert rep.within_pairwise and rep.within_general
