import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit import cli
from onebit.bounds import (
    ValidityRangeError,
    bounds_reports_csv,
    exponent_rate,
    m_injective,
    m_injective_orthogonal,
    m_linear_jl,
    m_rip_union,
    one_to_one_m_window,
    one_to_one_window,
    p_delta_exact,
    p_delta_float,
    rate_constant,
    rip_m_window,
    rip_window,
    solve_threshold,
    stein_chen_eta,
    window_csv,
)
from onebit.embedding import band_range
from reference import envelope_root_decimal, m_values_decimal, p_delta_logsum, usage_error


class TestMInjective:
    def test_power_of_two_instance(self):
        r = m_injective(16, 0.5, 0.5)
        assert r.m_value == pytest.approx(8.0, rel=1e-12)
        assert r.m_int == 8

    def test_two_points(self):
        assert m_injective(2, 0.5, 0.5).m_value == pytest.approx(2.0, rel=1e-12)

    def test_matches_orthogonal_special_case(self):
        for n in (2, 10, 100, 1024):
            for eps in (0.9, 0.5, 0.1, 0.01, 2**-10):
                general = m_injective(n, eps, 0.5)
                special = m_injective_orthogonal(n, eps)
                assert (general.m_value, general.m_int) == (special.m_value, special.m_int)

    def test_exact_at_powers_of_two(self):
        # ln(2^29) / ln 2 rounds to 29.000000000000004, whose ceiling would be 30.
        assert m_injective(1024, 2**-10, 0.5).m_int == 29
        assert m_injective(1024, 2**-10, 0.25).m_value == 14.5
        assert m_injective(2**20, 0.125, 0.5).m_value == 42.0

    @pytest.mark.parametrize("n, eps, delta_sep, m_int", [(2, 0.2, 0.1, 1), (10**9, 0.5, 0.1, 18), (10**9, 0.5, 0.01, 9)])
    def test_exact_at_powers_of_ten(self, n, eps, delta_sep, m_int):
        # (1/delta_sep)^m_int is exactly n^2/(2 eps); the float value lands on m_int or one ulp from it.
        r = m_injective(n, eps, delta_sep)
        assert r.m_int == m_int
        assert r.m_value == pytest.approx(m_int, rel=2**-52)

    def test_exact_near_one(self):
        # Against (1/delta_sep)^m in exact fractions, where m is in the tens of thousands.
        for n, eps, delta_sep in ((1000, 0.5, 0.999), (37, 0.1, 0.99), (10, 0.01, 0.999), (2, 0.3, 0.9999)):
            base, target = 1 / Fraction(str(delta_sep)), n * n / (2 * Fraction(str(eps)))
            m = m_injective(n, eps, delta_sep).m_int
            assert base**m >= target > base ** (m - 1), (n, eps, delta_sep)
        # Here the fractions would have 8e8 bits; the answer still comes at once.
        r = m_injective(10**9, 0.5, 0.999999)
        assert r.m_int == math.ceil(r.m_value) == 41446511

    def test_value_and_int_from_one_reading(self):
        # delta_sep reads as 1 - 1e-16; its double, inverted in floats, is 1 + 2^-52, 2.2 times as far from 1.
        r = m_injective(10**9, 0.1, 0.9999999999999999)
        assert r.m_int == 430559695863269206
        assert f"{r.m_value:.4e}" == "4.3056e+17"

    def test_separation_parameter_range(self, capsys):
        # delta_sep is --delta, whose domain (0, 1) the parser checks: the bound diverges at 1
        for delta in ("1.0", "0.0"):
            err = usage_error(capsys, "bounds", "--n", "4", "--eps", "0.5", "--delta", delta)
            assert "argument --delta: must lie in (0, 1)" in err

    def test_m_int_clamped_to_one(self):
        r = m_injective(2, 0.99, 0.01)
        assert r.m_value < 1.0
        assert r.m_int == 1


class TestMInjectiveOrthogonal:
    def test_reference_values(self):
        assert m_injective_orthogonal(1024, 0.5).m_value == pytest.approx(20.0, rel=1e-12)
        assert m_injective_orthogonal(2, 0.5).m_value == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n, eps, printed, m_int", [
        (800, 0.01, "24.93156857", 25),
        (10, 0.01, "12.28771238", 13),
        (37, 0.3, "11.15587233", 12),
        (10**6, 1e-6, "58.79470571", 59),
        (1024, 2**-10, "29", 29),
    ])
    def test_printed_values(self, n, eps, printed, m_int):
        r = m_injective_orthogonal(n, eps)
        assert (r.formula_id, f"{r.m_value:.10g}", r.m_int, r.delta, r.eps1) == ("injective_orthogonal", printed, m_int, None, eps)

    def test_monotone_in_eps(self):
        vals = [m_injective_orthogonal(100, e).m_value for e in (0.01, 0.1, 0.5, 0.9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMRipUnion:
    def test_reference_values(self):
        r800 = m_rip_union(800, 0.01, 0.2)
        assert r800.m_value == pytest.approx(224.6799205165493, rel=1e-12)
        assert r800.m_int == 225
        r100 = m_rip_union(100, 0.1, 0.2)
        assert r100.m_value == pytest.approx(143.91156831212786, rel=1e-12)
        assert r100.m_int == 144

    def test_quartering_rule(self):
        # m scales exactly like delta^-2 (binade-exact in floats)
        for n, eps, delta in ((800, 0.01, 0.2), (50, 0.3, 0.12)):
            assert m_rip_union(n, eps, delta / 2).m_value == 4.0 * m_rip_union(n, eps, delta).m_value

    def test_out_of_theorem_range(self, capsys):
        # Proven for delta < 1/2: bounds, its one caller, leaves the row out otherwise and checks delta no further.
        for delta in ("0.5", "0.6"):
            assert cli.main(["bounds", "--n", "10", "--eps", "0.1", "--delta", delta]) == cli.EXIT_OK
            ids = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
            assert ids == ["injective", "injective_orthogonal", "linear_jl"], delta

    def test_monotone_in_delta_and_eps(self):
        base = m_rip_union(100, 0.1, 0.2).m_value
        assert m_rip_union(100, 0.1, 0.3).m_value < base
        assert m_rip_union(100, 0.2, 0.2).m_value < base


class TestMLinearJl:
    def test_reference_value(self):
        assert m_linear_jl(800, 0.2).m_value == pytest.approx(1542.6027063849063, rel=1e-12)

    def test_one_bit_bound_beats_it_here(self):
        assert m_rip_union(800, 0.01, 0.2).m_value < m_linear_jl(800, 0.2).m_value

    def test_monotone_in_delta(self):
        assert m_linear_jl(800, 0.3).m_value < m_linear_jl(800, 0.2).m_value


class TestPDeltaExact:
    def test_ten_fifth(self):
        p = p_delta_exact(10, 0.2)
        assert p == Fraction(352, 1024)
        assert p == Fraction(11, 32)
        assert float(p) == 0.34375
        assert band_range(10, 0.5, 0.2, "inclusive")[1] + 1 == 7  # the tail starts at H = 7

    def test_one_minus_band_probability(self):
        # p_delta is the probability that an orthogonal pair fails the inclusive band,
        # H ~ Bin(m, 1/2), over every 3-decimal delta at small m (where odd m and
        # 2m*delta <= 1 leave the band empty) and a few cells at large m.
        cells = [(m, k / 1000) for m in range(1, 17) for k in range(1, 500)]
        cells += [(m, d) for m in (99, 100, 1499) for d in (0.001, 0.2, 0.333, 0.499)]
        for m, delta in cells:
            h_lo, h_hi = band_range(m, 0.5, delta, "inclusive")
            inside = Fraction(sum(math.comb(m, h) for h in range(int(h_lo), int(h_hi) + 1)), 1 << m)
            assert p_delta_exact(m, delta) == 1 - inside, (m, delta)

    def test_near_half_delta(self):
        # band just below 1/2: only the all-heads / all-tails outcomes deviate
        assert p_delta_exact(4, 0.499) == Fraction(2, 16)

    def test_single_flip(self):
        assert p_delta_exact(1, 0.2) == 1

    def test_twenty_reference(self):
        assert p_delta_exact(20, 0.2) == Fraction(2 * 60460, 2**20)

    def test_range_checks(self, capsys):
        # m >= 1 is --m's domain, which the parser checks before the rip window evaluates the tail
        assert "argument --m: m must be >= 1, got 0" in usage_error(capsys, "bounds", "--n", "10", "--delta", "0.2", "--m", "0")
        # delta < 1/2 is checked once, by exponent_rate, which every rip window evaluates before the tail
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1/2\)"):
            exponent_rate(0.5)

    @given(st.integers(1, 80), st.floats(0.01, 0.49))
    @settings(max_examples=80)
    def test_dyadic_and_in_range(self, m, delta):
        p = p_delta_exact(m, delta)
        assert 0 <= p <= 1
        den = p.denominator
        assert den & (den - 1) == 0

    def test_float_view_matches(self):
        for m in (1, 10, 37, 60):
            assert p_delta_float(m, 0.2) == pytest.approx(float(p_delta_exact(m, 0.2)), rel=1e-12)
        # Past m = 2000 the float view sums the tail in log space.
        for m in (2001, 2500):
            for delta in (0.01, 0.2):
                assert p_delta_float(m, delta) == pytest.approx(float(p_delta_exact(m, delta)), rel=1e-11)

    def test_float_tail_stops_where_no_term_counts(self):
        # Past m = 2000 the tail is summed only until its terms fall below 2^-54 of the first,
        # which leaves the double of the full log-gamma sum unchanged ...
        for m in (2001, 2002, 2999, 40_001):
            for delta in (0.001, 0.01, 0.2, 0.49):
                assert p_delta_float(m, delta) == p_delta_logsum(m, delta), (m, delta)
        # ... and holds a few thousand terms where the full tail has half a million.
        tracemalloc.start()
        try:
            p_delta_float(10**6, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_float_view_of_empty_band_is_one(self):
        # odd m with 2m*delta <= 1: the band is empty and every pair fails, exactly, at any m
        for m, delta in ((1999, 1e-4), (2001, 1e-4), (2003, 2.4e-4), (10**6 + 1, 4e-7)):
            assert p_delta_float(m, delta) == 1.0, (m, delta)
        assert max(p_delta_float(m, 1e-5) for m in range(2001, 2200)) <= 1.0

    def test_hoeffding_domination_sample(self):
        for m in range(1, 121):
            for k in range(1, 10):
                delta = 0.05 * k
                bound = 2.0 * math.exp(-2.0 * delta * delta * m)
                assert p_delta_exact(m, delta) <= Fraction(bound)


class TestRates:
    def test_exponent_rate_reference(self):
        assert exponent_rate(0.2) == pytest.approx(-0.08228287850505185, abs=1e-15)


def expected_failing_pairs(n: int, m: int, delta: float) -> Fraction:
    """C(n,2) * p_delta_exact: the exact expectation that rip_window's envelopes sandwich."""
    return math.comb(n, 2) * p_delta_exact(m, delta)


class TestLambdaBounds:
    """rip_window's rates, the Stirling envelopes lambda1 <= C(n,2) p_delta <= lambda2."""

    def test_spot_instance_m10(self):
        w = rip_window(2, 10, 0.2)  # C(2,2) = 1, so these are per-pair values
        exact = float(expected_failing_pairs(2, 10, 0.2))
        assert w.lambda_lo == pytest.approx(0.04690051928488175, rel=1e-10)
        assert w.lambda_hi == pytest.approx(0.6022145881764174, rel=1e-10)
        assert exact == 0.34375
        assert w.lambda_lo <= exact <= w.lambda_hi

    def test_spot_instance_m20(self):
        w = rip_window(2, 20, 0.2)
        assert w.lambda_lo == pytest.approx(0.014565072560408956, rel=1e-10)
        assert w.lambda_hi == pytest.approx(0.3740384672693260, rel=1e-10)
        assert float(expected_failing_pairs(2, 20, 0.2)) == pytest.approx(0.11531829833984375, rel=1e-14)

    def test_sandwich_grid(self):
        for m in range(10, 61):
            for delta in (0.1, 0.15, 0.2, 0.25, 0.3, 0.4):
                w = rip_window(2, m, delta)
                p = expected_failing_pairs(2, m, delta)
                assert Fraction(w.lambda_lo) <= p <= Fraction(w.lambda_hi)

    def test_scales_with_pair_count(self):
        a = rip_window(2, 15, 0.2)
        b = rip_window(800, 15, 0.2)
        pairs = 800 * 799 // 2
        assert b.lambda_lo == pytest.approx(pairs * a.lambda_lo, rel=1e-9)
        assert b.lambda_hi == pytest.approx(pairs * a.lambda_hi, rel=1e-9)
        assert Fraction(b.lambda_lo) <= expected_failing_pairs(800, 15, 0.2) <= Fraction(b.lambda_hi)


class TestSteinChenEta:
    def test_general_plug_in(self):
        # n=800, p = 2^-20: C(n,2)(4n-7) p^2, all binade-exact
        assert stein_chen_eta(800, 2.0**-20, "general") == 319600 * 3193 * 2.0**-40

    def test_pairwise(self):
        assert stein_chen_eta(10, 2.0**-7, "pairwise") == 45 * 4.0**-7


class TestOneToOneWindow:
    def test_ten_seven_pairwise(self):
        w = one_to_one_window(10, 7)
        assert w.lambda_lo == w.lambda_hi == 45 * 2.0**-7
        assert w.eta == 45 * 4.0**-7
        assert w.eta_form == "pairwise"
        assert w.lo == pytest.approx(0.7008412923143775, rel=1e-12)
        assert w.hi == pytest.approx(0.7063344563768775, rel=1e-12)

    def test_ten_seven_general(self):
        w = one_to_one_window(10, 7, "general")
        assert w.eta == pytest.approx(0.09063720703125, rel=1e-15)

    def test_rate_is_the_exact_dyadic_double(self):
        # lambda = C(n,2) / 2^m rounded once to a double, also past m = 1000 and into the subnormal range.
        for n in (10, 800, 10**6, 141_253_754, 10**12, 10**15):
            for m in (1, 7, 1000, 1001, 1050, 1074, 1077, 1100, 1200):
                assert one_to_one_window(n, m).lambda_lo == float(Fraction(math.comb(n, 2), 2**m)), (n, m)

    def test_two_points_large_m_shrinks_to_one(self):
        w = one_to_one_window(2, 40)
        assert w.lo >= 1.0 - 1e-9
        assert w.lo <= w.hi <= 1.0

    def test_clamping_low_m(self):
        w = one_to_one_window(1000, 2)
        assert w.lo == 0.0
        assert 0.0 <= w.hi <= 1.0


class TestOneToOneMWindow:
    def test_reference_instance(self):
        lower, upper = one_to_one_m_window(100, 0.5, 0.1)
        assert lower.m_value == pytest.approx(12.822632579461063, rel=1e-12)
        assert upper.m_value == pytest.approx(15.504511273258142, rel=1e-12)
        assert (lower.formula_id, lower.n, lower.delta, lower.eps1, lower.eps2, lower.m_int) == (
            "one_to_one_m_lower", 100, None, 0.5, 0.1, 13)
        assert (upper.formula_id, upper.m_int, upper.validity_note) == ("one_to_one_m_upper", 16, "requires n >= 10")

    def test_small_n_instance(self):
        lower, upper = one_to_one_m_window(10, 0.9, 0.01)
        assert lower.m_value == pytest.approx(4.343097757808205, rel=1e-12)
        assert upper.m_value == pytest.approx(12.113892524234693, rel=1e-12)

    def test_ordering_always_holds_when_valid(self):
        for n in (10, 50, 1000):
            for eps1, eps2 in ((0.5, 0.1), (0.9, 0.5), (0.3, 0.01)):
                lower, upper = one_to_one_m_window(n, eps1, eps2)
                assert lower.m_value < upper.m_value

    def test_validity_threshold(self):
        with pytest.raises(ValidityRangeError):
            one_to_one_m_window(9, 0.5, 0.1)
        rows = one_to_one_m_window(9, 0.5, 0.1, force=True)
        assert all(r.validity_note == "requires n >= 10 (forced)" for r in rows)

    def test_eps_ordering_violation(self):
        with pytest.raises(ValueError, match="eps"):
            one_to_one_m_window(100, 0.1, 0.5)

    def test_tiny_eps_rates_are_accurate(self):
        # The rate ln(1/(1 - eps/c)) is -log1p(-eps/c), which is eps/c to double precision for tiny eps.
        for eps in (1e-15, 1e-17, 1e-300):
            lower, upper = one_to_one_m_window(100, 0.5, eps)
            assert upper.m_value == pytest.approx(math.log2(4950 * 0.99 / eps), rel=1e-14), eps
            lower, upper = one_to_one_m_window(100, eps, eps / 2)
            assert lower.m_value == pytest.approx(math.log2(4950 * 1.01 / eps), rel=1e-14), eps

    def test_tolerance_pair_checked_before_any_logarithm(self):
        # eps2 >= 0.99 leaves no logarithm (1 - eps2/0.99 <= 0); every pair outside 0 < eps2 < eps1 < 1 is refused too
        for eps1, eps2 in ((0.999, 0.99), (0.999, 0.995), (0.5, 0.5), (0.1, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, -0.1)):
            with pytest.raises(ValueError, match="need 0 < eps2 < eps1 < 1 and eps2 < 0.99"):
                one_to_one_m_window(100, eps1, eps2)
            with pytest.raises(ValueError, match="need 0 < eps2 < eps1 < 1 and eps2 < 0.99"):
                rip_m_window(800, 0.2, eps1, eps2)

    def test_large_n_tiny_eps_stays_finite(self):
        # C(n,2)/rate is past the largest double here; the difference of the two logarithms is not
        lower, upper = one_to_one_m_window(10**18, 0.5, 1e-300)
        assert (f"{lower.m_value:.10g}", lower.m_int) == ("119.1388312", 120)
        assert (f"{upper.m_value:.10g}", upper.m_int) == ("1115.15334", 1116)

    def test_threshold_crossing_rejected(self):
        # eps1 barely above eps2: the printed formulas cross and that is an error
        with pytest.raises(ValueError, match="cross"):
            one_to_one_m_window(100, 0.2, 0.199)


class TestRipWindow:
    def test_reference_instance(self):
        w = rip_window(800, 150, 0.2)
        assert w.lambda_lo == pytest.approx(0.038444903914339554, rel=1e-10)
        assert w.lambda_hi == pytest.approx(7.4046350652195044, rel=1e-10)
        assert w.eta_form == "general"
        p = float(p_delta_exact(150, 0.2))
        assert w.eta == pytest.approx(319600 * 3193 * p * p, rel=1e-12)
        assert w.lo == pytest.approx(max(0.0, math.exp(-w.lambda_hi) - w.eta), rel=1e-12)
        assert w.hi == pytest.approx(min(1.0, math.exp(-w.lambda_lo) + w.eta), rel=1e-12)

    def test_degenerate_window_clamps(self):
        w = rip_window(800, 50, 0.2)
        assert w.lo == 0.0
        assert w.hi == 1.0

    def test_windows_well_formed_across_grid(self):
        for m in range(90, 230, 10):
            w = rip_window(800, m, 0.2)
            assert 0.0 <= w.lo <= w.hi <= 1.0


class TestRipMWindow:
    def test_reference_instance(self):
        m_eps1, m_eps2, crossing_eps1, crossing_eps2 = rows = rip_m_window(800, 0.2, 0.5, 0.1)
        assert rate_constant(0.2) == pytest.approx(12.153196608679701, rel=1e-12)
        assert m_eps1.m_value == pytest.approx(115.30517176493419, rel=1e-10)
        assert m_eps2.m_value == pytest.approx(203.24603765654422, rel=1e-10)
        assert crossing_eps1.m_value == pytest.approx(116.5594647003444, abs=1e-4)
        assert crossing_eps2.m_value == pytest.approx(203.4029497934875, abs=1e-4)
        assert [r.formula_id for r in rows] == ["rip_m_eps1", "rip_m_eps2", "rip_crossing_eps1", "rip_crossing_eps2"]
        assert [r.m_int for r in rows] == [116, 204, 117, 204]
        assert {(r.n, r.delta, r.eps1, r.eps2, r.validity_note) for r in rows} == {(800, 0.2, 0.5, 0.1, "requires n >= 800")}

    def test_q_approximates_inverse_two_delta_squared(self):
        assert rate_constant(0.2) == pytest.approx(12.5, rel=0.03)
        assert rate_constant(0.1) == pytest.approx(49.66349616475454, rel=1e-12)
        assert rate_constant(0.1) == pytest.approx(50.0, rel=0.01)

    def test_validity_threshold(self):
        with pytest.raises(ValidityRangeError):
            rip_m_window(799, 0.2, 0.5, 0.1)
        rows = rip_m_window(100, 0.2, 0.5, 0.1, force=True)
        assert all(r.validity_note == "requires n >= 800 (forced)" for r in rows)

    def test_no_crossing_row_is_nan(self):
        # For three points at delta 0.45 the lambda1 envelope starts, at m = 1, below the eps1 = 0.6 rate: no root, m_int 0.
        rows = rip_m_window(3, 0.45, 0.6, 0.1, force=True)
        assert [(r.formula_id, math.isnan(r.m_value), r.m_int == 0) for r in rows][2:] == [
            ("rip_crossing_eps1", True, True), ("rip_crossing_eps2", False, False)]

    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            rip_m_window(800, 0.2, 0.995, 0.1)
        with pytest.raises(ValueError):
            rip_m_window(800, 0.2, 0.1, 0.5)


class TestSolveThreshold:
    def test_lambda1_reference_root(self):
        target = math.log(1.0 / (1.0 - 0.5 / 1.01))
        m_star = solve_threshold(800, 0.2, target, "lambda1")
        assert m_star == pytest.approx(116.5594647003444, abs=1e-4)

    def test_root_is_a_root(self):
        target = 0.25
        m_star = solve_threshold(800, 0.2, target, "lambda2")
        log_val = (math.log(800) + math.log(799) - math.log(2)) + 1.0 / 12.0 + 0.5 * (
            math.log(m_star) - math.log(2 * math.pi)
        ) + m_star * exponent_rate(0.2)
        assert log_val == pytest.approx(math.log(target), abs=1e-6)

    def test_no_crossing(self):
        assert math.isnan(solve_threshold(10, 0.2, 1e12, "lambda1"))

    @pytest.mark.parametrize("n, delta", [
        *itertools.product((800, 10**3, 10**4, 10**6), (0.05, 0.1, 0.2, 0.3, 0.45)),
        (10**6, 0.0003),  # a root near 10^8
    ])
    def test_crossings_match_decimal_roots(self, n, delta):
        # Every digit bounds prints of the two crossings, at eps1 = 0.5 and eps2 = 0.1 (target rates -ln(1 - eps/c)).
        crossing_eps1, crossing_eps2 = rip_m_window(n, delta, 0.5, 0.1)[2:]
        for row, eps, c, which in ((crossing_eps1, 0.5, 1.01, "lambda1"), (crossing_eps2, 0.1, 0.99, "lambda2")):
            root = format(envelope_root_decimal(n, delta, eps, c, which), ".10g")
            assert f"{row.m_value:.10g}" == f"{float(root):.10g}", which  # the float drops Decimal's trailing zeros

    def test_rate_underflow_is_refused(self):
        # At delta = 1e-200 the exponent rate underflows to 0: no crossing is solved, and every rip length is refused.
        assert exponent_rate(1e-200) == 0.0
        assert math.isnan(solve_threshold(800, 1e-200, 0.25, "lambda2"))
        with pytest.raises(ValueError, match="past the float range"):
            rip_m_window(800, 1e-200, 0.5, 0.1)


class TestMValueDigits:
    """Every printed digit of the closed-form m_values, against their 50-digit decimal values (the crossings'
    check is TestSolveThreshold.test_crossings_match_decimal_roots)."""

    @pytest.mark.parametrize("n", [2, 3, 10, 800, 10**4, 10**6, 10**12, 10**100, 10**400])
    def test_m_values_match_decimal(self, n):
        deltas = (1e-9, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.49999)
        epsilons = (1e-300, 1e-17, 0.001, 0.01, 0.1, 0.5, 0.9)
        cells = 0
        for delta, eps in itertools.product(deltas, epsilons):
            exact = m_values_decimal(n, delta, eps, eps)
            for r in (m_injective(n, eps, delta), m_injective_orthogonal(n, eps), m_rip_union(n, eps, delta),
                      m_linear_jl(n, delta)):
                assert f"{r.m_value:.10g}" == f"{float(exact[r.formula_id]):.10g}", (r.formula_id, delta, eps)
                cells += 1
        for eps1, eps2 in itertools.combinations(reversed(epsilons), 2):  # eps2 < eps1
            exact = m_values_decimal(n, 0.2, eps1, eps2)
            for r in one_to_one_m_window(n, eps1, eps2, force=True):
                assert f"{r.m_value:.10g}" == f"{float(exact[r.formula_id]):.10g}", (r.formula_id, eps1, eps2)
                cells += 1
        assert cells == 4 * len(deltas) * len(epsilons) + 2 * 21


class TestCsvOutputs:
    def test_bounds_reports_csv(self):
        rows = [m_rip_union(800, 0.01, 0.2), m_injective_orthogonal(16, 0.5)]
        text = bounds_reports_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "formula_id,n,delta,eps1,eps2,m_value,m_int,validity_note"
        assert lines[1].startswith("rip_union,800,0.2,0.01,,")
        assert ",225," in lines[1]

    def test_window_csv_injectivity(self):
        text = window_csv(10, 7)
        lines = text.strip().split("\n")
        assert lines[0] == "n,m,delta,lambda_lo,lambda_hi,eta_pairwise,eta_general,lo,hi"
        fields = lines[1].split(",")
        assert fields[0] == "10" and fields[1] == "7" and fields[2] == ""
        # values are serialized at 10 significant digits
        assert float(fields[5]) == pytest.approx(45 * 4.0**-7, rel=1e-9)
        assert float(fields[6]) == pytest.approx(0.09063720703125, rel=1e-9)

    def test_window_csv_rip(self):
        text = window_csv(800, 150, 0.2)
        fields = text.strip().split("\n")[1].split(",")
        assert fields[2] == "0.2"
        assert fields[5] == ""  # no pairwise width for the rip window
        assert float(fields[8]) <= 1.0


def test_requirement_monotonicity_grid():
    # larger tolerances ask for smaller m, for every formula
    for eps_lo, eps_hi in ((0.01, 0.1), (0.1, 0.5)):
        assert m_injective(50, eps_hi, 0.3).m_value < m_injective(50, eps_lo, 0.3).m_value
        assert m_injective_orthogonal(50, eps_hi).m_value < m_injective_orthogonal(50, eps_lo).m_value
        assert m_rip_union(50, eps_hi, 0.2).m_value < m_rip_union(50, eps_lo, 0.2).m_value
    for d_lo, d_hi in ((0.1, 0.2), (0.2, 0.4)):
        assert m_rip_union(50, 0.1, d_hi).m_value < m_rip_union(50, 0.1, d_lo).m_value
        assert m_linear_jl(50, d_hi).m_value < m_linear_jl(50, d_lo).m_value
