"""Closed-form sample-size bounds and phase-transition windows, evaluated carefully.

Quantities here span hundreds of orders of magnitude in m, so every
exponential-scale expression is assembled in log space and only exponentiated
at the end, or, when dyadic, rounded once from the exact rational.  Binomial tail
probabilities are exact dyadic rationals (see p_delta_exact); the
Stirling-style envelopes around them are floats.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .embedding import band_range

LOG_2PI = math.log(2.0 * math.pi)
LN2 = math.log(2.0)

#: Smallest point counts for which the two transition-window theorems are proven.
MIN_N_ONE_TO_ONE = 10
MIN_N_RIP = 800

#: The two Stein-Chen error widths, pairwise first: the injectivity default.
ETA_FORMS = ("pairwise", "general")


class ValidityRangeError(ValueError):
    """Inputs are outside the proven range of a closed form (overridable with force)."""


@dataclass(frozen=True)
class BoundsReport:
    """One evaluated sample-size formula: the raw real value and its ceiled integer.

    Single-tolerance formulas store their eps in ``eps1``.
    """

    formula_id: str
    n: int
    m_value: float
    m_int: int
    delta: Optional[float] = None
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    validity_note: str = ""


def _report(formula_id: str, n: int, m_value: float, **kw) -> BoundsReport:
    # Formulas can dip below 1 for tiny n or lax tolerances; one direction is
    # always needed, so the integer recommendation is clamped there.  A NaN
    # value (a threshold with no crossing) gets m_int = 0.  Only a 1/delta^2
    # factor takes a value past the float range, so an infinite one names delta.
    if math.isinf(m_value):
        raise ValueError(f"{formula_id} at delta={kw.get('delta')} is past the float range: pass a larger --delta")
    m_int = max(1, math.ceil(m_value)) if math.isfinite(m_value) else 0
    return BoundsReport(formula_id=formula_id, n=n, m_value=m_value, m_int=m_int, **kw)


def m_injective(n: int, eps: float, delta_sep: float) -> BoundsReport:
    """Code length making the one-bit map injective with probability >= 1 - eps.

    Valid for point sets whose pairwise geodesic distances all exceed
    1 - delta_sep:  m >= log2 T / log2 B, T = n^2 / (2 eps) and B = 1 / delta_sep with eps and
    delta_sep read as they print.  log2 T is taken from T's numerator and denominator, so the value
    is exact where n, eps and delta_sep are powers of two; m_int, the least m >= 1 with B^m >= T, is exact.
    """
    base, target = 1 / Fraction(str(delta_sep)), n * n / (2 * Fraction(str(eps)))
    m_value = (math.log2(target.numerator) - math.log2(target.denominator)) / (math.log1p(float(base - 1)) / LN2)
    return BoundsReport("injective", n, m_value, _least_exponent(base, target, m_value), eps1=eps, delta=delta_sep)


def _least_exponent(base: Fraction, target: Fraction, estimate: float) -> int:
    """The least integer k >= 1 with base**k >= target, for base > 1, decided exactly.

    In lowest terms base**k == target needs base.numerator**k == target.numerator, so base**k is
    compared as a fraction only while that power is no longer than target.numerator, which bounds
    its integers by twice target.numerator's bits.  Past that the sides differ, and decimal logarithms
    take the sign of k ln(base) - ln(target) at a precision doubled until it exceeds their rounding
    bound.  The walk starts at the float estimate of log(target) / log(base), within about 1e-15 k of the answer.
    """

    def reaches(k: int) -> bool:
        if k * (base.numerator.bit_length() - 1) < target.numerator.bit_length():
            return base**k >= target
        from decimal import Context, Decimal, localcontext  # here: from Python 3.12 on, fractions no longer imports it

        digits = 34
        while True:
            with localcontext(Context(prec=digits)):
                logs = [Decimal(v).ln() for v in (base.numerator, base.denominator, target.numerator, target.denominator)]
                gap = k * (logs[0] - logs[1]) - (logs[2] - logs[3])
                if abs(gap) > (k * (logs[0] + logs[1]) + logs[2] + logs[3]) * Decimal(10) ** (2 - digits):
                    return gap > 0
            digits *= 2

    k = max(1, math.ceil(estimate))
    while k > 1 and reaches(k - 1):
        k -= 1
    while not reaches(k):
        k += 1
    return k


def m_injective_orthogonal(n: int, eps: float) -> BoundsReport:
    """Injectivity code length for pairwise orthogonal points: m_injective at delta_sep = 1/2, 2 log2 n + log2(1/(2 eps))."""
    r = m_injective(n, eps, 0.5)
    return BoundsReport("injective_orthogonal", n, r.m_value, r.m_int, eps1=eps)


def m_rip_union(n: int, eps: float, delta: float) -> BoundsReport:
    """Code length for the delta-band isometry on orthogonal points, by union bound.

    m >= ln(n^2 / eps) / (2 delta^2); proven for delta < 1/2.
    """
    # ln(n^2 / eps) from the quotient where it is a float, else from its logarithms.
    ratio = n * n / eps if n.bit_length() < 500 else math.inf
    log_ratio = math.log(ratio) if ratio < math.inf else 2.0 * math.log(n) - math.log(eps)
    scale = 2.0 * delta * delta
    m_value = log_ratio / scale if scale else math.inf
    return _report("rip_union", n, m_value, eps1=eps, delta=delta)


def m_linear_jl(n: int, delta: float) -> BoundsReport:
    """Classical linear random-projection bound, for comparison tables only.

    m >= 4 ln n / (delta^2/2 - delta^3/3).
    """
    scale = delta * delta / 2.0 - delta**3 / 3.0
    m_value = 4.0 * math.log(n) / scale if scale else math.inf
    return _report("linear_jl", n, m_value, delta=delta)


def p_delta_exact(m: int, delta: float) -> Fraction:
    """Exact P(|Y - m/2| >= m*delta), Y ~ Bin(m, 1/2), with delta read as band_fails reads it.

    One minus the exact mass of band_range's inclusive band at g = 1/2: 1 where that band is empty.
    """
    h_lo, h_hi = map(int, band_range(m, 0.5, delta, "inclusive"))
    return 1 - Fraction(sum(math.comb(m, h) for h in range(h_lo, h_hi + 1)), 1 << m)


def p_delta_float(m: int, delta: float) -> float:
    """Float view of p_delta_exact; for m > 2000 and a non-empty band, twice the upper tail past it by log-gamma terms.

    The terms fall from the first count past the band, and their sum over the peak is at least 1,
    so it stops at the first term below 2^-54 of the first: no later term changes the rounded sum.
    """
    h_lo, h_hi = map(int, band_range(m, 0.5, delta, "inclusive"))
    if m <= 2000 or h_lo > h_hi:
        return float(p_delta_exact(m, delta))
    lgm = math.lgamma(m + 1)
    logs = (lgm - math.lgamma(k + 1) - math.lgamma(m - k + 1) for k in range(h_hi + 1, m + 1))
    first = next(logs)
    logs = [first, *itertools.takewhile(lambda v: v >= first - 54 * LN2, logs)]
    peak = max(logs)
    return math.exp(LN2 + peak + math.log(sum(math.exp(v - peak) for v in logs)) - m * LN2)


def exponent_rate(delta: float) -> float:
    """Per-unit-m exponential decay rate -1/2 ln(1-4d^2) + d ln((1-2d)/(1+2d)); negative.

    The package's one check of delta < 1/2: every rip window and transition form reaches it before a tail
    probability, and bounds leaves m_rip_union out at a larger delta.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    return -0.5 * math.log1p(-4.0 * delta * delta) - 2.0 * delta * math.atanh(2.0 * delta)


def rate_constant(delta: float) -> float:
    """q = 1 / (1/2 ln(1-4 d^2) + d ln((1+2d)/(1-2d))) = -1 / exponent_rate, about 1/(2 delta^2).

    inf where the rate underflows to 0.
    """
    rate = exponent_rate(delta)
    return -1.0 / rate if rate else math.inf


def _log_pairs(n: int) -> float:
    return math.log(n) + math.log(n - 1) - LN2


def _log_envelope(which: str, logc: float, m: float, rate: float) -> float:
    """ln of the lambda1 (lower) or lambda2 (upper) Stirling envelope, with pair term logc = ln C(n,2).

    lambda1 = C(n,2) e^{-1/6} (2 pi m)^{-1/2} e^{m*rate},
    lambda2 = C(n,2) e^{1/12} (m / 2 pi)^{1/2} e^{m*rate}.
    """
    if which == "lambda1":
        return logc - 1.0 / 6.0 - 0.5 * (LOG_2PI + math.log(m)) + m * rate
    return logc + 1.0 / 12.0 + 0.5 * (math.log(m) - LOG_2PI) + m * rate


def _lambda_targets(eps1: float, eps2: float) -> tuple[float, float]:
    """The Poisson rates -log1p(-eps/c) at which P(success) crosses 1 - eps1 (c = 1.01) and 1 - eps2 (c = 0.99).

    The one check of the tolerance pair: 0 < eps2 < eps1 < 1, and eps2 < 0.99 for its logarithm.
    """
    if not (0.0 < eps2 < eps1 < 1.0 and eps2 < 0.99):
        raise ValueError(f"need 0 < eps2 < eps1 < 1 and eps2 < 0.99, got eps1={eps1}, eps2={eps2}")
    return -math.log1p(-eps1 / 1.01), -math.log1p(-eps2 / 0.99)


def stein_chen_eta(n: int, p: float, form: str) -> float:
    """Poisson-approximation error width for C(n,2) indicators with success probability p.

    ``pairwise``: C(n,2) p^2 (pairwise-independent / positively-associated form).
    ``general``: C(n,2) (1 + 4(n-2)) p^2, counting the <= 2(n-2) neighbors of
    each pair that share a point.
    """
    pairs = math.comb(n, 2)
    count = pairs if form == "pairwise" else pairs * (4 * n - 7)
    # A count past the float range is scaled down by a power of two first, so only a width past it overflows.
    shift = max(0, count.bit_length() - 1000)
    return math.ldexp((count >> shift) * p * p, shift)


@dataclass(frozen=True)
class PhaseWindow:
    """A probability interval [lo, hi] with its rate and error-width ingredients.

    lo = max(0, e^{-lambda_hi} - eta) and hi = min(1, e^{-lambda_lo} + eta).
    """

    lo: float
    hi: float
    lambda_lo: float
    lambda_hi: float
    eta: float
    eta_form: str


@contextlib.contextmanager
def _float_range(m: int):
    """Refuse, naming n, a window whose Poisson rate or error width overflows a float, as only a huge n makes them."""
    try:
        yield
    except OverflowError:
        message = f"--n is too large for a window at m={m}: its Poisson rate or error width overflows a float"
        raise ValueError(message) from None


def _clamped_window(lambda_lo: float, lambda_hi: float, eta: float, eta_form: str) -> PhaseWindow:
    lo = max(0.0, math.exp(-lambda_hi) - eta)
    hi = min(1.0, math.exp(-lambda_lo) + eta)
    return PhaseWindow(lo=lo, hi=hi, lambda_lo=lambda_lo, lambda_hi=lambda_hi, eta=eta, eta_form=eta_form)


def one_to_one_window(n: int, m: int, eta_form: str = "pairwise") -> PhaseWindow:
    """Window containing P(injective) for n orthogonal points at code length m.

    The Poisson rate is lambda = C(n,2)/2^m; the window is e^{-lambda} +- eta
    with eta = C(n,2) 2^{-2m} (pairwise form) or C(n,2)(4n-7) 2^{-2m}
    (general form), clamped to [0, 1].  lambda is C(n,2)/2^m rounded once, by
    integer true division, and 0 without building 2^m where it is below
    2^-1075 and so rounds to 0; 2^-m is ldexp(1, -m), rounded once too.
    """
    pairs = math.comb(n, 2)
    with _float_range(m):
        lam = pairs / (1 << m) if m < 1075 + pairs.bit_length() else 0.0
        eta = stein_chen_eta(n, math.ldexp(1.0, -m), eta_form)
    return _clamped_window(lam, lam, eta, eta_form)


def rip_window(n: int, m: int, delta: float) -> PhaseWindow:
    """Window containing P(the map is a delta-isometry) for n orthogonal points.

    Its rates are the closed-form Stirling envelopes lambda1 <= C(n,2) p <= lambda2
    around the expected number of pairs leaving the band (see _log_envelope), and
    its width is the general eta = C(n,2)(4n-7) p^2, with p the exact tail probability.
    """
    rate, p = exponent_rate(delta), p_delta_float(m, delta)
    with _float_range(m):
        lam1, lam2 = (math.exp(_log_envelope(which, _log_pairs(n), m, rate)) for which in ("lambda1", "lambda2"))
        eta = stein_chen_eta(n, p, "general")
    return _clamped_window(lam1, lam2, eta, "general")


def _validity_note(n: int, minimum: int, force: bool) -> str:
    """The note of a transition formula proven for n >= minimum; below it, refused unless forced."""
    if n < minimum and not force:
        raise ValidityRangeError(f"transition formulas proven for n >= {minimum}, got n={n} (use force to evaluate anyway)")
    return f"requires n >= {minimum}" + (" (forced)" if n < minimum else "")


def one_to_one_m_window(n: int, eps1: float, eps2: float, force: bool = False) -> list[BoundsReport]:
    """Rows one_to_one_m_lower and one_to_one_m_upper: where P(injective) passes 1 - eps1 and 1 - eps2.

    m_lower = log2(n(n-1) / (2 ln(1/(1 - eps1/1.01)))),
    m_upper = log2(n(n-1) / (2 ln(1/(1 - eps2/0.99)))).
    Proven for orthogonal points and n >= 10 (the error width is then below 1% of the Poisson term);
    pass ``force`` to evaluate outside that range anyway.
    """
    d1, d2 = _lambda_targets(eps1, eps2)
    note = _validity_note(n, MIN_N_ONE_TO_ONE, force)
    log_pairs = math.log2(math.comb(n, 2))  # the quotient C(n,2)/d itself overflows a double for tiny d at large n
    m_lower, m_upper = log_pairs - math.log2(d1), log_pairs - math.log2(d2)
    if not m_lower < m_upper:
        raise ValueError(f"eps1={eps1}, eps2={eps2} too close: thresholds cross (m_lower={m_lower}, m_upper={m_upper})")
    rows = (("one_to_one_m_lower", m_lower), ("one_to_one_m_upper", m_upper))
    return [_report(fid, n, m, eps1=eps1, eps2=eps2, validity_note=note) for fid, m in rows]


def rip_m_window(n: int, delta: float, eps1: float, eps2: float, force: bool = False) -> list[BoundsReport]:
    """Rows rip_m_eps1, rip_m_eps2, rip_crossing_eps1, rip_crossing_eps2 bracketing the isometry transition.

    The first two are the printed closed forms, verbatim, with q = rate_constant(delta):
    m_eps1 = q [ln A - ln ln A] with A = n(n-1) / (2 sqrt(2 pi) e^{1/6} ln(1/(1 - eps1/1.01)));
    m_eps2 = q [ln B + ln ln B] with B = n(n-1) e^{1/12} / (2 sqrt(2 pi) ln(1/(1 - eps2/0.99))).
    The crossings are solve_threshold's roots of lambda1(m) and lambda2(m) at the same two target
    rates; a crossing is NaN, with m_int 0, where no root exists.

    Proven for n >= 800.  As printed, the m_eps1 form is stated as an upper
    bound on m for high success probability even though the success
    probability improves with m; the crossings are returned alongside so the
    simulation can settle the direction empirically.
    """
    q = rate_constant(delta)
    d1, d2 = _lambda_targets(eps1, eps2)
    if not eps1 < 0.99:
        raise ValueError(f"need eps1 < 0.99, got eps1={eps1}")
    note = _validity_note(n, MIN_N_RIP, force)
    # A and B are the envelopes' prefactors at m = 1 over the target rates.
    log_a = _log_envelope("lambda1", _log_pairs(n), 1.0, 0.0) - math.log(d1)
    log_b = _log_envelope("lambda2", _log_pairs(n), 1.0, 0.0) - math.log(d2)
    if log_a <= 0 or log_b <= 0:
        raise ValueError("closed forms undefined: inner logarithms are non-positive at these parameters")
    rows = (("rip_m_eps1", q * (log_a - math.log(log_a))), ("rip_m_eps2", q * (log_b + math.log(log_b))),
            ("rip_crossing_eps1", solve_threshold(n, delta, d1, "lambda1")),
            ("rip_crossing_eps2", solve_threshold(n, delta, d2, "lambda2")))
    return [_report(fid, n, m, delta=delta, eps1=eps1, eps2=eps2, validity_note=note) for fid, m in rows]


def solve_threshold(n: int, delta: float, target_lambda: float, which: str = "lambda1"):
    """Solve lambda(m) = target_lambda > 0 for m, on the decreasing branch of the selected form.

    ``lambda1`` decreases for every m >= 1; ``lambda2`` from its peak on.  So a root exists iff the envelope
    at the start of the branch reaches the target.  It is bracketed by doubling from there and bisected until
    the midpoint equals an end, which gives the root to the last bit of m; NaN where there is none, or where
    delta is so small that the rate underflows to 0 (every rip length is then past the float range).
    """
    rate = exponent_rate(delta)
    logc = _log_pairs(n)
    log_target = math.log(target_lambda)
    if not rate:
        return math.nan

    # lambda2's sqrt(m) * e^{m*rate} envelope peaks at m = -1/(2 rate)
    m_lo = 1.0 if which == "lambda1" else max(1.0, -0.5 / rate)

    def f(m: float) -> float:
        return _log_envelope(which, logc, m, rate)

    if f(m_lo) < log_target:
        return math.nan
    lo, hi = m_lo, 2.0 * m_lo
    while f(hi) >= log_target:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) >= log_target:
            lo = mid
        else:
            hi = mid
    return mid


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def csv_text(header: str, rows) -> str:
    """The header line, then one comma-joined line per row: floats at 10 significant digits, None empty."""
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def bounds_reports_csv(reports: list[BoundsReport]) -> str:
    """Serialize reports: formula_id,n,delta,eps1,eps2,m_value,m_int,validity_note."""
    return csv_text(
        "formula_id,n,delta,eps1,eps2,m_value,m_int,validity_note",
        [(r.formula_id, r.n, r.delta, r.eps1, r.eps2, r.m_value, r.m_int, r.validity_note) for r in reports],
    )


def window_csv(n: int, m: int, delta: Optional[float] = None) -> str:
    """Window table at one m: n,m,delta,lambda_lo,lambda_hi,eta_pairwise,eta_general,lo,hi.

    Without ``delta`` the row is the injectivity window, whose [lo, hi] column
    uses the pairwise width (the general width is still tabulated); with it
    it is the rip window, for which only the general width is defined and the
    eta_pairwise column is left empty.
    """
    if delta is None:
        wp = one_to_one_window(n, m, "pairwise")
        wg = one_to_one_window(n, m, "general")
        row = [n, m, None, wp.lambda_lo, wp.lambda_hi, wp.eta, wg.eta, wp.lo, wp.hi]
    else:
        w = rip_window(n, m, delta)
        row = [n, m, delta, w.lambda_lo, w.lambda_hi, None, w.eta, w.lo, w.hi]
    return csv_text("n,m,delta,lambda_lo,lambda_hi,eta_pairwise,eta_general,lo,hi", [row])
