"""Exact small-instance probabilities that ground-truth the closed-form bounds.

Everything here is computed in exact rational arithmetic over fair-coin
models, so all values are dyadic rationals: the birthday product for
injectivity of random codes, and an exact three-point distance-preservation
probability via a multinomial dynamic program.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import one_to_one_window
from .embedding import band_range


@dataclass(frozen=True)
class ExactProbability:
    """An exactly known probability."""

    value: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError(f"probability {self.value} outside [0, 1]")

    @property
    def float_value(self) -> float:
        return float(self.value)

    def fraction_string(self) -> str:
        """numerator/denominator in full, printed through Decimal, which Python's int-to-str digit limit does not cover."""
        from decimal import Decimal  # here: from Python 3.12 on, fractions no longer imports decimal at start-up

        return f"{Decimal(self.value.numerator)}/{Decimal(self.value.denominator)}"


def birthday_exact(n: int, m: int) -> ExactProbability:
    """P(n iid uniform m-bit codes are all distinct) = prod_{k=1}^{n-1} (1 - k/2^m) = perm(2^m - 1, n - 1) / 2^(m(n-1)).

    This is the exact injectivity probability of the one-bit map on n pairwise
    orthogonal points, whose codes are iid uniform.  Zero when n > 2^m by
    pigeonhole, returned before the (2^m)^(n-1) denominator is built.
    """
    space = 1 << m
    if n > space:
        return ExactProbability(Fraction(0))
    return ExactProbability(Fraction(math.perm(space - 1, n - 1), space ** (n - 1)))


#: The largest m `oracle rip_three` takes: rip_exact_three's O(m^2) big-integer terms took 3.2 s at m = 1000.
RIP_THREE_MAX_M = 1000


def rip_exact_three(m: int, delta: float, boundary: str = "strict") -> ExactProbability:
    """Exact P(all three pairwise code distances lie within delta of 1/2) for 3 orthogonal points.

    Each of the m coordinates independently contributes one disagreement
    pattern over the three points: no disagreement with probability 1/4, or
    one of the three "one point differs" patterns with probability 1/4 each.
    Summing the multinomial pmf of the pattern counts (a, b, c) over the cells
    where all of H12 = a+b, H13 = a+c, H23 = b+c fall in the band around m/2
    gives the probability exactly, with denominator 4^m.  For each r = m - a - b
    the sum over c of C(r, c) is one difference of the row's prefix sums, so
    the sum takes O(m^2) terms.

    The ``boundary`` tag selects whether a deviation exactly equal to delta
    passes (``strict``) or fails (``inclusive``); see band_range.
    """
    h_lo, h_hi = (int(h) for h in band_range(m, 0.5, delta, boundary))  # no cell passes when h_lo > h_hi

    count = 0
    for r in range(max(0, m - h_hi), m - h_lo + 1):  # H12 = a + b = m - r lies in the band
        prefix = [0, *itertools.accumulate(math.comb(r, c) for c in range(r + 1))]  # prefix[k]: sum of C(r, c < k)
        cells = 0
        for a in range(m - r + 1):
            b = m - r - a
            c_lo, c_hi = max(0, h_lo - a, h_lo - b), min(r, h_hi - a, h_hi - b)
            if c_lo <= c_hi:
                cells += math.comb(m - r, a) * (prefix[c_hi + 1] - prefix[c_lo])
        count += math.comb(m, r) * cells  # C(m, a) C(m - a, b) = C(m, r) C(m - r, a)
    return ExactProbability(Fraction(count, 4**m))


@dataclass(frozen=True)
class EtaComparison:
    """Exact injectivity probability vs its Poisson estimate, against both error widths."""

    exact: ExactProbability
    poisson_estimate: float
    deviation: float
    eta_pairwise: float
    eta_general: float
    within_pairwise: bool
    within_general: bool


def eta_comparison(n: int, m: int) -> EtaComparison:
    """How far is the exact birthday probability from exp(-expected collisions)?

    Compares the exact deviation D = |P_exact - e^{-C(n,2)/2^m}| against the
    two Poisson-approximation error widths: the pairwise-independence form
    C(n,2) * 2^{-2m} and the general neighborhood form C(n,2)(4n-7) * 2^{-2m},
    all three as one_to_one_window evaluates them.  Neither containment is
    assumed; both are reported as observed.
    """
    exact = birthday_exact(n, m)
    window = one_to_one_window(n, m, "pairwise")
    poisson = math.exp(-window.lambda_lo)
    deviation = abs(exact.float_value - poisson)
    eta_pairwise, eta_general = window.eta, one_to_one_window(n, m, "general").eta
    return EtaComparison(
        exact=exact,
        poisson_estimate=poisson,
        deviation=deviation,
        eta_pairwise=eta_pairwise,
        eta_general=eta_general,
        within_pairwise=deviation <= eta_pairwise,
        within_general=deviation <= eta_general,
    )
