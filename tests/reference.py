"""Slow references the tests compare the package against, a CodeSet builder for test inputs, and a usage-error runner.

The references read a code one bit at a time, embed a point one direction at
a time and measure one pair at a time, in plain Python loops, so that the
packed and vectorised code paths the CLI runs are checked against something
obviously right.  None of this ships in the package.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from onebit import cli
from onebit.embedding import WORD_BITS, CodeSet, band_fails, band_range, pack_bits
from onebit.geometry import geodesic_blocks


def code_set(rows) -> CodeSet:
    """A CodeSet of the given 0/1 rows, packed by pack_bits."""
    bits = np.asarray(rows, dtype=np.uint8)
    return CodeSet(pack_bits(bits), bits.shape[1])


def usage_error(capsys, *argv: str) -> str:
    """Run ``onebit argv`` in-process, check it is a usage error (exit 1) that printed nothing to stdout, and return its stderr."""
    capsys.readouterr()
    assert cli.main(list(argv)) == cli.EXIT_USAGE, argv
    out, err = capsys.readouterr()
    assert out == "", argv
    return err


def code_bits(codes: CodeSet, i: int) -> list[int]:
    """Bits 0..m-1 of code i, each read out of its word on its own."""
    words = [int(w) for w in codes.words[i]]
    return [(words[j // WORD_BITS] >> (j % WORD_BITS)) & 1 for j in range(codes.m)]


def hamming_bitloop(codes: CodeSet, i: int, k: int) -> int:
    """Number of positions where codes i and k differ, compared bit by bit."""
    return sum(a != b for a, b in zip(code_bits(codes, i), code_bits(codes, k)))


def embed_bits(directions, x) -> list[int]:
    """The one-bit map on one point, one direction at a time: bit j = 1 iff x.theta_j >= 0."""
    return [1 if float(theta @ x) >= 0.0 else 0 for theta in directions]


def geodesic_pair(x, y) -> float:
    """Normalized great-circle distance arccos(x.y)/pi of one pair, the dot clamped to [-1, 1]."""
    return math.acos(min(1.0, max(-1.0, float(x @ y)))) / math.pi


def code_ints(codes: CodeSet) -> list[int]:
    """Each code as one Python int, word k in bits 64k..64k+63, so a pair's differing bits are (a ^ b).bit_count()."""
    return [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in codes.words]


def block_geodesics(points):
    """Every pair i < j's geodesic, in (i, j) order, read from geometry.geodesic_blocks.

    These are the doubles check and embed read, so their last digits agree at every n, whatever BLAS shape
    another product would have; only the pairing of rows with columns is done here.
    """
    for lo, geo in geodesic_blocks(points):
        for i in range(lo, min(lo + len(geo), points.n - 1)):
            for j in range(i + 1, points.n):
                yield i, j, float(geo[i - lo, j - lo])


def check_rip_loop(codes, points, delta, boundary="strict"):
    """The per-pair loop check_rip replaced, with float deviations and a per-pair XOR distance.

    Returns the list of failing ((i, j), hamming, geodesic, deviation) in (i, j) order, and the max |deviation|.
    """
    ints = code_ints(codes)
    violations = []
    max_dev = 0.0
    for i, j, dg in block_geodesics(points):
        dh = (ints[i] ^ ints[j]).bit_count() / codes.m
        dev = dh - dg
        max_dev = max(max_dev, abs(dev))
        if abs(dev) > delta if boundary == "strict" else abs(dev) >= delta:
            violations.append(((i, j), dh, dg, dev))
    return violations, max_dev


def pair_table_fstring(codes: CodeSet, points) -> str:
    """embed's pair table as the per-pair f-string writer formatted it: the header, then one row per pair i < j."""
    ints = code_ints(codes)
    rows = ["i,j,hamming,geodesic,deviation\n"]
    for i, j, dg in block_geodesics(points):
        dh = (ints[i] ^ ints[j]).bit_count() / codes.m
        rows.append(f"{i},{j},{dh:.10g},{dg:.10g},{dh - dg:.10g}\n")
    return "".join(rows)


def check_one_to_one_dict(codes):
    """The dict-of-words collision finder check_one_to_one replaced."""
    groups = {}
    for i in range(codes.n):
        groups.setdefault(tuple(codes.words[i].tolist()), []).append(i)
    collisions = sorted(
        (members[a], members[b]) for members in groups.values()
        for a in range(len(members)) for b in range(a + 1, len(members))
    )
    return collisions


def rip_three_triple_loop(m: int, delta: float, boundary: str) -> Fraction:
    """rip_exact_three as a triple loop over the pattern counts (a, b, c), one C(m - a - b, c) term at a time."""
    h_lo, h_hi = (int(h) for h in band_range(m, 0.5, delta, boundary))
    count = 0
    for a in range(m + 1):
        for b in range(max(0, h_lo - a), min(m - a, h_hi - a) + 1):
            for c in range(max(0, h_lo - a, h_lo - b), min(m - a - b, h_hi - a, h_hi - b) + 1):
                count += math.comb(m, a) * math.comb(m - a, b) * math.comb(m - a - b, c)
    return Fraction(count, 4**m)


def _first_failing_count(m: int, delta: float) -> int:
    """The first count from m/2 up that fails band_fails' inclusive band at g = 1/2, found one count at a time.

    H = m always fails, since delta < 1/2.
    """
    a = (m + 1) // 2
    while not band_fails(a, m, 0.5, delta, "inclusive"):
        a += 1
    return a


def p_delta_twice_upper_tail(m: int, delta: float) -> Fraction:
    """2 P(Y >= A) for Y ~ Bin(m, 1/2), A the first count past the band: the band is symmetric about m/2."""
    return 2 * Fraction(sum(math.comb(m, k) for k in range(_first_failing_count(m, delta), m + 1)), 1 << m)


def p_delta_logsum(m: int, delta: float) -> float:
    """The same twice-upper-tail in floats: every log-gamma term up to H = m, shifted by the largest and summed."""
    lgm = math.lgamma(m + 1)
    logs = [lgm - math.lgamma(k + 1) - math.lgamma(m - k + 1) for k in range(_first_failing_count(m, delta), m + 1)]
    peak = max(logs)
    return math.exp(math.log(2.0) + peak + math.log(sum(math.exp(v - peak) for v in logs)) - m * math.log(2.0))


def m_values_decimal(n: int, delta: float, eps: float, eps2: float) -> dict:
    """Every m_value bounds prints but the crossings, per formula_id, to 50 digits, as the bounds docstrings write them.

    injective and injective_orthogonal read eps and delta as they print; the others take the doubles given, and
    the one_to_one rows their c = 1.01 and 0.99 as doubles.  The precision grows with 1/eps, so that 1 - eps/c
    is exact enough for its logarithm.
    """
    with localcontext() as ctx:
        ctx.prec = 60 + max(0, -Decimal(min(eps, eps2)).adjusted())
        d, ln2 = Decimal(delta), Decimal(2).ln()
        pairs = Decimal(n * (n - 1) // 2)

        def injective(sep: float) -> Decimal:
            return (Decimal(n) ** 2 / (2 * Decimal(str(eps)))).ln() / (1 / Decimal(str(sep))).ln()

        def one_to_one(e: float, c: float) -> Decimal:
            return (pairs.ln() - (-(1 - Decimal(e) / Decimal(c)).ln()).ln()) / ln2

        return {
            "injective": injective(delta),
            "injective_orthogonal": injective(0.5),
            "rip_union": (Decimal(n) ** 2 / Decimal(eps)).ln() / (2 * d * d),
            "linear_jl": 4 * Decimal(n).ln() / (d * d / 2 - d**3 / 3),
            "one_to_one_m_lower": one_to_one(eps, 1.01),
            "one_to_one_m_upper": one_to_one(eps2, 0.99),
        }


PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def envelope_root_decimal(n: int, delta: float, eps: float, c: float, which: str) -> Decimal:
    """The m past which the lambda1 or lambda2 envelope stays below the rate -ln(1 - eps/c), to 50 digits.

    The envelopes and the rate are written out in 60-digit Decimal arithmetic at the doubles given:
    lambda1 = C(n,2) e^{-1/6} (2 pi m)^{-1/2} e^{m r}, lambda2 = C(n,2) e^{1/12} (m / 2 pi)^{1/2} e^{m r},
    r = -1/2 ln(1 - 4 delta^2) - delta ln((1 + 2 delta) / (1 - 2 delta)).  The root is bracketed by doubling
    from m = 1 (lambda1) or from lambda2's peak at m = -1/(2r), and bisected to a relative width of 1e-50.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(delta)
        rate = -(1 - 4 * d * d).ln() / 2 - d * ((1 + 2 * d) / (1 - 2 * d)).ln()
        log_pairs = Decimal(n).ln() + Decimal(n - 1).ln() - Decimal(2).ln()
        log_2pi = (2 * PI_60).ln()
        log_target = (-(1 - Decimal(eps) / Decimal(c)).ln()).ln()

        def log_envelope(m: Decimal) -> Decimal:
            if which == "lambda1":
                return log_pairs - Decimal(1) / 6 - (log_2pi + m.ln()) / 2 + m * rate
            return log_pairs + Decimal(1) / 12 + (m.ln() - log_2pi) / 2 + m * rate

        lo = Decimal(1) if which == "lambda1" else max(Decimal(1), -1 / (2 * rate))
        assert log_envelope(lo) >= log_target, "no root"
        hi = 2 * lo
        while log_envelope(hi) >= log_target:
            lo, hi = hi, 2 * hi
        while hi - lo > lo * Decimal("1e-50"):
            mid = (lo + hi) / 2
            if log_envelope(mid) >= log_target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
