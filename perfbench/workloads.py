"""The benchmark's workloads: inputs generated from the seed, the CLI steps, and their output checks.

Each workload's ``verify`` recomputes what the program printed or wrote
from the inputs with this file's own numpy and exact-rational code, and
returns ``{step index: reason}`` for every step whose output is wrong.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: Two-sided 95% normal quantile, the program's default Wilson level.
Z95 = 1.959963984540054
#: Agreement width, in standard errors, for Monte Carlo estimates against exact values.
Z_CHECK = 4.0
DELTA = 0.2


class Step(NamedTuple):
    kind: str
    argv: list


def _se(p, trials):
    return math.sqrt(p * (1.0 - p) / trials)


def _score_test_ok(successes, trials, p0, z=Z_CHECK):
    """True when p0 lies in the z-Wilson interval of successes/trials (the score test accepts p0)."""
    return abs(successes / trials - p0) <= z * _se(p0, trials) + 1e-12


def _wilson(successes, trials, z):
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _close(a, b, tol=1e-9):
    """Equal to a relative ``tol``: the program prints 10 significant digits."""
    return abs(a - b) <= tol * max(abs(a), abs(b)) + 1e-12


def _parse_estimate_csv(text):
    """Rows of the program's estimate CSV as dicts (numbers parsed, eta_form kept as text)."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    if header != ["m", "trials", "successes", "p_hat", "ci_lo", "ci_hi", "window_lo", "window_hi", "eta_form"]:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        rows.append({
            "m": int(f[0]), "trials": int(f[1]), "successes": int(f[2]), "p_hat": float(f[3]),
            "ci_lo": float(f[4]), "ci_hi": float(f[5]), "window_lo": float(f[6]), "window_hi": float(f[7]),
            "eta_form": f[8],
        })
    return rows


def _check_estimate_row(row, m, trials):
    """Bookkeeping every estimate row must satisfy: its m, trial count, p_hat and 95% Wilson interval."""
    if row["m"] != m or row["trials"] != trials:
        return f"row (m={row['m']}, trials={row['trials']}) where (m={m}, trials={trials}) was asked"
    if not 0 <= row["successes"] <= trials or not _close(row["p_hat"], row["successes"] / trials):
        return f"m={m}: p_hat {row['p_hat']} does not match {row['successes']}/{trials}"
    lo, hi = _wilson(row["successes"], trials, Z95)
    if not (_close(row["ci_lo"], lo) and _close(row["ci_hi"], hi)):
        return f"m={m}: Wilson interval [{row['ci_lo']}, {row['ci_hi']}] should be [{lo:.10g}, {hi:.10g}]"
    return None


def _parse_fraction_line(text):
    """'0.703 = 46095/65536' -> (0.703, Fraction(46095, 65536))."""
    value, frac = (part.strip() for part in text.strip().split("="))
    return float(value), Fraction(frac)


class Figure:
    """``onebit figure`` at n=800, delta=0.2, 20 trials per m, on a 2-point subgrid of the default grid.

    The default 200 trials would make one pass take seconds; 20 keep a pass
    short enough that a run holds dozens of them (see ``run.py``).
    """

    name = "figure"
    threads = 2

    def __init__(self, seed, work: Path, tiny: bool):
        self.seed = seed
        self.base = work / "phase"
        if tiny:
            self.grid, self.trials = [40, 50, 60], 20
            self.sizing = ["--n", "100", "--force", "--m-grid", "40:60:10", "--trials", "20"]
        else:
            # 134 and 148 are points 7 and 9 of the default 20-point grid; p rises through 1/2 between them.
            self.grid, self.trials = [134, 148], 20
            self.sizing = ["--m-grid", "134:148:14", "--trials", "20"]

    def prepare(self):
        pass

    def steps(self, threads=None):
        threads = self.threads if threads is None else threads
        return [Step("figure", ["figure", *self.sizing, "--seed", str(self.seed),
                                "--threads", str(threads), "--out", str(self.base)])]

    def outputs(self):
        return [self.base.with_suffix(".csv"), self.base.with_suffix(".svg")]

    def verify(self, results):
        result = results[0]
        if result["rc"] != 0:
            return {0: f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"}
        try:
            rows = _parse_estimate_csv(self.base.with_suffix(".csv").read_text(encoding="utf-8"))
            svg = ET.parse(self.base.with_suffix(".svg")).getroot()
        except (OSError, ValueError, IndexError, ET.ParseError) as exc:
            return {0: f"unreadable output: {exc}"}
        if [r["m"] for r in rows] != self.grid:
            return {0: f"grid {[r['m'] for r in rows]} != {self.grid}"}
        for row in rows:
            bad = _check_estimate_row(row, row["m"], self.trials)
            if bad:
                return {0: bad}
            lo, hi = row["window_lo"], row["window_hi"]
            if not lo - Z_CHECK * _se(lo, self.trials) <= row["p_hat"] <= hi + Z_CHECK * _se(hi, self.trials):
                return {0: f"m={row['m']}: p_hat {row['p_hat']} outside window [{lo}, {hi}] + {Z_CHECK} SE"}
        ns = "{http://www.w3.org/2000/svg}"
        polylines = svg.findall(f"{ns}polyline")
        rules = [e for e in svg.findall(f"{ns}line") if e.get("class") == "rule"]
        if len(polylines) != 1 or len(polylines[0].get("points", "").split()) != len(rows) or len(rules) != 2:
            return {0: "SVG lacks the curve of every row or the two closed-form rules"}
        if "empirical 0.5-crossing" not in result["stdout"]:
            return {0: "no crossing line on stdout"}
        return {}

    def summary(self, results):
        return {"trials_per_s": (len(self.grid) * self.trials / results[0]["seconds"], "1/s")}


class Codes:
    """Embed generated points, then check band isometry and injectivity of the written codes."""

    name = "codes"
    threads = None

    def __init__(self, seed, work: Path, tiny: bool):
        self.seed = seed
        self.n, self.dim, self.m = (60, 16, 256) if tiny else (300, 64, 512)
        self.points_path = work / "points.csv"
        self.codes_path = work / "codes.ob1j"
        self.pairs_path = work / "pairs.csv"

    def prepare(self):
        rng = np.random.default_rng([self.seed, 2])
        x = rng.standard_normal((self.n, self.dim))
        self.points = x / np.linalg.norm(x, axis=1)[:, None]
        body = "\n".join(",".join(repr(float(v)) for v in row) for row in self.points) + "\n"
        self.points_path.write_text(body, encoding="utf-8")

    def steps(self, threads=None):
        pts, codes = str(self.points_path), str(self.codes_path)
        return [
            Step("embed", ["embed", "--points", pts, "--m", str(self.m), "--seed", str(self.seed),
                           "--codes", codes, "--out", str(self.pairs_path)]),
            Step("check", ["check", "--points", pts, "--codes", codes, "--delta", str(DELTA)]),
            Step("check", ["check", "--points", pts, "--codes", codes]),
        ]

    def outputs(self):
        return [self.codes_path, self.pairs_path]

    def _expected_bits(self):
        """The sign map rebuilt from its definition: m normalized N(0, I) rows of default_rng(seed)."""
        raw = np.random.default_rng(self.seed).standard_normal((self.m, self.dim))
        directions = raw / np.linalg.norm(raw, axis=1)[:, None]
        return (self.points @ directions.T) >= 0.0

    def _geodesic(self):
        return np.arccos(np.clip(self.points @ self.points.T, -1.0, 1.0)) / math.pi

    def _read_codes(self):
        """Parse the OB1J file: magic, version 1, n and m little-endian, then n codes of ceil(m/64) words."""
        data = self.codes_path.read_bytes()
        if data[:5] != b"OB1J\x01":
            raise ValueError("bad magic or version")
        n, m = int.from_bytes(data[5:13], "little"), int.from_bytes(data[13:21], "little")
        words_per_code = (m + 63) // 64
        if (n, m) != (self.n, self.m) or len(data) != 21 + 8 * n * words_per_code:
            raise ValueError(f"header n={n}, m={m} or length {len(data)} does not match")
        words = np.frombuffer(data, dtype="<u8", offset=21).reshape(n, words_per_code)
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        if bits[:, m:].any():
            raise ValueError("nonzero padding bits")
        return words, bits[:, :m].astype(bool)

    def _pair_stats(self, words):
        """Differing-bit counts of every pair by XOR and popcount, as an (n, n) matrix."""
        hamming = np.zeros((self.n, self.n), dtype=np.int64)
        for i in range(self.n - 1):
            counts = np.bitwise_count(words[i] ^ words[i + 1:]).sum(axis=1)
            hamming[i, i + 1:] = counts
            hamming[i + 1:, i] = counts
        return hamming

    def verify(self, results):
        failures = {}
        for i, result in enumerate(results):
            if result["rc"] not in (0, 2):
                failures[i] = f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"
        if 0 in failures:
            return {i: failures.get(i, "no codes to check") for i in range(len(results))}
        try:
            words, bits = self._read_codes()
        except (OSError, ValueError) as exc:
            return {i: failures.get(i, f"codes file: {exc}") for i in range(len(results))}
        if not np.array_equal(bits, self._expected_bits()):
            failures[0] = "codes differ from the sign map of the seeded directions"

        geo = self._geodesic()
        dh = self._pair_stats(words) / self.m
        iu = np.triu_indices(self.n, 1)
        dev = dh[iu] - geo[iu]
        if 0 not in failures:
            try:
                table = np.loadtxt(self.pairs_path, delimiter=",", skiprows=1, ndmin=2)
            except (OSError, ValueError) as exc:
                table = None
                failures[0] = f"pair table: {exc}"
            if table is not None and not (
                table.shape == (len(dev), 5)
                and np.array_equal(table[:, 0], iu[0]) and np.array_equal(table[:, 1], iu[1])
                and np.allclose(table[:, 2], dh[iu], rtol=0, atol=1e-9)
                and np.allclose(table[:, 3], geo[iu], rtol=0, atol=1e-9)
                and np.allclose(table[:, 4], dev, rtol=0, atol=1e-9)
            ):
                failures[0] = "pair table differs from the XOR/popcount reference"

        violations = int(np.count_nonzero(np.abs(dev) > DELTA))
        max_dev = float(np.abs(dev).max())
        out = results[1]["stdout"]
        verdict = "RIP check: PASS" if violations == 0 else f"RIP check: FAIL ({violations} violating pairs)"
        reported = [line for line in out.split("\n") if line.startswith("max deviation = ")]
        if 1 not in failures and (
            not reported or not _close(float(reported[0].split("=")[1]), max_dev, 1e-9)
            or verdict not in out or results[1]["rc"] != (0 if violations == 0 else 2)
        ):
            failures[1] = f"expected max deviation {max_dev:.10g} and {verdict!r}, got {out.strip()[:200]!r}"

        distinct = len(np.unique(words, axis=0)) == self.n
        verdict = "one-to-one check: PASS" if distinct else "one-to-one check: FAIL"
        if 2 not in failures and (verdict not in results[2]["stdout"] or results[2]["rc"] != (0 if distinct else 2)):
            failures[2] = f"expected {verdict!r}, got {results[2]['stdout'].strip()[:200]!r}"
        return failures

    def summary(self, results):
        return {
            "embed_s": (results[0]["seconds"], "s"),
            "check_s": (results[1]["seconds"] + results[2]["seconds"], "s"),
        }


def rip_three_exact(m, delta=Fraction(str(DELTA))):
    """P(three orthogonal points stay in the delta band), strict boundary, by direct enumeration.

    Each bit shows one of four difference patterns with probability 1/4:
    none, pairs {12,13}, {12,23} or {13,23}.  With a, b, c, d bits of each,
    H12 = b+c, H13 = b+d, H23 = c+d, and a pair passes iff |2H - m| <= 2 m delta.
    """
    limit = 2 * m * delta
    count = 0
    for b in range(m + 1):
        for c in range(m + 1 - b):
            for d in range(m + 1 - b - c):
                if all(abs(2 * h - m) <= limit for h in (b + c, b + d, c + d)):
                    count += math.factorial(m) // (
                        math.factorial(m - b - c - d) * math.factorial(b) * math.factorial(c) * math.factorial(d))
    return Fraction(count, 4 ** m)


def birthday(n, m):
    """P(n iid uniform m-bit codes are pairwise distinct)."""
    return math.prod(Fraction((1 << m) - k, 1 << m) for k in range(n))


class Crosscheck:
    """Monte Carlo estimates at tiny n against the exact oracles, one thread."""

    name = "crosscheck"
    threads = 1
    sweep_n = 10

    def __init__(self, seed, work: Path, tiny: bool):
        self.seed = seed
        self.points_path = work / "orthonormal3.csv"
        self.rip_ms = (10, 24) if tiny else (10, 17, 24)
        self.sweep_ms = list(range(4, 8)) if tiny else list(range(4, 15))
        self.trials = 2000 if tiny else 20_000

    def prepare(self):
        """Three signed coordinate vectors in dimension 8: exactly orthonormal, placed by the seed."""
        rng = np.random.default_rng([self.seed, 3])
        rows = np.zeros((3, 8))
        rows[np.arange(3), rng.choice(8, size=3, replace=False)] = rng.choice([-1.0, 1.0], size=3)
        self.points_path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n", encoding="utf-8")

    def steps(self, threads=None):
        common = ["--trials", str(self.trials), "--seed", str(self.seed), "--threads", str(self.threads)]
        steps = []
        for m in self.rip_ms:
            rip = ["--m", str(m), "--delta", str(DELTA)]
            steps.append(Step("simulate", ["simulate", "--n", "3", *rip, *common]))
            steps.append(Step("simulate", ["simulate", "--points", str(self.points_path), *rip, *common]))
            steps.append(Step("oracle", ["oracle", "rip_three", *rip]))
        grid = f"{self.sweep_ms[0]}:{self.sweep_ms[-1]}:1"
        steps.append(Step("sweep", ["sweep", "--n", str(self.sweep_n), "--m-grid", grid, *common]))
        for m in self.sweep_ms:
            steps.append(Step("oracle", ["oracle", "birthday", "--n", str(self.sweep_n), "--m", str(m)]))
            steps.append(Step("oracle", ["oracle", "eta", "--n", str(self.sweep_n), "--m", str(m)]))
        return steps

    def outputs(self):
        return []

    def verify(self, results):
        failures = {}
        for i, result in enumerate(results):
            if result["rc"] != 0:
                failures[i] = f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"
        k = 0
        for m in self.rip_ms:
            exact = rip_three_exact(m)
            for i in (k, k + 1):
                if i not in failures:
                    failures.update(self._check_estimates(i, results[i], {m: exact}))
            if k + 2 not in failures:
                try:
                    value, frac = _parse_fraction_line(results[k + 2]["stdout"])
                except ValueError as exc:
                    failures[k + 2] = f"unparseable oracle output: {exc}"
                else:
                    if frac != exact or not _close(value, float(exact)):
                        failures[k + 2] = f"rip_three m={m}: {frac} != {exact}"
            k += 3

        sweep_index = k
        exact = {m: birthday(self.sweep_n, m) for m in self.sweep_ms}
        if sweep_index not in failures:
            failures.update(self._check_estimates(sweep_index, results[sweep_index], exact))
        pairs = math.comb(self.sweep_n, 2)
        rows = {}
        if sweep_index not in failures:
            rows = {r["m"]: r for r in _parse_estimate_csv(results[sweep_index]["stdout"])}
        for j, m in enumerate(self.sweep_ms):
            i_birthday, i_eta = sweep_index + 1 + 2 * j, sweep_index + 2 + 2 * j
            if i_birthday not in failures:
                try:
                    value, frac = _parse_fraction_line(results[i_birthday]["stdout"])
                except ValueError as exc:
                    failures[i_birthday] = f"unparseable oracle output: {exc}"
                else:
                    if frac != exact[m] or not _close(value, float(exact[m])):
                        failures[i_birthday] = f"birthday m={m}: {frac} != {exact[m]}"
            if i_eta not in failures:
                bad = self._check_eta(results[i_eta]["stdout"], m, exact[m], pairs, rows.get(m))
                if bad:
                    failures[i_eta] = bad
        return failures

    def _check_estimates(self, index, result, exact):
        """Every row's bookkeeping, and its successes against the exact value at z = 4."""
        try:
            rows = _parse_estimate_csv(result["stdout"])
        except (ValueError, IndexError) as exc:
            return {index: f"unparseable CSV: {exc}"}
        if [r["m"] for r in rows] != list(exact):
            return {index: f"rows for m={[r['m'] for r in rows]}, expected {list(exact)}"}
        for row in rows:
            bad = _check_estimate_row(row, row["m"], self.trials)
            if bad:
                return {index: bad}
            p0 = float(exact[row["m"]])
            if not _score_test_ok(row["successes"], row["trials"], p0):
                return {index: f"m={row['m']}: p_hat {row['p_hat']} vs exact {p0:.10g} fails the z={Z_CHECK} test"}
        return {}

    def _check_eta(self, text, m, exact, pairs, row):
        """The eta report against its definitions, and the sweep window against the pairwise width."""
        try:
            fields = {k.strip(): v.strip() for k, v in (line.split("=", 1) for line in text.strip().split("\n"))}
            _, frac = _parse_fraction_line(fields["exact"])
            poisson, deviation = float(fields["poisson"]), float(fields["deviation"])
            eta_pw, contains_pw = fields["eta (pairwise)"].split("contains deviation:")
            eta_gen, contains_gen = fields["eta (general)"].split("contains deviation:")
        except (ValueError, KeyError) as exc:
            return f"unparseable eta output: {exc}"
        want_poisson = math.exp(-pairs / 2.0 ** m)
        want_pw, want_gen = pairs / 4.0 ** m, pairs * (4 * self.sweep_n - 7) / 4.0 ** m
        want_dev = abs(float(exact) - want_poisson)
        if frac != exact or not _close(poisson, want_poisson) or not _close(deviation, want_dev, 1e-8):
            return f"eta m={m}: exact/poisson/deviation do not match their definitions"
        if not (_close(float(eta_pw), want_pw) and _close(float(eta_gen), want_gen)):
            return f"eta m={m}: widths {eta_pw.strip()}, {eta_gen.strip()} != {want_pw:.10g}, {want_gen:.10g}"
        for flag, width in ((contains_pw, want_pw), (contains_gen, want_gen)):
            if not _close(want_dev, width, 1e-8) and flag.strip() != str(want_dev <= width):
                return f"eta m={m}: containment flag {flag.strip()} is wrong"
        if row is not None:
            lo, hi = max(0.0, want_poisson - want_pw), min(1.0, want_poisson + want_pw)
            if row["eta_form"] != "pairwise" or not (_close(row["window_lo"], lo) and _close(row["window_hi"], hi)):
                return f"sweep window at m={m} is not e^-lambda +- the pairwise eta"
        return None

    def summary(self, results):
        steps = self.steps()
        sim = sum(r["seconds"] for s, r in zip(steps, results) if s.kind in ("simulate", "sweep"))
        trials = self.trials * (2 * len(self.rip_ms) + len(self.sweep_ms))
        oracle = sum(r["seconds"] for s, r in zip(steps, results) if s.kind == "oracle")
        return {"trials_per_s": (trials / sim, "1/s"), "oracle_s": (oracle, "s")}


WORKLOADS = {w.name: w for w in (Figure, Codes, Crosscheck)}
