"""End-to-end acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime limit is pinned here.  Statistical checks use
fixed seeds, so the suite is deterministic; Wilson intervals at z=3 implement
the "3 sigma" agreement criteria.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import onebit
from onebit.bounds import m_rip_union, p_delta_exact, rip_m_window, rip_window
from onebit.embedding import band_fails, pair_stream
from onebit.geometry import PointSet
from onebit.montecarlo import (
    TrialConfig,
    default_phase_grid,
    first_upward_crossing,
    run_trials,
    sweep,
    wilson_interval,
)
from onebit.oracles import birthday_exact, eta_comparison, rip_exact_three
from reference import code_set, hamming_bitloop

THREADS = 2


def _report(criterion: int, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.3f}s){suffix}")


def _best_call_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_exact_tail_value():
    t0 = time.perf_counter()
    value = p_delta_exact(10, 0.2)
    ok = value == Fraction(352, 1024)
    elapsed = time.perf_counter() - t0
    call_time = _best_call_time(lambda: p_delta_exact(10, 0.2))
    ok = ok and call_time < 1e-3
    _report(1, ok, elapsed, f"p = {value}, call time {call_time * 1e6:.0f}us")
    assert value == Fraction(352, 1024)
    assert float(value) == 0.34375
    assert call_time < 1e-3


def test_criterion_2_hoeffding_domination():
    t0 = time.perf_counter()
    violations = []
    for m in range(1, 301):
        for k in range(1, 10):
            delta = 0.05 * k
            bound = 2.0 * math.exp(-2.0 * delta * delta * m)
            if not p_delta_exact(m, delta) <= Fraction(bound):
                violations.append((m, delta))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 1.0
    _report(2, ok, elapsed, f"{300 * 9} cells, {len(violations)} violations")
    assert violations == []
    assert elapsed < 1.0


def test_criterion_3_stirling_sandwich():
    t0 = time.perf_counter()
    violations = []
    for m in range(10, 201):
        for delta in (0.1, 0.15, 0.2, 0.25, 0.3, 0.4):
            w = rip_window(2, m, delta)  # C(2,2) = 1: per-pair envelopes
            p = math.comb(2, 2) * p_delta_exact(m, delta)
            if not Fraction(w.lambda_lo) <= p <= Fraction(w.lambda_hi):
                violations.append((m, delta))
    spot = rip_window(2, 10, 0.2)
    spot_ok = (
        spot.lambda_lo == pytest.approx(0.04690051928488175, rel=1e-6)
        and spot.lambda_hi == pytest.approx(0.6022145881764174, rel=1e-6)
        and spot.lambda_lo <= 0.34375 <= spot.lambda_hi
    )
    elapsed = time.perf_counter() - t0
    ok = not violations and spot_ok and elapsed < 1.0
    _report(3, ok, elapsed, f"{191 * 6} cells, {len(violations)} violations; "
                            f"spot {spot.lambda_lo:.6f} <= 0.34375 <= {spot.lambda_hi:.6f}")
    assert violations == []
    assert spot_ok
    assert elapsed < 1.0


def test_criterion_4_birthday_agreement():
    t0 = time.perf_counter()
    hits = 0
    cells = []
    for m in range(4, 15):
        exact = birthday_exact(10, m).float_value
        cfg = TrialConfig(n=10, m=m, trials=100_000, base_seed=2024_04)
        row = run_trials(cfg, threads=THREADS)
        lo, hi = wilson_interval(row.successes, row.trials, 3.0)
        inside = lo <= exact <= hi
        hits += inside
        cells.append((m, row.p_hat, exact, inside))
    elapsed = time.perf_counter() - t0
    ok = hits >= 10 and elapsed < 30.0
    _report(4, ok, elapsed, f"{hits}/11 cells within 3 Wilson-sigma")
    assert hits >= 10, cells
    assert elapsed < 30.0


def test_criterion_5_rip_oracle_agreement():
    t0 = time.perf_counter()
    failures = []
    for m in (8, 16, 32):
        for boundary in ("strict", "inclusive"):
            exact = rip_exact_three(m, 0.2, boundary).float_value
            cfg = TrialConfig(n=3, m=m, delta=0.2, trials=100_000, base_seed=2024_05, boundary=boundary)
            row = run_trials(cfg, threads=THREADS)
            lo, hi = wilson_interval(row.successes, row.trials, 3.0)
            if not lo <= exact <= hi:
                failures.append((m, boundary, row.p_hat, exact))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(5, ok, elapsed, f"6 cells (3 lengths x 2 boundary conventions), {len(failures)} misses")
    assert failures == []
    assert elapsed < 30.0


def test_criterion_6_figure_reproduction():
    t0 = time.perf_counter()
    m_eps1, m_eps2 = (r.m_value for r in rip_m_window(800, 0.2, 0.5, 0.1)[:2])
    grid = default_phase_grid(m_eps1, m_eps2)
    cfg = TrialConfig(n=800, m=grid[0], delta=0.2, trials=200, base_seed=2024_06)
    rows = sweep(cfg, grid, threads=THREADS)

    crossing = first_upward_crossing(rows)
    crossing_ok = m_eps1 < crossing < m_eps2

    outside = []
    for row in rows:
        wlo, whi = wilson_interval(row.successes, row.trials, 3.0)
        if not (wlo <= row.window.hi and whi >= row.window.lo):
            outside.append((row.m, row.p_hat, row.window.lo, row.window.hi))
    elapsed = time.perf_counter() - t0
    ok = crossing_ok and not outside and elapsed <= 600.0
    _report(6, ok, elapsed,
            f"crossing at m ~ {crossing:.1f} in ({m_eps1:.1f}, {m_eps2:.1f}); "
            f"{len(outside)} points outside window+3sigma")
    assert crossing_ok, f"crossing {crossing} outside ({m_eps1}, {m_eps2})"
    assert outside == []
    assert elapsed <= 600.0


def test_criterion_7_union_bound_validation():
    t0 = time.perf_counter()
    report = m_rip_union(100, 0.1, 0.2)
    assert report.m_int == 144
    cfg = TrialConfig(n=100, m=144, delta=0.2, trials=10_000, base_seed=2024_07)
    row = run_trials(cfg, threads=THREADS)
    failure_rate = 1.0 - row.p_hat
    elapsed = time.perf_counter() - t0
    ok = failure_rate <= 0.1 and elapsed < 120.0
    _report(7, ok, elapsed, f"m = {report.m_int}, empirical failure rate {failure_rate:.4f} <= 0.1")
    assert failure_rate <= 0.1
    assert elapsed < 120.0


def test_criterion_8_eta_window_report():
    t0 = time.perf_counter()
    rep = eta_comparison(10, 7)
    elapsed = time.perf_counter() - t0
    call_time = _best_call_time(lambda: eta_comparison(10, 7))
    ok = (
        rep.deviation == pytest.approx(0.006327865172375158, rel=1e-9)
        and rep.deviation <= rep.eta_general
        and call_time < 1e-3
    )
    _report(8, ok, elapsed,
            f"D = {rep.deviation:.6f} <= eta_general = {rep.eta_general:.6f}; "
            f"pairwise containment (reported, not asserted): {rep.within_pairwise}")
    assert rep.deviation == pytest.approx(0.006327865172375158, rel=1e-9)
    assert rep.deviation <= rep.eta_general
    # The pairwise width is narrower than the observed deviation here; that
    # comparison is surfaced in the report but deliberately not asserted.
    assert call_time < 1e-3


def _run_cli(*args) -> subprocess.CompletedProcess:
    # The child imports the same `onebit` as this process, whatever its cwd.
    env = dict(os.environ)
    package_root = str(Path(onebit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "onebit", *args], capture_output=True, text=True, env=env)


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    sim_args = ("simulate", "--n", "10", "--m", "9", "--trials", "20000", "--seed", "77")
    a = _run_cli(*sim_args, "--threads", "1")
    b = _run_cli(*sim_args, "--threads", "8")
    sim_ok = a.returncode == b.returncode == 0 and a.stdout == b.stdout

    rip_args = ("simulate", "--n", "20", "--m", "32", "--delta", "0.2", "--trials", "20000", "--seed", "78")
    c = _run_cli(*rip_args)
    d = _run_cli(*rip_args)
    rip_ok = c.returncode == d.returncode == 0 and c.stdout == d.stdout

    sweep_args = ("sweep", "--n", "10", "--m-grid", "4:14:2", "--trials", "20000", "--seed", "79")
    p1 = tmp_path / "one.csv"
    p8 = tmp_path / "eight.csv"
    r1 = _run_cli(*sweep_args, "--threads", "1", "--out", str(p1))
    r8 = _run_cli(*sweep_args, "--threads", "8", "--out", str(p8))
    sweep_ok = r1.returncode == r8.returncode == 0 and p1.read_bytes() == p8.read_bytes()

    elapsed = time.perf_counter() - t0
    ok = sim_ok and rip_ok and sweep_ok
    _report(9, ok, elapsed, "simulate repeat, rip repeat, sweep under 1 vs 8 threads: all byte-identical")
    assert sim_ok and rip_ok and sweep_ok


def test_criterion_10_brute_force_equivalences():
    t0 = time.perf_counter()

    # birthday_exact vs exhaustive enumeration, n <= 3, m <= 4
    birthday_ok = True
    for n in (2, 3):
        for m in (1, 2, 3, 4):
            space = 2**m
            good = sum(1 for combo in itertools.product(range(space), repeat=n) if len(set(combo)) == n)
            birthday_ok &= birthday_exact(n, m).value == Fraction(good, space**n)

    # rip_exact_three vs exhaustive 8^m enumeration, m <= 7, both conventions
    rip_ok = True
    for m in range(1, 8):
        codes = np.arange(2**m, dtype=np.uint64)
        h = np.bitwise_count(codes[:, None] ^ codes[None, :]).astype(np.int64)
        for delta in (0.2, 0.3):
            for boundary in ("strict", "inclusive"):
                band = (~band_fails(h, m, 0.5, delta, boundary)).astype(np.int64)
                good = int(((band @ band) * band).sum())
                rip_ok &= rip_exact_three(m, delta, boundary).value == Fraction(good, 8**m)

    # XOR + popcount differing-bit counts vs the bit-by-bit reference on 10^4 random pairs
    rng = np.random.default_rng(2024_10)
    hamming_ok = True
    pairs = 0
    basis = PointSet(np.eye(2))  # the two codes' points: only pair_stream's counts are read
    while pairs < 10_000:
        m = int(rng.integers(1, 131))
        codes = code_set([rng.integers(0, 2, m), rng.integers(0, 2, m)])
        hamming_ok &= int(next(pair_stream(codes, basis))[1][0, 1]) == hamming_bitloop(codes, 0, 1)
        pairs += 1

    elapsed = time.perf_counter() - t0
    ok = birthday_ok and rip_ok and hamming_ok and elapsed < 30.0
    _report(10, ok, elapsed, "birthday enumeration, three-point enumeration, packed-vs-loop distance")
    assert birthday_ok
    assert rip_ok
    assert hamming_ok
    assert elapsed < 30.0
