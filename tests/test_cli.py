import argparse
import contextlib
import io
import itertools
import math
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import onebit
import onebit.cli as cli
import onebit.montecarlo as mc
from onebit.cli import build_parser
from onebit.embedding import CodeSet, draw_codes, read_code_set, write_code_set
from onebit.geometry import PAIR_BLOCK_ROWS, read_point_set
from reference import code_set, pair_table_fstring, usage_error

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(*args, cwd=None, env_seed=None):
    # The child imports the same `onebit` as this process, whatever its cwd.
    env = dict(os.environ)
    package_root = str(Path(onebit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("ONEBIT_SEED", None)
    if env_seed is not None:
        env["ONEBIT_SEED"] = str(env_seed)
    return subprocess.run(
        [sys.executable, "-m", "onebit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def write_points(path: Path, rows: str) -> Path:
    path.write_text(rows, encoding="utf-8")
    return path


class TestExitCodes:
    def test_usage_error_is_one(self):
        r = run_cli("bounds", "--definitely-not-a-flag")
        assert r.returncode == 1

    def test_missing_subcommand_is_one(self):
        r = run_cli()
        assert r.returncode == 1

    def test_validity_error_is_three(self):
        r = run_cli("bounds", "--n", "100", "--delta", "0.2", "--eps1", "0.5", "--eps2", "0.1")
        assert r.returncode == 3
        assert "validity" in r.stderr

    def test_validity_overridden_by_force(self):
        r = run_cli("bounds", "--n", "100", "--delta", "0.2", "--eps1", "0.5", "--eps2", "0.1", "--force")
        assert r.returncode == 0
        assert "forced" in r.stdout


class TestBounds:
    def test_union_bound_row(self):
        r = run_cli("bounds", "--n", "800", "--delta", "0.2", "--eps", "0.01")
        assert r.returncode == 0
        assert "rip_union" in r.stdout
        assert "m_int = 225" in r.stdout
        assert "linear_jl" in r.stdout

    def test_transition_rows_and_q(self):
        r = run_cli("bounds", "--n", "800", "--delta", "0.2", "--eps1", "0.5", "--eps2", "0.1")
        assert r.returncode == 0
        assert "rip_m_eps1" in r.stdout and "rip_m_eps2" in r.stdout
        assert "115.3051718" in r.stdout and "203.2460377" in r.stdout
        assert "q (rate constant) = 12.15319661" in r.stdout

    def test_csv_output(self, tmp_path):
        out = tmp_path / "bounds.csv"
        r = run_cli("bounds", "--n", "800", "--delta", "0.2", "--eps", "0.01", "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "formula_id,n,delta,eps1,eps2,m_value,m_int,validity_note"
        assert any(line.startswith("rip_union,800,") for line in lines)

    def test_window_printed_with_m(self):
        r = run_cli("bounds", "--n", "10", "--m", "7")
        assert r.returncode == 0
        assert "n,m,delta,lambda_lo,lambda_hi,eta_pairwise,eta_general,lo,hi" in r.stdout

    def test_nothing_to_do_is_usage_error(self):
        r = run_cli("bounds", "--n", "800")
        assert r.returncode == 1

    def test_window_refuses_delta_outside_half(self, capsys, tmp_path):
        # the rip window needs 0 < delta < 1/2; the refusal comes before the table and the --out file
        for delta in ("0.5", "0.6"):
            out = tmp_path / "bounds.csv"
            assert cli.main(["bounds", "--n", "800", "--delta", delta, "--m", "150", "--out", str(out)]) == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert "delta must lie in (0, 1/2)" in captured.err

    @pytest.mark.parametrize("delta", ["1e-160", "1e-170", "1e-300"])
    @pytest.mark.parametrize("extra", [[], ["--eps", "0.1"], ["--eps1", "0.5", "--eps2", "0.1", "--force"], ["--m", "100"]])
    def test_delta_past_the_float_range_is_refused(self, capsys, delta, extra):
        # 1/delta^2 overflows (1e-160) or delta^2 underflows to 0 (1e-170, 1e-300): no row is printed.
        err = usage_error(capsys, "bounds", "--n", "100", "--delta", delta, *extra)
        assert err.startswith("onebit: error: ") and "pass a larger --delta" in err

    @pytest.mark.parametrize("extra", [[], ["--delta", "0.2"]])
    def test_window_past_the_float_range_names_n(self, capsys, extra):
        # At n = 10^150 the general width C(n,2)(4n-7) 2^-2m overflows a float at m = 5, but not at m = 2000.
        n = str(10**150)
        err = usage_error(capsys, "bounds", "--n", n, *extra, "--m", "5")
        assert err.startswith("onebit: error: --n is too large for a window at m=5")
        assert cli.main(["bounds", "--n", n, *extra, "--m", "2000"]) == cli.EXIT_OK
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert all(math.isfinite(float(v)) for v in row[3:] if v)


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_bounds_edge_sweep():
    """Every bounds command over edge values of n, the tolerances, delta and m ends in exit 0, 1 or 3, never a traceback.

    n = 10 runs the transition windows unforced, so the rip window's validity refusal (exit 3) is among the outcomes.
    From n = 10^150 on, the window's rate or width passes the float range at small m; at delta = 1e-200, every
    1/delta^2 length does.  Those are refused, and no printed value is infinite.
    """
    eps_values = ("1e-300", "1e-17", "0.5", "0.98", "0.99", "0.995")
    seen = set()
    for n, delta in itertools.product(("2", "10", "800", str(10**18), str(10**150), str(10**400)),
                                      (None, "1e-200", "1e-9", "0.2", "0.49999", "0.5", "0.6")):
        base = ["bounds", "--n", n] + ([] if delta is None else ["--delta", delta])
        force = [] if n == "10" else ["--force"]
        cells = [base + ["--eps", eps] for eps in eps_values]
        cells += [base + ["--eps1", e1, "--eps2", e2] + force for e1, e2 in itertools.product(eps_values, repeat=2)]
        cells += [base + ["--m", m] for m in ("1", "5", "64", str(10**9))]
        for argv in cells:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VALIDITY), argv
            assert "inf" not in out.getvalue(), argv
            seen.add(code)
    assert seen == {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VALIDITY}


#: Per command, a run that succeeds; each domain flag in it is then given each of its bad values in turn.
VALID_RUNS = (
    "bounds --n 800 --delta 0.2 --eps 0.01 --eps1 0.5 --eps2 0.1 --m 150 --out out.csv",
    "embed --points pts.csv --m 8 --seed 1 --codes new.bin --out out.csv",
    "check --points pts.csv --codes codes.bin --delta 0.45",
    "simulate --n 3 --m 8 --delta 0.3 --trials 10 --seed 1 --threads 1 --out out.csv",
    "sweep --n 3 --m-grid 4:8:4 --delta 0.3 --trials 10 --seed 1 --threads 1 --out out.csv",
    "figure --n 800 --delta 0.2 --eps1 0.5 --eps2 0.1 --m-grid 100:110:10 --trials 2 --seed 1 --threads 1 --out out",
    "oracle eta --n 10 --m 7",
    "oracle rip_three --m 10 --delta 0.2",
)
BAD_VALUES = {"--n": ["1"], "--m": ["0"], "--trials": ["0"], "--threads": ["0"], "--delta": ["0", "1", "nan", "inf"],
              "--eps": ["1"], "--eps1": ["1"], "--eps2": ["1"], "--m-grid": ["0:4:1"]}


class TestFlagDomains:
    """Each flag's domain is checked once, by its parser type, before any file is read or opened."""

    def test_bad_values_leave_every_file_alone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n0,0,1\n")
        write_points(tmp_path / "one.csv", "1,0,0\n")
        write_code_set(code_set([[0, 0, 0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1, 0, 1]]), "codes.bin")
        write_code_set(code_set([[1]]), "one.bin")
        for line in VALID_RUNS:
            assert cli.main(line.split()) == cli.EXIT_OK, line
        capsys.readouterr()
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert {"out.csv", "out.svg", "new.bin"} <= set(files)

        cells = [(f"argument {flag}: ", [*argv[: k + 1], bad, *argv[k + 2 :]])
                 for argv in map(str.split, VALID_RUNS) for k, flag in enumerate(argv) for bad in BAD_VALUES.get(flag, [])]
        assert len({message for message, _ in cells}) == len(BAD_VALUES)
        # A one-row --points file, wherever a pair property needs two points.
        cells += [("--points needs at least 2 rows, got 1", argv.split()) for argv in (
            "simulate --points one.csv --m 8 --seed 1 --threads 1 --out out.csv",
            "sweep --points one.csv --m-grid 4:8:4 --seed 1 --threads 1 --out out.csv",
            "check --points one.csv --codes one.bin --delta 0.45",
        )]
        for message, argv in cells:
            assert cli.main(argv) == cli.EXIT_USAGE, argv
            out, err = capsys.readouterr()
            assert out == "" and message in err, argv
            assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files, argv

    def test_bad_row_named_wherever_points_are_read(self, tmp_path, monkeypatch, capsys):
        # read_point_set is the one check of a row: every command that reads --points refuses it, naming the row.
        monkeypatch.chdir(tmp_path)
        write_code_set(code_set([[0, 1], [1, 0]]), "codes.bin")
        write_points(tmp_path / "short.csv", "1,0\n0.5,0.5\n")
        write_points(tmp_path / "nan.csv", "1,0\nnan,0\n")
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        messages = {"short.csv": f"row 2: norm {math.sqrt(0.5)!r} is not 1", "nan.csv": "row 2: components must be finite"}
        for name, message in messages.items():
            for argv in (f"check --points {name} --codes codes.bin --delta 0.2",
                         f"simulate --points {name} --m 8 --seed 1 --threads 1 --out out.csv",
                         f"sweep --points {name} --m-grid 4:8:4 --seed 1 --threads 1 --out out.csv",
                         f"embed --points {name} --m 8 --seed 1 --codes new.bin --out pairs.csv"):
                assert cli.main(argv.split()) == cli.EXIT_USAGE, argv
                out, err = capsys.readouterr()
                assert out == "" and message in err, (argv, err)
                assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files, argv

    def test_bad_value_rejected_before_any_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        err = usage_error(capsys, "check", "--delta", "1.5", "--points", missing, "--codes", missing)
        assert "argument --delta: must lie in (0, 1), got 1.5" in err and "No such file" not in err

    def test_one_point_embeds(self, tmp_path):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n")
        assert cli.main(["embed", "--points", str(pts), "--m", "8", "--seed", "1", "--codes", str(tmp_path / "c.bin")]) == 0
        assert read_code_set(tmp_path / "c.bin").n == 1
        assert (tmp_path / "c.bin.pairs.csv").read_text() == "i,j,hamming,geodesic,deviation\n"

    def test_every_domain_flag_has_its_type(self):
        # so that no such flag comes back as a bare type=int or type=float
        types = {"--n": cli._POINT_COUNT, "--m": cli._CODE_LENGTH, "--trials": cli._TRIALS, "--threads": cli._THREADS,
                 "--m-grid": cli._parse_m_grid, **dict.fromkeys(["--delta", "--eps", "--eps1", "--eps2"], cli._unit_interval)}
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        seen = set()
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                for flag in set(action.option_strings) & set(types):
                    assert action.type is types[flag], (command, flag)
                    seen.add(flag)
        assert seen == set(types)


class TestOracle:
    def test_birthday_output(self):
        r = run_cli("oracle", "birthday", "--n", "10", "--m", "7")
        assert r.returncode == 0
        assert r.stdout.strip() == "0.6972600092 = 50242878679888125/72057594037927936"

    def test_rip_three_output(self):
        r = run_cli("oracle", "rip_three", "--m", "10", "--delta", "0.2")
        assert r.returncode == 0
        strict_val = r.stdout.strip()
        r2 = run_cli("oracle", "rip_three", "--m", "10", "--delta", "0.2", "--boundary", "inclusive")
        assert r2.returncode == 0
        assert r2.stdout.strip() != strict_val

    def test_eta_output(self):
        r = run_cli("oracle", "eta", "--n", "10", "--m", "7")
        assert r.returncode == 0
        assert "contains deviation: False" in r.stdout
        assert "contains deviation: True" in r.stdout

    def test_missing_params(self, capsys):
        assert run_cli("oracle", "birthday", "--n", "10").returncode == 1
        for argv, message in (
            (["birthday", "--n", "10"], "oracle birthday needs --n and --m"),
            (["rip_three", "--m", "10", "--n", "5"], "oracle rip_three needs --m and --delta"),
            (["eta", "--m", "7", "--delta", "0.2"], "oracle eta needs --n and --m"),
        ):
            assert cli.main(["oracle", *argv]) == 1
            assert capsys.readouterr() == ("", f"onebit: error: {message}\n")

    @pytest.mark.parametrize("kind", ["birthday", "eta"])
    def test_fraction_beyond_int_digit_limit(self, kind):
        # At n=100, m=200 the exact fraction has more than 4300 digits, Python's default int-to-str limit.
        from onebit.oracles import birthday_exact

        r = run_cli("oracle", kind, "--n", "100", "--m", "200")
        assert r.returncode == 0, r.stderr
        fraction = birthday_exact(100, 200).fraction_string()
        assert len(fraction) > 4300
        assert f"= {fraction}\n" in r.stdout

    def test_eta_beyond_double_exponent_range(self):
        # 2^m overflows a double for m >= 1024; the window is then evaluated in logs.
        r = run_cli("oracle", "eta", "--n", "10", "--m", "1100")
        assert r.returncode == 0, r.stderr
        fields = {k.strip(): v for k, v in (line.split(" = ", 1) for line in r.stdout.strip().split("\n"))}
        for key in ("poisson", "eta (pairwise)", "eta (general)"):
            assert math.isfinite(float(fields[key].split()[0])), key


class TestEmbedAndCheck:
    def test_embed_writes_codes_and_pairs(self, tmp_path):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n")
        codes = tmp_path / "codes.bin"
        pairs = tmp_path / "pairs.csv"
        r = run_cli("embed", "--points", str(pts), "--m", "32", "--seed", "7",
                    "--codes", str(codes), "--out", str(pairs))
        assert r.returncode == 0
        assert "effective seed: 7" in r.stderr
        assert codes.exists()
        lines = pairs.read_text().strip().split("\n")
        assert lines[0] == "i,j,hamming,geodesic,deviation"
        i, j, dh, dg, dev = lines[1].split(",")
        assert (i, j) == ("0", "1")
        assert float(dg) == pytest.approx(0.5, abs=1e-12)
        assert float(dev) == pytest.approx(float(dh) - 0.5, abs=1e-12)

    def test_embed_then_check_passes(self, tmp_path):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n")
        codes = tmp_path / "codes.bin"
        run_cli("embed", "--points", str(pts), "--m", "64", "--seed", "3", "--codes", str(codes))
        r = run_cli("check", "--points", str(pts), "--codes", str(codes), "--delta", "0.45")
        assert r.returncode == 0
        assert "PASS" in r.stdout

    def test_check_rip_failure_exit_two(self, tmp_path):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n")
        codes = tmp_path / "same.bin"
        same = [0, 1, 1, 0]
        write_code_set(code_set([same, same]), codes)
        r = run_cli("check", "--points", str(pts), "--codes", str(codes), "--delta", "0.4")
        assert r.returncode == 2
        assert "FAIL" in r.stdout
        assert "-0.5" in r.stdout  # deviation of the identical pair

    def test_check_one_to_one(self, tmp_path):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n")
        dup = [1, 0, 1]
        codes = tmp_path / "dup.bin"
        write_code_set(code_set([dup, dup]), codes)
        r = run_cli("check", "--points", str(pts), "--codes", str(codes))
        assert r.returncode == 2
        distinct = tmp_path / "ok.bin"
        write_code_set(code_set([dup, [0, 1, 0]]), distinct)
        r2 = run_cli("check", "--points", str(pts), "--codes", str(distinct))
        assert r2.returncode == 0

    def test_check_one_to_one_lists_multiword_collisions(self, tmp_path):
        # m = 130 codes fill three words; codes 1, 5, 7 are equal and so are 2, 6.
        pts = write_points(tmp_path / "pts.csv", "".join(",".join("1" if j == i else "0" for j in range(8)) + "\n" for i in range(8)))
        words = draw_codes((8,), 130, np.random.default_rng(4))
        words[5] = words[7] = words[1]
        words[6] = words[2]
        codes = tmp_path / "dup.bin"
        write_code_set(CodeSet(words, 130), codes)
        r = run_cli("check", "--points", str(pts), "--codes", str(codes))
        assert r.returncode == 2
        assert r.stdout == (
            "one-to-one check: FAIL (4 colliding pairs)\n"
            "  codes 1 and 5 are equal\n"
            "  codes 1 and 7 are equal\n"
            "  codes 2 and 6 are equal\n"
            "  codes 5 and 7 are equal\n"
        )

    def test_embed_hexdump(self, tmp_path):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n")
        r = run_cli("embed", "--points", str(pts), "--m", "8", "--seed", "1",
                    "--codes", str(tmp_path / "c.bin"), "--hexdump")
        assert r.returncode == 0
        assert len(r.stdout.strip().split("\n")) == 2

    def test_stdout_table_with_hexdump_is_usage_error(self, tmp_path):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n")
        codes = tmp_path / "c.bin"
        r = run_cli("embed", "--points", str(pts), "--m", "6", "--seed", "1",
                    "--codes", str(codes), "--out", "-", "--hexdump")
        assert r.returncode == 1
        assert "--hexdump" in r.stderr
        assert r.stdout == "" and not codes.exists()

    def test_bad_points_file_is_usage_error(self, tmp_path):
        pts = write_points(tmp_path / "bad.csv", "1,0\n7,0\n")
        r = run_cli("embed", "--points", str(pts), "--m", "8", "--seed", "1",
                    "--codes", str(tmp_path / "c.bin"))
        assert r.returncode == 1
        assert "row 2" in r.stderr

    def test_normalize_flag(self, tmp_path):
        pts = write_points(tmp_path / "scaled.csv", "2,0\n0,3\n")
        r = run_cli("embed", "--points", str(pts), "--m", "8", "--seed", "1",
                    "--codes", str(tmp_path / "c.bin"), "--normalize")
        assert r.returncode == 0


def gaussian_points(n: int, dim: int, seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


def near_points() -> np.ndarray:
    """e1 twice, -e1, and points a few 1e-5 of a half-turn from e1: duplicate, antipodal and nearly equal pairs."""
    e1 = np.eye(3)[0]
    near = [(math.cos(math.pi * t), math.sin(math.pi * t), 0.0) for t in (1.2e-5, 3e-5, 7e-5, 1.1e-4)]
    return np.vstack([e1, e1, -e1, near, gaussian_points(3, 3, 5)])


class TestPairTableBytes:
    """embed's pair table, byte for byte, against the per-pair f-string writer in reference.py."""

    @pytest.mark.parametrize("m, points", [
        (100, gaussian_points(PAIR_BLOCK_ROWS + 2, 4, 11)),  # m not a multiple of 64; rows in two geodesic blocks
        (20000, near_points()),  # h/m in exponent form, geodesics like 1.2e-05, h=0 and h=m
    ], ids=["m100-two-blocks", "m20000-near-pairs"])
    def test_matches_fstring_writer(self, tmp_path, m, points):
        pts = write_points(tmp_path / "pts.csv", "".join(",".join(repr(float(v)) for v in row) + "\n" for row in points))
        codes, pairs = tmp_path / "codes.bin", tmp_path / "pairs.csv"
        r = run_cli("embed", "--points", str(pts), "--m", str(m), "--seed", "3", "--codes", str(codes), "--out", str(pairs))
        assert r.returncode == 0, r.stderr
        expected = pair_table_fstring(read_code_set(codes), read_point_set(pts))
        assert pairs.read_bytes() == expected.encode("utf-8")
        to_stdout = run_cli("embed", "--points", str(pts), "--m", str(m), "--seed", "3", "--codes", str(codes), "--out", "-")
        assert to_stdout.stdout == expected

        rows = [line.split(",") for line in expected.splitlines()[1:]]
        assert len(rows) == len(points) * (len(points) - 1) // 2
        assert any(dev.startswith("-") for *_, dev in rows)
        if m == 100:
            assert rows[-1][0] == str(PAIR_BLOCK_ROWS)
        else:
            hamming = {h for _, _, h, _, _ in rows}
            assert {"0", "1"} <= hamming and any("e-" in h for h in hamming)
            assert any("e-" in dg for _, _, _, dg, _ in rows)
            assert any(dev == "0" for *_, dev in rows)


class TestSimulateSweep:
    def test_simulate_stdout_csv(self):
        r = run_cli("simulate", "--n", "10", "--m", "7", "--trials", "5000", "--seed", "1")
        assert r.returncode == 0
        lines = r.stdout.strip().split("\n")
        assert lines[0].startswith("m,trials,successes")
        assert lines[1].startswith("7,5000,")

    def test_simulate_deterministic_bytes(self):
        a = run_cli("simulate", "--n", "10", "--m", "7", "--trials", "5000", "--seed", "1")
        b = run_cli("simulate", "--n", "10", "--m", "7", "--trials", "5000", "--seed", "1")
        assert a.stdout == b.stdout

    def test_negative_seed_names_its_source(self):
        via_env = run_cli("simulate", "--n", "10", "--m", "7", env_seed=-5)
        assert via_env.returncode == 1
        assert "ONEBIT_SEED must be non-negative, got -5" in via_env.stderr
        via_flag = run_cli("simulate", "--n", "10", "--m", "7", "--seed", "-5")
        assert via_flag.returncode == 1
        assert "--seed must be non-negative, got -5" in via_flag.stderr

    def test_env_seed_matches_flag(self):
        via_env = run_cli("simulate", "--n", "8", "--m", "5", "--trials", "2000", env_seed=123)
        via_flag = run_cli("simulate", "--n", "8", "--m", "5", "--trials", "2000", "--seed", "123")
        assert "effective seed: 123" in via_env.stderr
        assert via_env.stdout == via_flag.stdout

    def test_entropy_seed_printed(self):
        r = run_cli("simulate", "--n", "8", "--m", "5", "--trials", "100")
        assert r.returncode == 0
        assert "effective seed:" in r.stderr

    def test_sweep_thread_invariance_bytes(self, tmp_path):
        args = ("sweep", "--n", "10", "--m-grid", "4:12:4", "--trials", "4000", "--seed", "9")
        one = tmp_path / "t1.csv"
        eight = tmp_path / "t8.csv"
        assert run_cli(*args, "--threads", "1", "--out", str(one)).returncode == 0
        assert run_cli(*args, "--threads", "8", "--out", str(eight)).returncode == 0
        assert one.read_bytes() == eight.read_bytes()

    def test_sweep_rip_mode_with_delta(self, tmp_path):
        out = tmp_path / "rip.csv"
        r = run_cli("sweep", "--n", "5", "--m-grid", "8:16:8", "--delta", "0.3",
                    "--trials", "2000", "--seed", "2", "--out", str(out))
        assert r.returncode == 0
        assert "general" in out.read_text()

    def test_explicit_points_path(self, tmp_path):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n0,0,1\n")
        r = run_cli("simulate", "--points", str(pts), "--m", "16", "--delta", "0.2",
                    "--trials", "2000", "--seed", "4")
        assert r.returncode == 0

    def test_bad_grid_is_usage_error(self):
        r = run_cli("sweep", "--n", "10", "--m-grid", "14:4:2", "--trials", "100", "--seed", "1")
        assert r.returncode == 1

    def test_rip_delta_above_half_is_usage_error(self):
        r = run_cli("sweep", "--n", "10", "--m-grid", "4:14:2", "--trials", "20000", "--delta", "0.6",
                    "--seed", "1", "--threads", "1")
        assert r.returncode == 1
        assert "delta must lie in (0, 1/2)" in r.stderr


class TestOutputOpenedFirst:
    """An --out that cannot be opened fails with exit 1 before any trial runs; --threads 0 before --out is opened."""

    @pytest.fixture(autouse=True)
    def no_trials(self, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("run_trials called before --out was opened")

        monkeypatch.setattr(mc, "run_trials", no_trials)
        monkeypatch.setattr(cli, "run_trials", no_trials)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10", "--m", "7", "--trials", "100000"],
        ["sweep", "--n", "10", "--m-grid", "4:14:1", "--trials", "100000"],
        ["figure", "--n", "800", "--trials", "200"],
    ], ids=["simulate", "sweep", "figure"])
    def test_unwritable_out(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert cli.main([*argv, "--seed", "1", "--threads", "1", "--out", str(out)]) == 1
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "10", "--m", "7"],
        ["sweep", "--n", "10", "--m-grid", "4:14:1"],
        ["figure", "--n", "800"],
    ], ids=["simulate", "sweep", "figure"])
    def test_zero_threads_keeps_existing_out(self, argv, tmp_path, capsys):
        out = tmp_path / "f.csv"  # figure writes f.csv and f.svg
        for path in (out, tmp_path / "f.svg"):
            path.write_bytes(b"earlier output\n")
        assert cli.main([*argv, "--seed", "1", "--threads", "0", "--out", str(out)]) == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        assert out.read_bytes() == (tmp_path / "f.svg").read_bytes() == b"earlier output\n"


class TestBudgetRefusedFirst:
    """An estimate over budget at any m of the command exits 1 before --out is opened and before any trial runs."""

    @pytest.mark.parametrize("argv, outs", [
        (["simulate", "--n", "20000", "--delta", "0.2", "--m", "1"], ["old.csv"]),
        (["figure", "--n", "20000", "--force", "--m-grid", "1:2:1"], ["old.csv", "old.svg"]),
        # m=1 is within budget and comes first; a trial at m=44739242 would hold over 2**30 bytes.
        (["sweep", "--n", "2", "--delta", "0.2", "--m-grid", "1:44739242:44739241"], ["old.csv"]),
    ], ids=["simulate", "figure", "sweep"])
    def test_existing_out_kept(self, argv, outs, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mc, "_run_chunk", lambda *args: pytest.fail("a trial ran"))
        for name in outs:
            (tmp_path / name).write_bytes(b"keep\n")
        argv = [*argv, "--trials", "1", "--seed", "1", "--threads", "1", "--out", str(tmp_path / "old.csv")]
        assert cli.main(argv) == 1
        assert f"over budget {mc.TRIAL_BYTES_BUDGET}" in capsys.readouterr().err
        assert [(tmp_path / name).read_bytes() for name in outs] == [b"keep\n"] * len(outs)


class TestFigure:
    def test_small_forced_figure(self, tmp_path):
        r = run_cli("figure", "--n", "50", "--force", "--delta", "0.2", "--trials", "40",
                    "--m-grid", "10:40:10", "--seed", "3", "--threads", "2",
                    "--out", str(tmp_path / "fig"), cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        csv_path = tmp_path / "fig.csv"
        svg_path = tmp_path / "fig.svg"
        assert csv_path.exists() and svg_path.exists()
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "m,trials,successes,p_hat,ci_lo,ci_hi,window_lo,window_hi,eta_form"
        assert len(lines) == 5

        root = ET.parse(svg_path).getroot()
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) == 1
        rules = [el for el in root.findall(f".//{SVG_NS}line") if el.get("class") == "rule"]
        assert len(rules) == 2
        assert {el.get("stroke") for el in rules} == {"red", "green"}
        labels = [el for el in root.findall(f".//{SVG_NS}text") if el.get("class") == "rule-label"]
        assert len(labels) == 2

    def test_figure_deterministic(self, tmp_path):
        args = ("figure", "--n", "30", "--force", "--delta", "0.3", "--trials", "20",
                "--m-grid", "6:18:6", "--seed", "11")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_delta_outside_domain_is_usage_error(self, tmp_path):
        r = run_cli("figure", "--delta", "0.6", "--force", "--seed", "1", "--out", str(tmp_path / "f"))
        assert r.returncode == 1
        assert "delta must lie in (0, 1/2)" in r.stderr
        assert not (tmp_path / "f.csv").exists()

    def test_trials_default_is_200(self, tmp_path):
        assert cli.main(["figure", "--n", "50", "--force", "--m-grid", "10:10:1", "--seed", "1", "--threads", "1",
                         "--out", str(tmp_path / "f")]) == 0
        header, row = (tmp_path / "f.csv").read_text().splitlines()
        assert header.split(",")[1] == "trials" and row.split(",")[1] == "200"
        assert "200 trials/m" in (tmp_path / "f.svg").read_text()

    def test_figure_without_force_below_threshold(self, tmp_path):
        r = run_cli("figure", "--n", "50", "--trials", "10", "--seed", "1",
                    "--out", str(tmp_path / "f"))
        assert r.returncode == 3


def readme_commands():
    """Every `onebit ...` line of README's sh blocks, as argv; a `for VAR in FIRST ...` loop sets $VAR to FIRST."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    values = {}
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["for"]:
                values["$" + words[1]] = words[3]
            elif words[:1] == ["onebit"]:
                yield [values.get(w, w) for w in words[1:]]


def test_readme_commands_parse():
    commands = list(readme_commands())
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error exits
