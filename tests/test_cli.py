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
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebit
import onebit.cli as cli
import onebit.montecarlo as mc
from onebit.cli import build_parser
from onebit.embedding import CodeSet, draw_codes, embed_points, pack_bits, read_code_set, sample_map, write_code_set
from onebit.geometry import PAIR_BLOCK_ROWS, read_point_set
from reference import check_one_to_one_dict, check_rip_loop, code_set, pair_table_fstring, usage_error

SVG_NS = "{http://www.w3.org/2000/svg}"


def cli_env(env_seed=None) -> dict:
    """The environment of a child `python -m onebit`: it imports the same `onebit` as this process, whatever its cwd."""
    env = dict(os.environ)
    package_root = str(Path(onebit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.pop("ONEBIT_SEED", None)
    if env_seed is not None:
        env["ONEBIT_SEED"] = str(env_seed)
    return env


def run_cli(*args, cwd=None, env_seed=None):
    return subprocess.run(
        [sys.executable, "-m", "onebit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(env_seed),
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

    @pytest.mark.parametrize("extra", [["--eps", "0.01"], ["--m", "150"]])
    def test_stdout_csv_is_usage_error(self, capsys, extra):
        # stdout carries the text table or the --m window, so a CSV there would follow it in one stream.
        err = usage_error(capsys, "bounds", "--n", "800", "--delta", "0.2", *extra, "--out", "-")
        assert "--out -" in err

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
              "--eps": ["1"], "--eps1": ["1"], "--eps2": ["1"], "--m-grid": ["0:4:1"],
              "--points": [""], "--codes": [""], "--out": [""]}


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
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.bin", "pts.csv"]

    def test_shared_paths_leave_every_file_alone(self, tmp_path, monkeypatch, capsys):
        # An output that names another file of its command would replace it; refused before any file is read.
        monkeypatch.chdir(tmp_path)
        write_points(tmp_path / "p.csv", "1,0,0\n0,1,0\n0,0,1\n")
        (tmp_path / "same.bin").write_bytes(b"old")
        os.symlink("p.csv", tmp_path / "link.csv")
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for argv, flags in (
            ("embed --points p.csv --m 8 --seed 1 --codes same.bin --out same.bin", "--codes and --out"),
            ("embed --points p.csv --m 8 --seed 1 --codes c.bin --out p.csv", "--points and --out"),
            ("embed --points p.csv --m 8 --seed 1 --codes ./link.csv --out -", "--points and --codes"),
            ("check --points p.csv --codes p.csv", "--points and --codes"),
            ("simulate --points p.csv --m 8 --seed 1 --threads 1 --out p.csv", "--points and --out"),
            ("sweep --points p.csv --m-grid 4:8:4 --seed 1 --threads 1 --out link.csv", "--points and --out"),
        ):
            assert cli.main(argv.split()) == cli.EXIT_USAGE, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"onebit: error: {flags} name the same file"), (argv, err)
            assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files, argv

    def test_every_domain_flag_has_its_type(self):
        # so that no such flag comes back as a bare type=int or type=float
        types = {"--n": cli._POINT_COUNT, "--m": cli._CODE_LENGTH, "--trials": cli._TRIALS, "--threads": cli._THREADS,
                 "--m-grid": cli._parse_m_grid, **dict.fromkeys(["--delta", "--eps", "--eps1", "--eps2"], cli._unit_interval),
                 **dict.fromkeys(["--points", "--codes", "--out"], cli._path)}
        narrower = {("sweep", "--delta"): cli._rip_delta}  # every sweep row carries a rip window, defined for delta < 1/2
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        seen = set()
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                for flag in set(action.option_strings) & set(types):
                    assert action.type is narrower.get((command, flag), types[flag]), (command, flag)
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

    def test_rip_three_cap_refused_before_work(self, monkeypatch, capsys):
        # --m is shared with birthday and eta, which take any m: rip_three alone refuses one past its cap, unrun.
        from onebit.oracles import birthday_exact

        calls = []
        monkeypatch.setattr(cli, "rip_exact_three", lambda m, delta, boundary: calls.append(m) or birthday_exact(2, 1))
        cap = cli.RIP_THREE_MAX_M
        assert cli.main(["oracle", "rip_three", "--m", str(cap + 1), "--delta", "0.2"]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"onebit: error: oracle rip_three needs --m <= {cap}, got {cap + 1}\n")
        assert calls == []
        assert cli.main(["oracle", "rip_three", "--m", str(cap), "--delta", "0.2"]) == cli.EXIT_OK
        assert calls == [cap] and capsys.readouterr().out == "0.5 = 1/2\n"
        assert cli.main(["oracle", "birthday", "--n", "3", "--m", str(cap + 1)]) == cli.EXIT_OK

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

    def test_embed_writes_only_the_files_it_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_points(tmp_path / "pts.csv", "1,0,0\n0,1,0\n0,0,1\n")
        embed = "embed --points pts.csv --m 8 --seed 1 --codes c.bin".split()
        assert cli.main(embed) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.bin", "pts.csv"]
        assert capsys.readouterr() == ("", "effective seed: 1\nwrote 3 codes of length 8 to c.bin\n")
        assert cli.main([*embed, "--out", "t.csv"]) == 0
        assert capsys.readouterr().err.endswith("to c.bin; pair table to t.csv\n")
        assert cli.main([*embed, "--out", "-"]) == 0
        table = (tmp_path / "t.csv").read_text()
        assert capsys.readouterr().out == table and len(table.splitlines()) == 1 + 3

    def test_one_point_table_is_the_header(self, tmp_path, capsys):
        pts = write_points(tmp_path / "pts.csv", "1,0,0\n")
        assert cli.main(["embed", "--points", str(pts), "--m", "8", "--seed", "1", "--codes", str(tmp_path / "c.bin"),
                         "--out", "-"]) == 0
        assert capsys.readouterr().out == "i,j,hamming,geodesic,deviation\n"

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


def write_embedded(tmp_path: Path, points: np.ndarray, m: int) -> tuple[Path, Path]:
    """pts.csv holding the points and codes.bin their codes under a seeded m-direction map, both in tmp_path."""
    pts = write_points(tmp_path / "pts.csv", "".join(",".join(map(repr, row)) + "\n" for row in points.tolist()))
    bits = embed_points(sample_map(m, points.shape[1], seed=3), read_point_set(pts))
    write_code_set(CodeSet(pack_bits(bits), m), tmp_path / "codes.bin")
    return pts, tmp_path / "codes.bin"


class TestCheckListing:
    """check's failure listings, byte for byte, against per-pair f-strings over reference.py's loops, in bounded memory."""

    def test_rip_listing_matches_fstrings(self, tmp_path, capsys):
        pts, codes = write_embedded(tmp_path, gaussian_points(PAIR_BLOCK_ROWS + 20, 4, 12), 40)  # two geodesic blocks
        assert cli.main(["check", "--points", str(pts), "--codes", str(codes), "--delta", "0.05"]) == cli.EXIT_CHECK_FAILED
        violations, max_dev = check_rip_loop(read_code_set(codes), read_point_set(pts), 0.05)
        assert violations[-1][0][0] >= PAIR_BLOCK_ROWS
        assert capsys.readouterr().out == (
            f"delta = 0.05, boundary = strict\nmax deviation = {max_dev:.10g}\n"
            f"RIP check: FAIL ({len(violations)} violating pairs)\n"
            + "".join(f"  pair {pair}: hamming={dh:.10g} geodesic={dg:.10g} deviation={dev:.10g}\n"
                      for pair, dh, dg, dev in violations)
        )

    def test_one_to_one_listing_matches_fstrings(self, tmp_path, capsys):
        pts, codes = write_embedded(tmp_path, gaussian_points(300, 4, 13), 3)  # at most 8 codes: groups of dozens
        assert cli.main(["check", "--points", str(pts), "--codes", str(codes)]) == cli.EXIT_CHECK_FAILED
        pairs = check_one_to_one_dict(read_code_set(codes))
        assert capsys.readouterr().out == f"one-to-one check: FAIL ({len(pairs)} colliding pairs)\n" + "".join(
            f"  codes {i} and {j} are equal\n" for i, j in pairs)

    def test_failing_listing_memory_bounded(self, tmp_path):
        # Most of the 124 750 pairs fail at delta 0.01: a list of them as named tuples took about 20 MB.
        pts, codes = write_embedded(tmp_path, gaussian_points(500, 16, 14), 512)
        out = tmp_path / "out.txt"
        with open(out, "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
            tracemalloc.start()
            try:
                code = cli.main(["check", "--points", str(pts), "--codes", str(codes), "--delta", "0.01"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == cli.EXIT_CHECK_FAILED
        text = out.read_text(encoding="utf-8")
        failing = int(re.search(r"FAIL \((\d+) violating pairs\)", text)[1])
        assert text.count("\n") == 3 + failing and failing > 60_000
        assert peak < 8 * 2**20


def formatted(values) -> list[str]:
    """cli._float_words' text of each value, its NUL padding dropped."""
    words = np.zeros((len(values), 5), dtype=np.uint32)
    cli._float_words(np.asarray(values, dtype=np.float64), words)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in words]


def float_edges() -> list[float]:
    """Doubles next to the rounding and notation edges of %.10g."""
    fixed = [0.0, -0.0, 1.0, -1.0, 0.1, 1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1), 9.9999999994e-5,
             9.9999999995e-5, 0.99999999995, 0.099999999995, 5e-324, -5e-324, 1e-310, -1e300, 12.5, 2.0**60]
    # 2000 decimal ties d.ddddddddd5 * 10**-(1 + z) of the fixed notation, z = 0..3 zeros after the point
    rng = np.random.default_rng(29)
    ties = np.array([float(f"{10 * d + 5}e-{11 + z}") for d, z in zip(
        rng.integers(10**9, 10**10, 2000).tolist(), rng.integers(0, 4, 2000).tolist())])
    near = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, 1)])
    return fixed + np.concatenate([near, -near]).tolist() + [h / m for m in (3, 512, 20000) for h in range(m + 1)]


class WriteCounter(io.StringIO):
    """A text stream that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestPairRowFormat:
    """The pair rows' numpy formatter prints every double as format(v, ".10g") does, and every index as str."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_any_finite_double(self, values):
        assert formatted(values) == [format(v, ".10g") for v in values]

    def test_seeded_unit_interval(self):
        values = np.random.default_rng(27).uniform(-1.0, 1.0, 100_000).tolist()
        assert formatted(values) == [format(v, ".10g") for v in values]

    def test_edges(self):
        values = float_edges()
        assert len(values) > 32_000
        assert formatted(values) == [format(v, ".10g") for v in values]

    def test_speller_widths(self):
        # Indices across 4-digit word edges up to 1.1e9, and texts of 4, 8 and 9 characters with their literal.
        i = [0, 0, 9, 999, 9999, 10_000, 10_001, 9_999_999, 99_999_999, 123_456_789]
        j = [a + b for a, b in zip(i, [1, 9_999, 1, 1, 1, 1, 100_000_000, 1, 1, 1_000_000_000])]
        for literal in ("", ",", "): hamming="):
            texts = [f"{k}{literal}" for k in i + j]
            table = cli._spelled(texts)
            assert table.dtype == np.uint32 and table.shape == (len(texts), -(-max(map(len, texts)) // 4))
            assert [row.tobytes().replace(b"\0", b"").decode("ascii") for row in table] == texts
        for k, words in ((999, 1), (9_999_999, 2), (99_999_999, 3)):  # "999," "9999999," "99999999,"
            assert cli._spelled([f"{k},"]).shape == (1, words)

    def test_rows_match_fstrings(self):
        # In situ: indices across the 4-digit word edge at 9999/10000, counts from 0 to m in both notations, and
        # the longest h/m texts: 1/3001 prints as 0.0003332222592 and 1/30001 as 3.333222226e-05, 15 characters.
        i = np.array([0, 0, 9, 9998, 9999, 9999, 10_000])
        j = np.array([1, 9999, 10, 9999, 10_000, 10_001, 10_001])
        g = np.linspace(0.0, 1.0, len(i))
        for m, h in ((20_000, [0, 1, 2, 3, 19_999, 20_000, 12_345]), (3001, [0, 1, 2, 3, 3000, 3001, 1500]),
                     (30_001, [0, 1, 3, 4, 29_999, 30_001, 12_345])):
            out = io.StringIO()
            cli._write_pairs(out, ("<", "|", ":", "", "=", ">\n"), 10_002, m, [(i, j, np.array(h), g)])
            assert out.getvalue() == "".join(f"<{a}|{b}:{x / m:.10g}{y:.10g}={x / m - y:.10g}>\n"
                                             for a, b, x, y in zip(i.tolist(), j.tolist(), h, g)), m

    def test_no_pairs_write_nothing(self):
        out = WriteCounter()
        none = np.zeros(0, dtype=np.int64)
        cli._write_pairs(out, ("", ",", ",", ",", ",", "\n"), 3, 5, [])
        cli._write_pairs(out, ("", ",", ",", ",", ",", "\n"), 3, 5, [(none, none, none, none / 1.0)] * 2)
        assert out.getvalue() == "" and out.writes == 0

    def test_chunks_join_seamlessly(self, monkeypatch):
        # Slabs of 0, 1, 7 and 20 pairs (and 0 and 5 more) through a 7-row buffer: 33 pairs in 5 writes.
        rng = np.random.default_rng(28)
        sizes = [0, 1, 7, 20, 0, 5]
        slabs = [(i, i + 1, rng.integers(0, 41, k), rng.uniform(0, 1, k))
                 for k in sizes for i in [rng.integers(0, 10, k)]]
        monkeypatch.setattr(cli, "_PAIRS_PER_WRITE", 7)
        out = WriteCounter()
        cli._write_pairs(out, ("", ",", ",", ",", ",", "\n"), 11, 40, slabs)
        assert out.getvalue() == "".join(f"{a},{a + 1},{h / 40:.10g},{y:.10g},{h / 40 - y:.10g}\n"
                                         for i, _, hs, g in slabs for a, h, y in zip(i.tolist(), hs.tolist(), g))
        assert out.writes == math.ceil(sum(sizes) / 7) == 5


@pytest.mark.parametrize("per_write", [None, 1000], ids=["default", "1000"])
def test_embed_writes_one_string_per_buffer(tmp_path, monkeypatch, per_write):
    # The writer fills its row buffer across slabs: P pairs go out in ceil(P / _PAIRS_PER_WRITE) writes after the
    # header, where one write per slab or more would make at least one per 16-row slab (19 here).
    if per_write is not None:
        monkeypatch.setattr(cli, "_PAIRS_PER_WRITE", per_write)
    pts, _ = write_embedded(tmp_path, gaussian_points(300, 8, 16), 64)
    out = WriteCounter()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["embed", "--points", str(pts), "--m", "64", "--seed", "1", "--codes", str(tmp_path / "c.bin"), "--out", "-"]
    assert cli.main(argv) == cli.EXIT_OK
    pairs = 300 * 299 // 2
    assert out.getvalue().count("\n") == 1 + pairs
    assert out.writes == 1 + math.ceil(pairs / cli._PAIRS_PER_WRITE)


def test_embed_table_memory_bounded(tmp_path):
    # At n=1000 a 16-row slab holds 16 000 pairs, more than the row buffer's 8192: the buffer is not sized by the
    # slab. With numpy 2.4 this run peaked at 4.72 MiB, and at 5.09 MiB when each slab was formatted on its own; a
    # buffer of 8192 + 16 000 rows would add 1.7 MB.
    assert 16 * 1000 > cli._PAIRS_PER_WRITE
    pts, _ = write_embedded(tmp_path, gaussian_points(1000, 16, 16), 512)
    argv = ["embed", "--points", str(pts), "--m", "512", "--seed", "3", "--codes", str(tmp_path / "c.bin"),
            "--out", str(tmp_path / "pairs.csv")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK  # warm: the parser and the formatter's tables are built once
        tracemalloc.start()
        try:
            assert cli.main(argv) == cli.EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    with open(tmp_path / "pairs.csv", encoding="utf-8") as table:
        assert sum(1 for _ in table) == 1 + 1000 * 999 // 2
    assert peak < 5.1 * 2**20


def test_import_builds_no_digit_tables():
    # Every command imports cli: the formatter's tables wait for the first pair row, and numpy.random for a draw.
    probe = "import sys, onebit.cli as c; print(c._quads.cache_info().currsize, 'numpy.random' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=cli_env())
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("command, stderr", [
    ("check --points pts.csv --codes codes.bin --delta 0.01", ""),
    ("embed --points pts.csv --m 512 --seed 1 --codes new.bin --out -", "effective seed: 1\n"),
], ids=["check", "embed"])
def test_closed_stdout_ends_quietly(tmp_path, command, stderr):
    # Tens of thousands of lines, far more than a pipe holds, so the writer is still writing when the reader goes.
    write_embedded(tmp_path, gaussian_points(300, 16, 15), 512)
    child = subprocess.Popen([sys.executable, "-m", "onebit", *command.split()], cwd=tmp_path, env=cli_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert child.stdout.readline()
    child.stdout.close()
    assert child.wait(timeout=120) == cli.EXIT_USAGE
    assert child.stderr.read() == stderr


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

    @pytest.mark.parametrize("delta", ["0.6", "0.5"])
    def test_rip_delta_from_half_keeps_existing_out(self, delta, tmp_path, capsys):
        out = tmp_path / "old.csv"
        out.write_bytes(b"keep\n")
        argv = ["sweep", "--n", "10", "--m-grid", "4:6:1", "--trials", "10", "--delta", delta, "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert f"delta must lie in (0, 1/2), got {delta}" in capsys.readouterr().err
        assert out.read_bytes() == b"keep\n"


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
    assert {argv[0] for argv in commands} == {"bounds", "embed", "check", "simulate", "sweep", "figure", "oracle"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error exits
