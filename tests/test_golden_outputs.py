"""Every command's stdout and written files, byte for byte, against the recorded goldens in tests/golden/.

Each case runs its steps in-process through ``cli.main`` in an empty directory
that holds only ``pts.csv``, a generated 12-point file.  The goldens are a
transcript ``tests/golden/<case>/stdout`` (each step's command line and exit
code, then its stdout) and every file the steps write, under its own name.
stderr is not compared: it carries the effective seed and simulate's wall time.

Simulator steps run at ``--threads`` 1 and 2 against the same golden, so the
thread-count independence of every estimate is checked too.  Record the goldens
again, after a change that is meant to alter an output, with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

from pathlib import Path

import pytest

from onebit import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

#: 12 distinct integer rows, read with --normalize: exact input with no float formatting involved.
POINTS = "".join(f"{i % 5 - 2},{3 * i % 7 - 3},{5 * i % 11 - 5},1\n" for i in range(12))

#: case -> steps of (argv, written files); a step whose argv starts with a simulator command gets --threads.
CASES = {
    "bounds": [
        ("bounds --n 800 --delta 0.2 --eps 0.01 --eps1 0.5 --eps2 0.1 --m 150 --out bounds.csv", ["bounds.csv"]),
        ("bounds --n 10 --eps 0.01 --m 7", []),
        ("bounds --n 100 --delta 0.2 --eps1 0.5 --eps2 0.1 --force", []),  # the notes of a forced run
    ],
    "oracle": [
        ("oracle birthday --n 10 --m 7", []),
        ("oracle rip_three --m 10 --delta 0.2", []),
        ("oracle rip_three --m 10 --delta 0.2 --boundary inclusive", []),
        ("oracle eta --n 10 --m 7", []),
        ("oracle birthday --n 100 --m 200", []),  # a fraction past Python's 4300-digit int-to-str limit
    ],
    "sweep": [
        ("sweep --n 10 --m-grid 4:14:2 --trials 3000 --seed 9 --out sweep.csv", ["sweep.csv"]),
        ("sweep --n 6 --m-grid 8:16:4 --delta 0.3 --trials 2000 --seed 2 --eta-form general", []),
        ("sweep --points pts.csv --normalize --m-grid 3:9:3 --trials 1500 --seed 4", []),
    ],
    "simulate": [
        ("simulate --points pts.csv --normalize --m 12 --delta 0.4 --trials 5000 --seed 5 --out sim.csv", ["sim.csv"]),
        ("simulate --points pts.csv --normalize --m 8 --trials 5000 --seed 6", []),
        ("simulate --n 20 --m 40 --delta 0.3 --trials 3000 --seed 8", []),
    ],
    "figure": [
        ("figure --n 100 --force --m-grid 40:60:10 --trials 20 --seed 5 --out fig", ["fig.csv", "fig.svg"]),
    ],
    "embed_check": [
        ("embed --points pts.csv --normalize --m 16 --seed 11 --codes codes.bin --out pairs.csv --hexdump",
         ["codes.bin", "pairs.csv"]),
        ("check --points pts.csv --normalize --codes codes.bin --delta 0.3", []),
        ("check --points pts.csv --normalize --codes codes.bin", []),
    ],
}

SIMULATORS = {"simulate", "sweep", "figure"}


def run_case(case: str, threads: int, workdir: Path, read_stdout) -> dict[str, bytes]:
    """The case's transcript and written files, run in workdir; read_stdout() returns what was printed since its last call."""
    (workdir / "pts.csv").write_text(POINTS, encoding="utf-8")
    transcript, files = [], {}
    for command, written in CASES[case]:
        argv = command.split()
        extra = ["--threads", str(threads)] if argv[0] in SIMULATORS else []
        code = cli.main(argv + extra)
        transcript.append(f"$ onebit {command}  -> exit {code}\n{read_stdout()}")
        files.update((name, (workdir / name).read_bytes()) for name in written)
    files["stdout"] = "".join(transcript).encode("utf-8")
    return files


@pytest.mark.parametrize("case, threads", [
    (case, threads)
    for case, steps in sorted(CASES.items())
    for threads in ((1, 2) if any(command.split()[0] in SIMULATORS for command, _ in steps) else (1,))
])
def test_matches_golden(case, threads, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    outputs = run_case(case, threads, tmp_path, lambda: capsys.readouterr().out)
    expected = {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}
    assert sorted(outputs) == sorted(expected)
    for name, data in outputs.items():
        assert data == expected[name], f"{case}/{name} differs from its golden"


def record_goldens() -> None:
    """Run every case at --threads 1 and write its outputs over tests/golden/<case>/."""
    import contextlib
    import io
    import os
    import tempfile

    def read_stdout():
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    os.environ.pop(cli.SEED_ENV_VAR, None)
    here = os.getcwd()
    for case in sorted(CASES):
        buffer = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buffer):
            os.chdir(tmp)
            try:
                outputs = run_case(case, 1, Path(tmp), read_stdout)
            finally:
                os.chdir(here)
        (GOLDEN / case).mkdir(parents=True, exist_ok=True)
        for name, data in outputs.items():
            (GOLDEN / case / name).write_bytes(data)
        print(f"recorded {case}: {', '.join(sorted(outputs))}")


if __name__ == "__main__":
    record_goldens()
