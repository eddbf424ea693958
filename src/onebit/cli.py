"""Command-line surface: bound tables, embeddings, property checks, simulations, the phase figure.

Exit codes: 0 success / property holds, 1 usage error, or stdout closed
by its reader (as by `| head`; nothing more is printed), 2 property-check
failure, 3 validity-range error (point count below a formula's proven
range without --force), 130 interrupted (as by Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import secrets
import sys

import numpy as np

from . import bounds as bnd
from .bounds import ValidityRangeError
from .embedding import (
    BOUNDARIES,
    CodeSet,
    check_one_to_one,
    check_rip,
    code_set_hexdump,
    embed_points,
    pack_bits,
    pair_stream,
    read_code_set,
    rip_failures,
    sample_map,
    write_code_set,
)
from .geometry import read_point_set
from .montecarlo import (
    TrialConfig,
    check_budget,
    default_phase_grid,
    first_upward_crossing,
    rows_csv,
    run_trials,
    sweep,
)
from .oracles import RIP_THREE_MAX_M, birthday_exact, eta_comparison, rip_exact_three

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_VALIDITY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command it interrupted

SEED_ENV_VAR = "ONEBIT_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_threads() -> int:
    return max(1, os.cpu_count() or 1)


def _at_least(name: str, lo: int):
    """The type of an integer flag whose domain is name >= lo: any other value is a usage error before a file is opened."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"{name} must be >= {lo}, got {value}")
        return value

    return parse


_POINT_COUNT, _CODE_LENGTH = _at_least("n", 2), _at_least("m", 1)
_TRIALS, _THREADS = _at_least("trials", 1), _at_least("threads", 1)


def _unit_interval(text: str) -> float:
    """The type of --delta and every --eps*: a float in the open interval (0, 1), which nan and inf are not."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _rip_delta(text: str) -> float:
    """The type of sweep's --delta: a float in (0, 1/2), the domain of the rip window every row of the sweep carries."""
    value = _unit_interval(text)
    if not value < 0.5:
        raise argparse.ArgumentTypeError(f"delta must lie in (0, 1/2), got {value}")
    return value


def _path(text: str) -> str:
    """The type of every --points, --codes and --out: a path, which "" is not."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file, got ''")
    return text


def _refuse_shared_paths(args) -> None:
    """A command's --points, --codes and --out must be different files: one output would replace another file
    of the same command. "-" and unset flags name no file."""
    named = {}
    for flag in ("points", "codes", "out"):
        path = getattr(args, flag, None)
        if path is None or path == "-":
            continue
        other = named.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ValueError(f"--{other} and --{flag} name the same file: {path}")


def _default_trials(n: int) -> int:
    return 100_000 if n <= 100 else 200


def _resolve_seed(args) -> int:
    """--seed wins, then ONEBIT_SEED, then system entropy; always echoed on stderr."""
    env = os.environ.get(SEED_ENV_VAR)
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif env is not None:
        try:
            seed, source = int(env), SEED_ENV_VAR
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    else:
        seed, source = secrets.randbits(62), "system entropy"
    if seed < 0:
        raise ValueError(f"{source} must be non-negative, got {seed}")
    print(f"effective seed: {seed}", file=sys.stderr)
    return seed


def _parse_m_grid(text: str) -> list[int]:
    """The type of --m-grid: lo:hi:step with 1 <= lo <= hi and step >= 1, a nonempty strictly increasing grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"parts must be integers, got {text!r}") from None
    if lo < 1 or hi < lo or step < 1:
        raise argparse.ArgumentTypeError(f"needs 1 <= lo <= hi and step >= 1, got {text!r}")
    return list(range(lo, hi + 1, step))


def _point_set(args):
    """The --points file, read for check, simulate or sweep, whose properties are of pairs: at least 2 rows."""
    points = read_point_set(args.points, normalize=args.normalize)
    if points.n < 2:
        raise ValueError(f"--points needs at least 2 rows, got {points.n}")
    return points


@contextlib.contextmanager
def _output(path, mode: str):
    """A text ("w") or binary ("wb") stream to path, or stdout for None or "-". A path is written to .<name>.<pid>.tmp
    beside it, which replaces it (a symlink's target, keeping its mode bits) when the block ends and is deleted if the
    block raises, so a failed run leaves it as it was; one that exists but is not a regular file is written in place."""
    encoding = None if "b" in mode else "utf-8"
    if path is None or path == "-":
        yield sys.stdout.buffer if encoding is None else sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, mode, encoding=encoding) as f:
            yield f
        return
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        f = open(tmp, mode.replace("w", "x"), encoding=encoding)
    except OSError as exc:
        # Named as given, unless it is a temporary file a killed run of the same pid left behind.
        raise OSError(exc.errno, exc.strerror, tmp if isinstance(exc, FileExistsError) else path) from None
    try:
        with f:
            if os.path.isfile(target):
                os.chmod(f.fileno(), os.stat(target).st_mode & 0o7777)
            yield f
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------- pair rows
#
# A pair row is text in uint32 words: 4 ASCII bytes each, NUL-padded, so every
# field and literal fills whole words of a row array, and dropping the NULs of
# the array's bytes leaves the rows' text.

#: Pairs per write of _write_pairs, and the rows of its one row buffer: with the formatter's temporaries and the
#: text, a write holds 240-380 bytes a pair, at most about 3 MB, whatever the sizes of the slabs it gathers.
_PAIRS_PER_WRITE = 1 << 13
_ALL = np.uint32(0xFFFFFFFF)  # the mask that keeps a whole word


def _words(text: str) -> np.ndarray:
    raw = text.encode("ascii")
    return np.frombuffer(raw + b"\0" * (-len(raw) % 4), dtype=np.uint32)


def _byte_words(byte_rows) -> np.ndarray:
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint32)[:, 0]


def _spelled(texts: list[str]) -> np.ndarray:
    """The ASCII texts as the rows of a uint32 array, NUL-padded to as many words as the longest takes."""
    raw = np.array(texts, dtype=np.bytes_)
    return raw.astype(f"S{-(-raw.itemsize // 4) * 4}").view(np.uint32).reshape(len(texts), -1)


@functools.cache  # built at first use, not at import: only embed and a failing check print pair rows
def _quads() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The words "0000".."9999"; the masks that keep each one's digits up to its last nonzero one; and the heads
    "0." and "-0." with the first of 3 zero slots filled for z = 3 (see _float_words)."""
    digits = np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
    trail = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    heads = np.array([_words(sign + "0." + zero)[0] for sign in ("", "-") for zero in ("\0", "\0", "\0", "0")])
    tables = _byte_words(digits + ord("0")), _byte_words(trail * np.uint8(0xFF)), heads
    for table in tables:
        table.setflags(write=False)  # cached, so every caller shares them
    return tables


#: Per count z of zeros after the point, the mask of the first digit word "00dd" that keeps z of its 2 zero slots.
_ZERO_SLOTS = _byte_words([[0, 0, 255, 255], [0, 255, 255, 255], [255] * 4, [255] * 4])
#: Per z, 10**(10 + z): scales a value 10**-(1 + z) <= |x| < 10**-z to 10 digits before the point (exact doubles).
_TEN_DIGITS = np.array([1e10, 1e11, 1e12, 1e13])


def _float_words(x: np.ndarray, out: np.ndarray) -> None:
    """Write format(v, ".10g") of each double v of x, NUL-padded, into the 5 word columns of out.

    For 1e-4 <= |v| < 1 with z zeros after the point, the digits are d = rint(|v| * 10**(10 + z)):
    the scale is an exact double and the product is rounded once, so it lies on the same side of
    every half-integer as the exact product, and d is the correctly rounded 10 digits unless the
    product is itself a half-integer. Those, and every other v (0, -0, |v| >= 1, the exponent form,
    d rounded up to 11 digits), are formatted by format itself.
    """
    quads, trail, heads = _quads()
    a = np.minimum(np.abs(x), 1.0)
    z = (a < 1e-1).view(np.int8) + (a < 1e-2).view(np.int8)
    z += (a < 1e-3).view(np.int8)
    y = a * _TEN_DIGITS[z]
    d = np.rint(y)
    fast = np.abs(y - d) != 0.5
    fast &= d < 1e10
    fast &= a >= 1e-4
    d[~fast] = 1e9
    low = d.astype(np.int64)
    high = low // 100_000_000
    low -= high * 100_000_000
    mid = low // 10_000
    low -= mid * 10_000
    out[:, 0] = heads[(x < 0).view(np.int8) * 4 + z]
    out[:, 1] = quads[high] & _ZERO_SLOTS[z]  # "00" and the first 2 digits
    out[:, 2] = quads[mid]
    out[:, 3] = quads[low] & trail[low]
    out[:, 4] = 0
    nonzero = low != 0
    out[:, 2] &= np.where(nonzero, _ALL, trail[mid])
    nonzero |= mid != 0
    out[:, 1] &= np.where(nonzero, _ALL, trail[high])
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([format(v, ".10g") for v in x[slow].tolist()], dtype="S20")
        out[slow] = text.view(np.uint32).reshape(-1, 5)


def _write_pairs(f, literals: tuple[str, ...], n: int, m: int, slabs) -> None:
    """Write one row per pair of the slabs (i, j, h, g), arrays of indices below n, differing-bit counts of m
    and geodesics: the six literals around i, j, h/m, g and h/m - g, the floats as %.10g prints them.

    The indices and h/m are spelled once each, with the literals around them, into tables the pairs index;
    only g and h/m - g are formatted per pair. The rows are gathered into one buffer of _PAIRS_PER_WRITE rows,
    which goes out as one string whenever it is full, a slab split across writes if it does not fit; no pairs
    write nothing.
    """
    head, after_i, after_j, after_h, after_g, end = literals
    # The m + 1 rows of h/m are spelled as counts first occur: all of them would be m + 1 format calls, 10**6 for a
    # failing check of a few long codes. %.10g of a value in [0, 1] takes at most 15 characters.
    tables = [_spelled([f"{head}{k}{after_i}" for k in range(n)]), _spelled([f"{k}{after_j}" for k in range(n)]),
              np.zeros((m + 1, -(-(15 + len(after_h)) // 4)), dtype=np.uint32)]
    spelled = np.zeros(m + 1, dtype=bool)
    tail, end = _words(after_g), _words(end)
    at = np.cumsum([0] + [t.shape[1] for t in tables] + [5, len(tail), 5, len(end)])  # each field's first column
    rows = np.empty((_PAIRS_PER_WRITE, at[-1]), dtype=np.uint32)
    rows[:, at[4] : at[5]], rows[:, at[6] :] = tail, end
    # Each table row, and its columns of the buffer, as one item of that many bytes: a gather moves whole items.
    items = [(t.view(f"V{4 * (b - a)}")[:, 0], rows[:, a:b].view(f"V{4 * (b - a)}")[:, 0])
             for t, a, b in zip(tables, at, at[1:])]
    floats = np.empty((2, _PAIRS_PER_WRITE))  # g and h/m - g

    def flush(k: int) -> None:
        for x, a in zip(floats, at[[3, 5]]):
            _float_words(x[:k], rows[:k, a : a + 5])
        f.write(rows[:k].tobytes().translate(None, b"\0").decode("ascii"))

    filled = 0
    for i, j, h, g in slabs:
        lo = 0
        while lo < len(i):
            k = min(_PAIRS_PER_WRITE - filled, len(i) - lo)
            part, to = slice(lo, lo + k), slice(filled, filled + k)
            known = spelled[h[part]]
            if not known.all():
                new = list(set(h[part][~known].tolist()))  # not np.unique: its first call imports numpy.ma
                words = _spelled([f"{c / m:.10g}{after_h}" for c in new])
                tables[2][new, : words.shape[1]] = words
                spelled[new] = True
            for (table, column), v in zip(items, (i, j, h)):
                column[to] = table[v[part]]
            floats[:, to] = g[part], h[part] / m - g[part]
            lo, filled = lo + k, filled + k
            if filled == _PAIRS_PER_WRITE:
                flush(filled)
                filled = 0
    if filled:
        flush(filled)


# ---------------------------------------------------------------- bounds

def _cmd_bounds(args) -> int:
    if args.out == "-":
        raise ValueError("--out - would write the CSV to stdout, which already carries the table or the --m window")
    n = args.n
    rip_delta = args.delta if args.delta is not None and args.delta < 0.5 else None  # rip formulas need delta < 1/2
    reports: list[bnd.BoundsReport] = []
    trailer: list[str] = []

    if args.eps is not None and args.delta is not None:
        reports.append(bnd.m_injective(n, args.eps, args.delta))
    if args.eps is not None:
        reports.append(bnd.m_injective_orthogonal(n, args.eps))
    if args.eps is not None and rip_delta is not None:
        reports.append(bnd.m_rip_union(n, args.eps, args.delta))
    if args.delta is not None:
        reports.append(bnd.m_linear_jl(n, args.delta))

    if args.eps1 is not None and args.eps2 is not None:
        reports += bnd.one_to_one_m_window(n, args.eps1, args.eps2, force=args.force)
        if rip_delta is not None:
            reports += bnd.rip_m_window(n, args.delta, args.eps1, args.eps2, force=args.force)
            q = bnd.rate_constant(args.delta)
            trailer.append(f"q (rate constant) = {q:.10g}   [1/(2 delta^2) = {1.0 / (2 * args.delta**2):.10g}]")

    if not reports and args.m is None:
        raise ValueError("nothing to evaluate: pass --eps and/or --delta (and --eps1/--eps2 for transition windows)")
    window = None if args.m is None else bnd.window_csv(n, args.m, args.delta)  # before any output: it may refuse delta

    if args.out:  # before the table is printed: a file that cannot be written leaves stdout empty
        with _output(args.out, "w") as f:
            f.write(bnd.bounds_reports_csv(reports))
    if reports:
        width = max(len(r.formula_id) for r in reports)
        lines = []
        for r in reports:
            note = f"  ({r.validity_note})" if r.validity_note else ""
            lines.append(f"{r.formula_id:<{width}}  m_value = {r.m_value:<16.10g} m_int = {r.m_int}{note}")
        print("\n".join(lines + trailer))
    if window is not None:
        if reports:
            print()
        print(window, end="")
    return EXIT_OK


# ---------------------------------------------------------------- embed

def _cmd_embed(args) -> int:
    if [args.codes, args.out, args.hexdump and "-"].count("-") > 1:
        raise ValueError("--codes -, --out - and --hexdump all write to stdout: only one of them can be given")
    seed = _resolve_seed(args)
    points = read_point_set(args.points, normalize=args.normalize)
    table = _output(args.out, "w") if args.out else contextlib.nullcontext()
    with _output(args.codes, "wb") as codes_file, table as f:
        codes = CodeSet(pack_bits(embed_points(sample_map(args.m, points.dim, seed), points)), args.m)
        write_code_set(codes, codes_file)
        wrote = f"wrote {codes.n} codes of length {codes.m} to {args.codes}"
        if f:
            # Written as pair_stream's slabs come, so neither the table nor a distance matrix is held whole: a slab's
            # pairs take about 50 bytes each flattened, and _write_pairs gathers them into its bounded row buffer.
            def pairs():
                for lo, h, g in pair_stream(codes, points):
                    r, c = np.nonzero(np.arange(h.shape[1]) > np.arange(len(h))[:, None])
                    yield lo + r, lo + c, h[r, c], g[r, c]

            f.write("i,j,hamming,geodesic,deviation\n")
            _write_pairs(f, ("", ",", ",", ",", ",", "\n"), codes.n, codes.m, pairs())
            wrote += f"; pair table to {args.out}"
    print(wrote, file=sys.stderr)  # after the table: a reader that closes stdout early sees only the seed line
    if args.hexdump:
        sys.stdout.write(code_set_hexdump(codes))
    return EXIT_OK


# ---------------------------------------------------------------- check

def _cmd_check(args) -> int:
    points = _point_set(args)
    codes = read_code_set(args.codes)
    if codes.n != points.n:
        raise ValueError(f"--codes has {codes.n} codes but --points has {points.n} points")

    if args.delta is not None:  # a failing check walks the pairs again to list them, one slab at a time
        failing, max_dev = check_rip(codes, points, args.delta, boundary=args.boundary)
        print(f"delta = {args.delta}, boundary = {args.boundary}")
        print(f"max deviation = {max_dev:.10g}")
        if not failing:
            print("RIP check: PASS")
            return EXIT_OK
        print(f"RIP check: FAIL ({failing} violating pairs)")
        row = ("  pair (", ", ", "): hamming=", " geodesic=", " deviation=", "\n")
        slabs = rip_failures(codes, points, args.delta, boundary=args.boundary)
        _write_pairs(sys.stdout, row, codes.n, codes.m, (slab[:4] for slab in slabs))
        return EXIT_CHECK_FAILED

    groups = check_one_to_one(codes)
    if not groups:
        print("one-to-one check: PASS")
        return EXIT_OK
    print(f"one-to-one check: FAIL ({sum(len(g) * (len(g) - 1) // 2 for g in groups)} colliding pairs)")
    # Pairs (i, j) in order: each code i of a group, by index, with the codes after it in its group.
    for i, later in sorted(((int(g[k]), g[k + 1 :]) for g in groups for k in range(len(g) - 1)), key=lambda t: t[0]):
        sys.stdout.write(f"  codes {i} and %d are equal\n" * len(later) % tuple(later.tolist()))
    return EXIT_CHECK_FAILED


# ---------------------------------------------------------------- simulate / sweep

def _build_config(args, grid: list[int], seed: int) -> TrialConfig:
    """The config of grid[0]; an estimate over budget at any m of grid is refused here, before any trial runs."""
    points = None
    n = args.n
    if getattr(args, "points", None):
        points = _point_set(args)
        if n is not None and n != points.n:
            raise ValueError(f"--n {n} contradicts --points with {points.n} rows")
        n = points.n
    if n is None:
        raise ValueError("--n is required (or pass --points)")
    trials = args.trials if args.trials is not None else _default_trials(n)
    config = TrialConfig(
        n=n,
        m=grid[0],
        trials=trials,
        base_seed=seed,
        delta=args.delta,
        boundary=args.boundary,
        points=points,
    )
    for m in grid:
        check_budget(dataclasses.replace(config, m=m))
    return config


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    config = _build_config(args, [args.m], seed)
    with _output(args.out, "w") as f:
        row = run_trials(config, threads=args.threads)
        f.write(rows_csv((row,)))
    print(f"p_hat = {row.p_hat:.6g} [{row.ci_lo:.6g}, {row.ci_hi:.6g}] in {row.wall_time:.2f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.delta is not None and args.eta_form not in (None, "general"):
        raise ValueError("rip windows exist only in the general form")
    seed = _resolve_seed(args)
    config = _build_config(args, args.m_grid, seed)
    with _output(args.out, "w") as f:
        f.write(rows_csv(sweep(config, args.m_grid, threads=args.threads, eta_form=args.eta_form)))
    return EXIT_OK


# ---------------------------------------------------------------- figure

def _svg_x(m, m_lo, m_hi, left, right):
    return left + (m - m_lo) / (m_hi - m_lo) * (right - left)


def _svg_y(p, top, bottom):
    return bottom - p * (bottom - top)


def render_phase_svg(rows, vline_red: float, vline_green: float, title: str) -> str:
    """Empirical curve as a single polyline, plus two labeled vertical rules.

    The red rule marks the closed-form m for the eps1 threshold, the green
    rule the closed-form m for eps2, matching the simulation figure layout.
    ``title`` goes into the SVG as is, so it must hold no markup characters
    (the figure's title is numbers and fixed words).
    """
    width, height = 720, 480
    left, right, top, bottom = 70, width - 30, 56, height - 56
    ms = [r.m for r in rows]
    m_lo = min(ms + [vline_red, vline_green])
    m_hi = max(ms + [vline_red, vline_green])
    span = m_hi - m_lo
    m_lo -= 0.02 * span
    m_hi += 0.02 * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="13">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _svg_y(frac, top, bottom)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{right}" y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">{frac:g}</text>')
    n_ticks = 6
    for k in range(n_ticks + 1):
        m = m_lo + k / n_ticks * (m_hi - m_lo)
        x = _svg_x(m, m_lo, m_hi, left, right)
        parts.append(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{bottom + 20}" text-anchor="middle">{m:.0f}</text>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>')
    parts.append(f'<text x="{(left + right) / 2:.1f}" y="{height - 14}" text-anchor="middle">m</text>')
    parts.append(f'<text x="18" y="{(top + bottom) / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {(top + bottom) / 2:.1f})">estimated probability</text>')

    for value, color, tag in ((vline_red, "red", "eps1 closed form"), (vline_green, "green", "eps2 closed form")):
        x = _svg_x(value, m_lo, m_hi, left, right)
        parts.append(f'<line class="rule" x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{bottom}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text class="rule-label" x="{x + 4:.1f}" y="{top + 14}" fill="{color}">'
                     f'{tag}: m={value:.1f}</text>')

    pts = " ".join(
        f"{_svg_x(r.m, m_lo, m_hi, left, right):.2f},{_svg_y(r.p_hat, top, bottom):.2f}" for r in rows
    )
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_figure(args) -> int:
    seed = _resolve_seed(args)
    closed_forms = bnd.rip_m_window(args.n, args.delta, args.eps1, args.eps2, force=args.force)
    m_eps1, m_eps2 = closed_forms[0].m_value, closed_forms[1].m_value
    grid = args.m_grid or default_phase_grid(m_eps1, m_eps2)
    config = _build_config(args, grid, seed)

    base = args.out.removesuffix(".svg").removesuffix(".csv")
    csv_path = base + ".csv"
    svg_path = base + ".svg"
    with _output(csv_path, "w") as csv_file, _output(svg_path, "w") as svg_file:
        rows = sweep(config, grid, threads=args.threads)
        csv_file.write(rows_csv(rows))
        title = f"delta-band isometry probability, n={args.n}, delta={args.delta}, {config.trials} trials/m"
        svg_file.write(render_phase_svg(rows, m_eps1, m_eps2, title))

    crossing = first_upward_crossing(rows)
    print(f"closed-form m: eps1={args.eps1} -> {m_eps1:.4g}, eps2={args.eps2} -> {m_eps2:.4g}")
    print(f"empirical 0.5-crossing: m ~ {crossing:.4g}")
    print(f"wrote {csv_path} and {svg_path}")
    return EXIT_OK


# ---------------------------------------------------------------- oracle

#: The flags each oracle needs, in the order its usage error names them.
_ORACLE_FLAGS = {"birthday": ("n", "m"), "rip_three": ("m", "delta"), "eta": ("n", "m")}


def _cmd_oracle(args) -> int:
    needed = _ORACLE_FLAGS[args.which]
    if any(getattr(args, flag) is None for flag in needed):
        raise ValueError(f"oracle {args.which} needs " + " and ".join(f"--{flag}" for flag in needed))
    if args.which == "rip_three" and args.m > RIP_THREE_MAX_M:  # --m is shared with birthday and eta, which take any m
        raise ValueError(f"oracle rip_three needs --m <= {RIP_THREE_MAX_M}, got {args.m}")
    if args.which == "birthday":
        p = birthday_exact(args.n, args.m)
        print(f"{p.float_value:.10g} = {p.fraction_string()}")
    elif args.which == "rip_three":
        p = rip_exact_three(args.m, args.delta, boundary=args.boundary)
        print(f"{p.float_value:.10g} = {p.fraction_string()}")
    else:
        rep = eta_comparison(args.n, args.m)
        print(f"exact          = {rep.exact.float_value:.10g} = {rep.exact.fraction_string()}")
        print(f"poisson        = {rep.poisson_estimate:.10g}")
        print(f"deviation      = {rep.deviation:.10g}")
        print(f"eta (pairwise) = {rep.eta_pairwise:.10g}  contains deviation: {rep.within_pairwise}")
        print(f"eta (general)  = {rep.eta_general:.10g}  contains deviation: {rep.within_general}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def _add_common_sim_flags(p: _Parser) -> None:
    p.add_argument("--trials", type=_TRIALS, default=None, help="trials per estimate (default: 100000 for n<=100, else 200)")
    p.add_argument("--seed", type=int, default=None, help=f"base seed (default: ${SEED_ENV_VAR} or system entropy)")
    p.add_argument("--threads", type=_THREADS, default=_default_threads(),
                   help="worker threads (output is thread-count independent)")
    p.add_argument("--boundary", choices=BOUNDARIES, default="strict",
                   help="does a deviation exactly equal to delta pass (strict) or fail (inclusive)")
    p.add_argument("--out", type=_path, default=None, help="output CSV path (default: stdout)")


@functools.cache  # built once per process: building it is most of a short command's time
def build_parser() -> _Parser:
    parser = _Parser(prog="onebit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bounds", parents=[], help="evaluate closed-form code-length bounds", add_help=True)
    p.add_argument("--n", type=_POINT_COUNT, required=True)
    p.add_argument("--delta", type=_unit_interval, default=None)
    p.add_argument("--eps", type=_unit_interval, default=None)
    p.add_argument("--eps1", type=_unit_interval, default=None)
    p.add_argument("--eps2", type=_unit_interval, default=None)
    p.add_argument("--m", type=_CODE_LENGTH, default=None, help="also print the probability window at this m")
    p.add_argument("--force", action="store_true", help="evaluate transition formulas below their proven n")
    p.add_argument("--out", type=_path, default=None, help="also write the table as CSV to this file (not '-')")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("embed", help="embed a points CSV through a seeded random map")
    p.add_argument("--points", type=_path, required=True)
    p.add_argument("--m", type=_CODE_LENGTH, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--codes", type=_path, required=True, help="output path for the binary code set")
    p.add_argument("--out", type=_path, default=None, help="also write the O(n^2) pair table CSV ('-' for stdout)")
    p.add_argument("--normalize", action="store_true", help="rescale input rows to unit norm")
    p.add_argument("--hexdump", action="store_true", help="also print codes as hex")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("check", help="check codes against points: band isometry (--delta) or one-to-one")
    p.add_argument("--points", type=_path, required=True)
    p.add_argument("--codes", type=_path, required=True)
    p.add_argument("--delta", type=_unit_interval, default=None)
    p.add_argument("--boundary", choices=BOUNDARIES, default="strict")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="one Monte Carlo estimate (mode: rip when --delta given, else injectivity)")
    p.add_argument("--n", type=_POINT_COUNT, default=None)
    p.add_argument("--m", type=_CODE_LENGTH, required=True)
    p.add_argument("--delta", type=_unit_interval, default=None)
    p.add_argument("--points", type=_path, default=None, help="explicit point set (default: orthogonal fast path)")
    p.add_argument("--normalize", action="store_true")
    _add_common_sim_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="estimates over an m grid with analytic windows attached")
    p.add_argument("--n", type=_POINT_COUNT, default=None)
    p.add_argument("--m-grid", type=_parse_m_grid, required=True, help="lo:hi:step, inclusive")
    p.add_argument("--delta", type=_rip_delta, default=None)
    p.add_argument("--points", type=_path, default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--eta-form", choices=bnd.ETA_FORMS, default=None,
                   help="window width form for injectivity sweeps (default pairwise)")
    _add_common_sim_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="phase-transition figure: sweep CSV + SVG with closed-form rules")
    p.add_argument("--n", type=_POINT_COUNT, default=800)
    p.add_argument("--delta", type=_unit_interval, default=0.2)
    p.add_argument("--eps1", type=_unit_interval, default=0.5)
    p.add_argument("--eps2", type=_unit_interval, default=0.1)
    p.add_argument("--m-grid", type=_parse_m_grid, default=None, help="override the default 20-point grid")
    p.add_argument("--trials", type=_TRIALS, default=200, help="trials per m (default 200)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=_THREADS, default=_default_threads())
    p.add_argument("--boundary", choices=BOUNDARIES, default="strict")
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", type=_path, default="phase_figure", help="output base path (writes BASE.csv and BASE.svg)")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("oracle", help="exact probabilities as fractions and decimals")
    p.add_argument("which", choices=_ORACLE_FLAGS)
    p.add_argument("--n", type=_POINT_COUNT, default=None)
    p.add_argument("--m", type=_CODE_LENGTH, default=None)
    p.add_argument("--delta", type=_unit_interval, default=None)
    p.add_argument("--boundary", choices=BOUNDARIES, default="strict")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _refuse_shared_paths(args)
        return args.func(args)
    except ValidityRangeError as exc:
        print(f"onebit: validity range: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except KeyboardInterrupt:
        print("onebit: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:  # an OSError, but the reader has stopped reading: not an error to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit writes nowhere
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"onebit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
