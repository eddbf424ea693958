"""Command-line surface: bound tables, embeddings, property checks, simulations, the phase figure.

Exit codes: 0 success / property holds, 1 usage error, 2 property-check
failure, 3 validity-range error (point count below a formula's proven
range without --force).
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
from .oracles import birthday_exact, eta_comparison, rip_exact_three

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_VALIDITY = 3

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
def _text_out(path_or_dash):
    """A text stream to the file, or to stdout for None or "-"."""
    if path_or_dash is None or path_or_dash == "-":
        yield sys.stdout
    else:
        with open(path_or_dash, "w", encoding="utf-8") as f:
            yield f


# ---------------------------------------------------------------- bounds

def _cmd_bounds(args) -> int:
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

    if reports:
        width = max(len(r.formula_id) for r in reports)
        lines = []
        for r in reports:
            note = f"  ({r.validity_note})" if r.validity_note else ""
            lines.append(f"{r.formula_id:<{width}}  m_value = {r.m_value:<16.10g} m_int = {r.m_int}{note}")
        print("\n".join(lines + trailer))

    if args.out:
        with _text_out(args.out) as f:
            f.write(bnd.bounds_reports_csv(reports))
    if window is not None:
        if reports:
            print()
        print(window, end="")
    return EXIT_OK


# ---------------------------------------------------------------- embed

def _cmd_embed(args) -> int:
    if args.out == "-" and args.hexdump:
        raise ValueError("--out - and --hexdump would both write to stdout: the pair table would end in non-CSV lines")
    seed = _resolve_seed(args)
    points = read_point_set(args.points, normalize=args.normalize)
    codes = CodeSet(pack_bits(embed_points(sample_map(args.m, points.dim, seed), points)), args.m)
    write_code_set(codes, args.codes)

    out = args.out if args.out else str(args.codes) + ".pairs.csv"
    # Written a row of a pair_stream slab at a time, so neither the table nor a distance matrix is held whole.
    # The m + 1 hamming fields are formatted once; each row is one %-operation over its pairs,
    # and %.10g prints the same digits as format(x, ".10g").
    hamming = np.array([f"{h / codes.m:.10g}" for h in range(codes.m + 1)], dtype=object)
    with _text_out(out) as f:
        f.write("i,j,hamming,geodesic,deviation\n")
        for lo, slab_h, slab_g in pair_stream(codes, points):
            for r in range(len(slab_h)):
                i, h, dg = lo + r, slab_h[r, r + 1 :], slab_g[r, r + 1 :]
                fields = [None] * (4 * len(h))
                fields[0::4] = range(i + 1, codes.n)
                fields[1::4] = hamming[h].tolist()
                fields[2::4] = dg.tolist()
                fields[3::4] = (h / codes.m - dg).tolist()
                f.write(f"{i},%d,%s,%.10g,%.10g\n" * len(h) % tuple(fields))
    print(f"wrote {codes.n} codes of length {codes.m} to {args.codes}; pair table to {out}", file=sys.stderr)
    if args.hexdump:
        sys.stdout.write(code_set_hexdump(codes))
    return EXIT_OK


# ---------------------------------------------------------------- check

def _cmd_check(args) -> int:
    points = _point_set(args)
    codes = read_code_set(args.codes)
    if codes.n != points.n:
        raise ValueError(f"--codes has {codes.n} codes but --points has {points.n} points")

    if args.delta is not None:
        report = check_rip(codes, points, args.delta, boundary=args.boundary)
        print(f"delta = {args.delta}, boundary = {args.boundary}")
        print(f"max deviation = {report.max_deviation:.10g}")
        if not report.violations:
            print("RIP check: PASS")
            return EXIT_OK
        print(f"RIP check: FAIL ({len(report.violations)} violating pairs)")
        for v in report.violations:
            print(f"  pair {v.pair}: hamming={v.hamming:.10g} geodesic={v.geodesic:.10g} deviation={v.deviation:.10g}")
        return EXIT_CHECK_FAILED

    collisions = check_one_to_one(codes)
    if not collisions:
        print("one-to-one check: PASS")
        return EXIT_OK
    print(f"one-to-one check: FAIL ({len(collisions)} colliding pairs)")
    for i, j in collisions:
        print(f"  codes {i} and {j} are equal")
    return EXIT_CHECK_FAILED


# ---------------------------------------------------------------- simulate / sweep

def _build_config(args, grid: list[int], seed: int) -> TrialConfig:
    """The config of grid[0]; an estimate over budget at any m of grid is refused here, before an output file is opened."""
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
    with _text_out(args.out) as f:  # opened first, so an unwritable path fails before any trial runs
        row = run_trials(config, threads=args.threads)
        f.write(rows_csv((row,)))
    print(f"p_hat = {row.p_hat:.6g} [{row.ci_lo:.6g}, {row.ci_hi:.6g}] in {row.wall_time:.2f}s", file=sys.stderr)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.delta is not None and args.eta_form not in (None, "general"):
        raise ValueError("rip windows exist only in the general form")
    seed = _resolve_seed(args)
    config = _build_config(args, args.m_grid, seed)
    with _text_out(args.out) as f:
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

    base = str(args.out)
    for suffix in (".svg", ".csv"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    csv_path = base + ".csv"
    svg_path = base + ".svg"
    # Both files are opened before the sweep, so an unwritable path fails before any trial runs.
    with open(csv_path, "w", encoding="utf-8") as csv_file, open(svg_path, "w", encoding="utf-8") as svg_file:
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
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


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
    p.add_argument("--out", default=None, help="also write the table as CSV")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("embed", help="embed a points CSV through a seeded random map")
    p.add_argument("--points", required=True)
    p.add_argument("--m", type=_CODE_LENGTH, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--codes", required=True, help="output path for the binary code set")
    p.add_argument("--out", default=None, help="pairwise-distance CSV path (default: CODES.pairs.csv)")
    p.add_argument("--normalize", action="store_true", help="rescale input rows to unit norm")
    p.add_argument("--hexdump", action="store_true", help="also print codes as hex")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("check", help="check codes against points: band isometry (--delta) or one-to-one")
    p.add_argument("--points", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--delta", type=_unit_interval, default=None)
    p.add_argument("--boundary", choices=BOUNDARIES, default="strict")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="one Monte Carlo estimate (mode: rip when --delta given, else injectivity)")
    p.add_argument("--n", type=_POINT_COUNT, default=None)
    p.add_argument("--m", type=_CODE_LENGTH, required=True)
    p.add_argument("--delta", type=_unit_interval, default=None)
    p.add_argument("--points", default=None, help="explicit point set (default: orthogonal fast path)")
    p.add_argument("--normalize", action="store_true")
    _add_common_sim_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="estimates over an m grid with analytic windows attached")
    p.add_argument("--n", type=_POINT_COUNT, default=None)
    p.add_argument("--m-grid", type=_parse_m_grid, required=True, help="lo:hi:step, inclusive")
    p.add_argument("--delta", type=_unit_interval, default=None)
    p.add_argument("--points", default=None)
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
    p.add_argument("--out", default="phase_figure", help="output base path (writes BASE.csv and BASE.svg)")
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
        return args.func(args)
    except ValidityRangeError as exc:
        print(f"onebit: validity range: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except (ValueError, OSError) as exc:
        print(f"onebit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
