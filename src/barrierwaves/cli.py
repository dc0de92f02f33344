"""Command-line surface: field sampling, coefficient and supershift tables,
pointwise propagator values, and the self-check suite.

Commands
--------
validate    run every invariant suite, print a pass/fail table
field       sample the evolved field over a grid (CSV, optional PGM heatmap)
coeffs      tabulate operator coefficients at one (t, x)
supershift  run the superoscillation persistence experiment
greens      evaluate the propagator at one pair of points

Configuration may come from ``--config FILE`` (lines of ``key = value``,
``#`` comments) with command-line flags taking precedence.  A key is a
flag name with ``_`` for ``-`` (``plane_wave = 0.5,0.5`` stands for
``--plane-wave=0.5,0.5``) and its value goes through that flag's own
checks; keys that only other subcommands take are ignored.  Exit codes:
0 success, 1 runtime failure, 2 usage error.  Output files are written
through a temporary sibling and renamed, so failed runs leave nothing
behind.  The off-barrier points of a grid, in grid order, are split into
``--threads`` contiguous chunks; one chunk (``--threads 1``) runs on the
calling thread, several run in a thread pool.  Each chunk walks the node
ladder level by level for all its points at once, one kernel call per
level for the points that have not yet converged (in batches of at most
one 192x160 level's nodes).  Every point of the grid shares one radial
cutoff (that of its largest radius) and one node set per ladder level,
each level built once, under a lock, by whichever thread first needs it;
``--method operator`` sums the operator series order by order on those
nodes.  A point's arithmetic does not depend on its chunk or batch, so
repeated runs are byte-identical for any ``--threads`` value.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import CartesianPoint, PolarPoint, on_barrier, to_polar
from .greens import BoundaryKind, greens
from .evolve import (
    NonConvergence,
    PlaneWave,
    QuadratureSpec,
    TailBoundUnsatisfiable,
    TaylorField,
    _FresnelGrid,
    growth_envelope,
    psi_fresnel,  # noqa: F401  public as barrierwaves.cli.psi_fresnel; bench/tracing.py wraps it
)
from .operator import (
    N_CAP,
    TruncationInsufficient,
    _bound_table,
    # unused here: wrap targets of bench/tracing.py, held by tests/test_bench_contract.py
    apply_plane_wave,  # noqa: F401
    apply_taylor,  # noqa: F401
    build_table,
    truncation_order,
)
from .superosc import supershift_experiment
from .validate import run_suites

_FMT = "%.17g"


def _fmt_real(v) -> str:
    return _FMT % float(v)


def _parse_kind(text: str) -> BoundaryKind:
    try:
        return BoundaryKind[text.strip().upper()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"kind must be dirichlet or neumann, got {text!r}")


def _number_above(convert, lower, what: str):
    """An argparse type for a finite number above ``lower``: a bad value is
    a usage error before anything is computed.  Text that ``convert``
    rejects gets argparse's own message ("invalid float value")."""
    def parse(text: str):
        value = convert(text)
        if not lower < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{what} must be finite and above {lower:g}, got {text!r}")
        return value
    parse.__name__ = convert.__name__
    return parse


_parse_time = _number_above(float, 0.0, "time t")


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    try:
        pair = (complex(parts[0]), complex(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse pair {text!r}")
    if not all(cmath.isfinite(v) for v in pair):
        raise argparse.ArgumentTypeError(f"pair entries must be finite, got {text!r}")
    return pair


def _parse_polar(text: str) -> PolarPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected r,phi got {text!r}")
    try:
        return PolarPoint(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad point {text!r}: {exc}")


def _parse_axis(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"axis must be min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse axis {text!r}")
    if count < 2:
        raise argparse.ArgumentTypeError(f"axis count must be >= 2, got {count}")
    # a finite width needs finite bounds, and no overflow in hi - lo
    if not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"axis bounds and width must be finite, got {text!r}")
    if not hi > lo:
        raise argparse.ArgumentTypeError(f"axis needs max > min, got {text!r}")
    return (lo, hi, count)


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"grid must be x1min:x1max:n1,x2min:x2max:n2, got {text!r}")
    return (_parse_axis(parts[0]), _parse_axis(parts[1]))


def _parse_taylor(text: str) -> TaylorField:
    try:
        rows = [[complex(entry) for entry in line.split()]
                for line in text.split(";")]
        width = max(len(r) for r in rows)
        arr = np.zeros((len(rows), width), dtype=complex)
        for i, r in enumerate(rows):
            arr[i, :len(r)] = r
        return TaylorField(arr)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad polynomial spec {text!r}: {exc}")


def _parse_nlist(text: str):
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"orders must be positive integers, got {text!r}")
    return values


def _config_flags(path: str, parser: argparse.ArgumentParser, subparsers: dict, command: str) -> list:
    """The lines ``key = value`` of a config file as (line number,
    ``--key-with-dashes=value``) pairs, flags of ``command``.

    Keys of flags that only other subcommands take are dropped, so one file
    can serve every command; a key that no subcommand takes is a usage
    error.  Values are left to the flags' own argparse checks.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    # argparse keeps no public index of a parser's option strings
    taken = subparsers[command]._option_string_actions
    known = set().union(*(p._option_string_actions for p in subparsers.values()))
    known -= {"--config", "--help"}
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            parser.error(f"{path}:{lineno}: unknown key {key!r}")
        if flag in taken:
            flags.append((lineno, f"{flag}={text.strip()}"))
    return flags


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="barrierwaves",
        description="Schrodinger evolution outside a half-line barrier.")
    parser.add_argument("--config", metavar="FILE", help="key = value configuration file")
    sub = parser.add_subparsers(dest="command")
    subparsers = {}

    def add_config_flag(p):
        # SUPPRESS keeps an absent per-subcommand flag from clobbering a
        # --config given before the subcommand name
        p.add_argument("--config", metavar="FILE", default=argparse.SUPPRESS,
                       help="key = value configuration file")

    def add_quadrature_flags(p):
        p.add_argument("--alpha", type=float, help="contour rotation angle in (0, pi/2)")
        p.add_argument("--tol", type=float,
                       help="target accuracy; sets the radial cutoff and where the node ladder stops")

    p = subparsers["validate"] = sub.add_parser("validate", help="run the invariant suites")
    add_config_flag(p)

    p = subparsers["field"] = sub.add_parser("field", help="sample the evolved field on a grid")
    add_config_flag(p)
    p.add_argument("--kind", type=_parse_kind, default=BoundaryKind.DIRICHLET)
    p.add_argument("--t", type=_parse_time)
    p.add_argument("--grid", type=_parse_grid, help="x1min:x1max:n1,x2min:x2max:n2")
    p.add_argument("--x", type=_parse_polar, help="single polar point r,phi")
    p.add_argument("--plane-wave", type=_parse_pair, dest="plane_wave", metavar="K1,K2")
    p.add_argument("--taylor", type=_parse_taylor,
                   help="polynomial coefficients, rows split by ';', entries by spaces")
    p.add_argument("--method", choices=("quadrature", "operator"), default="quadrature")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--pgm", help="PGM heatmap output path")
    p.add_argument("--component", choices=("re", "im", "abs"), default="abs")
    p.add_argument("--gamma", type=_number_above(float, 0.0, "gamma"), default=1.0)
    p.add_argument("--threads", type=_number_above(int, 0, "threads"), default=1)
    add_quadrature_flags(p)

    p = subparsers["coeffs"] = sub.add_parser("coeffs", help="tabulate operator coefficients")
    add_config_flag(p)
    p.add_argument("--kind", type=_parse_kind, default=BoundaryKind.DIRICHLET)
    p.add_argument("--t", type=_parse_time)
    p.add_argument("--x", type=_parse_polar)
    p.add_argument("--order", type=int, help=f"table order N <= {N_CAP}")
    p.add_argument("--out", help="CSV output path")
    add_quadrature_flags(p)

    p = subparsers["supershift"] = sub.add_parser(
        "supershift", help="superoscillation persistence experiment")
    add_config_flag(p)
    p.add_argument("--kind", type=_parse_kind, default=BoundaryKind.DIRICHLET)
    p.add_argument("--t", type=_parse_time)
    p.add_argument("--x", type=_parse_polar)
    p.add_argument("--a", type=_number_above(float, 1.0, "target frequency a"), default=2.0)
    p.add_argument("--p1", type=_number_above(int, 0, "power p1"), default=1)
    p.add_argument("--p2", type=_number_above(int, 0, "power p2"), default=1)
    p.add_argument("--n-list", type=_parse_nlist, dest="n_list", default=(4, 8, 12, 16))
    p.add_argument("--out", help="CSV output path")
    add_quadrature_flags(p)

    p = subparsers["greens"] = sub.add_parser(
        "greens", help="evaluate the propagator at one point pair")
    add_config_flag(p)
    p.add_argument("--kind", type=_parse_kind, default=BoundaryKind.DIRICHLET)
    p.add_argument("--t", type=_parse_time)
    p.add_argument("--x", type=_parse_polar)
    p.add_argument("--y", type=_parse_polar)
    p.add_argument("--out", help="optional CSV output path")
    for p in subparsers.values():
        p.set_defaults(usage_error=p.error)
    return parser, subparsers


def _merge_dash_values(argv):
    """Join ``--flag value`` into ``--flag=value`` when the value starts with
    a single dash (negative grid bounds, phases...), which argparse would
    otherwise read as an option."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (token.startswith("--") and "=" not in token and nxt is not None
                and nxt.startswith("-") and not nxt.startswith("--")):
            merged.append(f"{token}={nxt}")
            skip = True
        else:
            merged.append(token)
    return merged


@functools.cache
def _parser():
    """The command-line parser and its subparsers, built on first use."""
    return _build_parser()


# parse_config switches the selected subparser's exit_on_error off while it
# reads a config file; callers in other threads must not see that
_PARSER_LOCK = threading.Lock()


def _command_args(argv):
    """The tokens after the subcommand name of a parsed command line.

    Before the name only ``--config FILE`` (or ``--config=FILE``) and its
    abbreviations can stand.
    """
    i = 0
    while argv[i].startswith("-"):
        i += 1 if "=" in argv[i] else 2
    return argv[i + 1:]


def parse_config(argv) -> argparse.Namespace:
    """Parse flags plus optional ``--config`` file; flags win over file values.

    The file's lines are parsed as the selected subcommand's own flags (a
    bad value is a usage error naming ``path:line``) into a namespace that
    starts from the subcommand's defaults, and the command line is parsed
    again on top of it, so anything given explicitly keeps precedence over
    the file.  The parser is built once per process and keeps no state
    from one call to the next.  ``usage_error`` on the result reports a
    usage error against the selected subcommand.
    """
    argv = _merge_dash_values(list(argv))
    parser, subparsers = _parser()
    with _PARSER_LOCK:
        cfg = parser.parse_args(argv)
        if cfg.command is None:
            parser.error("a command is required (validate, field, coeffs, supershift, greens)")
        if cfg.config:
            sub = subparsers[cfg.command]
            values = argparse.Namespace(command=cfg.command, config=cfg.config)
            # one line at a time, a bad value raising instead of exiting, so
            # that its message can name the file and line
            sub.exit_on_error = False
            try:
                for lineno, flag in _config_flags(cfg.config, parser, subparsers, cfg.command):
                    try:
                        sub.parse_args([flag], namespace=values)
                    except argparse.ArgumentError as exc:
                        sub.error(f"{cfg.config}:{lineno}: {exc}")
            finally:
                sub.exit_on_error = True
            # a namespace attribute that is already set takes no default
            cfg = sub.parse_args(_command_args(argv), namespace=values)
    if cfg.command != "validate" and cfg.t is None:
        cfg.usage_error("--t is required")
    return cfg


def _spec_from_cfg(cfg) -> QuadratureSpec:
    kwargs = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(QuadratureSpec)
              if getattr(cfg, f.name) is not None}
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        cfg.usage_error(str(exc))


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` through a temporary sibling renamed over ``path``, so a
    failed write leaves nothing behind."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(header, rows, path) -> None:
    """Comma-delimited, LF endings, reals at 17 significant digits.

    ``None`` entries become empty cells (grid points on the barrier).
    """
    parts = [",".join(header) + "\n"]
    for row in rows:
        cells = []
        for item in row:
            if item is None:
                cells.append("")
            elif isinstance(item, str):
                cells.append(item)
            elif isinstance(item, (int, np.integer)):
                cells.append(str(int(item)))
            else:
                cells.append(_fmt_real(item))
        parts.append(",".join(cells) + "\n")
    _write_atomic(path, "".join(parts).encode("ascii"))


def write_pgm(values, path, component="abs", gamma=1.0) -> None:
    """Binary 16-bit PGM of one component of a complex grid.

    ``values`` is a 2-D complex array in image order (row 0 at the top);
    NaN marks barrier points, rendered black.  Finite values map linearly
    onto [0, 65535] from their min to their max, then through the power
    ``gamma``; a constant field maps to white.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    values = np.asarray(values, dtype=complex)
    comp = {"re": np.real, "im": np.imag, "abs": np.abs}[component](values)
    mask = np.isnan(comp)
    lo = float(comp[~mask].min()) if (~mask).any() else 0.0
    hi = float(comp[~mask].max()) if (~mask).any() else 0.0
    if hi > lo:
        frac = (comp - lo) / (hi - lo)
    else:
        frac = np.ones_like(comp)
    frac = np.where(mask, 0.0, frac)
    pixels = np.rint(65535.0 * np.clip(frac, 0.0, 1.0) ** gamma).astype(">u2")
    header = f"P5\n{values.shape[1]} {values.shape[0]}\n65535\n".encode("ascii")
    _write_atomic(path, header + pixels.tobytes())


def _datum_from_cfg(cfg):
    if cfg.plane_wave is not None and cfg.taylor is not None:
        cfg.usage_error("give either --plane-wave or --taylor, not both")
    if cfg.plane_wave is not None:
        return PlaneWave(cfg.plane_wave[0], cfg.plane_wave[1])
    if cfg.taylor is not None:
        return cfg.taylor
    cfg.usage_error("a datum is required: --plane-wave or --taylor")


def _series_order(t, r, F, spec) -> tuple[int, bool]:
    """(N, certified): the operator series' order at radius ``r``.

    A plane wave takes the order ``truncation_order`` certifies, or the cap
    N = 60 uncertified; a polynomial is exact once N reaches its degree.
    """
    _, B, degree = growth_envelope(F)
    if degree > N_CAP:
        raise ValueError(f"datum degree {degree} exceeds table order {N_CAP}")
    try:
        N = truncation_order(t, r, spec.alpha, B, spec.tol)
    except TailBoundUnsatisfiable:
        return N_CAP, False
    return min(max(N, degree), N_CAP), True


def _series_values(grid, kind, points) -> list[complex]:
    """Evolved values at ``points`` of ``grid`` through the operator series.

    An uncertified series at the cap is accepted only where it has
    settled: its order-59 and order-60 sums on the accepted ladder level
    must both be at most the spec's ``tol``; a non-finite sum fails too.
    """
    F, tol = grid.F, grid.spec.tol
    orders = [_series_order(grid.t, pol.r, F, grid.spec) for pol in points]
    walked = grid.series_samples(kind, points, [N for N, _ in orders])
    values = []
    for (N, certified), (sample, sums) in zip(orders, walked):
        last = np.abs(sums[-2:])
        if not (certified or (last <= tol).all()):
            raise NonConvergence(
                f"the series at k=({F.k1:g}, {F.k2:g}) has not settled at the table cap "
                f"N={N}: order sums {last[0]:.3e}, {last[1]:.3e} against tol={tol:.3e}")
        values.append(sample.value)
    return values


def _contiguous_chunks(items: list, count: int) -> list:
    """``items`` split into at most ``count`` contiguous, nonempty runs whose
    lengths differ by at most one."""
    count = min(count, len(items))
    edges = [len(items) * j // count for j in range(count + 1)]
    return [items[lo:hi] for lo, hi in zip(edges, edges[1:])]


def run_field(cfg) -> int:
    F = _datum_from_cfg(cfg)
    spec = _spec_from_cfg(cfg)
    if (cfg.grid is None) == (cfg.x is None):
        cfg.usage_error("field needs exactly one of --grid or --x")
    if cfg.out is None and cfg.pgm is None:
        cfg.usage_error("field needs --out and/or --pgm")
    kind, t = cfg.kind, cfg.t

    if cfg.grid is not None:
        (lo1, hi1, n1), (lo2, hi2, n2) = cfg.grid
        x1s = np.linspace(lo1, hi1, n1)
        x2s = np.linspace(lo2, hi2, n2)
    else:
        from .geometry import to_cartesian
        c = to_cartesian(cfg.x)
        x1s, x2s = np.array([c.x1]), np.array([c.x2])
    # polar points in grid order, None on the barrier
    polar_rows = []
    for x2 in x2s:
        cart = [CartesianPoint(float(x1), float(x2)) for x1 in x1s]
        polar_rows.append([None if on_barrier(p) else to_polar(p) for p in cart])
    points = [pol for row in polar_rows for pol in row if pol is not None]

    values = []
    if points:
        # one radial cutoff and one node set for every point of the grid;
        # the chunks' threads share its levels
        r_max = max(pol.r for pol in points)
        grid = _FresnelGrid(t, F, spec, r_max)
        if cfg.method == "operator":
            # the bounds grow with r and with the order, which grows with r:
            # the largest radius refuses for every point, before any kernel call
            _bound_table(t, r_max, spec.alpha, _series_order(t, r_max, F, spec)[0])
            evaluate = functools.partial(_series_values, grid, kind)
        else:
            def evaluate(chunk):
                return [sample.value for sample in grid.samples(kind, chunk)]
        chunks = _contiguous_chunks(points, cfg.threads)
        if len(chunks) == 1:
            values = evaluate(chunks[0])
        else:
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                values = [v for part in pool.map(evaluate, chunks) for v in part]
    it = iter(values)
    grid_rows = [[None if pol is None else next(it) for pol in row] for row in polar_rows]

    if cfg.out is not None:
        rows = []
        for x2, grid_row in zip(x2s, grid_rows):
            for x1, v in zip(x1s, grid_row):
                if v is None:
                    rows.append((float(x1), float(x2), None, None, None))
                else:
                    rows.append((float(x1), float(x2), v.real, v.imag, abs(v)))
        write_csv(("x1", "x2", "re", "im", "abs"), rows, cfg.out)
    if cfg.pgm is not None:
        image = np.full((len(x2s), len(x1s)), np.nan + 0j)
        for i, grid_row in enumerate(grid_rows):
            for j, v in enumerate(grid_row):
                if v is not None:
                    image[len(x2s) - 1 - i, j] = v
        write_pgm(image, cfg.pgm, component=cfg.component, gamma=cfg.gamma)
    return 0


def run_coeffs(cfg) -> int:
    if cfg.x is None or cfg.order is None or cfg.out is None:
        cfg.usage_error("coeffs needs --x, --order and --out")
    if not 0 <= cfg.order <= N_CAP:
        cfg.usage_error(f"--order must lie in [0, {N_CAP}]")
    spec = _spec_from_cfg(cfg)
    table = build_table(cfg.kind, cfg.t, cfg.x, cfg.order, spec)
    rows = [(n1, n2, c.real, c.imag, float(table.bound[n1, n2]))
            for n1, n2, c in table.entries()]
    write_csv(("n1", "n2", "re_c", "im_c", "bound"), rows, cfg.out)
    return 0


def run_supershift(cfg) -> int:
    if cfg.x is None or cfg.out is None:
        cfg.usage_error("supershift needs --x and --out")
    spec = _spec_from_cfg(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationInsufficient)
        result = supershift_experiment(
            cfg.kind, cfg.t, cfg.x, a=cfg.a, p1=cfg.p1, p2=cfg.p2,
            n_list=cfg.n_list, spec=spec)
    rows = [(r.n, r.psi_n.real, r.psi_n.imag, r.psi_target.real,
             r.psi_target.imag, r.error, r.a1_dist, r.bound)
            for r in result]
    write_csv(("n", "re_psi", "im_psi", "re_target", "im_target",
               "error", "a1_dist", "bound"), rows, cfg.out)
    return 0


def run_greens(cfg) -> int:
    if cfg.x is None or cfg.y is None:
        cfg.usage_error("greens needs --x and --y")
    g = greens(cfg.kind, cfg.t, cfg.x, cfg.y)
    print(f"{_fmt_real(g.real)} {_fmt_real(g.imag)}")
    if cfg.out is not None:
        write_csv(("re", "im", "abs"), [(g.real, g.imag, abs(g))], cfg.out)
    return 0


def run_validate(cfg) -> int:
    results = run_suites()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max-residual {r.max_residual:.3e}  "
              f"tol {r.tolerance:.0e}  {status}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


_RUNNERS = {
    "validate": run_validate,
    "field": run_field,
    "coeffs": run_coeffs,
    "supershift": run_supershift,
    "greens": run_greens,
}


def main(argv=None) -> int:
    """Run one command and return its exit status.

    Every refusal of the library is an ``ArithmeticError`` (``NonConvergence``,
    ``TailBoundUnsatisfiable``, ``CoefficientOverflow``, ``OverflowError``, ...)
    or a ``ValueError``.  Each ends the run with ``<command> failed: <reason>``
    and status 1; the runners write their files only after computing every
    value, so a refused run leaves none.
    """
    cfg = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        return _RUNNERS[cfg.command](cfg)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
    except (ArithmeticError, ValueError) as exc:
        print(f"{cfg.command} failed: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
