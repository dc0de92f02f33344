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
``#`` comments) with command-line flags taking precedence.  Exit codes:
0 success, 1 runtime failure, 2 usage error.  Output files are written
through a temporary sibling and renamed, so failed runs leave nothing
behind.  Grid rows are processed in a thread pool; per-point arithmetic
is identical regardless of worker count, so repeated runs are
byte-identical for any ``--threads`` value.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
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
    growth_envelope,
    psi_fresnel,
)
from .operator import (
    N_CAP,
    TruncationInsufficient,
    apply_plane_wave,
    apply_taylor,
    build_table,
    truncation_order,
)
from .superosc import CoefficientOverflow, reliable_order, supershift_experiment
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


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    try:
        return (complex(parts[0]), complex(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse pair {text!r}")


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


def _parse_component(text: str) -> str:
    if text not in ("re", "im", "abs"):
        raise argparse.ArgumentTypeError(f"component must be re, im or abs, got {text!r}")
    return text


#: config-file key -> (argparse dest, converter); one namespace for all commands
_CONFIG_KEYS = {
    "kind": ("kind", _parse_kind),
    "t": ("t", float),
    "x": ("x", _parse_polar),
    "y": ("y", _parse_polar),
    "grid": ("grid", _parse_grid),
    "plane_wave": ("plane_wave", _parse_pair),
    "taylor": ("taylor", _parse_taylor),
    "method": ("method", str),
    "out": ("out", str),
    "pgm": ("pgm", str),
    "component": ("component", _parse_component),
    "gamma": ("gamma", float),
    "threads": ("threads", int),
    "alpha": ("alpha", float),
    "n_rho": ("n_rho", int),
    "n_theta": ("n_theta", int),
    "tol": ("tol", float),
    "panel_order": ("panel_order", int),
    "rho_max": ("rho_max", float),
    "order": ("order", int),
    "a": ("a", float),
    "p1": ("p1", int),
    "p2": ("p2", int),
    "n_list": ("n_list", _parse_nlist),
    "radius": ("radius", float),
    "samples": ("samples", int),
}


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            parser.error(f"{path}:{lineno}: unknown key {key!r}")
        dest, convert = _CONFIG_KEYS[key]
        try:
            values[dest] = convert(text.strip())
        except (argparse.ArgumentTypeError, ValueError) as exc:
            parser.error(f"{path}:{lineno}: {exc}")
    return values


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
        p.add_argument("--n-rho", type=int, dest="n_rho",
                       help="radial node count, more than --panel-order; the finest "
                            "level of the node ladder for field --method quadrature")
        p.add_argument("--n-theta", type=int, dest="n_theta",
                       help="angular node count, more than --panel-order; the finest "
                            "level of the node ladder for field --method quadrature")
        p.add_argument("--tol", type=float, help="quadrature tail tolerance")
        p.add_argument("--panel-order", type=int, dest="panel_order")
        p.add_argument("--rho-max", type=float, dest="rho_max",
                       help="fixed radial cutoff (default: automatic tail bound)")

    p = subparsers["validate"] = sub.add_parser("validate", help="run the invariant suites")
    add_config_flag(p)

    p = subparsers["field"] = sub.add_parser("field", help="sample the evolved field on a grid")
    add_config_flag(p)
    p.add_argument("--kind", type=_parse_kind, default=BoundaryKind.DIRICHLET)
    p.add_argument("--t", type=float)
    p.add_argument("--grid", type=_parse_grid, help="x1min:x1max:n1,x2min:x2max:n2")
    p.add_argument("--x", type=_parse_polar, help="single polar point r,phi")
    p.add_argument("--plane-wave", type=_parse_pair, dest="plane_wave", metavar="K1,K2")
    p.add_argument("--taylor", type=_parse_taylor,
                   help="polynomial coefficients, rows split by ';', entries by spaces")
    p.add_argument("--method", choices=("quadrature", "operator"), default="quadrature")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--pgm", help="PGM heatmap output path")
    p.add_argument("--component", type=_parse_component, default="abs")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--threads", type=int, default=1)
    add_quadrature_flags(p)

    p = subparsers["coeffs"] = sub.add_parser("coeffs", help="tabulate operator coefficients")
    add_config_flag(p)
    p.add_argument("--kind", type=_parse_kind, default=BoundaryKind.DIRICHLET)
    p.add_argument("--t", type=float)
    p.add_argument("--x", type=_parse_polar)
    p.add_argument("--order", type=int, help=f"table order N <= {N_CAP}")
    p.add_argument("--out", help="CSV output path")
    add_quadrature_flags(p)

    p = subparsers["supershift"] = sub.add_parser(
        "supershift", help="superoscillation persistence experiment")
    add_config_flag(p)
    p.add_argument("--kind", type=_parse_kind, default=BoundaryKind.DIRICHLET)
    p.add_argument("--t", type=float)
    p.add_argument("--x", type=_parse_polar)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--p1", type=int, default=1)
    p.add_argument("--p2", type=int, default=1)
    p.add_argument("--n-list", type=_parse_nlist, dest="n_list", default=(4, 8, 12, 16))
    p.add_argument("--radius", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=6)
    p.add_argument("--out", help="CSV output path")
    add_quadrature_flags(p)

    p = subparsers["greens"] = sub.add_parser(
        "greens", help="evaluate the propagator at one point pair")
    add_config_flag(p)
    p.add_argument("--kind", type=_parse_kind, default=BoundaryKind.DIRICHLET)
    p.add_argument("--t", type=float)
    p.add_argument("--x", type=_parse_polar)
    p.add_argument("--y", type=_parse_polar)
    p.add_argument("--out", help="optional CSV output path")
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


def parse_config(argv, file=None) -> argparse.Namespace:
    """Parse flags plus optional ``--config`` file; flags win over file values.

    ``file`` supplies a configuration path when no ``--config`` flag is
    present.  Config values are installed as defaults on the selected
    subcommand's parser, so anything given explicitly on the command line
    keeps precedence over the file.
    """
    argv = _merge_dash_values(list(argv))
    parser, subparsers = _build_parser()
    probe, _ = parser.parse_known_args(argv)
    cfg_file = getattr(probe, "config", None) or file
    if cfg_file:
        values = _read_config_file(cfg_file, parser)
        parser.set_defaults(**values)
        if probe.command in subparsers:
            subparsers[probe.command].set_defaults(**values)
    cfg = parser.parse_args(argv)
    if cfg.command is None:
        parser.error("a command is required (validate, field, coeffs, supershift, greens)")
    if cfg.command != "validate" and getattr(cfg, "t", None) is None:
        parser.error(f"{cfg.command}: --t is required")
    return cfg


def _spec_from_cfg(cfg, parser_error) -> QuadratureSpec:
    kwargs = {}
    for name in ("alpha", "n_rho", "n_theta", "tol", "panel_order"):
        value = getattr(cfg, name, None)
        if value is not None:
            kwargs[name] = value
    rho_max_value = getattr(cfg, "rho_max", None)
    if rho_max_value is not None:
        kwargs["rho_max_policy"] = "fixed"
        kwargs["rho_max_value"] = rho_max_value
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        parser_error(str(exc))


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
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="") as fh:
            fh.write("".join(parts))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(pixels.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _datum_from_cfg(cfg, parser_error):
    if cfg.plane_wave is not None and cfg.taylor is not None:
        parser_error("give either --plane-wave or --taylor, not both")
    if cfg.plane_wave is not None:
        return PlaneWave(cfg.plane_wave[0], cfg.plane_wave[1])
    if cfg.taylor is not None:
        return cfg.taylor
    parser_error("a datum is required: --plane-wave or --taylor")


def _operator_value(kind, t, pol, F, spec):
    """Evolved value at one point through the coefficient table."""
    A, B, degree = growth_envelope(F)
    try:
        N = truncation_order(t, pol.r, spec.alpha, B, spec.tol)
    except TailBoundUnsatisfiable:
        N = N_CAP
    N = min(max(N, degree), N_CAP)
    table = build_table(kind, t, pol, N, spec)
    if isinstance(F, PlaneWave):
        return apply_plane_wave(table, (F.k1, F.k2))
    return apply_taylor(table, F)


def run_field(cfg, parser_error) -> int:
    F = _datum_from_cfg(cfg, parser_error)
    spec = _spec_from_cfg(cfg, parser_error)
    if (cfg.grid is None) == (cfg.x is None):
        parser_error("field needs exactly one of --grid or --x")
    if cfg.out is None and cfg.pgm is None:
        parser_error("field needs --out and/or --pgm")
    if cfg.threads < 1:
        parser_error(f"--threads must be >= 1, got {cfg.threads}")
    kind, t = cfg.kind, cfg.t

    def value_at(x1: float, x2: float):
        p = CartesianPoint(x1, x2)
        if on_barrier(p):
            return None
        pol = to_polar(p)
        if cfg.method == "operator":
            return _operator_value(kind, t, pol, F, spec)
        return psi_fresnel(kind, t, pol, F, spec).value

    if cfg.grid is not None:
        (lo1, hi1, n1), (lo2, hi2, n2) = cfg.grid
        x1s = np.linspace(lo1, hi1, n1)
        x2s = np.linspace(lo2, hi2, n2)
    else:
        from .geometry import to_cartesian
        c = to_cartesian(cfg.x)
        x1s, x2s = np.array([c.x1]), np.array([c.x2])

    def compute_row(x2: float):
        return [value_at(float(x1), float(x2)) for x1 in x1s]

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInsufficient)
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                grid_rows = list(pool.map(compute_row, [float(v) for v in x2s]))
    except (NonConvergence, TailBoundUnsatisfiable, ArithmeticError) as exc:
        print(f"field evaluation failed: {exc}", file=sys.stderr)
        return 1

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


def run_coeffs(cfg, parser_error) -> int:
    if cfg.x is None or cfg.order is None or cfg.out is None:
        parser_error("coeffs needs --x, --order and --out")
    if not 0 <= cfg.order <= N_CAP:
        parser_error(f"--order must lie in [0, {N_CAP}]")
    spec = _spec_from_cfg(cfg, parser_error)
    try:
        table = build_table(cfg.kind, cfg.t, cfg.x, cfg.order, spec)
    except (TailBoundUnsatisfiable, ValueError) as exc:
        print(f"coefficient table failed: {exc}", file=sys.stderr)
        return 1
    rows = [(n1, n2, c.real, c.imag, float(table.bound[n1, n2]))
            for n1, n2, c in table.entries()]
    write_csv(("n1", "n2", "re_c", "im_c", "bound"), rows, cfg.out)
    return 0


def run_supershift(cfg, parser_error) -> int:
    if cfg.x is None or cfg.out is None:
        parser_error("supershift needs --x and --out")
    spec = _spec_from_cfg(cfg, parser_error)
    wall = reliable_order(cfg.a)
    if max(cfg.n_list) > wall:
        print(
            f"order {max(cfg.n_list)} exceeds the double-precision wall for a={cfg.a}: "
            f"the alternating coefficients reach {max(cfg.n_list) * math.log10(cfg.a):.0f} "
            f"digits of cancellation and at most n={wall} keeps ~12 trustworthy digits",
            file=sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInsufficient)
            result = supershift_experiment(
                cfg.kind, cfg.t, cfg.x, a=cfg.a, p1=cfg.p1, p2=cfg.p2,
                n_list=cfg.n_list, spec=spec, radius=cfg.radius,
                samples=cfg.samples)
    except (CoefficientOverflow, NonConvergence, TailBoundUnsatisfiable) as exc:
        print(f"supershift experiment failed: {exc}", file=sys.stderr)
        return 1
    rows = [(r.n, r.psi_n.real, r.psi_n.imag, r.psi_target.real,
             r.psi_target.imag, r.error, r.a1_dist, r.bound)
            for r in result]
    write_csv(("n", "re_psi", "im_psi", "re_target", "im_target",
               "error", "a1_dist", "bound"), rows, cfg.out)
    return 0


def run_greens(cfg, parser_error) -> int:
    if cfg.x is None or cfg.y is None:
        parser_error("greens needs --x and --y")
    try:
        g = greens(cfg.kind, cfg.t, cfg.x, cfg.y)
    except ValueError as exc:
        print(f"propagator evaluation failed: {exc}", file=sys.stderr)
        return 1
    print(f"{_fmt_real(g.real)} {_fmt_real(g.imag)}")
    if cfg.out is not None:
        write_csv(("re", "im", "abs"), [(g.real, g.imag, abs(g))], cfg.out)
    return 0


def run_validate(cfg) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationInsufficient)
        results = run_suites()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max-residual {r.max_residual:.3e}  "
              f"tol {r.tolerance:.0e}  {status}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser_holder, _ = _build_parser()
    cfg = parse_config(sys.argv[1:] if argv is None else argv)

    def parser_error(message):
        parser_holder.error(f"{cfg.command}: {message}" if cfg.command else message)

    try:
        if cfg.command == "validate":
            return run_validate(cfg)
        if cfg.command == "field":
            return run_field(cfg, parser_error)
        if cfg.command == "coeffs":
            return run_coeffs(cfg, parser_error)
        if cfg.command == "supershift":
            return run_supershift(cfg, parser_error)
        if cfg.command == "greens":
            return run_greens(cfg, parser_error)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {cfg.command}")


if __name__ == "__main__":
    sys.exit(main())
