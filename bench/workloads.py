"""Seeded request generators and output checks for the three workloads.

A request is one ``barrierwaves.cli.main(argv)`` call.  Generators draw
every parameter from ``random.Random`` seeded by (workload, seed), so the
same seed always yields the same argv list; the program only ever sees
that argv.  Draws are stratified in shuffled blocks (boundary kind, time,
datum type, plane-wave frequency, supershift radius), which keeps the mix
of cheap and expensive requests nearly the same in every run of a given
length and so keeps run-to-run spread low across seeds.

The checks read each request's CSV back and compare it with the *other*
representation at the same (kind, t, x, datum); they run outside any
timed region.
"""

from __future__ import annotations

import csv
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from barrierwaves import (
    BoundaryKind,
    CartesianPoint,
    PlaneWave,
    PolarPoint,
    QuadratureSpec,
    SuperoscParams,
    TailBoundUnsatisfiable,
    TaylorField,
    TruncationInsufficient,
    apply_plane_wave,
    apply_taylor,
    build_table,
    growth_envelope,
    on_barrier,
    psi_fresnel,
    superosc_sequence,
    to_polar,
    truncation_order,
)
from barrierwaves.geometry import PHI_MAX, PHI_MIN
from barrierwaves.operator import N_CAP

#: agreement demanded between the two representations (acceptance criterion 3)
REL_TOL = 1e-5

#: field grids lie inside [-WINDOW, WINDOW]^2, so r <= 3.96.  At the
#: default spec psi_fresnel stops converging (NonConvergence) once r/sqrt(t)
#: exceeds about 5.7, e.g. Neumann, t = 0.5933, x = (3.434, -3.479),
#: k = (1.2435, 0.1245); with t >= 0.5 this window stays inside that range.
WINDOW = 2.8
K_MAX = 1.5               # plane-wave frequency bound on the field workloads
SUPERSHIFT_A = 2.0
SUPERSHIFT_ORDERS = (4, 8, 12, 16)


@dataclass
class Request:
    """One generated CLI call plus the parameters the checks need."""

    argv: list
    kind: BoundaryKind
    t: float
    datum: object = None                 # PlaneWave or TaylorField (field)
    grid: tuple = None                   # ((lo1, hi1, n), (lo2, hi2, n))
    x: PolarPoint = None                 # supershift point
    check_index: int = 0                 # seeded pick among grid points


def _r(v: float) -> str:
    """Shortest repr that round-trips, so the CLI parses the exact double."""
    return repr(float(v))


def _in_stratum(rng: random.Random, lo: float, hi: float, index: int, count: int) -> float:
    """Uniform draw from stratum ``index`` of ``count`` equal strata of [lo, hi]."""
    return lo + (index + rng.random()) * (hi - lo) / count


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """One uniform draw from each of ``count`` equal strata of [lo, hi], shuffled."""
    draws = [_in_stratum(rng, lo, hi, i, count) for i in range(count)]
    rng.shuffle(draws)
    return draws


def _kinds(rng: random.Random, count: int) -> list:
    kinds = [BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN] * (count // 2)
    rng.shuffle(kinds)
    return kinds


def _taylor(rng: random.Random) -> TaylorField:
    degree = rng.randrange(4)
    coeffs = np.zeros((degree + 1, degree + 1))
    for n1 in range(degree + 1):
        for n2 in range(degree + 1 - n1):
            coeffs[n1, n2] = rng.uniform(-1.0, 1.0)
    return TaylorField(coeffs)


def _taylor_text(F: TaylorField) -> str:
    return ";".join(" ".join(_r(v.real) for v in row) for row in F.coeffs)


def _axis(rng: random.Random, n: int) -> tuple:
    width = rng.uniform(0.5, 2.0 * WINDOW)
    lo = rng.uniform(-WINDOW, WINDOW - width)
    return (lo, lo + width, n)


#: strata of plane-wave |k| and of t; a field block holds every pairing once
K_STRATA, T_STRATA = 3, 4


def field_requests(seed: int, method: str, n: int):
    """Endless stream of ``field`` requests on n x n windows.

    Requests come in shuffled blocks of 16: twelve plane waves, one for
    each pairing of a |k| stratum with a t stratum (an operator point
    costs roughly in proportion to |k|^2 t), and four Taylor data, one
    per t stratum.
    """
    rng = random.Random(f"field-{method}:{seed}")
    block = [(k, j) for k in range(K_STRATA) for j in range(T_STRATA)]
    block += [(None, j) for j in range(T_STRATA)]
    while True:
        rng.shuffle(block)
        for kind, (k_stratum, t_stratum) in zip(_kinds(rng, len(block)), block):
            t = _in_stratum(rng, 0.5, 2.0, t_stratum, T_STRATA)
            grid = (_axis(rng, n), _axis(rng, n))
            if k_stratum is not None:
                kn = _in_stratum(rng, 0.0, K_MAX, k_stratum, K_STRATA)
                ang = rng.uniform(0.0, 2.0 * math.pi)
                F = PlaneWave(kn * math.cos(ang), kn * math.sin(ang))
                datum_args = [f"--plane-wave={_r(F.k1)},{_r(F.k2)}"]
            else:
                F = _taylor(rng)
                datum_args = [f"--taylor={_taylor_text(F)}"]
            (lo1, hi1, _), (lo2, hi2, _) = grid
            argv = ["field", "--method", method, "--threads", "1",
                    "--kind", kind.value, "--t", _r(t),
                    f"--grid={_r(lo1)}:{_r(hi1)}:{n},{_r(lo2)}:{_r(hi2)}:{n}",
                    *datum_args]
            yield Request(argv=argv, kind=kind, t=t, datum=F, grid=grid,
                          check_index=rng.randrange(n * n))


def supershift_requests(seed: int):
    """Endless stream of ``supershift`` requests with a = 2, n = 4,8,12,16."""
    rng = random.Random(f"supershift:{seed}")
    orders = ",".join(str(n) for n in SUPERSHIFT_ORDERS)
    while True:
        kinds = _kinds(rng, 4)
        times = _strata(rng, 0.3, 1.0, 4)
        radii = _strata(rng, 0.5, 1.5, 4)
        for kind, t, r in zip(kinds, times, radii):
            phi = rng.uniform(PHI_MIN, PHI_MAX)
            x = PolarPoint(r, phi)
            argv = ["supershift", "--kind", kind.value, "--t", _r(t),
                    f"--x={_r(r)},{_r(phi)}", "--a", _r(SUPERSHIFT_A),
                    "--n-list", orders]
            yield Request(argv=argv, kind=kind, t=t, x=x)


# ---------------------------------------------------------------------------
# references and checks

def operator_value(kind, t, pol, F):
    """Field value through the coefficient table, at the CLI's table order."""
    spec = QuadratureSpec()
    _, B, degree = growth_envelope(F)
    try:
        N = truncation_order(t, pol.r, spec.alpha, B, spec.tol)
    except TailBoundUnsatisfiable:
        N = N_CAP
    N = min(max(N, degree), N_CAP)
    table = build_table(kind, t, pol, N, spec)
    if isinstance(F, PlaneWave):
        with warnings.catch_warnings():
            # at the N = 60 cap the CLI also relies on empirical decay
            warnings.simplefilter("ignore", TruncationInsufficient)
            return apply_plane_wave(table, (F.k1, F.k2))
    return apply_taylor(table, F)


def _rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


class CheckFailed(Exception):
    """A request's output disagrees with the reference or is malformed."""


def _read_rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def check_field(req: Request, path: str, method: str) -> tuple:
    """Validate one field CSV; returns (results, worst gated relative error).

    Every row must sit on the requested grid, barrier points must be
    empty and every other value finite.  The seeded check point is then
    recomputed by the other representation.
    """
    rows = _read_rows(path)
    (lo1, hi1, n1), (lo2, hi2, n2) = req.grid
    if rows[0] != ["x1", "x2", "re", "im", "abs"] or len(rows) != n1 * n2 + 1:
        raise CheckFailed(f"unexpected CSV shape in {path}")
    x1s = np.linspace(lo1, hi1, n1)
    x2s = np.linspace(lo2, hi2, n2)
    values = []
    for i, row in enumerate(rows[1:]):
        x1, x2 = float(x1s[i % n1]), float(x2s[i // n1])
        if float(row[0]) != x1 or float(row[1]) != x2:
            raise CheckFailed(f"row {i} of {path} is off the grid")
        p = CartesianPoint(x1, x2)
        if on_barrier(p):
            if row[2:] != ["", "", ""]:
                raise CheckFailed(f"barrier point {i} of {path} carries a value")
            values.append((p, None))
            continue
        v = complex(float(row[2]), float(row[3]))
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise CheckFailed(f"non-finite value at row {i} of {path}")
        values.append((p, v))
    live = [(p, v) for p, v in values if v is not None]
    if not live:
        return 0, 0.0
    p, v = live[req.check_index % len(live)]
    pol = to_polar(p)
    if method == "quadrature":
        ref = operator_value(req.kind, req.t, pol, req.datum)
    else:
        ref = psi_fresnel(req.kind, req.t, pol, req.datum).value
    err = _rel_err(v, ref)
    if not err <= REL_TOL:
        raise CheckFailed(
            f"{method} value {v} at {p} differs from the other representation "
            f"{ref} by {err:.3e} (relative)")
    return len(live), err


def check_supershift(req: Request, path: str) -> tuple:
    """Validate one supershift CSV; returns (rows, worst gated error, target error).

    Each psi_n must match the quadrature of F_n and satisfy error <= bound.
    The target row's distance from the quadrature of the limit wave is
    returned, not gated: at t near 1 the N = 60 table cannot certify
    |k| = 2*sqrt(2) and sits about 1e-5 off.
    """
    rows = _read_rows(path)
    header = ["n", "re_psi", "im_psi", "re_target", "im_target",
              "error", "a1_dist", "bound"]
    if rows[0] != header or [int(r[0]) for r in rows[1:]] != list(SUPERSHIFT_ORDERS):
        raise CheckFailed(f"unexpected supershift CSV layout in {path}")
    worst = 0.0
    for row in rows[1:]:
        n = int(row[0])
        psi_n = complex(float(row[1]), float(row[2]))
        error, bound = float(row[5]), float(row[7])
        seq = superosc_sequence(SuperoscParams(a=SUPERSHIFT_A, n=n))
        ref = psi_fresnel(req.kind, req.t, req.x, seq).value
        err = _rel_err(psi_n, ref)
        if not err <= REL_TOL:
            raise CheckFailed(f"psi_{n} = {psi_n} differs from quadrature {ref} by {err:.3e}")
        if not error <= bound:
            raise CheckFailed(f"row n={n}: error {error} exceeds bound {bound}")
        worst = max(worst, err)
    a_vec = SuperoscParams(a=SUPERSHIFT_A).a_vec
    target_ref = psi_fresnel(req.kind, req.t, req.x, PlaneWave(*a_vec)).value
    target = complex(float(rows[1][3]), float(rows[1][4]))
    return len(rows) - 1, worst, abs(target - target_ref) / max(abs(target_ref), 1e-300)
