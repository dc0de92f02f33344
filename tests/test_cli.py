"""Tests for the command-line interface and its file formats."""

import csv
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import barrierwaves
from barrierwaves.cli import main, parse_config, write_csv, write_pgm
from barrierwaves.evolve import PlaneWave, QuadratureSpec, _FresnelGrid
from barrierwaves.geometry import CartesianPoint, PolarPoint, on_barrier, to_polar
from barrierwaves.greens import BoundaryKind, greens

greens_module = importlib.import_module("barrierwaves.greens")
cli_module = importlib.import_module("barrierwaves.cli")


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


# ----------------------------------------------------------------------------
# Argument and config handling
# ----------------------------------------------------------------------------


def test_parse_field_example(tmp_path):
    cfg = parse_config(
        [
            "field", "--kind", "NEUMANN", "--t", "1.0",
            "--grid", "-2:2:41,-2:2:41", "--plane-wave", "0.5,0.5",
            "--out", str(tmp_path / "f.csv"), "--pgm", str(tmp_path / "f.pgm"),
        ]
    )
    assert cfg.command == "field"
    assert cfg.kind is BoundaryKind.NEUMANN
    assert cfg.t == 1.0
    assert cfg.grid == ((-2.0, 2.0, 41), (-2.0, 2.0, 41))
    assert cfg.plane_wave == (0.5 + 0j, 0.5 + 0j)
    assert cfg.threads == 1


def test_missing_time_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["field", "--grid", "-1:1:3,-1:1:3", "--plane-wave", "0.5,0.5",
              "--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--tol", "0"], ["--tol", "-1e-7"], ["--alpha", "0"],
                                   ["--tol", "inf"]])
def test_invalid_quadrature_spec_is_usage_error(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        main(["field", "--t", "1", "--x", "1,1", "--plane-wave", "0.5,0.5",
              "--out", str(tmp_path / "f.csv"), *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--rho-max", "--panel-order", "--n-rho", "--n-theta",
                                  "--radius", "--samples"])
@pytest.mark.parametrize("argv", [
    ["field", "--t", "1", "--x", "1,0.3", "--plane-wave", "0.5,0.5"],
    ["coeffs", "--t", "1", "--x", "1,0.3", "--order", "3"],
    ["supershift", "--t", "1", "--x", "1,0.3"],
])
def test_radial_cutoff_and_panel_order_are_not_flags(tmp_path, capsys, flag, argv):
    # R always comes from the tail bound, every panel has 16 nodes, the
    # node counts come from the fixed ladder, and supershift's gap a1_dist
    # is always taken on 6 shells of the radius-4 polydisc
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "9", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_radial_cutoff_config_key_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("rho_max = 9\n")
    with pytest.raises(SystemExit) as exc:
        main(["field", "--config", str(conf), "--t", "1", "--x", "1,0.3",
              "--plane-wave", "0.5,0.5", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert f"{conf}:1: unknown key 'rho_max'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("key", ["n_rho", "n_theta"])
def test_node_count_config_keys_are_usage_errors(tmp_path, capsys, key):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = 96\n")
    with pytest.raises(SystemExit) as exc:
        main(["field", "--config", str(conf), "--t", "1", "--x", "1,0.3",
              "--plane-wave", "0.5,0.5", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert f"{conf}:1: unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("key", ["radius", "samples"])
def test_polydisc_config_keys_are_usage_errors(tmp_path, capsys, key):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = 4\n")
    with pytest.raises(SystemExit) as exc:
        main(["supershift", "--config", str(conf), "--t", "1", "--x", "1,0.3",
              "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert f"{conf}:1: unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


_FIELD_AT = ["field", "--x", "1,0.3"]
_SUPERSHIFT_AT = ["supershift", "--t", "1", "--x", "1,0.3"]


def _must_not_run(*args, **kwargs):
    raise AssertionError("a usage error must be reported before any computation")


@pytest.mark.parametrize("flag, argv", [
    ("--t", _FIELD_AT + ["--t", "-1", "--plane-wave", "0.5,0.5"]),
    ("--t", _FIELD_AT + ["--t", "nan", "--plane-wave", "0.5,0.5"]),
    ("--plane-wave", _FIELD_AT + ["--t", "1", "--plane-wave", "nan,0"]),
    ("--taylor", _FIELD_AT + ["--t", "1", "--taylor", "1 nan"]),
    ("--threads", _FIELD_AT + ["--t", "1", "--plane-wave", "0.5,0.5", "--threads", "0"]),
    ("--gamma", ["field", "--t", "1", "--grid", "-1:1:3,-1:1:3", "--plane-wave", "0.5,0.5",
                 "--pgm", "PGM", "--gamma", "0"]),
    ("--a", _SUPERSHIFT_AT + ["--a", "nan"]),
    ("--a", _SUPERSHIFT_AT + ["--a", "0.5"]),
    ("--p2", _SUPERSHIFT_AT + ["--p2", "0"]),
    ("--n-list", _SUPERSHIFT_AT + ["--n-list", "4,0"]),
    ("--p1", _SUPERSHIFT_AT + ["--p1", "0"]),
    ("--t", ["coeffs", "--t", "-1", "--x", "1,0.3", "--order", "3"]),
    ("--t", ["greens", "--t", "inf", "--x", "1,0.3", "--y", "1,1"]),
    # non-finite geometry: an infinite bound, a width that overflows, an
    # infinite radius, a far grid corner whose radius overflows
    ("--grid", ["field", "--t", "1", "--plane-wave", "0.3,0.1", "--grid=-inf:1:3,0:1:3"]),
    ("--grid", ["field", "--t", "1", "--plane-wave", "0.3,0.1", "--grid=0:1e308:3,-1e308:1e308:3"]),
    ("--x", ["field", "--t", "1", "--plane-wave", "0.3,0.1", "--x=inf,0.3"]),
    ("--grid", ["field", "--t", "1", "--plane-wave", "0.3,0.1", "--grid=0:1.7e308:2,0:1.7e308:2"]),
])
def test_invalid_value_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch, flag, argv):
    for name in ("psi_fresnel", "build_table", "supershift_experiment", "greens"):
        monkeypatch.setattr(cli_module, name, _must_not_run)
    argv = [str(tmp_path / "p.pgm") if a == "PGM" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line.lower()]
    assert len(errors) == 1 and f"argument {flag}: " in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_config_file_supplies_defaults(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# defaults for one sweep\n"
        "kind = NEUMANN\n"
        "t = 1.0\n"
        "plane_wave = 0.5,0.5\n"
    )
    cfg = parse_config(
        ["field", "--config", str(conf), "--x", "1,1.1", "--out", str(tmp_path / "o.csv")]
    )
    assert cfg.kind is BoundaryKind.NEUMANN
    assert cfg.t == 1.0


def test_command_line_overrides_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("t = 1.0\n")
    cfg = parse_config(
        ["field", "--config", str(conf), "--t", "2.0", "--x", "1,1.1",
         "--plane-wave", "0,0", "--out", str(tmp_path / "o.csv")]
    )
    assert cfg.t == 2.0


def test_unknown_config_key_is_usage_error(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("t = 1.0\nfrequency = 3\n")
    with pytest.raises(SystemExit) as exc:
        parse_config(["field", "--config", str(conf), "--x", "1,1.1",
                      "--plane-wave", "0,0", "--out", "o.csv"])
    assert exc.value.code == 2


def test_malformed_config_line_is_usage_error(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("t 1.0\n")
    with pytest.raises(SystemExit) as exc:
        parse_config(["field", "--config", str(conf), "--x", "1,1.1",
                      "--plane-wave", "0,0", "--out", "o.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["method = oprator", "component = bogus", "threads = two"])
def test_bad_config_value_fails_the_flags_own_check(tmp_path, capsys, line):
    conf = tmp_path / "run.conf"
    conf.write_text(f"t = 1.0\nplane_wave = 0.5,0.5\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["field", "--config", str(conf), "--x", "1,1.1", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "o.csv").exists()
    # the file and line, then argparse's own message for the flag
    flag = "--" + line.split(" =")[0]
    assert f"{conf}:3: argument {flag}: invalid " in capsys.readouterr().err


def test_config_key_of_another_command_is_ignored(tmp_path):
    # one file serves every command: order belongs to coeffs, n_list to supershift
    conf = tmp_path / "run.conf"
    conf.write_text("t = 1.0\nplane_wave = 0.5,0.5\norder = 5\nn_list = 2,4\ntol = 1e-8\n")
    out = tmp_path / "o.csv"
    assert main(["--config", str(conf), "field", "--x", "1,1.1", "--out", str(out)]) == 0
    cfg = parse_config(["--config", str(conf), "field", "--x", "1,1.1", "--out", str(out)])
    assert not hasattr(cfg, "order") and not hasattr(cfg, "n_list")
    assert cfg.tol == 1e-8
    assert len(_read_csv(out)[1]) == 1


def test_config_values_do_not_outlive_their_call(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("kind = NEUMANN\nt = 1.0\nplane_wave = 0.5,0.5\nthreads = 3\n")
    out = str(tmp_path / "o.csv")
    first = parse_config(["field", "--config", str(conf), "--x", "1,1.1", "--out", out])
    assert (first.kind, first.t, first.threads) == (BoundaryKind.NEUMANN, 1.0, 3)
    second = parse_config(["field", "--t", "2.0", "--x", "1,1.1", "--out", out])
    assert second.kind is BoundaryKind.DIRICHLET
    assert (second.t, second.plane_wave, second.threads, second.config) == (2.0, None, 1, None)
    # a bad config line leaves the parser exiting on a bad command-line value
    conf.write_text("threads = two\n")
    for argv in (["field", "--config", str(conf), "--t", "1", "--x", "1,1.1"],
                 ["field", "--t", "1", "--x", "1,1.1", "--threads", "two"]):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
    assert f"{conf}:1: argument --threads: invalid" in capsys.readouterr().err


def test_field_requires_exactly_one_location(tmp_path):
    with pytest.raises(SystemExit):
        main(["field", "--t", "1", "--plane-wave", "0,0",
              "--out", str(tmp_path / "o.csv")])
    with pytest.raises(SystemExit):
        main(["field", "--t", "1", "--plane-wave", "0,0", "--x", "1,1",
              "--grid", "-1:1:3,-1:1:3", "--out", str(tmp_path / "o.csv")])


# ----------------------------------------------------------------------------
# File formats
# ----------------------------------------------------------------------------


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(("a", "b", "c"), [(0.0, -1.0, None), (1, 0.1, 2.5)], path)
    raw = path.read_bytes()
    assert raw == b"a,b,c\n0,-1,\n1,0.10000000000000001,2.5\n"


def test_write_csv_roundtrips_doubles(tmp_path):
    path = tmp_path / "t.csv"
    values = [(math.pi, 1.0 / 3.0, 1e-300), (-2.5e17, 0.1 + 0.2, 6.02e23)]
    write_csv(("x", "y", "z"), values, path)
    _, rows = _read_csv(path)
    for written, row in zip(values, rows):
        assert tuple(float(cell) for cell in row) == written


def test_write_pgm_header_and_scaling(tmp_path):
    path = tmp_path / "t.pgm"
    img = np.array([[0.0, 0.5], [1.0, 2.0]], dtype=complex)
    write_pgm(img, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    pix = np.frombuffer(raw[len(b"P5\n2 2\n65535\n"):], dtype=">u2").reshape(2, 2)
    assert pix[0, 0] == 0          # minimum maps to black
    assert pix[1, 1] == 65535      # maximum maps to white
    assert 0 < pix[0, 1] < pix[1, 0] < 65535


def test_write_pgm_constant_field_with_barrier_stripe(tmp_path):
    path = tmp_path / "t.pgm"
    img = np.full((3, 3), 1.0 + 0j)
    img[1, 0] = np.nan + 0j  # masked barrier cell
    write_pgm(img, path)
    raw = path.read_bytes()
    pix = np.frombuffer(raw[len(b"P5\n3 3\n65535\n"):], dtype=">u2").reshape(3, 3)
    assert pix[1, 0] == 0
    others = np.delete(pix.ravel(), 3)
    assert np.all(others == others[0])
    assert others[0] == 65535


def test_write_pgm_gamma_changes_midtones(tmp_path):
    img = np.array([[0.0, 0.25, 1.0]], dtype=complex)
    p1, p2 = tmp_path / "g1.pgm", tmp_path / "g2.pgm"
    write_pgm(img, p1, gamma=1.0)
    write_pgm(img, p2, gamma=0.5)
    a = np.frombuffer(p1.read_bytes()[len(b"P5\n3 1\n65535\n"):], dtype=">u2")
    b = np.frombuffer(p2.read_bytes()[len(b"P5\n3 1\n65535\n"):], dtype=">u2")
    assert a[0] == b[0] == 0 and a[2] == b[2] == 65535
    assert b[1] > a[1]


# ----------------------------------------------------------------------------
# field subcommand
# ----------------------------------------------------------------------------


def test_field_constant_neumann_is_one_and_masks_barrier(tmp_path):
    out = tmp_path / "f.csv"
    rc = main(["field", "--kind", "NEUMANN", "--t", "1.0",
               "--grid", "-1:1:5,-2:0:5", "--taylor", "1",
               "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["x1", "x2", "re", "im", "abs"]
    assert len(rows) == 25
    barrier_rows = [r for r in rows if r[0] == "0" and float(r[1]) <= 0]
    assert barrier_rows and all(r[2] == r[3] == r[4] == "" for r in barrier_rows)
    for r in rows:
        if r[2] == "":
            continue
        assert abs(complex(float(r[2]), float(r[3])) - 1.0) <= 1e-5


def test_field_dirichlet_vanishes_toward_barrier(tmp_path):
    out = tmp_path / "f.csv"
    rc = main(["field", "--kind", "DIRICHLET", "--t", "1.0",
               "--grid", "0.1:0.9:5,-1.2:-0.8:2", "--plane-wave", "0.5,0.3",
               "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    by_x2 = {}
    for r in rows:
        by_x2.setdefault(r[1], []).append((float(r[0]), float(r[4])))
    for pts in by_x2.values():
        pts.sort()
        mags = [m for _, m in pts]
        assert mags[0] < mags[-1]
        assert mags == sorted(mags)


def test_field_operator_matches_quadrature(tmp_path):
    args_common = ["--kind", "NEUMANN", "--t", "1.0",
                   "--grid", "-2:2:5,-2:2:5", "--plane-wave", "0.3,0.2"]
    out_q, out_o = tmp_path / "q.csv", tmp_path / "o.csv"
    assert main(["field", *args_common, "--method", "quadrature", "--out", str(out_q)]) == 0
    assert main(["field", *args_common, "--method", "operator", "--out", str(out_o)]) == 0
    _, rows_q = _read_csv(out_q)
    _, rows_o = _read_csv(out_o)
    assert len(rows_q) == len(rows_o)
    compared = 0
    for rq, ro in zip(rows_q, rows_o):
        assert rq[:2] == ro[:2]
        assert (rq[2] == "") == (ro[2] == "")
        if rq[2] != "":
            vq = complex(float(rq[2]), float(rq[3]))
            vo = complex(float(ro[2]), float(ro[3]))
            assert abs(vq - vo) <= 1e-5 * max(1.0, abs(vq))
            compared += 1
    assert compared >= 20


def test_field_thread_count_does_not_change_bytes(tmp_path):
    # at t = 0.6 the quadrature grid's points stop at 32x32 (the plane
    # wave's, on their own estimate), 48x48, 64x64 and 96x80, so the
    # threads share every level they reach
    cases = [
        (["--plane-wave", "0.4,-0.3"], "quadrature", "-3:3:5,-3:3:5"),
        (["--taylor", "0.5 1; -0.7"], "quadrature", "-3:3:5,-3:3:5"),
        (["--plane-wave", "0.4,-0.3"], "operator", "-3:3:3,-3:3:3"),
    ]
    for i, (datum, method, grid) in enumerate(cases):
        base = ["field", "--kind", "DIRICHLET", "--t", "0.6", "--grid", grid, *datum,
                "--method", method]
        outputs = []
        for threads in (1, 2, 3):
            csv_path, pgm_path = tmp_path / f"{i}-{threads}.csv", tmp_path / f"{i}-{threads}.pgm"
            assert main([*base, "--threads", str(threads), "--out", str(csv_path),
                         "--pgm", str(pgm_path)]) == 0
            outputs.append((csv_path.read_bytes(), pgm_path.read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("threads", [1, 3])
def test_field_kernel_calls_cover_each_point_level_once(tmp_path, monkeypatch, threads):
    # the t = 0.6 quadrature grid above: each --threads chunk of contiguous
    # points makes one kernel call per ladder level and node-cap batch, and
    # the kernel values add up to each point's own levels, so no node is
    # evaluated twice or above the level where its point stopped
    evolve = importlib.import_module("barrierwaves.evolve")
    axis = np.linspace(-3.0, 3.0, 5)
    cart = (CartesianPoint(x1, x2) for x2 in axis for x1 in axis)
    points = [to_polar(c) for c in cart if not on_barrier(c)]
    samples = evolve.psi_fresnel(BoundaryKind.DIRICHLET, 0.6, points, evolve.PlaneWave(0.4, -0.3))
    stops = [evolve._LADDER.index((s.n_rho, s.n_theta)) for s in samples]
    assert {evolve._LADDER[stop] for stop in stops} == {(32, 32), (48, 48), (64, 64), (96, 80)}
    expected_calls, expected_values = {}, 0
    for chunk in cli_module._contiguous_chunks(stops, threads):
        for i, (n_rho, n_theta) in enumerate(evolve._LADDER):
            reached = sum(stop >= i for stop in chunk)
            per_call = max(1, evolve._BATCH_NODES // (n_rho * n_theta))
            if reached:
                expected_calls[i] = expected_calls.get(i, 0) + -(-reached // per_call)
            expected_values += 2 * n_rho * n_theta * reached

    original, calls = evolve._kernel_grid, []

    def counted(*args):
        G = original(*args)
        calls.append((evolve._LADDER.index(G.shape[2:]), G[0].size, G.size))
        return G

    monkeypatch.setattr(evolve, "_kernel_grid", counted)
    assert main(["field", "--kind", "DIRICHLET", "--t", "0.6", "--grid", "-3:3:5,-3:3:5",
                 "--plane-wave", "0.4,-0.3", "--threads", str(threads),
                 "--out", str(tmp_path / "f.csv")]) == 0
    got_calls = {}
    for level, _, _ in calls:
        got_calls[level] = got_calls.get(level, 0) + 1
    assert got_calls == expected_calls
    assert sum(size for _, _, size in calls) == expected_values
    assert max(nodes for _, nodes, _ in calls) <= evolve._BATCH_NODES


def test_field_single_point(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["field", "--kind", "NEUMANN", "--t", "1.0",
               "--x", "1,1.5707963267948966", "--plane-wave", "0.5,0.5",
               "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert len(rows) == 1


@pytest.mark.parametrize("k, last", [("4,0", "1.370e+05"), ("3,0", "5.827e-03"),
                                     ("1e308+1e308j,0", "nan")])
def test_field_operator_refuses_unsettled_series_at_the_cap(tmp_path, capsys, k, last):
    # no certified order exists for these waves, and at N = 60 the order-59
    # sum is far above tol: k = (4, 0) would be 1e5 off, k = (3, 0) 2.5e-3;
    # |k| = 1.4e308 has no radial cutoff, so it is refused before any sum
    out = tmp_path / "f.csv"
    rc = main(["field", "--method", "operator", "--kind", "neumann", "--t", "1",
               "--x", "1,0.3", f"--plane-wave={k}", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    reason = "no radial cutoff below 10000.0" if last == "nan" else f"order sums {last}"
    assert err.startswith("field failed: ") and reason in err
    assert not out.exists()


def test_field_operator_picks_one_series_order_per_request(tmp_path, monkeypatch):
    # the order certified at the grid's largest radius serves every point
    # and the bound precheck alike
    original, calls = cli_module.truncation_order, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli_module, "truncation_order", counted)
    assert main(["field", "--method", "operator", "--t", "0.8", "--grid", "0.5:1.5:2,-1:1:2",
                 "--plane-wave", "0.4,-0.3", "--out", str(tmp_path / "f.csv")]) == 0
    assert len(calls) == 1 and calls[0][1] == math.hypot(1.5, 1.0)


def test_field_operator_grid_order_agrees_with_each_points_own_order(tmp_path):
    # at t = 0.3 the orders of this grid's points run from 28, certified,
    # to the cap 60 at its corners; the order of its largest radius sums
    # each point to within both walks' estimates of the series at the
    # point's own order, on the same cutoff and ladder
    kind, t, F, spec = BoundaryKind.DIRICHLET, 0.3, PlaneWave(0.1, 0.05), QuadratureSpec()
    base = ["field", "--method", "operator", "--kind", "dirichlet", "--t", "0.3",
            "--plane-wave", "0.1,0.05", "--grid", "-3:3:13,-3:3:13"]
    outputs = []
    for threads in (1, 3):
        out = tmp_path / f"f{threads}.csv"
        assert main([*base, "--threads", str(threads), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0]
    _, rows = _read_csv(tmp_path / "f1.csv")
    assert len(rows) == 169
    cells = [CartesianPoint(float(row[0]), float(row[1])) for row in rows]
    points = [to_polar(c) for c in cells if not on_barrier(c)]
    values = [complex(float(row[2]), float(row[3])) for row in rows if row[2]]
    r_max = max(p.r for p in points)
    N, _ = cli_module._series_order(t, r_max, F, spec)
    grid = _FresnelGrid(t, F, spec, r_max)
    samples = grid.series_samples(kind, points, N)
    assert [s.value for s, _ in samples] == values
    own = [cli_module._series_order(t, p.r, F, spec)[0] for p in points]
    assert min(own) < 30 and max(own) == N
    for order in set(own):
        picked = [j for j, n in enumerate(own) if n == order]
        for j, (one, _) in zip(picked, grid.series_samples(kind, [points[j] for j in picked], order)):
            sample = samples[j][0]
            assert abs(sample.value - one.value) <= sample.est_error + one.est_error + 2 * spec.tol


# ----------------------------------------------------------------------------
# coeffs subcommand
# ----------------------------------------------------------------------------


def test_coeffs_table_output(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["coeffs", "--kind", "NEUMANN", "--t", "1.0",
               "--x", "1,0.9", "--order", "4", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["n1", "n2", "re_c", "im_c", "bound"]
    assert len(rows) == 15  # graded entries with n1+n2 <= 4
    first = rows[0]
    assert (first[0], first[1]) == ("0", "0")
    assert complex(float(first[2]), float(first[3])) == pytest.approx(1.0, abs=1e-9)
    for r in rows:
        mag = abs(complex(float(r[2]), float(r[3])))
        assert mag <= float(r[4])


def test_coeffs_non_finite_table_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "c.csv"
    with np.errstate(all="ignore"):
        rc = main(["coeffs", "--t", "1e-4", "--x", "1,0.3", "--order", "4", "--out", str(out)])
    assert rc == 1
    assert "coeffs failed:" in capsys.readouterr().err
    assert not out.exists()


def test_coeffs_overflow_prints_no_runtime_warning(tmp_path):
    # in a fresh interpreter with default warning filters, the typed error
    # is the only thing the overflowing kernel leaves on stderr
    env = dict(os.environ, PYTHONPATH=str(Path(barrierwaves.__file__).parents[1]),
               PYTHONWARNINGS="default")
    proc = subprocess.run(
        [sys.executable, "-m", "barrierwaves.cli", "coeffs", "--kind", "neumann",
         "--t", "1e-4", "--x=1,0.3", "--order", "20", "--out", str(tmp_path / "c.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 1
    assert "coeffs failed:" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["coeffs", "--order", "4"],
    ["field", "--method", "operator", "--plane-wave", "1,0.5"],
    ["supershift", "--n-list", "2,4"],
])
def test_table_with_unbounded_coefficients_fails_cleanly(tmp_path, capsys, argv):
    # at r = 1, t = 1e-3 the entries are finite but every bound exceeds
    # double range, so no command may write the table's values
    out = tmp_path / "o.csv"
    with np.errstate(all="ignore"):
        rc = main(argv + ["--t", "1e-3", "--x", "1,0.3", "--out", str(out)])
    assert rc == 1
    assert "exceed double range" in capsys.readouterr().err
    assert not out.exists()


def test_operator_field_with_unbounded_coefficients_evaluates_no_kernel(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was evaluated for a refused grid")

    monkeypatch.setattr(importlib.import_module("barrierwaves.evolve"), "_kernel_grid", refuse)
    out = tmp_path / "o.csv"
    rc = main(["field", "--method", "operator", "--plane-wave", "1,0.5", "--t", "1e-3",
               "--grid", "-1:1:3,0.1:1:3", "--threads", "2", "--out", str(out)])
    assert rc == 1
    assert "exceed double range" in capsys.readouterr().err
    assert not out.exists()


def test_table_with_inaccurate_entries_fails_cleanly(tmp_path, capsys):
    # at t = 0.01 even the top level's refinement estimate, 9e-10, is far
    # above the tolerance
    out = tmp_path / "o.csv"
    with np.errstate(all="ignore"):
        rc = main(["field", "--method", "operator", "--t", "0.01", "--x=1,0.3",
                   "--plane-wave", "0.4,-0.3", "--tol", "1e-15", "--out", str(out)])
    assert rc == 1
    assert "exceeds 10*tol=1.000e-14 (n_rho=384, n_theta=320)" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------------------
# supershift subcommand
# ----------------------------------------------------------------------------


def test_supershift_rows_and_bound(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["supershift", "--kind", "NEUMANN", "--t", "1.0",
               "--x", "1,1.5707963267948966", "--n-list", "1,2,4,8",
               "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["n", "re_psi", "im_psi", "re_target", "im_target",
                      "error", "a1_dist", "bound"]
    assert [r[0] for r in rows] == ["1", "2", "4", "8"]
    for r in rows:
        err = float(r[5])
        psi = complex(float(r[1]), float(r[2]))
        target = complex(float(r[3]), float(r[4]))
        assert err == pytest.approx(abs(psi - target), rel=1e-12)
        assert err <= float(r[6]) * math.inf if r[7] == "inf" else err <= float(r[7])


def _assert_supershift_refused(tmp_path, capsys, orders):
    out = tmp_path / "s.csv"
    rc = main(["supershift", "--kind", "NEUMANN", "--t", "1.0",
               "--x", "1,1.5707963267948966", "--n-list", orders,
               "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "wall" in err or "digits" in err


def test_supershift_beyond_precision_wall_fails_cleanly(tmp_path, capsys):
    _assert_supershift_refused(tmp_path, capsys, "4,48")


def test_supershift_far_beyond_precision_wall_fails_cleanly(tmp_path, capsys):
    # Orders past 2000 once fell through a search limit; the wall refuses them too.
    _assert_supershift_refused(tmp_path, capsys, "4,2000")


def test_supershift_past_the_atom_bound_fails_cleanly(tmp_path, capsys):
    # below the digit wall at a = 1.0000001, n = 10^8 is refused for its
    # 10^8 + 1 atoms before any array is built
    out = tmp_path / "s.csv"
    rc = main(["supershift", "--t", "0.5", "--x", "1,1.2", "--a", "1.0000001",
               "--n-list", "100000000", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("supershift failed: ") and "memory bound" in err


@pytest.mark.parametrize("p1, reason", [("40", "target wave is not finite"),
                                         ("2000", "exceeds double range")])
def test_supershift_refuses_a_limit_wave_out_of_range(tmp_path, p1, reason):
    # (2^40, 2) overflows the table's series, 2^2000 the double itself; in
    # a fresh interpreter the refusal is one line, with no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(barrierwaves.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "barrierwaves.cli", "supershift", "--t", "1", "--x=1,0.3",
         "--p1", p1, "--out", str(tmp_path / "s.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("supershift failed: ") and reason in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------------
# greens subcommand
# ----------------------------------------------------------------------------


def test_greens_prints_value(tmp_path, capsys):
    rc = main(["greens", "--kind", "NEUMANN", "--t", "1.0",
               "--x", "1,1.5707963267948966", "--y", "1.3,0.9"])
    assert rc == 0
    parts = capsys.readouterr().out.split()
    got = complex(float(parts[0]), float(parts[1]))
    want = greens(BoundaryKind.NEUMANN, 1.0, PolarPoint(1.0, math.pi / 2), PolarPoint(1.3, 0.9))
    assert got == want


def test_greens_optional_csv(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["greens", "--kind", "DIRICHLET", "--t", "0.7",
               "--x", "1,0.3", "--y", "2,1.1", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["re", "im", "abs"]
    re, im, mag = (float(v) for v in rows[0])
    assert mag == pytest.approx(abs(complex(re, im)), rel=1e-12)


@pytest.mark.parametrize("t, y", [("1", "1e300,0.2"), ("1e-300", "1,0.2")])
def test_greens_refuses_a_non_finite_value(tmp_path, capsys, t, y):
    out = tmp_path / "g.csv"
    rc = main(["greens", "--t", t, "--x", "1,0.3", "--y", y, "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("greens failed: ") and "not finite" in captured.err
    assert not out.exists()


# ----------------------------------------------------------------------------
# validate subcommand
# ----------------------------------------------------------------------------


def test_validate_passes_and_reports(capsys):
    rc = main(["validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "8/8 suites passed" in out
    assert "max-residual" in out
    assert out.count("PASS") == 8


def test_validate_detects_injected_fault(capsys):
    signs = greens_module._SIGNS
    kind = greens_module.BoundaryKind.DIRICHLET
    original = signs[kind]
    signs[kind] = -original
    try:
        rc = main(["validate"])
    finally:
        signs[kind] = original
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert main(["validate"]) == 0
