"""Tests for the command-line interface and its file formats."""

import csv
import importlib
import math

import numpy as np
import pytest

from barrierwaves.cli import main, parse_config, write_csv, write_pgm
from barrierwaves.geometry import PolarPoint
from barrierwaves.greens import BoundaryKind, greens

greens_module = importlib.import_module("barrierwaves.greens")


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


@pytest.mark.parametrize("flags", [["--n-rho", "16"], ["--n-theta", "12"], ["--alpha", "0"]])
def test_invalid_quadrature_spec_is_usage_error(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        main(["field", "--t", "1", "--x", "1,1", "--plane-wave", "0.5,0.5",
              "--out", str(tmp_path / "f.csv"), *flags])
    assert exc.value.code == 2


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
    base = ["field", "--kind", "DIRICHLET", "--t", "0.8",
            "--grid", "-1.5:1.5:5,-1.5:1.5:5", "--plane-wave", "0.4,-0.3"]
    a_csv, a_pgm = tmp_path / "a.csv", tmp_path / "a.pgm"
    b_csv, b_pgm = tmp_path / "b.csv", tmp_path / "b.pgm"
    assert main([*base, "--threads", "1", "--out", str(a_csv), "--pgm", str(a_pgm)]) == 0
    assert main([*base, "--threads", "4", "--out", str(b_csv), "--pgm", str(b_pgm)]) == 0
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_pgm.read_bytes() == b_pgm.read_bytes()


def test_field_single_point(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["field", "--kind", "NEUMANN", "--t", "1.0",
               "--x", "1,1.5707963267948966", "--plane-wave", "0.5,0.5",
               "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert len(rows) == 1


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


def test_supershift_beyond_precision_wall_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = main(["supershift", "--kind", "NEUMANN", "--t", "1.0",
               "--x", "1,1.5707963267948966", "--n-list", "4,48",
               "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "wall" in err or "digits" in err


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
