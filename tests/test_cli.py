import ast
import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from poswalk.cli import main

DISTS = Path(__file__).resolve().parent.parent / "dists"


@pytest.fixture()
def tri_file(tmp_path):
    p = tmp_path / "tri.json"
    shutil.copy(DISTS / "trinomial.json", p)
    return str(p)


def run(args):
    return main(args)


def test_integral_check_exit_zero(tmp_path):
    rc = run(["integral-check", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "integral_check.csv").read_text().strip().split("\n")
    assert lines[0] == "b,z,closed_form,quadrature,rel_error"
    assert len(lines) == 17


def test_invalid_dist_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"support": [-1, 1], "probs": ["1/2", "1/2"]}')
    rc = run(["constants", "--dist", str(bad), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("support", ["[-1.5, 0, 1.5]", '["a", 0, 1]'])
def test_non_integer_support_exit_two(tmp_path, capsys, support):
    # -1.5 must not truncate to -1, nor "a" escape as a ValueError traceback
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"support": {support}, "probs": ["1/4", "1/2", "1/4"]}}')
    rc = run(["constants", "--dist", str(bad), "--kmax", "64", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error: support points must be integers")


@pytest.mark.parametrize("content", [
    b'{"support": [-1, 1, 1], "probs": ["1/2", 0.25, "1/4"]}',
    b'{"support": 5, "probs": ["1/2", "1/2"]}',
    b'\xff\xfe{}',
    b'{"support": [-1, 0, 1], "probs": [NaN, 0.5, 0.25]}',
], ids=["mixed-prob-types", "scalar-support", "not-utf8", "nan-prob"])
def test_malformed_file_exit_two(tmp_path, capsys, content):
    # each of these once escaped as a traceback with exit 1, the FAIL code
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    rc = run(["constants", "--dist", str(bad), "--kmax", "64", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_missing_file_exit_two(tmp_path, capsys):
    # no parser check: the law is loaded before any sweep, and its OSError is an input error
    out = tmp_path / "out"
    rc = run(["constants", "--dist", str(tmp_path / "nope.json"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("input error: [Errno 2] ")
    assert not out.exists()


def test_constants_schema_and_agreement(tri_file, tmp_path):
    rc = run(["constants", "--dist", tri_file, "--r", "2", "--kmax", "1024",
              "--out", str(tmp_path)])
    assert rc == 0
    blob = json.loads((tmp_path / "constants.json").read_text())
    assert blob["schema_version"] == 1
    assert blob["two_pipeline_agreement"]["pass"] is True
    assert blob["theta0"] > 0


def test_weak_and_strict_constants_differ(tri_file, tmp_path):
    run(["constants", "--dist", tri_file, "--kmax", "1024", "--out", str(tmp_path / "s"),
         "--barrier", "strict"])
    run(["constants", "--dist", tri_file, "--kmax", "1024", "--out", str(tmp_path / "w"),
         "--barrier", "weak"])
    s = json.loads((tmp_path / "s" / "constants.json").read_text())
    w = json.loads((tmp_path / "w" / "constants.json").read_text())
    assert w["theta0"] > s["theta0"]


def test_polys_r1_gives_only_p2(tri_file, tmp_path):
    rc = run(["polys", "--dist", tri_file, "--r", "1", "--kmax", "1024",
              "--out", str(tmp_path)])
    assert rc == 0
    blob = json.loads((tmp_path / "polys.json").read_text())
    assert set(blob["P"]) == {"2"}


def test_polys_p2_slope_is_reported_theta0(tmp_path):
    # --r 2 fits b with lmax 0; P_2(t) = (2 theta0 / sigma) t must be built
    # from the theta0 that polys.json reports, not from a second fit
    rc = run(["polys", "--dist", str(DISTS / "skewed.json"), "--r", "2", "--kmax", "1024",
              "--out", str(tmp_path)])
    assert rc == 0
    blob = json.loads((tmp_path / "polys.json").read_text())
    theta0 = blob["constants"]["theta0"]
    assert theta0 == blob["constants"]["b"]["0,0"]
    assert blob["P"]["2"][1] == 2 * theta0 / blob["sigma"]


def test_polys_json_has_no_negative_zero(tmp_path):
    # P = -2 Q scales only the stored coefficients, so the structural zeros of
    # P (the parity gaps) are written as 0.0, never as 0 * -2.0 = -0.0
    rc = run(["polys", "--dist", str(DISTS / "skewed.json"), "--r", "4", "--kmax", "1024",
              "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "polys.json").read_text()
    assert not re.search(r"-0\.0\b", text)
    blob = json.loads(text)
    zeros = [c for p in blob["P"].values() for c in p if c == 0]
    assert zeros and all(str(c) == "0.0" for c in zeros)


@pytest.mark.parametrize("barrier", ["strict", "weak"])
def test_polys_json_q_is_minus_half_p(tmp_path, barrier):
    # "Q" is written from P_nu = -2 Q_nu; halving a float is exact, so every
    # coefficient equals -P/2 bit for bit
    rc = run(["polys", "--dist", str(DISTS / "skewed.json"), "--r", "4", "--barrier", barrier,
              "--kmax", "1024", "--out", str(tmp_path)])
    assert rc == 0
    blob = json.loads((tmp_path / "polys.json").read_text())
    assert set(blob["Q"]) == set(blob["P"]) == {"2", "3", "4", "5"}
    for nu, p in blob["P"].items():
        assert blob["Q"][nu] == [-c / 2 for c in p]


@pytest.mark.parametrize("r, err", [
    pytest.param(4, "", id="r4"),
    pytest.param(5, "warning: r=5 above the validated range (r <= 4)\n", id="r5")])
def test_order_above_validated_range_is_one_stderr_line(tmp_path, capsys, r, err):
    # the CLI names an order above the validated range in one line of its
    # own; the library assembles it silently and polys.json is its assembly
    from poswalk import increments
    from poswalk.expansion import constants_for_order, expansion_polys

    skewed = str(DISTS / "skewed.json")
    rc = run(["polys", "--dist", skewed, "--r", str(r), "--kmax", "512", "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().err == err
    dist = increments.load(skewed)
    es = expansion_polys(dist, r, constants_for_order(dist, r, 512, "strict")[0])
    want = json.dumps(es.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "polys.json").read_text() == want


def test_verify_exact_mode_matches_float(tri_file, tmp_path):
    # --mode exact swaps the oracle rows for exact rationals and keeps the
    # float64 constant fits, so the series column cannot move; the float
    # oracle sits within its rounding floor (3.8e-15 relative at n = 64)
    tables = {}
    for mode in ("float", "exact"):
        rc = run(["verify", "--dist", tri_file, "--mode", mode, "--nmax", "64",
                  "--kmax", "512", "--out", str(tmp_path / mode)])
        assert rc == 0
        with open(tmp_path / mode / "error_table.csv", newline="") as fh:
            tables[mode] = list(csv.DictReader(fh))
    assert len(tables["exact"]) == len(tables["float"]) > 0
    for f, e in zip(tables["float"], tables["exact"]):
        assert (f["n"], f["x"], f["approx"]) == (e["n"], e["x"], e["approx"])
        assert float(f["exact"]) == pytest.approx(float(e["exact"]), rel=1e-14)


def test_verify_outputs_and_exit(tri_file, tmp_path):
    rc = run(["verify", "--dist", tri_file, "--r", "2", "--barrier", "weak",
              "--kmax", "1024", "--nmax", "400", "--out", str(tmp_path)])
    assert rc == 0
    table = (tmp_path / "error_table.csv").read_text().strip().split("\n")
    assert table[0] == "n,x,exact,approx,abs_err,scaled_err"
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["pass"] is True
    assert summary["n_list"] == [100, 400]
    # exact values are probabilities
    for line in table[1:]:
        exact = float(line.split(",")[2])
        assert 0.0 <= exact <= 1.0


def test_verify_byte_identical_reruns(tri_file, tmp_path):
    for sub in ("a", "b"):
        rc = run(["verify", "--dist", tri_file, "--r", "1", "--barrier", "weak",
                  "--kmax", "512", "--nmax", "400", "--out", str(tmp_path / sub)])
        assert rc == 0
    for name in ("error_table.csv", "verify_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _lattice_corrected(capsys, dist, r, out):
    """Run verify (strict, nmax 1600); the scale and values of its
    lattice-corrected interval deviation, as printed on stdout."""
    run(["verify", "--dist", dist, "--r", r, "--barrier", "strict", "--nmax", "1600",
         "--out", str(out)])
    line = next(l for l in capsys.readouterr().out.splitlines() if "lattice-corrected" in l)
    scale, values = re.search(r"lattice-corrected (\S+)\|p_n - R_n\| (\{.*?\})", line).groups()
    values = ast.literal_eval(values)
    assert list(values) == [100, 400, 1600]
    return scale, [float(v) for v in values.values()]


def test_verify_prints_lattice_corrected_interval_deviation(tmp_path, capsys):
    # the raw sqrt(n)|p_n - target| swings with the lattice term R_n - target;
    # without it the skewed walk's deviation is flat at its n^{-1/2} order
    # (0.126 / 0.125 / 0.131, as in acceptance criterion 10)
    scale, values = _lattice_corrected(capsys, str(DISTS / "skewed.json"), "2", tmp_path)
    assert scale == "sqrt(n)"
    assert max(values) / min(values) <= 2.0
    # the correction is a stdout diagnostic; the summary keeps its fields
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert set(summary) == {"schema_version", "r", "barrier", "n_list", "max_scaled_err",
                            "scaled_err_flatness", "flatness_band", "decay_exponents",
                            "be2_scaled_deviation", "be2_ratio", "pass"}


@pytest.mark.parametrize("r", ["1", "2"])
def test_verify_scales_interval_deviation_by_n_where_p3_vanishes(tri_file, tmp_path,
                                                                 capsys, r):
    # trinomial strict: P_3 = 0, so p_n - R_n is of order n^{-1}; n|p_n - R_n|
    # is flat (0.106 / 0.112 / 0.109, as in acceptance criterion 10), where
    # sqrt(n)|p_n - R_n| would read as decay (0.011 / 0.006 / 0.003)
    scale, values = _lattice_corrected(capsys, tri_file, r, tmp_path)
    assert scale == "n"
    assert max(values) / min(values) <= 2.0


def _csv_numbers(path):
    return [[float(v) for v in row] for row in csv.reader(path.read_text().splitlines()[1:])]


@pytest.mark.parametrize("name, barrier", [("trinomial", "weak"), ("skewed", "strict")])
@pytest.mark.parametrize("r", [1, 2])
def test_error_ladder_is_what_verify_and_report_write(tmp_path, name, barrier, r):
    # from one sweep, the ladder gives verify's summary and error table and
    # report's curves bit for bit: both commands measure through it alone
    from poswalk import increments
    from poswalk.expansion import (constants_for_order, error_ladder, expansion_polys,
                                   snapped_grid, window)

    path, ns = str(DISTS / f"{name}.json"), [100, 400, 1600]
    args = ["--dist", path, "--r", str(r), "--barrier", barrier, "--kmax", "1024",
            "--nmax", "1600", "--out", str(tmp_path)]
    # skewed strict r = 2 fails verify's gate (flatness 3.40, ROADMAP item 2)
    assert run(["verify", *args]) in (0, 1) and run(["report", *args]) == 0
    dist = increments.load(path)
    cs, rows = constants_for_order(dist, r, 1024, barrier, rows_at=ns)
    es = expansion_polys(dist, r, cs)

    grid = error_ladder(es, rows, snapped_grid)
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["max_scaled_err"] == {str(n): v for n, v in grid.max_scaled.items()}
    assert summary["decay_exponents"] == grid.decay
    assert summary["scaled_err_flatness"] == grid.flatness
    assert _csv_numbers(tmp_path / "error_table.csv") == grid.table
    curves = []
    for r_cur in range(1, r + 1):
        ladder = error_ladder(dataclasses.replace(es, r=r_cur), rows, window)
        curves += [[r_cur, n, ladder.max_err[n], ladder.max_scaled[n]] for n in ns]
    assert _csv_numbers(tmp_path / "report_scaled_err.csv") == curves


@pytest.mark.parametrize("name, r", [("trinomial", 1), ("skewed", 2)])
def test_interval_deviations_are_what_verify_writes(tmp_path, capsys, name, r):
    # verify's summary and its lattice-corrected stdout values come from the
    # one interval measurement: trinomial strict (P_3 = 0) scales p_n - R_n
    # by n, skewed strict by sqrt(n)
    from poswalk import increments
    from poswalk.expansion import constants_for_order, expansion_polys, interval_deviations

    path, ns = str(DISTS / f"{name}.json"), [100, 400, 1600]
    # skewed strict r = 2 fails verify's gate (flatness 3.40, ROADMAP item 2)
    # and still writes its files
    scale, printed = _lattice_corrected(capsys, path, str(r), tmp_path)
    dist = increments.load(path)
    cs, rows = constants_for_order(dist, r, 4096, "strict", rows_at=ns)
    es = expansion_polys(dist, r, cs)
    p3 = es.P[3]
    raw, lattice = interval_deviations(cs.sigma, rows, p3)
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["be2_scaled_deviation"] == {str(n): v for n, v in raw.items()}
    assert printed == [float(f"{v:.3f}") for v in lattice.values()]
    assert scale == ("sqrt(n)" if p3 else "n") == ("n" if name == "trinomial" else "sqrt(n)")


def test_report_files(tri_file, tmp_path):
    rc = run(["report", "--dist", tri_file, "--r", "2", "--barrier", "weak",
              "--kmax", "1024", "--nmax", "400", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("report_profile_n100.csv", "report_profile_n400.csv",
                 "report_scaled_err.csv", "report_u1.csv"):
        assert (tmp_path / name).exists()
    u1 = (tmp_path / "report_u1.csv").read_text().strip().split("\n")
    assert u1[0] == "u,u1,linear_ref"
    # the tabulated values hug the linear reference at large u
    u, v, ref = u1[-1].split(",")
    assert abs(float(v) - float(ref)) < 0.1 * float(ref)


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("kmax", [256, 512])
def test_float_verify_and_report_sweep_once(tri_file, tmp_path, sweep_log, command, kmax):
    # the constants (steps <= kmax) and the rows (n <= nmax) share one sweep,
    # whichever horizon is the larger
    rc = run([command, "--dist", tri_file, "--r", "1", "--kmax", str(kmax), "--nmax", "400",
              "--out", str(tmp_path)])
    assert rc == 0
    assert [s.exact for s in sweep_log] == [False] * max(kmax, 400)


@pytest.mark.parametrize("command", ["constants", "polys"])
def test_constants_and_polys_sweep_once(tri_file, tmp_path, sweep_log, command):
    # the fits read one float sweep to kmax, whatever the order
    rc = run([command, "--dist", tri_file, "--r", "3", "--kmax", "256", "--out", str(tmp_path)])
    assert rc == 0
    assert [s.exact for s in sweep_log] == [False] * 256


@pytest.mark.parametrize("command", ["verify", "report"])
def test_exact_verify_and_report_sweep_rows_apart(tri_file, tmp_path, sweep_log, command):
    # exact rows cannot share the constants' float sweep
    rc = run([command, "--dist", tri_file, "--r", "1", "--mode", "exact", "--kmax", "256",
              "--nmax", "48", "--out", str(tmp_path)])
    assert rc == 0
    assert [s.exact for s in sweep_log] == [True] * 48 + [False] * 256  # the exact rows first


@pytest.mark.parametrize("command", ["polys", "verify", "report"])
def test_kmax_below_one_exit_two(tri_file, tmp_path, command):
    # --kmax 0 is an input error in every command, not the default horizon
    assert run([command, "--dist", tri_file, "--kmax", "0", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["constants", "polys", "verify", "report"])
def test_kmax_beyond_memory_exit_two(tri_file, tmp_path, capsys, command):
    # a --kmax whose arrays cannot be allocated is an input error, not a
    # verification failure; at 10**15 the first array, theta[0] over the
    # stored steps (3.5 PB of float64), exceeds every address space, so its
    # allocation fails at once
    out = tmp_path / "out"
    assert run([command, "--dist", tri_file, "--kmax", str(10**15), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, nmax", [("verify", "4"), ("verify", "30"), ("report", "30")])
def test_horizon_without_lattice_points_exit_two(tmp_path, capsys, command, nmax):
    # sigma = 0.045: report's window [0.2, 3] sigma sqrt(n) holds no lattice
    # point x >= 1 at n = 4 or n = 30, which is an input error, not a FAIL,
    # in both commands (at n = 30 verify's grid would snap t = 4.08 to x = 1),
    # and the run writes no file
    lazy = tmp_path / "lazy.json"
    lazy.write_text('{"support": [-1, 0, 1], "probs": ["1/1000", "998/1000", "1/1000"]}')
    out = tmp_path / "out"
    out.mkdir()
    rc = run([command, "--dist", str(lazy), "--nmax", nmax, "--kmax", "64",
              "--out", str(out)])
    assert rc == 2
    assert f"at n={nmax}; use a larger --nmax" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("r", ["8", "0"])
def test_order_above_partition_cap_is_usage_error(tmp_path, capsys, sweep_log, r):
    # --r runs from 1 to cli.R_MAX = 7, the highest order the tests and CI
    # exercise: --r 8 or 0 is refused before any sweep, naming the option
    rc = run(["polys", "--dist", str(DISTS / "skewed.json"), "--r", r,
              "--out", str(tmp_path)])
    assert rc == 2
    assert "--r" in capsys.readouterr().err
    assert not sweep_log


def test_exact_mode_over_cap_fails_before_float_sweep(tmp_path, capsys, sweep_log):
    # the exact rows are swept first, so an over-cap horizon costs no float
    # steps and the message names a --mode value that exists
    rc = run(["verify", "--dist", str(DISTS / "skewed.json"), "--mode", "exact",
              "--nmax", "100", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "exact mode capped at n=64" in err and "(--mode float)" in err
    assert not sweep_log


def test_exact_mode_takes_float_probabilities_exactly(tmp_path, capsys):
    # 0.1 + 0.8 + 0.1 is 1 only to rounding: --mode exact loads the law
    # exactly and refuses it, writing nothing, while float mode accepts it
    law = tmp_path / "floats.json"
    law.write_text('{"support": [-1, 0, 1], "probs": [0.1, 0.8, 0.1]}')
    out = tmp_path / "out"
    rc = run(["verify", "--dist", str(law), "--mode", "exact", "--nmax", "64", "--kmax", "512",
              "--out", str(out)])
    assert rc == 2
    assert ("probabilities sum to 18014398509481985/18014398509481984, not 1"
            in capsys.readouterr().err)
    assert not out.exists()
    assert run(["verify", "--dist", str(law), "--mode", "float", "--nmax", "400", "--kmax", "512",
                "--out", str(out)]) == 0


@pytest.mark.parametrize("args, named", [
    ([], "command"),
    (["no-such-command"], "no-such-command"),
    (["verify", "--out", "{out}"], "--dist"),
    (["polys", "--dist", "{tri}", "--bar", "weak", "--out", "{out}"], "--bar"),
    (["polys", "--dist", "{tri}", "--barrier", "sideways", "--out", "{out}"], "--barrier"),
    (["verify", "--dist", "{tri}", "--nmax", "x", "--out", "{out}"], "--nmax"),
    # --mode selects the rows of verify and report; constants and polys have none
    (["constants", "--dist", "{tri}", "--mode", "exact", "--out", "{out}"], "--mode"),
    (["polys", "--dist", "{tri}", "--mode", "exact", "--out", "{out}"], "--mode"),
], ids=["no-command", "unknown-command", "no-dist", "abbreviation", "bad-choice", "bad-int",
        "constants-mode", "polys-mode"])
def test_usage_error_exit_two(tmp_path, capsys, sweep_log, args, named):
    # the parser refuses these before any sweep or file, naming what it refused;
    # options are never abbreviated
    out = tmp_path / "out"
    rc = run([a.format(out=out, tri=DISTS / "trinomial.json") for a in args])
    assert rc == 2
    assert named in capsys.readouterr().err.splitlines()[-1]  # the line below the usage
    assert not out.exists()
    assert not sweep_log


# each command's options and their defaults (None: required)
LAW_OPTIONS = {"--dist": None, "--r": "2", "--barrier": "strict", "--kmax": "4096", "--out": "out"}
ROW_OPTIONS = {**LAW_OPTIONS, "--mode": "float", "--nmax": "1600"}
COMMAND_OPTIONS = {"constants": LAW_OPTIONS, "polys": LAW_OPTIONS, "verify": ROW_OPTIONS,
                   "integral-check": {"--out": "out"}, "report": ROW_OPTIONS}


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_help_lists_every_option_with_its_default(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert run([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())  # undo the help's line wrapping
    options = COMMAND_OPTIONS[command]
    assert set(re.findall(r"--[a-z]+", text)) == {"--help", *options}
    for option, default in options.items():
        if default is not None:
            assert re.search(rf"{option} [^(]*\(default: {default}\)", text), option
    assert list(tmp_path.iterdir()) == []


def test_group_help_lists_the_commands(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["--help"]) == 0
    text = capsys.readouterr().out
    for command in COMMAND_OPTIONS:
        assert re.search(rf"^ +{command}\s", text, re.M), command
    assert list(tmp_path.iterdir()) == []


def test_verify_threshold_failure_exit_one(tri_file, tmp_path, monkeypatch):
    # a 1e-3 relative error in b[0,0] puts an n^{-1} term into P_2's error,
    # so the r = 2 error scaled by n^2 grows like n and leaves the band
    from poswalk.constants import ConstantSet

    b_value = ConstantSet.b_value
    monkeypatch.setattr(ConstantSet, "b_value", lambda self, l, h:
                        b_value(self, l, h) * (1 + 1e-3 if (l, h) == (0, 0) else 1))
    rc = run(["verify", "--dist", tri_file, "--r", "2", "--barrier", "strict",
              "--kmax", "512", "--nmax", "1600", "--out", str(tmp_path)])
    assert rc == 1
    summary = json.loads((tmp_path / "verify_summary.json").read_text())
    assert summary["pass"] is False
    assert summary["scaled_err_flatness"] > 3.0


@pytest.mark.parametrize("command, law, power", [
    ("verify", "trinomial", 2.0), ("verify", "skewed", 1.5),
    ("report", "trinomial", 2.0), ("report", "skewed", 1.5)])
def test_r1_error_scale_follows_p3(command, law, power, tmp_path):
    # trinomial strict: P_3 = 0, so the r = 1 error is of order n^{-2}, not
    # n^{-3/2}; verify scales it by n^2 and reads it flat (5.86e-2 / 5.87e-2 /
    # 5.87e-2) where n^{3/2} would read flatness 3.99 and fail a correct
    # pipeline, and report scales its r = 1 curve alike, where n^{3/2} would
    # halve it at every step (a 4x spread).  Skewed strict: P_3 != 0, so
    # r = 1 keeps the n^{3/2} scale.  report --r 2 writes the r = 1 curve too.
    options = (["--r", "1", "--kmax", "512", "--nmax", "400" if law == "skewed" else "1600"]
               if command == "verify" else ["--r", "2", "--kmax", "1024", "--nmax", "1600"])
    rc = run([command, "--dist", str(DISTS / f"{law}.json"), "--barrier", "strict", *options,
              "--out", str(tmp_path)])
    assert rc == 0
    name, abs_col, scaled_col = (
        ("error_table.csv", "abs_err", "scaled_err") if command == "verify"
        else ("report_scaled_err.csv", "max_abs_err", "max_scaled_err"))
    with open(tmp_path / name, encoding="utf-8") as fh:  # verify's rows are all r = 1
        rows = [(int(row["n"]), float(row[abs_col]), float(row[scaled_col]))
                for row in csv.DictReader(fh) if row.get("r", "1") == "1"]
    assert all(s == e * n**power for n, e, s in rows)
    if command == "report":
        assert [n for n, _, _ in rows] == [100, 400, 1600]
    if power == 2.0 and command == "verify":
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["pass"] is True
        assert summary["scaled_err_flatness"] < 1.1
        assert all(abs(e - 2.0) < 0.01 for e in summary["decay_exponents"].values())
    if power == 2.0 and command == "report":
        scaled = [s for _, _, s in rows]
        assert max(scaled) / min(scaled) < 1.1


def _fresh_python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports the package from src."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the package runs on numpy alone: with scipy and click blocked, each
    # command family still runs and passes, and neither gets loaded
    tri = str(DISTS / "trinomial.json")
    commands = [["integral-check", "--out", str(tmp_path)],
                ["constants", "--dist", tri, "--kmax", "256", "--out", str(tmp_path)],
                ["verify", "--dist", tri, "--mode", "exact", "--nmax", "64", "--kmax", "256",
                 "--out", str(tmp_path)]]
    out = _fresh_python(
        "import sys; sys.modules['scipy'] = sys.modules['click'] = None\n"
        "from poswalk.cli import main\n"
        f"rcs = [main(args) for args in {commands!r}]\n"
        "print(rcs, any(m.split('.')[0] in ('scipy', 'click') and sys.modules[m]"
        " for m in sys.modules))")
    assert out.strip().split("\n")[-1] == "[0, 0, 0] False"
    lines = (tmp_path / "integral_check.csv").read_text().strip().split("\n")
    assert len(lines) == 17  # header and 16 cases


def test_submodule_import_loads_only_its_dependencies():
    # the package re-exports nothing, so importing one layer does not pull
    # in the oracle or the assembly
    out = _fresh_python("import sys, poswalk.integral\n"
                        "print('poswalk.oracle' in sys.modules, 'poswalk.expansion' in sys.modules)")
    assert out.strip() == "False False"


def test_cli_import_leaves_integral_unloaded():
    # only integral-check reads the quadrature rules, so the other commands
    # do not pay for building them (or for importing numpy.polynomial)
    out = _fresh_python("import sys, poswalk.cli\n"
                        "print('poswalk.integral' in sys.modules, "
                        "'numpy.polynomial' in sys.modules)")
    assert out.strip() == "False False"


def test_numeric_failure_exit_three(tri_file, tmp_path):
    # kmax too small for the fit window: internal numeric failure, not input
    rc = run(["constants", "--dist", tri_file, "--kmax", "12", "--out", str(tmp_path)])
    assert rc == 3


def test_numeric_failure_names_itself_on_stderr(tri_file, tmp_path, capsys):
    run(["constants", "--dist", tri_file, "--kmax", "12", "--out", str(tmp_path)])
    assert capsys.readouterr().err.startswith("numeric failure: window")


@pytest.mark.parametrize("nmax, one_horizon", [(64, True), (400, False)])
def test_verify_says_when_flatness_is_untested(tri_file, tmp_path, capsys, nmax, one_horizon):
    # one horizon has flatness 1 by construction, so its pass tests nothing
    rc = run(["verify", "--dist", tri_file, "--kmax", "512", "--nmax", str(nmax),
              "--out", str(tmp_path)])
    assert rc == 0
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict.startswith("flatness ")
    assert verdict.endswith("-> pass; one horizon: flatness not tested") == one_horizon


def test_config_invariants_and_default_grid():
    from poswalk.expansion import horizons, snapped_grid

    assert horizons(1600) == [100, 400, 1600] and horizons(64) == [64]
    assert snapped_grid(sigma=1.0, n=100) == [2, 5, 10, 15, 20, 30]


def test_expansion_order_below_one_exit_two(tri_file, tmp_path):
    out = tmp_path / "out"
    for command in ("constants", "polys", "verify", "report"):
        assert run([command, "--dist", tri_file, "--r", "0", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("h", [0, 1])
def test_renewal_gate_fails_on_bookkeeping_error(tmp_path, monkeypatch, h):
    # the renewal sums and the limit fits read one sweep and agree to rounding,
    # so a 1e-6 relative error in either renewal sum (theta0 or theta1) must fail
    from poswalk import constants

    renewal = constants._renewal_sum
    monkeypatch.setattr(constants, "_renewal_sum", lambda dist, u1, barrier, hh:
                        renewal(dist, u1, barrier, hh) * (1 + 1e-6 if hh == h else 1))
    # weak barrier: the overshoot, and so theta1, is nonzero on this walk
    rc = run(["constants", "--dist", str(DISTS / "skewed.json"), "--barrier", "weak",
              "--kmax", "1024", "--out", str(tmp_path)])
    assert rc == 1
    blob = json.loads((tmp_path / "constants.json").read_text())
    assert blob["two_pipeline_agreement"]["pass"] is False
