"""Command-line harness: constants, polys, verify, integral-check, report.

Every run is deterministic: identical configuration produces byte-identical
CSV/JSON artifacts, and no environment variable changes what a command does.

Exit codes: 0 success, 1 verification-threshold failure, 2 usage error (from
the parser) or input error (``InputError`` or an unreadable file), 3 numeric
failure (``NumericFailure``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import increments
from .constants import SCHEMA_VERSION, compute_constants, two_pipeline_agreement
from .errors import InputError, NumericFailure
from .expansion import (DEFAULT_R_CAP, ExpansionSet, b_range, error_ladder, expansion_polys,
                        horizons, interval_deviations, snapped_grid, window)
from .oracle import Row, killed_rows_at, tau_statistics

FLATNESS_BAND = 3.0
INTEGRAL_TOL = 1e-8
# the largest order --r accepts: the highest order that the tests and CI exercise
# (assembly is exact at every order, so this is a validation bound, not a numeric one)
R_MAX = 7


def _write_json(path: Path, obj: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _polys_and_rows(dist_path, r: int, barrier: str, kmax: int, mode: str = "float", ns=()
                    ) -> tuple[ExpansionSet, dict[int, Row]]:
    """The order-r expansion set and the survivor rows at ``ns``: load, sweep, fits, assembly.

    --mode exact loads the law exactly (float probabilities must then sum to
    1 and have mean 0 exactly).  The constant fits always run float64.  In
    float mode the sweep to kmax runs on to max(ns) and keeps the rows; --mode
    exact reads exact-rational rows from a sweep of their own (feasible up to
    the exact cap), run first so that an over-cap horizon fails before any
    float work.  An order above the validated range (``DEFAULT_R_CAP``) runs
    on after one warning line on stderr.
    """
    exact = mode == "exact"
    dist = increments.load(dist_path, exact)
    rows = killed_rows_at(dist, ns, barrier, mode="exact-rational") if exact else None
    stats = tau_statistics(dist, kmax, barrier, hmax=b_range(r), rows_at=() if exact else ns)
    rows = rows if exact else stats.rows
    cs = compute_constants(stats)
    if r > DEFAULT_R_CAP:
        print(f"warning: r={r} above the validated range (r <= {DEFAULT_R_CAP})", file=sys.stderr)
    return expansion_polys(dist, r, cs), rows


def cmd_constants(dist_path, r, barrier, kmax, out_dir):
    """Compute theta0, theta1, b and the U1 table; write constants.json."""
    cs = compute_constants(tau_statistics(increments.load(dist_path), kmax, barrier,
                                          hmax=b_range(r)))
    agree = two_pipeline_agreement(cs)
    _write_json(out_dir / "constants.json", {**cs.to_json_dict(), "two_pipeline_agreement": agree})
    print(f"theta0={cs.theta0!r} theta1={cs.theta1!r} "
          f"two-pipeline agreement: {'pass' if agree['pass'] else 'FAIL'}")
    return 0 if agree["pass"] else 1


def cmd_polys(dist_path, r, barrier, kmax, out_dir):
    """Assemble P_2..P_{r+1}; write polys.json."""
    es, _ = _polys_and_rows(dist_path, r, barrier, kmax)
    _write_json(out_dir / "polys.json", es.to_json_dict())
    for nu in range(2, r + 2):
        p = es.P[nu]
        print(f"P_{nu}: degree {p.degree() if p else 0}, "
              f"coeffs {[float(c) for c in p.coeffs]}")
    return 0


def cmd_verify(dist_path, r, barrier, kmax, mode, out_dir, nmax):
    """Exact-vs-expansion error table, decay exponents and interval check."""
    ns = horizons(nmax)
    es, rows_by_n = _polys_and_rows(dist_path, r, barrier, kmax, mode, ns)
    ladder = error_ladder(es, rows_by_n, ns, snapped_grid)
    # be2_dev swings with the lattice term R_n - target, which comes from the
    # limit law alone; the stdout line also shows p_n - R_n at its order
    be2_dev, be2_lattice_dev = interval_deviations(es.sigma, rows_by_n, ns, es.P[3])
    _write_csv(out_dir / "error_table.csv",
               ["n", "x", "exact", "approx", "abs_err", "scaled_err"], ladder.table)
    be2_ratio = (max(be2_dev.values()) / min(be2_dev.values())
                 if min(be2_dev.values()) > 0 else float("inf"))
    # gate on flatness only: the BE2 scaled deviation oscillates with the
    # lattice placement of the interval endpoints, so its spread across a
    # few horizons is reported but not thresholded.  One horizon (exact mode,
    # or nmax below 400) has flatness 1 by construction and always passes.
    ok = ladder.flatness <= FLATNESS_BAND
    summary = {
        "schema_version": SCHEMA_VERSION,
        "r": r,
        "barrier": barrier,
        "n_list": ns,
        "max_scaled_err": {str(n): ladder.max_scaled[n] for n in ns},
        "scaled_err_flatness": ladder.flatness,
        "flatness_band": FLATNESS_BAND,
        "decay_exponents": ladder.decay,
        "be2_scaled_deviation": {str(n): be2_dev[n] for n in ns},
        "be2_ratio": be2_ratio,
        "pass": bool(ok),
    }
    _write_json(out_dir / "verify_summary.json", summary)
    print(f"max scaled err per n: { {n: f'{v:.4e}' for n, v in ladder.max_scaled.items()} }")
    print(f"decay exponents: { {k: f'{v:.3f}' for k, v in ladder.decay.items()} }")
    print(f"flatness {ladder.flatness:.2f} (band {FLATNESS_BAND}), "
          f"BE2 scaled deviations { {n: f'{v:.3f}' for n, v in be2_dev.items()} } "
          f"lattice-corrected {'sqrt(n)' if es.P[3] else 'n'}|p_n - R_n| "
          f"{ {n: f'{v:.3f}' for n, v in be2_lattice_dev.items()} } "
          f"-> {'pass' if ok else 'FAIL'}"
          + ("; one horizon: flatness not tested" if len(ns) == 1 else ""))
    return 0 if ok else 1


def cmd_integral_check(out_dir):
    """Quadrature vs closed form for the half-line Gaussian-tail integral."""
    # imported here: its Gauss-Legendre rules (and numpy.polynomial) load on
    # import, and no other command reads them
    from .integral import integral_check

    rows = integral_check()
    out = [[r.b, r.z, r.closed, r.quadrature, r.rel_error] for r in rows]
    _write_csv(Path(out_dir) / "integral_check.csv",
               ["b", "z", "closed_form", "quadrature", "rel_error"], out)
    worst = max(r.rel_error for r in rows)
    print(f"{len(rows)} cases, worst relative error {worst:.3e}")
    return 0 if worst <= INTEGRAL_TOL else 1


def cmd_report(dist_path, r, barrier, kmax, mode, out_dir, nmax):
    """Plot-ready data: profiles per n, scaled-error curves, U1 table."""
    ns = horizons(nmax)
    es, rows_by_n = _polys_and_rows(dist_path, r, barrier, kmax, mode, ns)
    sigma = es.sigma

    profiles = {}
    for n in ns:
        row, hi = rows_by_n[n], int(3.5 * sigma * math.sqrt(n))
        profiles[n] = [[x / (sigma * math.sqrt(n)), float(row.get(x, 0.0)), es.evaluate(n, x)]
                       for x in range(1, hi + 1)]

    curves = []
    for r_cur in range(1, r + 1):
        ladder = error_ladder(dataclasses.replace(es, r=r_cur), rows_by_n, ns, window)
        curves += [[r_cur, n, ladder.max_err[n], ladder.max_scaled[n]] for n in ns]

    # U1 grows linearly with slope 2 theta0 / sigma^2 (oracle-validated)
    slope = 2.0 * es.constants.theta0 / sigma**2
    u1_rows = [[u, v, slope * u] for u, v in sorted(es.constants.u1_table.items())]

    # every file is computed before the first is written: an input error leaves none
    for n, prof in profiles.items():
        _write_csv(out_dir / f"report_profile_n{n}.csv", ["t", "exact", "approx"], prof)
    _write_csv(out_dir / "report_scaled_err.csv",
               ["r", "n", "max_abs_err", "max_scaled_err"], curves)
    _write_csv(out_dir / "report_u1.csv", ["u", "u1", "linear_ref"], u1_rows)
    print(f"wrote report files to {out_dir}")
    return 0


def _parser() -> argparse.ArgumentParser:
    """The option parser: one subparser per command, whose ``func`` default runs it."""
    # allow_abbrev=False on every parser: --bar is not --barrier
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    # required, so no default to show in --help
    shared.add_argument("--dist", dest="dist_path", metavar="FILE", required=True,
                        default=argparse.SUPPRESS, help="distribution JSON file")
    shared.add_argument("--r", type=int, choices=range(1, R_MAX + 1), default=2,
                        metavar=f"1..{R_MAX}", help="expansion order")
    shared.add_argument("--barrier", choices=["strict", "weak"], default="strict",
                        help="barrier convention")
    shared.add_argument("--kmax", type=int, default=4096, help="horizon for constant fits")
    rows = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    rows.add_argument("--mode", choices=["exact", "float"], default="float",
                      help="arithmetic of the oracle rows")
    rows.add_argument("--nmax", type=int, default=1600,
                      help="largest horizon in the n list 100,400,...")

    top = argparse.ArgumentParser(prog="poswalk", allow_abbrev=False, description=(
        "Expansion polynomials for walks conditioned to stay positive."))
    commands = top.add_subparsers(metavar="command", required=True)
    # built on each call of main, so a cmd_* name rebound after import (a
    # tracer's wrapper, a test's stub) is the one the command runs
    for name, func, parents, text in [
            ("constants", cmd_constants, [shared], "theta0, theta1, b, U1; write constants.json"),
            ("polys", cmd_polys, [shared], "assemble P_2..P_{r+1}; write polys.json"),
            ("verify", cmd_verify, [shared, rows], "error table, decay exponents, interval check"),
            ("integral-check", cmd_integral_check, [], "tail-integral quadrature vs closed form"),
            ("report", cmd_report, [shared, rows], "plot-ready profiles, error curves, U1")]:
        sub = commands.add_parser(name, parents=parents, help=text, description=text,
                                  allow_abbrev=False,
                                  formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sub.add_argument("--out", dest="out_dir", metavar="DIR", type=Path,
                         default=Path("out"), help="output directory")
        sub.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:  # --help (0) or a usage error (2), already printed
        return exc.code
    try:
        return args.pop("func")(**args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
