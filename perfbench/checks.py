"""Outcome checks on the artifacts of one CLI invocation, and the reference errors.

An invocation is counted as failed when its exit code is not a verdict
(0 pass, 1 threshold FAIL), or when an artifact it must write is missing,
does not parse, breaks its schema, holds a non-finite number, or has an
``exact`` probability outside [0, 1].  Extra files are allowed (later
versions may add fields and files) but are hashed with the rest.

``ref_errors`` compares reported numbers of the trinomial walk with closed
forms the test suite already pins:

* theta0, strict barrier:  sigma / (2 sqrt(2 pi))
* theta0, weak barrier:    1 / (sigma sqrt(2 pi))
* U1(u), weak barrier:     (2u + 2) / (sigma^3 sqrt(2 pi))
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

VERDICT_CODES = (0, 1)
TRINOMIAL_SIGMA = math.sqrt(0.6)
ROOT_2PI = math.sqrt(2.0 * math.pi)
# gross-error tolerances for the `correct` flag; the measured errors are
# reported separately as ref_err
THETA0_TOL = 1e-6
U1_TOL = 0.05

CSV_HEADERS = {
    "error_table.csv": ["n", "x", "exact", "approx", "abs_err", "scaled_err"],
    "integral_check.csv": ["b", "z", "closed_form", "quadrature", "rel_error"],
    "report_scaled_err.csv": ["r", "n", "max_abs_err", "max_scaled_err"],
    "report_u1.csv": ["u", "u1", "linear_ref"],
    "report_profile": ["t", "exact", "approx"],
}
JSON_KEYS = {
    "constants.json": {"schema_version", "barrier", "sigma", "kmax", "theta0", "theta1", "b",
                       "u1", "provenance", "two_pipeline_agreement"},
    "polys.json": {"schema_version", "r", "barrier", "sigma", "P", "Q", "constants"},
    "verify_summary.json": {"schema_version", "r", "barrier", "n_list", "max_scaled_err",
                            "scaled_err_flatness", "flatness_band", "decay_exponents",
                            "be2_scaled_deviation", "be2_ratio", "pass"},
}


def n_list(nmax: int | None) -> list[int]:
    """The CLI's horizon ladder 100, 400, 1600, 6400 cut at nmax."""
    ns = [n for n in (100, 400, 1600, 6400) if nmax is None or n <= nmax]
    return ns or [nmax]


def expected_artifacts(command: str, opts: dict) -> list[str]:
    if command == "constants":
        return ["constants.json"]
    if command == "polys":
        return ["polys.json"]
    if command == "verify":
        return ["error_table.csv", "verify_summary.json"]
    if command == "integral-check":
        return ["integral_check.csv"]
    if command == "report":
        ns = n_list(int(opts.get("--nmax", 1600)))
        return [f"report_profile_n{n}.csv" for n in ns] + ["report_scaled_err.csv",
                                                            "report_u1.csv"]
    raise ValueError(f"unknown command {command}")


def _finite_numbers(obj, where: str) -> list[str]:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [f"{where}: non-finite {obj!r}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _finite_numbers(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _finite_numbers(v, f"{where}[{i}]")]
    return [f"{where}: unexpected {type(obj).__name__}"]


def _check_json(path: Path, name: str, command: str, opts: dict) -> list[str]:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{name}: does not parse ({exc})"]
    if not isinstance(obj, dict):
        return [f"{name}: not an object"]
    problems = [f"{name}: missing key {k}" for k in sorted(JSON_KEYS[name] - obj.keys())]
    problems += _finite_numbers(obj, name)
    if problems:
        return problems
    barrier = opts.get("--barrier", "strict")
    if obj["barrier"] != barrier:
        problems.append(f"{name}: barrier {obj['barrier']} != {barrier}")
    if name == "constants.json" and obj["kmax"] != int(opts.get("--kmax", 4096)):
        problems.append(f"{name}: kmax {obj['kmax']} != requested")
    if name == "polys.json":
        r = int(opts.get("--r", 2))
        if sorted(obj["P"], key=int) != [str(nu) for nu in range(2, r + 2)]:
            problems.append(f"{name}: P orders {sorted(obj['P'])} do not match r={r}")
    if name == "verify_summary.json":
        if obj["n_list"] != n_list(int(opts.get("--nmax", 1600))):
            problems.append(f"{name}: n_list {obj['n_list']} != requested")
        if not isinstance(obj["pass"], bool):
            problems.append(f"{name}: pass is not a boolean")
    return problems


def _check_csv(path: Path, name: str) -> list[str]:
    key = "report_profile" if name.startswith("report_profile_n") else name
    header = CSV_HEADERS[key]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return [f"{name}: does not parse ({exc})"]
    if not rows or rows[0] != header:
        return [f"{name}: header {rows[0] if rows else None} != {header}"]
    if len(rows) < 2:
        return [f"{name}: no data rows"]
    problems = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            problems.append(f"{name}:{i}: {len(row)} fields")
            continue
        try:
            vals = [float(v) for v in row]
        except ValueError:
            problems.append(f"{name}:{i}: non-numeric field")
            continue
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"{name}:{i}: non-finite value")
        elif "exact" in header and not 0.0 <= vals[header.index("exact")] <= 1.0:
            problems.append(f"{name}:{i}: exact {vals[header.index('exact')]} outside [0, 1]")
        if len(problems) >= 5:
            break
    return problems


def check_artifacts(out_dir: Path, command: str, opts: dict) -> list[str]:
    """Problems found in the artifacts of one invocation (empty list: all good)."""
    problems = []
    for name in expected_artifacts(command, opts):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif name.endswith(".json"):
            problems += _check_json(path, name, command, opts)
        else:
            problems += _check_csv(path, name)
    return problems


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def ref_errors(out_dir: Path, command: str, opts: dict) -> list[tuple[str, float, float]]:
    """(label, relative error, tolerance) for each closed-form number reported.

    Only trinomial-walk invocations carry closed forms; others give [].
    """
    sigma = TRINOMIAL_SIGMA
    weak = opts.get("--barrier", "strict") == "weak"
    theta0 = 1.0 / (sigma * ROOT_2PI) if weak else sigma / (2.0 * ROOT_2PI)

    def u1(u: int) -> float:
        return (2 * u + 2) / (sigma**3 * ROOT_2PI)

    out = []
    if command == "constants":
        obj = json.loads((out_dir / "constants.json").read_text(encoding="utf-8"))
        agree = obj["two_pipeline_agreement"]
        for label, v in (("theta0", obj["theta0"]), ("theta0_limit", agree["theta0_limit"]),
                         ("theta0_from_u1", agree["theta0_from_u1"])):
            out.append((label, abs(v - theta0) / theta0, THETA0_TOL))
        if weak:
            for u, v in obj["u1"].items():
                out.append((f"u1[{u}]", abs(v - u1(int(u))) / u1(int(u)), U1_TOL))
    elif command == "report" and weak:
        with open(out_dir / "report_u1.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                u = int(row["u"])
                out.append((f"u1[{u}]", abs(float(row["u1"]) - u1(u)) / u1(u), U1_TOL))
                if u >= 1:  # linear_ref = (2 theta0 / sigma^2) u
                    ref = 2.0 * theta0 / sigma**2 * u
                    out.append((f"linear_ref[{u}]", abs(float(row["linear_ref"]) - ref) / ref,
                                THETA0_TOL))
    return out
