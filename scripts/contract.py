#!/usr/bin/env python3
"""The artifact contract: one list of CLI calls, each with the exit codes it may give.

Every case runs in a process of its own, in a fresh directory
OUT/cases/NN, with ``--out out``: the path is relative because ``report``
prints it, so stdout stays the same wherever OUT is.  The script checks each
exit code, and that a case which must exit 2 writes no file.  It writes
OUT/digests.json: for each case, keyed by its command as listed, the exit
code, the sha256 of stdout and the sha256 of every file the case wrote.

The program is this checkout's ``src/``.  Two runs on one machine must write
the same digests.  So must a parent checkout and a change that keeps every
artifact byte: copy this script into the parent's ``scripts/``, run it there
and here, and compare the two digests.json files with ``--diff`` (CI's
``base-bytes`` job does this on every pull request).  Float bits may differ
between BLAS builds, so only digests from one machine compare.

The perfbench workload commands and the seed walk are read from
perfbench/run.py and perfbench/walkgen.py, so they are listed once.

Usage: python scripts/contract.py OUT     (OUT must not exist yet)
       python scripts/contract.py --diff A.json B.json

Exit status: 0 when every check passes, 1 when one fails (digests.json is
still written), 2 on a usage error.  ``--diff`` prints the cases whose
digests differ, with the parts that differ, and exits 0: it reports, it
does not check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run as perfbench  # noqa: E402
import walkgen  # noqa: E402

# every law a case reads (its bytes, or the checkout's file to copy), written
# to OUT/laws/NAME.json; a case names one as {NAME}
LAWS = {
    **{name: ROOT / path for name, path in perfbench.DISTS.items()},
    # seed walk 1, a law with min step -2: the kill cut is 3 (strict) or 2
    # (weak) cells at k = 1, and its cone cut engages near k = 13250
    "seed-walk": json.dumps(walkgen.seed_walk(perfbench.DEFAULT_SEED)).encode(),
    # (2,3,1,3,2)/11: the widest subnormal band at k = 16384, which the
    # constants' cone trims
    "plateau": b'{"support": [-2, -1, 0, 1, 2], '
               b'"probs": ["2/11", "3/11", "1/11", "3/11", "2/11"]}',
    # {-8, 0, 1}: 9 (strict) or 8 (weak) killed cells a step, which numpy
    # sums pairwise into theta
    "wide": b'{"support": [-8, 0, 1], "probs": ["1/10", "1/10", "4/5"]}',
    "half": b'{"support": [-1.5, 0, 1.5], "probs": ["1/4", "1/2", "1/4"]}',
    "scalar": b'{"support": 5, "probs": ["1/2", "1/2"]}',
    "not-utf8": b"\xff\xfe{}",
    "lazy": b'{"support": [-1, 0, 1], "probs": ["1/1000", "998/1000", "1/1000"]}',
}

OK, USAGE, NUMERIC = (0,), (2,), (3,)
# (the exit codes a case may give, its command); `poswalk` runs this
# checkout's CLI with --out out added, `python` runs a script of this checkout
CASES = [
    (USAGE, "poswalk"),
    (USAGE, "poswalk constants --dist {half} --kmax 64"),
    (USAGE, "poswalk constants --dist {scalar} --kmax 64"),
    (USAGE, "poswalk constants --dist {not-utf8} --kmax 64"),
    (USAGE, "poswalk verify --dist {lazy} --nmax 4 --kmax 64"),
    (USAGE, "poswalk verify --dist {lazy} --nmax 30 --kmax 64"),
    (USAGE, "poswalk report --dist {lazy} --nmax 30 --kmax 64"),
    (USAGE, "poswalk polys --dist {skewed} --r 8"),
    (USAGE, "poswalk verify --dist {skewed} --mode exact --nmax 100"),
    # options are not abbreviated: --bar is not --barrier
    (USAGE, "poswalk polys --dist {skewed} --bar weak"),
    # kmax too small for the fit window
    (NUMERIC, "poswalk constants --dist {trinomial} --kmax 12"),
    (OK, "poswalk constants --dist {skewed} --r 3 --barrier weak --kmax 512"),
    (OK, "poswalk polys --dist {skewed} --r 3 --kmax 512"),
    (OK, "poswalk verify --dist {trinomial} --barrier weak --kmax 512 --nmax 400"),
    (OK, "poswalk report --dist {trinomial} --barrier weak --kmax 512 --nmax 400"),
    (OK, "poswalk verify --dist {skewed} --kmax 256 --nmax 400"),
    (OK, "poswalk verify --dist {trinomial} --mode exact --nmax 64 --kmax 512"),
    # the exact rows under the weak barrier
    (OK, "poswalk verify --dist {skewed} --mode exact --barrier weak --nmax 64 --kmax 512"),
    (OK, "poswalk report --dist {skewed} --mode exact --nmax 64 --kmax 512"),
    (OK, "poswalk report --dist {trinomial} --r 2 --nmax 400 --kmax 512"),
    (OK, "poswalk polys --dist {skewed} --r 7 --kmax 1024"),
    (OK, "poswalk polys --dist {skewed} --r 7 --barrier weak --kmax 1024"),
    # the symmetric law: odd ghat and odd P_nu come out exactly zero
    (OK, "poswalk polys --dist {trinomial} --r 7 --kmax 1024"),
    (OK, "poswalk constants --dist {skewed} --r 3 --barrier weak --kmax 4096"),
    (OK, "poswalk report --dist {skewed} --r 4 --kmax 1024 --nmax 400"),
    (OK, "poswalk constants --dist {plateau} --r 3 --kmax 16384"),
    (OK, "poswalk constants --dist {wide} --r 3 --kmax 4096"),
    (OK, "poswalk constants --dist {wide} --r 3 --kmax 4096 --barrier weak"),
    # P_3 = 0: verify scales p_n - R_n by n
    (OK, "poswalk verify --dist {trinomial} --r 1 --nmax 1600"),
    # P_3 != 0 at r = 1: polys.json holds P_2 alone, report scales order 1 by n^1.5
    (OK, "poswalk polys --dist {skewed} --r 1 --kmax 512"),
    (OK, "poswalk report --dist {skewed} --r 1 --kmax 512 --nmax 400"),
    # these perfbench workload commands must pass, not only give a verdict
    (OK, "poswalk integral-check"),
    (OK, "poswalk constants --dist {trinomial} --r 3 --kmax 16384"),
    (OK, "poswalk constants --dist {skewed} --r 3 --kmax 16384 --barrier weak"),
    (OK, "poswalk constants --dist {seed-walk} --r 3 --kmax 16384"),
    (OK, "poswalk report --dist {trinomial} --r 2 --barrier weak --nmax 6400"),
    (OK, "poswalk verify --dist {seed-walk} --r 2 --barrier weak --nmax 6400"),
    (OK, "python scripts/accuracy_study.py --kmax 512 --nmax 400"),
]
WORKLOAD_COMMANDS = [" ".join(["poswalk", command, *(["--dist", f"{{{dist}}}"] if dist else []),
                               *options.split()])
                     for commands in perfbench.WORKLOADS.values()
                     for command, dist, options in commands]
CASES += [(checks.VERDICT_CODES, c) for c in WORKLOAD_COMMANDS
          if c not in {case for _, case in CASES}]


def argv(case: str, laws: dict[str, str]) -> list[str]:
    """The process argv of a case's command, its {NAME} placeholders filled from ``laws``."""
    program, *args = [word.format(**laws) for word in case.split()]
    if program == "python":
        return [sys.executable, str(ROOT / args[0]), *args[1:]]
    return [sys.executable, "-m", "poswalk.cli", *args, *(["--out", "out"] if args else [])]


def diff(a_path: Path, b_path: Path) -> None:
    """Print which cases differ between two digests.json files, and in which parts:
    exit, stdout or an artifact file's name; a case listed in one file only says so."""
    for path in (a_path, b_path):
        if not path.exists():
            print(f"{path}: no digests (did its run stop early?)")
            return
    a, b = (json.loads(path.read_text(encoding="utf-8")) for path in (a_path, b_path))
    differ = sorted(case for case in a.keys() | b.keys() if a.get(case) != b.get(case))
    print(f"{len(a)} and {len(b)} cases: "
          + (f"{len(differ)} differ" if differ else "same digests"))
    for case in differ:
        if case not in a or case not in b:
            print(f"  {case}: only in {a_path if case in a else b_path}")
            continue
        x, y = a[case], b[case]
        parts = [key for key in ("exit", "stdout") if x[key] != y[key]]
        parts += [f for f in sorted(x["files"].keys() | y["files"].keys())
                  if x["files"].get(f) != y["files"].get(f)]
        print(f"  {case}: {', '.join(parts)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", type=Path, nargs="?", help="output directory (must not exist yet)")
    ap.add_argument("--diff", type=Path, nargs=2, metavar=("A", "B"),
                    help="compare two digests.json files instead of running the cases")
    args = ap.parse_args()
    if args.diff:
        diff(*args.diff)
        return 0
    if args.out is None:
        ap.error("OUT is required")
    out = args.out.resolve()
    try:
        out.mkdir(parents=True)
    except FileExistsError:
        ap.error(f"{out} exists")
    (out / "laws").mkdir()
    laws = {}
    for name, content in LAWS.items():
        path = out / "laws" / f"{name}.json"
        path.write_bytes(content if isinstance(content, bytes) else content.read_bytes())
        laws[name] = str(path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    t0 = time.perf_counter()
    digests, failed = {}, 0
    for i, (codes, case) in enumerate(CASES):
        cwd = out / "cases" / f"{i:02d}"
        cwd.mkdir(parents=True)
        proc = subprocess.run(argv(case, laws), cwd=cwd, env=env, capture_output=True)
        files = checks.digests(cwd)
        digests[case] = {"exit": proc.returncode,
                         "stdout": hashlib.sha256(proc.stdout).hexdigest(), "files": files}
        wrong = []
        if proc.returncode not in codes:
            wrong.append(f"exit {proc.returncode}, expected {' or '.join(map(str, codes))}")
        if codes == USAGE and files:
            wrong.append(f"must exit 2 but wrote {', '.join(files)}")
        for msg in wrong:
            print(f"contract: FAIL {case}: {msg}\n{proc.stderr.decode(errors='replace')}",
                  file=sys.stderr)
        failed += bool(wrong)

    (out / "digests.json").write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"{len(CASES)} cases, {failed} failed, in {time.perf_counter() - t0:.1f} s; "
          f"digests in {out / 'digests.json'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
