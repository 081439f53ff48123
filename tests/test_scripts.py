"""The scripts in scripts/: the study script runs end to end, the contract's cases are sound.

Besides the CLI the study script is the only consumer of the oracle,
constants and expansion API outside the tests, so a change to that API must
keep it running.  The contract's case list is checked without running a case.
"""

import contextlib
import io
import string
import subprocess
import sys
from pathlib import Path

from poswalk import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import contract  # noqa: E402


def run_script(name, *args, rc=0):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == rc, proc.stderr
    return proc.stdout.splitlines()


def test_accuracy_study():
    lines = run_script("accuracy_study.py", "--kmax", "512", "--nmax", "400")
    assert lines[0] == "# horizons [100, 400], constants fitted to kmax=512"
    # three walks, two barriers, three orders
    assert len(lines) == 1 + 3 * 2 * 3
    assert all("E(n) =" in line and "exponents" in line for line in lines[1:])


def test_accuracy_study_needs_two_horizons():
    # below --nmax 400 there is at most one horizon, so no decay exponent
    assert run_script("accuracy_study.py", "--kmax", "64", "--nmax", "399", rc=2) == []


def _parsed(args):
    """The CLI's parsed options for ``args``, or None where the parser rejects them."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._parser().parse_args(args))
    except SystemExit:
        return None


def _cli_args(case):
    """The arguments after ``poswalk`` that a CLI case runs (law NAME as NAME.json), or None."""
    argv = contract.argv(case, {name: f"{name}.json" for name in contract.LAWS})
    return argv[3:] if argv[1:3] == ["-m", "poswalk.cli"] else None


def test_contract_cases_parse_unless_they_must_exit_2():
    for codes, case in contract.CASES:
        args = _cli_args(case)
        if args is not None and _parsed(args) is None:
            assert codes == contract.USAGE, case


def test_contract_cases_read_only_the_laws_it_writes():
    for _, case in contract.CASES:
        fields = {field for _, field, _, _ in string.Formatter().parse(case) if field}
        assert fields <= contract.LAWS.keys(), case


def test_contract_lists_every_workload_command():
    # matched by parsed options, so the order they are written in does not matter
    listed = [_parsed(args) for args in map(_cli_args, (case for _, case in contract.CASES))
              if args is not None]
    for commands in contract.perfbench.WORKLOADS.values():
        for command, dist, options in commands:
            args = [command, *(["--dist", f"{dist}.json"] if dist else []), *options.split()]
            assert _parsed([*args, "--out", "out"]) in listed, args
