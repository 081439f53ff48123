"""The study script in scripts/ runs end to end.

Besides the CLI it is the only consumer of the oracle, constants and
expansion API outside the tests, so a change to that API must keep it running.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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

