"""The study scripts in scripts/ run end to end.

Besides the CLI they are the only consumers of the oracle and constants API,
so a change to that API must keep them running.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_accuracy_study():
    lines = run_script("accuracy_study.py", "--kmax", "512", "--nmax", "400")
    assert lines[0] == "# horizons [100, 400], constants fitted to kmax=512"
    # three walks, two barriers, three orders
    assert len(lines) == 1 + 3 * 2 * 3
    assert all("E(n) =" in line and "exponents" in line for line in lines[1:])


def test_negative_power_report():
    lines = run_script("negative_power_report.py")
    assert lines[0].startswith("individual blocks: ")
    assert "non-cancelling examples (j, l, m, min exponent):" in lines
    assert "assembled residues (relative to the polynomial scale):" in lines
