"""The two scripts run end to end from the repository root.

They call public names of the package (`transform_darboux`, `verify_entry`,
...) that no other test reaches through a script, so a rename would
otherwise go unnoticed.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, last_line", [
    ("kdv_walkthrough.py", r"  still verifies: True"),
    ("catalog_report.py", r"35 entries in \d+\.\ds, 0 failures"),
])
def test_script_runs(name, last_line):
    proc = run_script(name)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(last_line, proc.stdout.splitlines()[-1])
