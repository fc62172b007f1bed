"""The experiment scripts run end to end on small inputs and write their CSV headers."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("edge_experiment.py", ["--n", "30", "--reps", "16", "--beta", "1"],
     ["t", "gaussian", "fixed_trace", "closed_form"]),
    ("semicircle_experiment.py", ["--reps", "8", "--sizes", "10", "20"],
     ["beta", "n", "bin_center", "height", "semicircle"]),
])
def test_script_writes_its_csv(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header and len(rows) > 1
