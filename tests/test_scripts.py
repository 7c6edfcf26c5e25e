"""Smoke runs of the experiment scripts in scripts/, each in a fresh interpreter.

Each runs under ``-W error::RuntimeWarning``, the warning rule pyproject sets
for in-process tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cknlab
from cknlab.cli import main

SRC = Path(cknlab.__file__).resolve().parent.parent
SCRIPTS = SRC.parent / "scripts"
PYTHON = [sys.executable, "-W", "error::RuntimeWarning"]

REGIME_FILES = [f"regime_d3_offset{o}.csv" for o in ("0", "0.2", "0.4", "0.5", "0.6", "0.8")]
THRESHOLD_FILES = ["spectrum_d3_n6.csv", "spectrum_d2_n4.csv", "spectrum_d4_n8.csv",
                   "threshold_summary.json"]


@pytest.mark.parametrize("script, args, files, printed", [
    ("run_regime_scan.py", ["OUT"], REGIME_FILES, "offset 0.8: 500 rows -> "),
    ("run_threshold_study.py", ["OUT"], THRESHOLD_FILES, "(d=4, n=8): numeric "),
    ("run_rigidity_portrait.py", ["-0.5", "0", "3"], [],
     "radial sweep: 12/12 profiles match a scaled extremal"),
])
def test_script_runs_and_writes_its_outputs(script, args, files, printed, tmp_path):
    argv = [str(tmp_path) if arg == "OUT" else arg for arg in args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([*PYTHON, str(SCRIPTS / script), *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert printed in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    assert all((tmp_path / name).stat().st_size > 0 for name in files)


def test_threshold_study_table_matches_the_spectrum_command(tmp_path):
    # one owner of the (alpha, k, eigenvalue) table and the default alpha bracket
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([*PYTHON, str(SCRIPTS / "run_threshold_study.py"),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "cli.csv"
    assert main(["spectrum", "--d", "3", "--n", "6", "--alpha-count", "13",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "spectrum_d3_n6.csv").read_bytes()
