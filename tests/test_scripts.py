"""Smoke run of the experiment script in scripts/, in a fresh interpreter.

It runs under ``-W error::RuntimeWarning``, the warning rule pyproject sets
for in-process tests.  The regime map and threshold study are README recipes
over ``ckn-lab scan`` and ``ckn-lab spectrum``, which CI runs as written.
"""

import os
import subprocess
import sys
from pathlib import Path

import cknlab

SRC = Path(cknlab.__file__).resolve().parent.parent
SCRIPTS = SRC.parent / "scripts"


def test_rigidity_portrait_runs_and_writes_no_file(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(SCRIPTS / "run_rigidity_portrait.py"), "-0.5", "0", "3"],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "radial sweep: 12/12 profiles match a scaled extremal" in proc.stdout
    assert list(tmp_path.iterdir()) == []
