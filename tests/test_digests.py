"""Report bytes against the benchmark's recorded digests.

The benchmark checks every operation's output bytes against
perfbench/reference_digests.json; this runs one operation of each in-process
workload, and each of the six cli-cold commands (verify at seed 1), through
the benchmark's own code, so a change that moves a report byte fails
the tests too.  perfbench/ is only read.
"""

import importlib.util
from pathlib import Path

import pytest

import cknlab

WORKER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the digests are of this checkout's sources, as the benchmark imports them
    assert Path(cknlab.__file__).resolve().parent == module.SRC / "cknlab"
    return module


@pytest.mark.parametrize("workload", ["identities-2d", "radial-1d"])
def test_seed_1_matches_reference_digests(worker, workload):
    streams, passed = worker.run_inprocess_op(workload, "seed=1")
    assert worker.check(workload, "seed=1", streams, passed, worker.load_refs()) is None


@pytest.mark.parametrize("key", ["shoot", "spectrum", "verify:seed=1", "params", "scan", "bubble"])
def test_cli_cold_matches_reference_digests(worker, key, tmp_path):
    streams, passed, _ = worker.run_cli_op(key, str(tmp_path))
    assert worker.check("cli-cold", key, streams, passed, worker.load_refs()) is None
