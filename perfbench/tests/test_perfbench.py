"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, span_stats  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def checkout_src():
    worker.use_checkout_src()
    worker.OUT_DIR.mkdir(exist_ok=True)


def bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", worker.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_one_operation_run_emits_every_metric(spec, workload, trace):
    seconds = worker.NOMINAL_OP_S[workload]    # one operation
    out = bench("--workload", workload, "--seed", "7", "--seconds", str(seconds),
                "--trace", str(trace))
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert out["correct"] is True
    assert (out["attempted"], out["failed"]) == (1, 0)
    assert sorted(out["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_spec_lists_the_workloads_the_worker_runs(spec):
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_corrupted_reference_digest_counts_as_failure(checkout_src, tmp_path):
    refs = worker.load_refs()
    key = "seed=1"
    refs["radial-1d"][key]["spectrum_report"] = "0" * 64
    runner = worker.Runner("radial-1d", refs, str(tmp_path))
    rows = runner.run_cycle([key, "seed=2"], 0, traced=False)
    assert "digest mismatch: spectrum_report" in rows[0]["failure"]
    assert rows[1]["failure"] is None
    result = {"ops": rows, "wall_s": 1.0, "peak_rss_mb": 1.0, "warmup_failure": None}
    rec = run.summarize(result, [1.0], {}, 0)
    assert (rec["attempted"], rec["failed"], rec["fail_frac"]) == (2, 1, 0.5)
    assert rec["correct"] is False


@pytest.mark.parametrize("workload,key", [
    ("identities-2d", "seed=4"),
    ("radial-1d", "seed=5"),
])
def test_traced_and_untraced_report_bytes_match(checkout_src, workload, key):
    plain, ok = worker.run_inprocess_op(workload, key)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_ok = worker.run_inprocess_op(workload, key)
    finally:
        tracer.uninstall()
    assert tracer.spans, "the tracer recorded nothing"
    assert ok and traced_ok
    assert traced == plain
    assert worker.check(workload, key, plain, ok, worker.load_refs()) is None


@pytest.mark.parametrize("key", ["params", "verify:seed=2"])
def test_traced_and_untraced_cli_bytes_match(checkout_src, tmp_path, key):
    plain, ok, _ = worker.run_cli_op(key, str(tmp_path))
    traced, traced_ok, runner = worker.run_cli_op(key, str(tmp_path), traced=True)
    assert runner["spans"], "the runner recorded nothing"
    assert ok and traced_ok
    assert traced == plain


def test_uninstall_restores_every_binding(checkout_src):
    import cknlab.cli
    import cknlab.grids
    import cknlab.pressure

    before = (cknlab.grids.d_dx, cknlab.pressure.theta_derivative, cknlab.cli.ordered_map)
    tracer = Tracer()
    tracer.install()
    assert cknlab.pressure.theta_derivative is not before[1]
    tracer.uninstall()
    assert (cknlab.grids.d_dx, cknlab.pressure.theta_derivative, cknlab.cli.ordered_map) == before


def test_self_time_subtracts_union_of_children():
    # parent 0..10 with overlapping children 1..4 and 2..6 on two threads
    spans = [["p", 0.0, 10.0, None, 0, 1], ["c", 1.0, 4.0, 0, 0, 1], ["c", 2.0, 6.0, 0, 0, 2]]
    names = span_stats(spans)["names"]
    assert names["p"]["self_s"] == pytest.approx(5.0)
    assert names["c"] == {"calls": 2, "total_s": pytest.approx(7.0), "self_s": pytest.approx(7.0)}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 26)]   # 25 samples
    assert run.tail(samples) == (15.0, 60.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_operation_lists_depend_only_on_the_seed():
    a = worker.op_cycles("cli-cold", 3, 25)
    assert a == worker.op_cycles("cli-cold", 3, 25)
    assert a != worker.op_cycles("cli-cold", 4, 25)
    assert sum(map(len, a)) == 25
    assert all(sorted(k.partition(":")[0] for k in c) == sorted(worker.CLI_MIX) for c in a[:4])
