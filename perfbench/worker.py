"""One benchmark workload, run closed loop by one client in a fresh interpreter.

    python3 perfbench/worker.py --workload identities-2d --seed 1 --seconds 20 \
        --trace 0 --result .bench_out/r.json [--setup-only]

The worker imports cknlab from the checkout's ``src/``, builds the seeded
operation list, runs one untimed warm-up operation and records the moment it
is ready (``time.monotonic``, comparable with the parent's clock); that
moment ends set-up.  Then it times every operation, checks every output
against the reference digests and writes one JSON result.  With
``--setup-only`` it stops once ready.

With ``--trace 1`` operations run in cycles that alternate untraced and
traced, so one run yields both the per-layer metrics and the tracing
overhead; spans go to ``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_digests.json"

# Suite seeds the operations draw from; every one passes at its default
# configuration, and the reference digests cover each of them.
SUITE_SEEDS = (1, 2, 3, 4, 5, 6)
# Nominal seconds per operation: a run holds round(seconds / nominal)
# operations however fast the code is.  At 20 s that is 25 identities
# operations, 20 radial ones and 24 CLI commands (four whole cycles), which
# keeps a run near 30 s on a busy 2-core machine.
NOMINAL_OP_S = {"identities-2d": 0.8, "radial-1d": 1.0, "cli-cold": 0.83}
WORKLOADS = tuple(NOMINAL_OP_S)
ESTIMATES_HEADER = ["lemma", "params", "R", "lhs", "rhs", "fitted_exponent", "bound", "pass"]
CLI_MIX = {
    "params": ["params", "--a", "-0.5", "--b", "0", "--d", "3"],
    "scan": ["scan", "--d", "3", "--a-min", "-1.2", "--a-max", "0.4",
             "--a-step", "1e-4", "--b-offset", "0.5"],          # 16001 rows
    "bubble": ["bubble", "--a", "-0.5", "--b", "0", "--d", "3"],  # 2048 rows
    "shoot": ["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2.5"],
    "spectrum": ["spectrum", "--d", "3", "--n", "6"],
    "verify": ["verify", "--suite", "spectrum"],
}
CLI_TIMEOUT_S = 60


def use_checkout_src() -> None:
    """Import cknlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "cknlab" / "__init__.py").is_file():
        raise SystemExit(f"no cknlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cknlab

    if Path(cknlab.__file__).resolve().parent != (SRC / "cknlab").resolve():
        raise SystemExit(f"cknlab imported from {cknlab.__file__}, not {SRC}")


def op_cycles(workload: str, seed: int, n_ops: int) -> list[list[str]]:
    """Seeded operation inputs, grouped in cycles (one op, or one CLI mix)."""
    rng = random.Random(f"{workload}:{seed}")
    cycles, total = [], 0
    while total < n_ops:
        if workload == "cli-cold":
            names = list(CLI_MIX)
            rng.shuffle(names)
            cycle = [f"verify:seed={rng.choice(SUITE_SEEDS)}" if n == "verify" else n
                     for n in names]
        else:
            cycle = [f"seed={rng.choice(SUITE_SEEDS)}"]
        cycle = cycle[:n_ops - total]
        cycles.append(cycle)
        total += len(cycle)
    return cycles


def all_inputs(workload: str) -> list[str]:
    """Every input key an operation list can hold, for recording references."""
    if workload == "cli-cold":
        return [n for n in CLI_MIX if n != "verify"] + [f"verify:seed={s}" for s in SUITE_SEEDS]
    return [f"seed={s}" for s in SUITE_SEEDS]


def cli_argv(key: str) -> list[str]:
    name, _, seed = key.partition(":seed=")
    return CLI_MIX[name] + (["--seed", seed] if seed else [])


# ---------------------------------------------------------------------------
# operations: each returns (named output byte streams, contract pass flag)
# ---------------------------------------------------------------------------

def run_inprocess_op(workload: str, key: str):
    from cknlab import reporting, verify

    seed = int(key.partition("=")[2])
    if workload == "identities-2d":
        report = verify.run_identities_suite(seed=seed)
        return {"report": reporting.json_text(report).encode()}, report["pass"]
    est, rows = verify.run_estimates_suite(seed=seed)
    rig = verify.run_rigidity_suite(seed=seed)
    spec = verify.run_spectrum_suite(seed=seed)
    streams = {
        "estimates_report": reporting.json_text(est).encode(),
        "estimates_csv": reporting.csv_text(ESTIMATES_HEADER, rows).encode(),
        "rigidity_report": reporting.json_text(rig).encode(),
        "spectrum_report": reporting.json_text(spec).encode(),
    }
    return streams, est["pass"] and rig["pass"] and spec["pass"]


def run_cli_op(key: str, workdir: str, traced: bool = False):
    """One fresh interpreter; returns (streams, pass, runner result or None)."""
    out_path = os.path.join(workdir, "out")
    argv = cli_argv(key) + ["--out", out_path]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if traced:
        result_path = os.path.join(workdir, "runner.json")
        cmd = [sys.executable, str(BENCH / "cli_runner.py"), result_path, "--"] + argv
    else:
        cmd = [sys.executable, "-m", "cknlab.cli"] + argv
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
    try:
        with open(out_path, "rb") as fh:
            out = fh.read()
        os.remove(out_path)
    except FileNotFoundError:
        out = b""
    ok = proc.returncode == 0
    if ok and key.startswith("verify"):
        ok = json.loads(out).get("pass") is True
    runner = None
    if traced:
        with open(result_path) as fh:
            runner = json.load(fh)
        os.remove(result_path)
    return {"out": out, "stdout": proc.stdout}, ok, runner


def digests(streams: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in streams.items()}


def check(workload: str, key: str, streams: dict, passed: bool, refs: dict) -> str | None:
    """Failure reason for one operation, or None when every check holds."""
    if not passed:
        return "contract pass is false or exit code is not 0"
    expected = refs.get(workload, {}).get(key)
    if expected is None:
        return f"no reference digests for {key}"
    got = digests(streams)
    bad = sorted(name for name in set(expected) | set(got) if expected.get(name) != got.get(name))
    return f"digest mismatch: {', '.join(bad)}" if bad else None


def load_refs(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks operations of one workload; collects traces."""

    def __init__(self, workload: str, refs: dict, workdir: str):
        self.workload = workload
        self.refs = refs
        self.workdir = workdir
        self.tracer = None
        self.spans = []
        self.counters = {}

    def attempt(self, key: str, op_id: int, traced: bool) -> tuple[float, str | None]:
        """Time one operation and check it; returns (seconds, failure)."""
        runner = None
        if traced and self.tracer is not None:
            self.tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            if self.workload == "cli-cold":
                streams, passed, runner = run_cli_op(key, self.workdir, traced)
            else:
                streams, passed = run_inprocess_op(self.workload, key)
            elapsed = time.perf_counter() - t0
            failure = check(self.workload, key, streams, passed, self.refs)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            failure = "".join(traceback.format_exception_only(exc)).strip()
        if runner is not None:
            self._merge_runner(runner, op_id)
        return elapsed, failure

    def _merge_runner(self, runner: dict, op_id: int) -> None:
        base = len(self.spans)
        for name, start, end, parent, _, tid in runner["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + base,
                               op_id, tid])
        for k, v in runner["counters"].items():
            self.counters[k] = self.counters.get(k, 0.0) + v

    def run_cycle(self, cycle: list[str], first_op: int, traced: bool) -> list[dict]:
        in_process = traced and self.tracer is not None
        if in_process:
            self.tracer.install()
        try:
            rows = []
            for i, key in enumerate(cycle):
                elapsed, failure = self.attempt(key, first_op + i, traced)
                rows.append({"key": key, "s": elapsed, "traced": traced, "failure": failure})
            return rows
        finally:
            if in_process:
                self.tracer.uninstall()


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))

    use_checkout_src()
    if args.workload != "cli-cold":
        from cknlab import reporting, verify  # noqa: F401  (set-up includes imports)
    n_ops = max(1, round(args.seconds / NOMINAL_OP_S[args.workload]))
    cycles = op_cycles(args.workload, args.seed, n_ops)
    refs = load_refs()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        runner = Runner(args.workload, refs, workdir)
        warm_key = "params" if args.workload == "cli-cold" else f"seed={SUITE_SEEDS[0]}"
        _, warm_failure = runner.attempt(warm_key, -1, False)
        ready = time.monotonic()
        result = {"ready": ready, "warmup_failure": warm_failure}
        if not args.setup_only:
            if args.trace and args.workload != "cli-cold":
                from tracer import Tracer

                runner.tracer = Tracer()   # CLI commands are traced by cli_runner.py
            rows, op_id = [], 0
            t0 = time.perf_counter()
            for c, cycle in enumerate(cycles):
                rows += runner.run_cycle(cycle, op_id, bool(args.trace) and c % 2 == 1)
                op_id += len(cycle)
            result["wall_s"] = time.perf_counter() - t0
            result["ops"] = rows
            result["peak_rss_mb"] = peak_rss_mb(args.workload)
            if args.trace:
                result.update(trace_summary(args, runner, rows))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def trace_summary(args, runner: Runner, rows: list[dict]) -> dict:
    from tracer import layer_metrics

    spans, counters = runner.spans, runner.counters
    if runner.tracer is not None:
        spans, counters = runner.tracer.export(), runner.tracer.counters
    traced_ops = sum(r["traced"] for r in rows)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
    layers = layer_metrics(spans, counters, traced_ops)
    by_cmd = {}
    for r in rows:
        if not r["traced"] and args.workload == "cli-cold":
            by_cmd.setdefault(r["key"].partition(":")[0], []).append(r["s"])
    return {
        "layers": layers,
        "cli_wall": {cmd: statistics.median(v) for cmd, v in by_cmd.items()},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
