"""ckn-lab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload identities-2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --repeats 5 --out results.json
    python3 perfbench/run.py --compare before.json after.json

Run from the root of a checkout; the program is imported from its ``src/``.
Each workload runs in a fresh worker process (perfbench/worker.py) with one
client and a fixed, seeded list of operations.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` prints its per-layer
metrics instead, from a run whose cycles alternate traced and untraced plus
the layer probes.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out`` also writes a results file with the
machine block; ``--compare`` prints medians, quartiles and deltas of one or
two results files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))
from worker import WORKLOADS  # noqa: E402  (stdlib-only module)

# Set-up is sampled in this many fresh processes per run (the measuring one
# included) and reported as their median.
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 60
END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("params", "scan", "bubble", "shoot", "spectrum", "verify")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def extra_layer_units() -> dict:
    """Per-layer metrics measured outside the traced worker, with units."""
    units = {"cli.interp_s": "s", "cli.import_s": "s"}
    units.update({f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS})
    for name in ("d_dx_1d", "d_dx_2d", "d2_dx2_1d", "d2_dx2_2d",
                 "theta_derivative_1", "theta_derivative_2", "integrate_uniform"):
        units[f"probe.{name}_s"] = "s"
        units[f"probe.{name}_bytes"] = "B"
    for name in ("pressure_bochner", "shoot", "lowest_eigenvalue"):
        units[f"probe.{name}_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


def per_layer_units() -> dict:
    from tracer import LAYER_METRICS

    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units.update(extra_layer_units())
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout the whole group is killed."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        for sig, grace in ((signal.SIGTERM, 5), (signal.SIGKILL, None)):
            try:
                os.killpg(proc.pid, sig)
                proc.wait(timeout=grace)
                break
            except (ProcessLookupError, subprocess.TimeoutExpired):
                continue
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:3])} ... exited {proc.returncode}:\n"
                           f"{err.decode(errors='replace')[-2000:]}")
    return subprocess.CompletedProcess(cmd, 0, out, err)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool) -> tuple[dict, float]:
    """One worker process; returns its result and its set-up time."""
    fd, result_path = tempfile.mkstemp(dir=OUT_DIR, suffix=".json")
    os.close(fd)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", result_path] + (["--setup-only"] if setup_only else [])
    try:
        spawned = time.monotonic()
        run_child(cmd, SETUP_TIMEOUT_S if setup_only else WORKER_TIMEOUT_S)
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        os.remove(result_path)
    return result, result["ready"] - spawned


def timed_runs(cmd: list[str], count: int) -> list[float]:
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        run_child(cmd, SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def layer_extras(seed: int) -> dict:
    """Probes, interpreter floor and cold import time, each in fresh processes."""
    probes = run_child([sys.executable, str(BENCH / "probes.py"), "--seed", str(seed)],
                       SETUP_TIMEOUT_S)
    out = json.loads(probes.stdout.decode().strip().splitlines()[-1])
    out["cli.interp_s"] = statistics.median(timed_runs([sys.executable, "-c", "pass"], 5))
    imports = []
    for _ in range(3):
        fd, path = tempfile.mkstemp(dir=OUT_DIR, suffix=".json")
        os.close(fd)
        try:
            run_child([sys.executable, str(BENCH / "cli_runner.py"), path, "--"], SETUP_TIMEOUT_S)
            with open(path) as fh:
                imports.append(json.load(fh)["import_s"])
        finally:
            os.remove(path)
    out["cli.import_s"] = statistics.median(imports)
    return out


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond.

    With ten samples or fewer no percentile qualifies; the maximum is given.
    """
    xs = sorted(samples)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(workload, seed, seconds, 0, True)[1])
    result, setup = run_worker(workload, seed, seconds, trace, False)
    setups.append(setup)
    extras = layer_extras(seed) if trace else {}
    rec = summarize(result, setups, extras, trace)
    rec.update({"workload": workload, "seed": seed, "seconds": seconds})
    return rec


def summarize(result: dict, setups: list[float], extras: dict, trace: int) -> dict:
    """Checks and metrics of one worker result (see worker.main)."""
    ops = result["ops"]
    failures = [f"{r['key']}: {r['failure']}" for r in ops if r["failure"]]
    if result["warmup_failure"]:
        failures.insert(0, f"warm-up: {result['warmup_failure']}")
    attempted, failed = len(ops), sum(1 for r in ops if r["failure"])
    times = [r["s"] for r in ops if not r["traced"]]
    tail_s, tail_pct = tail(times)
    record = {
        "trace": trace, "correct": not failures, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "details": {"untraced_ops": len(times), "tail_percentile": tail_pct,
                    "setup_samples_s": setups, "op_s": [r["s"] for r in ops],
                    "op_keys": [r["key"] for r in ops], "failures": failures[:20]},
    }
    if not trace:
        values = {
            "wall_s": result["wall_s"],
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        traced = [r["s"] for r in ops if r["traced"]]
        values = dict(result["layers"])
        values.update(extras)
        values.update({f"cli.{c}.wall_s": result["cli_wall"].get(c, 0.0) for c in CLI_COMMANDS})
        values["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(times) - 1.0 if traced else 0.0)
        record["details"]["spans_file"] = result["spans_file"]
        units = per_layer_units()
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return record


def print_record(rec: dict) -> None:
    d = rec["details"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"correct={rec['correct']}")
    print(f"   {'fail_frac':<40} {rec['fail_frac']:.6g} frac  ({rec['failed']}/{rec['attempted']} ops)")
    for name, m in rec["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{d['tail_percentile']:.1f}, n={d['untraced_ops']})"
        elif name == "op_p50_s":
            note = f"  (n={d['untraced_ops']})"
        print(f"   {name:<40} {m['value']:.6g} {m['unit']}{note}")
    for f in d["failures"]:
        print(f"   FAILED {f}")


# ---------------------------------------------------------------------------
# machine block and results files
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(idx / f)) for f in ("level", "type", "size"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": commit,
        "probe_note": "2049x256 float64 arrays are 4.2 MB, inside the L3 listed "
                      "in caches; probe times are not bandwidth figures",
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(paths: list[str]) -> None:
    """Medians and quartiles per workload and metric; deltas for two files."""
    files = []
    for p in paths:
        with open(p) as fh:
            files.append(json.load(fh))
    for i, f in enumerate(files):
        m = f.get("machine", {})
        print(f"[{i}] {paths[i]}: commit {m.get('commit')}, {m.get('nproc')} cpus, "
              f"numpy {m.get('numpy')}, scipy {m.get('scipy')}")
    workloads = sorted({r["workload"] for f in files for r in f["runs"]})

    def series(f, workload, trace, name):
        return [r["metrics"][name]["value"] if name in r["metrics"] else r[name]
                for r in f["runs"] if r["workload"] == workload and r["trace"] == trace
                and (name in r["metrics"] or name in r)]

    for wl in workloads:
        print(f"\n== {wl}: end to end (median [q1, q3], iqr/median)")
        for name in list(END_TO_END) + ["fail_frac"]:
            cells, medians = [], []
            for f in files:
                vals = series(f, wl, 0, name)
                if not vals:
                    cells.append("-")
                    continue
                q1, med, q3 = quartiles(vals)
                medians.append(med)
                spread = (q3 - q1) / med if med else 0.0
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {spread:.3f} n={len(vals)}")
            delta = ""
            if len(medians) == 2 and medians[0]:
                delta = f"  delta {100.0 * (medians[1] / medians[0] - 1.0):+.1f}%"
            print(f"   {name:<12} " + "  |  ".join(cells) + delta)
        names = sorted({n for f in files for r in f["runs"] if r["workload"] == wl
                        and r["trace"] == 1 for n in r["metrics"] if n.endswith(".self_s")})
        if names:
            print(f"-- {wl}: per-layer self_s per operation (median)")
        for name in names:
            meds = [statistics.median(v) if (v := series(f, wl, 1, name)) else None
                    for f in files]
            if not any(meds):
                continue
            cells = ["-" if m is None else f"{m:.6g}" for m in meds]
            delta = ""
            if len(meds) == 2 and None not in meds:
                delta = f"  delta {meds[1] - meds[0]:+.6g} s"
            print(f"   {name:<44} " + "  |  ".join(cells) + delta)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeats", type=int, default=1,
                    help="runs per workload, with seeds seed, seed+1, ...")
    ap.add_argument("--out", help="write a results file with the machine block")
    ap.add_argument("--compare", nargs="+", metavar="RESULTS", help="one or two results files")
    args = ap.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            ap.error("--compare takes one or two results files")
        compare(args.compare)
        return 0
    if not (ROOT / "src" / "cknlab" / "__init__.py").is_file():
        print(f"error: no cknlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.repeats < 1 or args.seconds <= 0:
        ap.error("--repeats must be >= 1 and --seconds > 0")
    OUT_DIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for wl in workloads:
        for rep in range(args.repeats):
            rec = run_workload(wl, args.seed + rep, args.seconds, args.trace)
            print_record(rec)
            records.append(rec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"machine": machine(), "runs": records}, fh, indent=1)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.seed{r['seed']}.{name}": m
                   for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
