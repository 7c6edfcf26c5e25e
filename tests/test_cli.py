import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cknlab
from cknlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParamsCommand:
    def test_sobolev_d4(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--a", "0", "--b", "0", "--d", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["alpha"] == 1.0 and obj["n"] == 4.0
        assert obj["regime"] == "Symmetric"

    def test_weighted_case(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--a", "-0.5", "--b", "0", "--d", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 6.0
        assert abs(obj["fs_threshold"] - 0.632456) < 1e-6

    def test_admissibility_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "params", "--a", "0.5", "--b", "0.6", "--d", "3")
        assert code == 2
        assert "a < a_c" in err

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "params", "--a", "0.0")
        assert code == 2

    def test_d2_near_the_p_infinity_edge(self, capsys):
        # p = 2e5: the exponent consistency check allows for the conditioning of 2n/(n-2)
        code, out, err = run_cli(capsys, "params", "--a", "-0.1", "--b", "-0.09999", "--d", "2")
        assert code == 0, err
        assert json.loads(out)["p_exp"] > 1e5


class TestScanCommand:
    def test_regime_flips_once_at_threshold(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--d", "3", "--a-min", "-1.2", "--a-max", "0.4",
            "--a-step", "0.01", "--b-offset", "0.5", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "a,b,p,alpha,n,fs_threshold,regime"
        regimes = [ln.split(",")[-1] for ln in lines[1:]]
        flips = [(a, b) for a, b in zip(regimes, regimes[1:]) if a != b]
        assert len(flips) == 1
        # the flip happens at a ~ -0.764911 (crossing of the closed form)
        flip_idx = next(i for i, (a, b) in enumerate(zip(regimes, regimes[1:]))
                        if a != b)
        a_at_flip = float(lines[1 + flip_idx].split(",")[0])
        assert abs(a_at_flip - (-0.7649110640673518)) < 0.011
        assert regimes[0] == "SymmetryBreaking" and regimes[-1] == "Symmetric"

    def test_d2_diagonal_all_excluded(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--d", "2", "--a-min", "-0.5", "--a-max", "-0.1",
            "--a-step", "0.1", "--b-offset", "0.0",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows and all(r.endswith("excluded") for r in rows)

    def test_single_point_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--d", "5", "--a-min", "0", "--a-max", "0",
            "--a-step", "0.01", "--b-offset", "0.0",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[-1] == "Symmetric"
        assert abs(float(row[3]) - 1.0) < 1e-12  # alpha = threshold = 1


class TestBubbleCommand:
    def test_csv_values(self, capsys, tmp_path):
        out_path = tmp_path / "bubble.csv"
        code, _, _ = run_cli(
            capsys, "bubble", "--a", "-0.5", "--b", "0", "--d", "3",
            "--grid", "64", "--r-min", "1", "--r-max", "1",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "r,u"
        r, u = map(float, lines[1].split(","))
        assert abs(u - 1.5) < 1e-12  # hand value at r = 1


class TestShootCommand:
    def test_csv_and_classification(self, capsys, tmp_path):
        out_path = tmp_path / "shot.csv"
        code, out, _ = run_cli(
            capsys, "shoot", "--a", "-0.5", "--b", "0", "--d", "3",
            "--w0", "6.0", "--out", str(out_path),
        )
        assert code == 0
        record = json.loads(out)
        assert record["classification"] == "DecaysLikeBubble"
        lines = out_path.read_text().splitlines()
        assert lines[0] == "s,w,w_prime"
        assert len(lines) > 50


class TestSpectrumCommand:
    def test_csv_and_crossing_summary(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            capsys, "spectrum", "--d", "3", "--n", "6",
            "--alpha-count", "3", "--k-max", "1", "--grid", "800",
            "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert abs(summary["alpha_star_formula"] - math.sqrt(0.4)) < 1e-12
        assert summary["relative_gap"] < 0.01
        lines = out_path.read_text().splitlines()
        assert lines[0] == "alpha,k,lowest_eigenvalue"
        assert len(lines) == 1 + 3 * 2


class TestVerifyCommand:
    def test_small_identities_suite_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--fields", "2",
            "--out", str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["pass"] is True
        assert report["first_failure"] is None

    def test_estimates_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "est.csv"
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "estimates", "--format", "csv",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "lemma,params,R,lhs,rhs,fitted_exponent,bound,pass"
        assert len(lines) > 10

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=0.0\nb=0.0\nd=3\n")
        code, out, _ = run_cli(capsys, "params", "--config", str(cfg),
                               "--d", "4")  # flag wins over file
        assert code == 0
        assert json.loads(out)["d"] == 4

    def test_config_file_supplies_required_flags_typed_by_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# Sobolev d = 4\na = 0\nb=0\nd=4\n")
        code, out, _ = run_cli(capsys, "params", "--config", str(cfg))
        assert code == 0
        obj = json.loads(out)
        assert isinstance(obj["a"], float) and obj["d"] == 4   # --a is a float flag
        cfg.write_text("a=0\nb=0\nd=3.5\n")
        code, _, err = run_cli(capsys, "params", "--config", str(cfg))
        assert code == 2 and "argument --d: invalid int value" in err

    def test_byte_identical_reports(self, capsys, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "verify", "--suite", "identities", "--fields", "2",
                "--seed", "7", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv, reason", [
    (["scan", "--d", "3", "--a-min", "-1", "--a-max", "0", "--a-step", "0"], "--a-step"),
    (["spectrum", "--d", "3", "--n", "1"], "--n > 1"),
    (["params", "--a", "0", "--b", "0", "--d", "3", "--seed", "5"],
     "unrecognized arguments: --seed"),
    (["params", "--a", "0", "--b", "0", "--d", "3.5"], "argument --d: invalid"),
    (["verify", "--suite", "identities", "--fields", "0"], "argument --fields"),
    (["verify", "--suite", "identities", "--refine", "1"], "argument --refine"),
    (["scan", "--d", "3", "--a-min", "-1.2", "--a-max", "0.4", "--a-step", "1e-9"],
     "at most 100000 rows"),
    (["verify", "--suite", "spectrum", "--fields", "3"], "does not read --fields"),
    (["params", "--config", "RUN_CFG"], "unrecognized arguments: --seed=5"),
    (["spectrum", "--d", "3", "--n", "inf"], "finite --n > 1"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--grid", "0"], "argument --grid"),
    (["verify", "--suite", "rigidity", "--a", "-0.5"], "--a --b --d together"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--r-min", "0"], "argument --r-min"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--r-max", "inf"], "argument --r-max"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--r-min", "10", "--r-max", "1"],
     "--r-min <= --r-max"),
    (["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2", "--s-max", "-1"],
     "argument --s-max"),
    (["verify", "--suite", "identities", "--angular", "8"], "argument --angular"),
    (["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2", "--s-max", "1e-9"],
     "argument --s-max"),
    (["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "inf"], "argument --w0"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--lam", "inf", "--grid", "3"],
     "argument --lam"),
    (["spectrum", "--d", "3", "--n", "6", "--alpha-min", "0", "--alpha-max", "1"],
     "argument --alpha-min"),
    (["spectrum", "--d", "3", "--n", "6", "--alpha-max", "nan"], "argument --alpha-max"),
    (["spectrum", "--d", "3", "--n", "6", "--alpha-min", "0.7", "--alpha-max", "0.7"],
     "--alpha-min < --alpha-max"),
    (["spectrum", "--d", "3", "--n", "3"], "--n > --d"),
    (["spectrum", "--d", "3", "--n", "2.5"], "--n > --d"),
    (["params", "--a", "-0.1", "--b", "-0.09999999999999999", "--d", "2"],
     "inadmissible parameters: b - a"),
    (["params", "--a", "-0.5", "--b", "-0.49999999999999994", "--d", "2"],
     "inadmissible parameters: b - a"),
    (["spectrum", "--d", "3", "--n", "1000"], "overflows double precision"),
    (["bubble", "--a", "-0.5", "--b", "0.499", "--d", "3", "--grid", "4"],
     "overflows double precision"),
    (["verify", "--suite", "rigidity", "--a", "-0.5", "--b", "0.499", "--d", "3"],
     "overflows double precision"),
    # size flags: refused before any array is allocated
    (["verify", "--suite", "identities", "--refine", "12"], "--refine 12 --angular 256"),
    (["verify", "--suite", "identities", "--angular", "20000"], "--refine 3 --angular 20000"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--grid", "4194305"],
     "argument --grid: must be at most 4194304"),
    (["verify", "--suite", "estimates", "--grid", "4194305"], "--grid 4194305"),
    (["spectrum", "--d", "3", "--n", "6", "--grid", "4194305"],
     "argument --grid: must be at most 4194304"),
    (["verify", "--suite", "spectrum", "--grid", "1398102"], "--grid 1398102 gives 4194306"),
    # series start: w0^(p-1) overflows at p ~ 333
    (["shoot", "--a", "-0.0626", "--b", "-0.0566", "--d", "2", "--w0", "10"],
     "w0^(p-1)/(2 n alpha^2) overflows double precision"),
    # log(s_max) rounds to log(1e-6): the shot would repeat its start
    (["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2",
      "--s-max", "1.0000000000000002e-06"], "argument --s-max"),
    # decay horizon 10^(5/(n-2)) overflows at n ~ 2.01
    (["verify", "--suite", "rigidity", "--a", "-0.5", "--b", "-0.495", "--d", "2"],
     "decay horizon"),
    # lambda^kappa = (1e300)^5.5 overflows in the scaled profile
    (["bubble", "--a", "-5", "--b", "-4.5", "--d", "3", "--lam", "1e300", "--grid", "2"],
     "lambda^kappa c0 overflows double precision"),
])
def test_bad_input_exits_2_with_reason(argv, reason, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a=0.0\nb=0.0\nd=3\nseed=5\n")   # seed: a flag params does not read
    argv = [str(cfg) if arg == "RUN_CFG" else arg for arg in argv]
    code, _, err = run_cli(capsys, *argv)  # an escaping exception fails the test
    assert code == 2
    assert reason in err
    assert "Traceback" not in err


def test_module_entry_point_exits_2_with_reason():
    # `python -m cknlab.cli` hands main's exit code to the process
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cknlab.cli", "spectrum", "--d", "3",
                           "--n", "1"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "--n > 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_angular_grid_above_the_floor_is_judged_not_refused(capsys):
    # 9 nodes represent the suite's fields; the order fit then fails honestly.
    code, _, err = run_cli(capsys, "verify", "--suite", "identities", "--angular", "9",
                           "--fields", "1", "--refine", "2")
    assert code == 1 and "contract failure" in err


SCIPY_PROBE = """
import contextlib, io, json, sys
import cknlab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for argv in (["params", "--a", "-0.5", "--b", "0", "--d", "3"],
             ["scan", "--d", "3", "--a-min", "-1", "--a-max", "0", "--a-step", "0.25"],
             ["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--grid", "5"],
             ["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2.5"],
             ["verify", "--suite", "rigidity"],
             ["spectrum", "--d", "3", "--n", "6"],
             ["verify", "--suite", "spectrum"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cknlab.cli.main(argv) == 0
    loaded[" ".join(argv[::2]) if argv[0] == "verify" else argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_params_scan_bubble_never_import_scipy():
    # the Brent fit of the rigidity suite is the lab's own, and eigenvalues take
    # LAPACK dstebz from scipy's compiled _flapack extension alone: no scipy
    # package (scipy, scipy.linalg, scipy.optimize, scipy.integrate) is imported
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lapack = ["scipy.linalg._flapack"]
    assert json.loads(proc.stdout) == {"import": [], "params": [], "scan": [], "bubble": [],
                                       "shoot": [], "verify rigidity": [], "spectrum": lapack,
                                       "verify spectrum": lapack}


LOAD_ORDER_PROBE = """
import json, sys
import numpy as np
from cknlab.params import derive_params
from cknlab.spectral import build_sector_operator, lowest_eigenvalue, sector_potential

op = build_sector_operator(derive_params(-0.5, 0.0, 3), k=1, N=400)
ours = lowest_eigenvalue(op) if sys.argv[1] == "lab-first" else None
import scipy.linalg, scipy.linalg.lapack, scipy.optimize

t, h = op.interior_nodes()
diag = 2.0 * op.ps.alpha**2 / h**2 + sector_potential(op.ps, op.k, t)
off = np.full(len(t) - 1, -op.ps.alpha**2 / h**2)
dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
out = {
    "dstebz": scipy.linalg.lapack.dstebz(diag, off, 2, 0.0, 1.0, 1, 1, 0.0, "E")[1][0].hex(),
    "eigh": [v.hex() for v in scipy.linalg.eigh(dense, eigvals_only=True)[:3].tolist()],
    "tridiagonal": scipy.linalg.eigvalsh_tridiagonal(
        diag, off, select="i", select_range=(0, 0))[0].hex(),
    "brent": scipy.optimize.minimize_scalar(lambda x: (x - 0.3) ** 2,
                                            bracket=(0.0, 0.5, 2.0)).x.hex(),
    "shared": scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"],
}
if ours is None:
    ours = lowest_eigenvalue(op)
out["lab"] = ours.hex()
print(json.dumps(out))
"""


def test_lapack_loaded_first_serves_a_later_scipy_import():
    # lowest_eigenvalue loads scipy's _flapack by path; scipy.linalg and
    # scipy.optimize imported afterwards share it and give the bits they give
    # when scipy.linalg is imported first
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    runs = {}
    for order in ("lab-first", "scipy-first"):
        proc = subprocess.run([sys.executable, "-c", LOAD_ORDER_PROBE, order], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[order] = json.loads(proc.stdout)
    assert runs["lab-first"] == runs["scipy-first"]
    assert runs["lab-first"]["shared"] is True
    assert runs["lab-first"]["lab"] == runs["lab-first"]["dstebz"] == \
        runs["lab-first"]["tridiagonal"]


def _ulp_gaps(a: float):
    """b - a at the edges of the weight range: 0, a few ulps of a, 1 and 1 - ulp."""
    ulp = math.ulp(a) if a else math.ulp(1.0)
    return st.sampled_from([0.0, ulp, 2.0 * ulp, 1.0 - math.ulp(1.0), 1.0])


@st.composite
def _fuzz_argv(draw):
    d = draw(st.integers(min_value=2, max_value=6))
    command = draw(st.sampled_from(["params", "spectrum", "bubble"]))
    if command == "spectrum":
        n = draw(st.one_of(
            st.floats(min_value=1.0, max_value=1e6),
            st.sampled_from([float(d), math.nextafter(d, math.inf), d + 1e-9, 150.0, 1e6]),
        ))
        argv = ["spectrum", "--d", str(d), "--n", repr(n),
                "--grid", str(draw(st.integers(min_value=1, max_value=64))),
                "--alpha-count", str(draw(st.integers(min_value=1, max_value=3)))]
        if draw(st.booleans()):
            lo = draw(st.floats(min_value=1e-3, max_value=10.0))
            argv += ["--alpha-min", repr(lo), "--alpha-max", repr(lo * 2.0)]
        return argv
    a = draw(st.one_of(st.floats(min_value=-3.0, max_value=(d - 2) / 2.0),
                       st.sampled_from([-0.5, -0.1, 0.0, (d - 2) / 2.0])))
    b = a + draw(st.one_of(_ulp_gaps(a), st.floats(min_value=0.0, max_value=1.0)))
    argv = [command, "--a", repr(a), "--b", repr(b), "--d", str(d)]
    if command == "bubble":
        argv += ["--grid", str(draw(st.integers(min_value=1, max_value=8)))]
    return argv


@settings(max_examples=40, deadline=None)
@given(_fuzz_argv())
@example(["params", "--a", "-0.5", "--b", "-0.49999999999999994", "--d", "2"])
@example(["spectrum", "--d", "3", "--n", "1000", "--grid", "8", "--alpha-count", "1"])
@example(["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--lam", "1e306", "--grid", "4",
          "--r-max", "1e3"])
def test_argv_fuzz_exits_with_a_code(argv):
    # Every invocation ends in an exit code (0 output, 1 contract failure, 2
    # refused with a reason); no exception escapes cli.main.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
