import contextlib
import functools
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


@pytest.fixture
def two_field_identities(monkeypatch):
    """The identities suite on 2 random fields: cmd_verify looks the suite up at call time."""
    monkeypatch.setattr(cknlab.verify, "run_identities_suite",
                        functools.partial(cknlab.verify.run_identities_suite, n_fields=2))


class TestVerifyCommand:
    def test_small_identities_suite_passes(self, capsys, tmp_path, two_field_identities):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "verify", "--suite", "identities", "--out", str(out_path),
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

    def test_byte_identical_reports(self, capsys, tmp_path, two_field_identities):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "verify", "--suite", "identities", "--seed", "7", "--out", str(p),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv, reason", [
    (["scan", "--d", "3", "--a-min", "-1", "--a-max", "0", "--a-step", "0"], "--a-step"),
    # non-finite scan bounds, step and offset, each named with its value
    (["scan", "--d", "3", "--a-min", "nan", "--a-max", "1"],
     "argument --a-min: must be a finite number: got nan"),
    (["scan", "--d", "3", "--a-min=-inf", "--a-max", "0"],
     "argument --a-min: must be a finite number: got -inf"),
    (["scan", "--d", "3", "--a-min", "0", "--a-max", "nan"],
     "argument --a-max: must be a finite number: got nan"),
    (["scan", "--d", "3", "--a-min", "0", "--a-max", "1", "--a-step", "nan"],
     "argument --a-step: must be a finite number: got nan"),
    (["scan", "--d", "3", "--a-min", "0", "--a-max", "0.1", "--b-offset", "nan"],
     "argument --b-offset: must be a finite number: got nan"),
    (["scan", "--d", "3", "--a-min", "0", "--a-max", "0.1", "--b-offset", "inf"],
     "argument --b-offset: must be a finite number: got inf"),
    (["scan", "--d", "3", "--a-min", "zero", "--a-max", "1"],
     "argument --a-min: must be a finite number: got zero"),
    (["scan", "--d", "3", "--a-min", "1", "--a-max", "0"],
     "scan has no rows: --a-min 1.0 to --a-max 0.0 in steps of --a-step 0.01"),
    (["scan", "--d", "3", "--a-min", "0", "--a-max", "1", "--a-step", "-0.1"],
     "scan has no rows: --a-min 0.0 to --a-max 1.0 in steps of --a-step -0.1"),
    (["spectrum", "--d", "3", "--n", "1"], "--n > 1"),
    (["params", "--a", "0", "--b", "0", "--d", "3", "--seed", "5"],
     "unrecognized arguments: --seed"),
    (["params", "--a", "0", "--b", "0", "--d", "3.5"], "argument --d: invalid"),
    # --d, --a and --b are checked when the command line is parsed, each named
    (["spectrum", "--d", "1", "--n", "6"], "argument --d: must be at least 2: got 1"),
    (["spectrum", "--d", "0", "--n", "6"], "argument --d: must be at least 2: got 0"),
    (["spectrum", "--d=-3", "--n", "6"], "argument --d: must be at least 2: got -3"),
    (["params", "--a", "0", "--b", "0", "--d", "1"], "argument --d: must be at least 2: got 1"),
    (["scan", "--d", "1", "--a-min", "0", "--a-max", "1"],
     "argument --d: must be at least 2: got 1"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "1"], "argument --d: must be at least 2: got 1"),
    (["shoot", "--a", "-0.5", "--b", "0", "--d", "1", "--w0", "2"],
     "argument --d: must be at least 2: got 1"),
    (["verify", "--suite", "rigidity", "--a", "-0.5", "--b", "0", "--d", "1"],
     "argument --d: must be at least 2: got 1"),
    (["params", "--a", "nan", "--b", "0", "--d", "3"],
     "argument --a: must be a finite number: got nan"),
    (["params", "--a", "0", "--b", "inf", "--d", "3"],
     "argument --b: must be a finite number: got inf"),
    (["verify", "--suite", "rigidity", "--a", "nan", "--b", "0", "--d", "3"],
     "argument --a: must be a finite number: got nan"),
    (["bubble", "--a", "zero", "--b", "0", "--d", "3"],
     "argument --a: must be a finite number: got zero"),
    (["scan", "--d", "3", "--a-min", "-1.2", "--a-max", "0.4", "--a-step", "1e-9"],
     "at most 100000 rows"),
    (["verify", "--suite", "spectrum", "--format", "csv"], "does not read --format"),
    (["verify", "--suite", "identities", "--a", "0", "--b", "0", "--d", "3"],
     "does not read --a --b --d"),
    (["params", "--a", "-0.5", "--b", "0", "--d", "3", "--config", "x"],
     "unrecognized arguments: --config"),
    (["spectrum", "--d", "3", "--n", "inf"], "finite --n > 1"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--grid", "0"], "argument --grid"),
    (["verify", "--suite", "rigidity", "--a", "-0.5"], "--a --b --d together"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--r-min", "0"], "argument --r-min"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--r-max", "inf"], "argument --r-max"),
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--r-min", "10", "--r-max", "1"],
     "--r-min <= --r-max"),
    (["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2", "--s-max", "-1"],
     "argument --s-max"),
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
    (["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--grid", "4194305"],
     "argument --grid: must be at most 4194304"),
    (["spectrum", "--d", "3", "--n", "6", "--grid", "4194305"],
     "argument --grid: must be at most 4194304"),
    # series start: w0^(p-1) overflows at p ~ 333
    (["shoot", "--a", "-0.0626", "--b", "-0.0566", "--d", "2", "--w0", "10"],
     "w0^(p-1)/(2 n alpha^2) overflows double precision"),
    # log(s_max) rounds to log(1e-6): the shot would repeat its start
    (["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2",
      "--s-max", "1.0000000000000002e-06"], "argument --s-max"),
    # decay horizon 10^(5/(n-2)) overflows at n ~ 2.01
    (["verify", "--suite", "rigidity", "--a", "-0.5", "--b", "-0.495", "--d", "2"],
     "decay horizon"),
    # p = 2 edge (b - a = 1): the bubble amplitude c0 = base^(1/(p-2)) has no value
    (["verify", "--suite", "rigidity", "--a", "0", "--b", "1", "--d", "3"],
     "inadmissible parameters: the bubble amplitude c0 needs p > 2"),
    (["verify", "--suite", "rigidity", "--a", "-0.3", "--b", "0.7", "--d", "2"],
     "inadmissible parameters: the bubble amplitude c0 needs p > 2"),
    # the eigensolver's grid floor, named by the flag that sets it
    (["spectrum", "--d", "3", "--n", "6", "--grid", "10"], "argument --grid: must be at least 64"),
    # lambda^kappa = (1e300)^5.5 overflows in the scaled profile
    (["bubble", "--a", "-5", "--b", "-4.5", "--d", "3", "--lam", "1e300", "--grid", "2"],
     "lambda^kappa c0 overflows double precision"),
    # work caps: refused before any solve
    (["spectrum", "--d", "3", "--n", "6", "--alpha-count", "8193", "--k-max", "0",
      "--grid", "2048"], "--alpha-count 8193 x (--k-max 0 + 1) x --grid 2048 gives 16779264"),
    (["spectrum", "--d", "3", "--n", "6", "--k-max", "1000000"], "--k-max 1000000"),
    (["spectrum", "--d", "3", "--n", "6", "--alpha-count", "10000000"], "--alpha-count 10000000"),
    # p = 16: the two-term series is below zero at s0, so TouchesZero could never fire
    (["shoot", "--a", "-1", "--b", "-0.875", "--d", "2", "--w0", "12.8"],
     "series start w(1e-06) = -168.293 is not above the touch floor"),
    # path ends that round out of the admissible set, named by the flag that set them:
    # a rounds back to a_c at tiny alpha; b - a is lost to rounding at |a| ~ 1e200
    (["spectrum", "--d", "3", "--n", "6", "--alpha-min", "1e-300"],
     "--alpha-min gives an inadmissible path end alpha = 1e-300: requires a < a_c"),
    (["spectrum", "--d", "3", "--n", "6", "--alpha-min", "1e-17", "--alpha-max", "1"],
     "--alpha-min gives an inadmissible path end alpha = 1e-17: requires a < a_c"),
    (["spectrum", "--d", "3", "--n", "6", "--alpha-max", "1e200"],
     "--alpha-max gives an inadmissible path end alpha = 1e+200: requires p strictly inside"),
    (["spectrum", "--d", "3", "--n", "1e300"],
     "--n 1e+300 gives an inadmissible path end alpha = 9.899494936611666e-151: requires p"),
    # a negative seed is refused by argparse, by flag, before any suite runs
    *((["verify", "--suite", suite, "--seed", "-1"], "argument --seed: must be at least 0: got -1")
      for suite in ("identities", "estimates", "rigidity", "spectrum")),
    # verify takes no resolution flag: each suite runs at the one configuration
    # its tolerances were set for
    *((["verify", "--suite", suite, flag, "64"], f"unrecognized arguments: {flag} 64")
      for suite in ("identities", "estimates", "rigidity", "spectrum")
      for flag in ("--fields", "--refine", "--angular", "--grid")),
])
def test_bad_input_exits_2_with_reason(argv, reason, capsys):
    code, _, err = run_cli(capsys, *argv)  # an escaping exception fails the test
    assert code == 2
    assert reason in err
    assert "Traceback" not in err


def test_an_error_in_a_suite_at_its_fixed_configuration_is_a_contract_failure(monkeypatch,
                                                                              capsys):
    # lambda_k = k (k + d - 1) moves the k = 1 threshold out of the suite's alpha
    # bracket: the program is wrong, not the command line
    monkeypatch.setattr(cknlab.spectral, "sphere_eigenvalue",
                        lambda k, d: float(k * (k + d - 1)))
    code, out, err = run_cli(capsys, "verify", "--suite", "spectrum")
    assert code == 1
    assert err.startswith("contract failure: no stable-to-unstable crossing in alpha bracket")
    assert out == ""


def test_spectrum_cap_counts_the_crossing(monkeypatch, capsys):
    # one table solve fits the cap; the crossing's 18 more solves of 2^22 nodes do not
    def never(*args, **kwargs):
        raise AssertionError("a solve ran before the work cap was checked")

    monkeypatch.setattr(cknlab.spectral, "spectrum_table", never)
    monkeypatch.setattr(cknlab.spectral, "fs_crossing", never)
    code, _, err = run_cli(capsys, "spectrum", "--d", "3", "--n", "6", "--alpha-count", "1",
                           "--k-max", "0", "--grid", "4194304")
    assert code == 2
    assert ("--alpha-count 1 x (--k-max 0 + 1) x --grid 4194304 gives 4194304 table nodes, and "
            "the crossing's 18 solves x --grid 4194304 give 75497472 more (79691776 in all)") in err


def test_module_entry_point_exits_2_with_reason():
    # `python -m cknlab.cli` hands main's exit code to the process
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cknlab.cli", "spectrum", "--d", "3",
                           "--n", "1"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "--n > 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def _readme_command_lines():
    """The ``ckn-lab`` lines of README's first fenced block under ``## Command line``.

    Backslash continuations are joined and ``#`` comments dropped; each line
    comes back as its argv after ``ckn-lab``.
    """
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    words = (line.split("#", 1)[0].split() for line in block.replace("\\\n", " ").splitlines())
    return [argv[1:] for argv in words if argv[:1] == ["ckn-lab"]]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_lines_parse(argv, capsys):
    # parsed, not run: a flag the README names and the parser lacks exits 2
    try:
        cknlab.cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"ckn-lab {' '.join(argv)}: {capsys.readouterr().err}")


def test_readme_lists_every_command():
    commands = {argv[0] for argv in _readme_command_lines()}
    assert commands == {"params", "scan", "bubble", "shoot", "spectrum", "verify"}


COMMANDS_PROBE = """
import contextlib, io, json, sys

class RefuseScipy:
    # a meta-path finder that plays an install without the test extra
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

if sys.argv[1] == "refuse":
    sys.meta_path.insert(0, RefuseScipy())
import cknlab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = {"import": [None, "", scipy_modules()]}
for name, argv in (("params", ["params", "--a", "-0.5", "--b", "0", "--d", "3"]),
                   ("scan", ["scan", "--d", "3", "--a-min", "-1", "--a-max", "0",
                             "--a-step", "0.25"]),
                   ("bubble", ["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--grid", "5"]),
                   ("shoot", ["shoot", "--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2.5"]),
                   ("shoot --w0 100", ["shoot", "--a", "-0.5", "--b", "0", "--d", "3",
                                       "--w0", "100"]),
                   ("verify rigidity", ["verify", "--suite", "rigidity"]),
                   ("spectrum", ["spectrum", "--d", "3", "--n", "6"]),
                   ("verify spectrum", ["verify", "--suite", "spectrum"])):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = cknlab.cli.main(argv)
    out[name] = [code, text.getvalue(), scipy_modules()]
print(json.dumps(out))
"""


def _run_commands_probe(mode: str) -> dict:
    """{command: [exit code, stdout, scipy modules loaded so far]} from one fresh interpreter."""
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", COMMANDS_PROBE, mode], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def unrestricted_commands():
    return _run_commands_probe("allow")


def test_no_command_loads_a_scipy_module(unrestricted_commands):
    # the Brent fit of the rigidity suite, the TouchesZero crossing of a shot and
    # LAPACK dstebz from numpy's own OpenBLAS are all that the six commands need
    assert {name: got[2] for name, got in unrestricted_commands.items()} == dict.fromkeys(
        unrestricted_commands, [])
    assert all(got[0] == 0 for name, got in unrestricted_commands.items() if name != "import")


def test_every_command_runs_where_scipy_cannot_be_imported(unrestricted_commands):
    # an install without the test extra: every command exits 0 with the same bytes
    assert _run_commands_probe("refuse") == unrestricted_commands


CLOSURE_PROBE = """
import contextlib, io, json, sys, types
import cknlab.cli

cknlab.cli.build_parser()
parser_numpy = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cknlab.cli.main(sys.argv[1:])
print(json.dumps({
    "code": code, "parser_numpy": parser_numpy, "numpy": "numpy" in sys.modules,
    "futures": "concurrent.futures" in sys.modules,
    # a lazy module that is bound but never read keeps its lazy type
    "loaded": sorted(name[len("cknlab."):] for name, module in sys.modules.items()
                     if name.startswith("cknlab.") and type(module) is types.ModuleType),
}))
"""
_BASE = ["cli", "errors", "params", "reporting"]
_BUBBLE = _BASE + ["bubble", "cylfield", "grids"]
#: command -> (argv, the cknlab modules it runs)
COMMAND_MODULES = {
    "params": (["--a", "-0.5", "--b", "0", "--d", "3"], _BASE),
    "scan": (["--d", "3", "--a-min", "-1", "--a-max", "0", "--a-step", "0.25"], _BASE),
    "bubble": (["--a", "-0.5", "--b", "0", "--d", "3", "--grid", "5"], _BUBBLE),
    "shoot": (["--a", "-0.5", "--b", "0", "--d", "3", "--w0", "2.5"], _BUBBLE + ["radial_ode"]),
    "spectrum": (["--d", "3", "--n", "6", "--grid", "200"], _BUBBLE + ["spectral"]),
    "verify": (["--suite", "spectrum"],
               _BUBBLE + ["estimates", "fitting", "pressure", "radial_ode", "spectral",
                          "verify"]),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_its_modules(command):
    # fresh interpreter: the parser reads no numpy module, params and scan run
    # on the standard library alone, and each command loads the table's modules
    argv, modules = COMMAND_MODULES[command]
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CLOSURE_PROBE, command, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["code"] == 0 and got["parser_numpy"] is False
    assert got["loaded"] == sorted(modules)
    if command in ("params", "scan"):
        assert got["numpy"] is False and got["futures"] is False


def test_module_entry_point_runs_clean_under_warnings_as_errors():
    # cli is not a lazy module, so runpy finds no stale cknlab.cli in sys.modules
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "cknlab.cli", "params",
                           "--a", "-0.5", "--b", "0", "--d", "3"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["n"] == 6.0


MAPS_PROBE = """
import json
from cknlab.params import derive_params
from cknlab.spectral import build_sector_operator, lowest_eigenvalue

def shared_objects():
    with open("/proc/self/maps") as maps:
        fields = (line.split(None, 5) for line in maps)
        return {f[5].strip() for f in fields if len(f) == 6 and f[4] != "0" and ".so" in f[5]}

op = build_sector_operator(derive_params(-0.5, 0.0, 3), k=1, N=400)
before = shared_objects()
ours = lowest_eigenvalue(op)
mapped = sorted(shared_objects() - before)
import scipy.linalg
ref = scipy.linalg.eigvalsh_tridiagonal(*op.tridiagonal(), select="i", select_range=(0, 0))
print(json.dumps({"mapped": mapped, "lab": ours.hex(), "scipy": float(ref[0]).hex()}))
"""


def test_first_eigenvalue_maps_no_new_shared_object():
    # dstebz comes from the OpenBLAS that numpy mapped on import, and scipy,
    # imported afterwards, gives the same bits
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps on this platform")
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", MAPS_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["mapped"] == []
    assert got["lab"] == got["scipy"]


def test_spectrum_without_lapack_exits_2_with_the_searched_path(capsys, without_lapack):
    code, out, err = run_cli(capsys, "spectrum", "--d", "3", "--n", "6")
    assert code == 2 and out == ""
    assert f"error: no LAPACK dstebz: searched {without_lapack}" in err
    assert "Traceback" not in err


def test_verify_spectrum_without_lapack_exits_2_not_as_a_contract_failure(capsys, without_lapack):
    # the install lacks a library; the Felli-Schneider contract was never judged
    code, out, err = run_cli(capsys, "verify", "--suite", "spectrum")
    assert code == 2 and out == ""
    assert f"error: no LAPACK dstebz: searched {without_lapack}" in err
    assert "contract failure" not in err and "Traceback" not in err


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
                "--grid", str(draw(st.integers(min_value=1, max_value=128))),
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
@example(["spectrum", "--d", "3", "--n", "1000", "--grid", "64", "--alpha-count", "1"])
@example(["bubble", "--a", "-0.5", "--b", "0", "--d", "3", "--lam", "1e306", "--grid", "4",
          "--r-max", "1e3"])
def test_argv_fuzz_exits_with_a_code(argv):
    # Every invocation ends in an exit code (0 output, 1 contract failure, 2
    # refused with a reason); no exception escapes cli.main.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


@st.composite
def _large_count_argv(draw):
    """A spectrum invocation with one or more counts past its work cap.

    Each drawn large count alone exceeds the cap whatever the other flags are:
    a table count above 2^25, or a --grid whose crossing (18 sign tests at
    --d 3 --n 6) passes 2^24 nodes.
    """
    def large(low):
        return st.integers(min_value=low, max_value=10**30).map(str)

    def small(flag):  # admissible, so a refusal can only be of a drawn flag
        low = cknlab.spectral.MIN_SECTOR_INTERVALS if flag == "--grid" else 1
        return st.integers(min_value=low, max_value=low + 63).map(str)

    cap = cknlab.cli.SPECTRUM_MAX_NODES
    lows = {"--alpha-count": 2 * cap, "--k-max": 2 * cap, "--grid": cap // 18 + 1}
    argv = ["spectrum", "--d", "3", "--n", "6"]
    flags = draw(st.lists(st.sampled_from(sorted(lows)), min_size=1, unique=True))
    for flag in sorted(lows):
        if flag in flags:
            argv += [flag, draw(large(lows[flag]))]
        elif draw(st.booleans()):
            argv += [flag, draw(small(flag))]
    return argv, flags


@settings(max_examples=60, deadline=None)
@given(_large_count_argv())
@example((["spectrum", "--d", "3", "--n", "6", "--alpha-count", "33554432", "--grid", "64",
           "--k-max", "0"], ["--alpha-count"]))
def test_large_counts_are_refused_before_any_solve(case):
    # every refusal exits 2 and its reason, the last line of stderr, names a drawn
    # flag (argparse's usage line above it lists every flag); a solve fails the test
    argv, flags = case

    def never(*args, **kwargs):
        raise AssertionError(f"{argv} ran work past the caps")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cknlab.spectral, "spectrum_table", never)
        m.setattr(cknlab.spectral, "fs_crossing", never)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2, argv
    reason = err.getvalue().splitlines()[-1]
    assert any(flag in reason for flag in flags), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
