import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
])
def test_bad_input_exits_2_with_reason(argv, reason):
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "cknlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr
