"""Command-line front end.

Commands: params, scan, bubble, shoot, spectrum, verify.  Outputs are CSV or
JSON plot data (no rendering); identical configurations with the same seed
produce byte-identical reports.  Exit codes: 0 pass, 1 contract failure,
2 invalid input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .bubble import eval_bubble, make_bubble
from .errors import AdmissibilityError, CknLabError, EmptyScan
from .params import derive_params
from .radial_ode import shoot
# ordered_map stays bound here for the perfbench tracer tests, which patch it.
from .reporting import csv_text, json_text, ordered_map, write_text  # noqa: F401
from .spectral import build_sector_operator, fs_crossing, lowest_eigenvalue, path_params
from .verify import (
    DEFAULT_SEED,
    run_estimates_suite,
    run_identities_suite,
    run_rigidity_suite,
    run_spectrum_suite,
)

EXIT_PASS = 0
EXIT_CONTRACT_FAILURE = 1
EXIT_INVALID_INPUT = 2


@dataclass
class RunConfig:
    command: str
    options: dict

    def get(self, key, default=None):
        val = self.options.get(key)
        return default if val is None else val


def _parse_config_file(path: str) -> dict:
    """key=value lines; blank lines and #-comments ignored."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _coerce(raw: str):
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Start from the config file (if any); explicit flags win on conflict."""
    opts = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        for key, raw in _parse_config_file(cfg_path).items():
            opts[key] = _coerce(raw)
    for key, val in vars(args).items():
        if key not in ("command", "config") and (val is not None or key not in opts):
            opts[key] = val
    return RunConfig(command=args.command, options=opts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckn-lab",
        description="Numerical laboratory for weighted critical rigidity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_abd=True):
        if with_abd:
            p.add_argument("--a", type=float, default=None)
            p.add_argument("--b", type=float, default=None)
            p.add_argument("--d", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid", type=int, default=None, help="radial node count")
        p.add_argument("--angular", type=int, default=None, help="angular node count (d=2)")
        p.add_argument("--refine", type=int, default=None, help="refinement levels")
        p.add_argument("--config", type=str, default=None, help="key=value config file")

    p = sub.add_parser("params", help="derive and print a ParamSet")
    common(p)

    p = sub.add_parser("scan", help="regime map over a weight range")
    common(p)
    p.add_argument("--a-min", dest="a_min", type=float, default=None)
    p.add_argument("--a-max", dest="a_max", type=float, default=None)
    p.add_argument("--a-step", dest="a_step", type=float, default=None)
    p.add_argument("--b-offset", dest="b_offset", type=float, default=None,
                   help="scan along b = a + offset")

    p = sub.add_parser("bubble", help="emit (r, u(r)) of the explicit extremal")
    common(p)
    p.add_argument("--lam", type=float, default=None, help="scaling parameter")
    p.add_argument("--r-min", dest="r_min", type=float, default=None)
    p.add_argument("--r-max", dest="r_max", type=float, default=None)

    p = sub.add_parser("shoot", help="radial shooting from amplitude w0")
    common(p)
    p.add_argument("--w0", type=float, default=None)
    p.add_argument("--s-max", dest="s_max", type=float, default=None)

    p = sub.add_parser("spectrum", help="sector eigenvalues and threshold crossing")
    common(p, with_abd=False)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=float, default=None, help="intrinsic dimension of the path")
    p.add_argument("--alpha-min", dest="alpha_min", type=float, default=None)
    p.add_argument("--alpha-max", dest="alpha_max", type=float, default=None)
    p.add_argument("--alpha-count", dest="alpha_count", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", choices=("identities", "estimates", "rigidity", "spectrum"),
                   required=True)
    p.add_argument("--fields", type=int, default=None, help="random fields (identities)")
    return parser


def cmd_params(cfg: RunConfig) -> int:
    a, b, d = cfg.get("a"), cfg.get("b"), cfg.get("d")
    if a is None or b is None or d is None:
        print("params requires --a --b --d", file=sys.stderr)
        return EXIT_INVALID_INPUT
    ps = derive_params(a, b, d)
    write_text(json_text(ps.to_dict()), cfg.get("out"))
    return EXIT_PASS


def cmd_scan(cfg: RunConfig) -> int:
    d = cfg.get("d")
    a_min, a_max = cfg.get("a_min"), cfg.get("a_max")
    step = cfg.get("a_step", 0.01)
    if d is None or a_min is None or a_max is None or step == 0:
        print("scan requires --d --a-min --a-max and a nonzero --a-step", file=sys.stderr)
        return EXIT_INVALID_INPUT
    offset = cfg.get("b_offset", 0.0)
    count = int(round((a_max - a_min) / step)) + 1
    if count <= 0:
        raise EmptyScan("empty a range")
    header = ["a", "b", "p", "alpha", "n", "fs_threshold", "regime"]

    def row(i):
        a = a_min + i * step
        b = a + offset
        try:
            ps = derive_params(a, b, d)
            return (a, b, ps.p_exp, ps.alpha, ps.n, ps.fs_threshold,
                    ps.regime.value)
        except AdmissibilityError:
            return (a, b, float("nan"), float("nan"), float("nan"),
                    float("nan"), "excluded")

    rows = [row(i) for i in range(count)]
    write_text(csv_text(header, rows), cfg.get("out"))
    return EXIT_PASS


def cmd_bubble(cfg: RunConfig) -> int:
    a, b, d = cfg.get("a"), cfg.get("b"), cfg.get("d")
    if a is None or b is None or d is None:
        print("bubble requires --a --b --d", file=sys.stderr)
        return EXIT_INVALID_INPUT
    ps = derive_params(a, b, d)
    spec = make_bubble(ps, lam=cfg.get("lam", 1.0))
    count = cfg.get("grid", 2048)
    radii = np.exp(np.linspace(np.log(cfg.get("r_min", 1e-3)),
                               np.log(cfg.get("r_max", 1e3)), count))
    values = eval_bubble(spec, radii)
    write_text(csv_text(["r", "u"], list(zip(radii, values))), cfg.get("out"))
    return EXIT_PASS


def cmd_shoot(cfg: RunConfig) -> int:
    a, b, d = cfg.get("a"), cfg.get("b"), cfg.get("d")
    w0 = cfg.get("w0")
    if a is None or b is None or d is None or w0 is None:
        print("shoot requires --a --b --d --w0", file=sys.stderr)
        return EXIT_INVALID_INPUT
    ps = derive_params(a, b, d)
    profile = shoot(ps, w0, s_max=cfg.get("s_max", 1e3))
    rows = list(zip(profile.s, profile.w, profile.w_prime))
    record = {
        "params": ps.to_dict(),
        "w0": w0,
        "classification": profile.classification.value,
        "samples": len(rows),
        "s_end": float(profile.s[-1]),
        "w_end": float(profile.w[-1]),
    }
    out = cfg.get("out")
    if out:
        write_text(csv_text(["s", "w", "w_prime"], rows), out)
        print(json_text(record), end="")
    else:
        write_text(csv_text(["s", "w", "w_prime"], rows), None)
        print(json_text(record), end="", file=sys.stderr)
    return EXIT_PASS


def cmd_spectrum(cfg: RunConfig) -> int:
    d, n = cfg.get("d"), cfg.get("n")
    if d is None or n is None or n <= 1:
        print("spectrum requires --d and --n > 1", file=sys.stderr)
        return EXIT_INVALID_INPUT
    formula = float(np.sqrt((d - 1.0) / (n - 1.0)))
    a_lo = cfg.get("alpha_min", 0.7 * formula)
    a_hi = cfg.get("alpha_max", 1.3 * formula)
    count = cfg.get("alpha_count", 9)
    k_max = cfg.get("k_max", 2)
    N = cfg.get("grid", 2000)
    alphas = np.linspace(a_lo, a_hi, count)
    rows = []
    for alpha in alphas:
        ps = path_params(d, n, float(alpha))
        for k in range(k_max + 1):
            ev = lowest_eigenvalue(build_sector_operator(ps, k, N=N))
            rows.append((float(alpha), k, ev))
    crossing = fs_crossing(d, n, (a_lo, a_hi), N=N)
    summary = {
        "d": d,
        "n": n,
        "alpha_star_numeric": crossing.alpha_star_numeric,
        "alpha_star_formula": crossing.alpha_star_formula,
        "relative_gap": crossing.relative_gap,
        "a_at_crossing": crossing.a_at_crossing,
    }
    out = cfg.get("out")
    if out:
        write_text(csv_text(["alpha", "k", "lowest_eigenvalue"], rows), out)
        print(json_text(summary), end="")
    else:
        write_text(csv_text(["alpha", "k", "lowest_eigenvalue"], rows), None)
        print(json_text(summary), end="", file=sys.stderr)
    return EXIT_PASS


def cmd_verify(cfg: RunConfig) -> int:
    suite = cfg.get("suite")
    seed = cfg.get("seed", DEFAULT_SEED)
    fmt = cfg.get("format", "json")
    if suite == "identities":
        kwargs = {"seed": seed}
        if cfg.get("fields") is not None:
            kwargs["n_fields"] = cfg.get("fields")
        if cfg.get("refine") is not None:
            kwargs["levels"] = cfg.get("refine")
        if cfg.get("angular") is not None:
            kwargs["angular_size"] = cfg.get("angular")
        report = run_identities_suite(**kwargs)
        text = json_text(report)
    elif suite == "estimates":
        kwargs = {"seed": seed}
        if cfg.get("grid") is not None:
            kwargs["grid_count"] = cfg.get("grid")
        report, rows = run_estimates_suite(**kwargs)
        if fmt == "csv":
            text = csv_text(
                ["lemma", "params", "R", "lhs", "rhs", "fitted_exponent", "bound", "pass"],
                rows,
            )
        else:
            text = json_text(report)
    elif suite == "rigidity":
        kwargs = {"seed": seed}
        if cfg.get("a") is not None and cfg.get("b") is not None and cfg.get("d") is not None:
            kwargs["param_triples"] = ((cfg.get("a"), cfg.get("b"), cfg.get("d")),)
        report = run_rigidity_suite(**kwargs)
        text = json_text(report)
    elif suite == "spectrum":
        kwargs = {"seed": seed}
        if cfg.get("grid") is not None:
            kwargs["N"] = cfg.get("grid")
        report = run_spectrum_suite(**kwargs)
        text = json_text(report)
    else:
        print(f"unknown suite {suite!r}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    write_text(text, cfg.get("out"))
    if not report.get("pass", False):
        first = report.get("first_failure")
        print(f"contract failure: {first}", file=sys.stderr)
        return EXIT_CONTRACT_FAILURE
    return EXIT_PASS


COMMANDS = {
    "params": cmd_params,
    "scan": cmd_scan,
    "bubble": cmd_bubble,
    "shoot": cmd_shoot,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _merge_config(args)
    try:
        return COMMANDS[args.command](cfg)
    except AdmissibilityError as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (CknLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
