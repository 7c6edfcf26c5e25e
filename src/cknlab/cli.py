"""Command-line front end.

Commands: params, scan, bubble, shoot, spectrum, verify.  argparse owns every
flag: each subcommand declares only the flags its command reads, with their
types, defaults and required checks, and the command functions read the parsed
namespace.  ``--config FILE`` supplies ``key=value`` lines as flags placed
right after the command name, so they are checked like typed flags and
explicit flags win.  Outputs are CSV or JSON plot data (no rendering);
identical configurations with the same seed produce byte-identical reports.
Exit codes: 0 pass, 1 contract failure, 2 invalid input (with the reason on
stderr).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import verify
from .bubble import eval_bubble, make_bubble
from .errors import AdmissibilityError, CknLabError, EmptyScan
from .params import REGIME_HEADER, derive_params, regime_row
from .radial_ode import SERIES_START, shoot
# ordered_map stays bound here for the perfbench tracer tests, which patch it.
from .reporting import csv_text, json_text, ordered_map, write_text  # noqa: F401
from .spectral import ALPHA_BRACKET, SPECTRUM_HEADER, alpha_bracket, fs_crossing, spectrum_table

EXIT_PASS = 0
EXIT_CONTRACT_FAILURE = 1
EXIT_INVALID_INPUT = 2

#: Largest regime map `scan` builds; the row count is checked before any row.
SCAN_MAX_ROWS = 100_000

#: Most float64 samples in one array (32 MB; 16x the default identities
#: field); size flags are checked against it before anything is allocated.
MAX_SAMPLES = 2**22

#: suite -> {verify flag the suite reads: keyword of verify.run_<suite>_suite}.
#: None marks a flag read here and not passed on; --a --b --d together give
#: rigidity's one parameter triple.
SUITE_FLAGS = {
    "identities": {"fields": "n_fields", "refine": "levels", "angular": "angular_size"},
    "estimates": {"grid": "grid_count", "format": None},
    "rigidity": {"a": None, "b": None, "d": None},
    "spectrum": {"grid": "N"},
}
ESTIMATES_HEADER = ["lemma", "params", "R", "lhs", "rhs", "fitted_exponent", "bound", "pass"]


def _count_at_least(low: int, most: float = math.inf):
    """argparse type for an integer count of at least ``low`` and at most ``most``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: got {value}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}: got {value}")
        return value
    return count


def _finite_above(low: float):
    """argparse type for a finite float above ``low``."""
    def value(text: str) -> float:
        number = float(text)
        if not low < number < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and above {low:g}: got {text}")
        return number
    return value


_positive_finite = _finite_above(0.0)


def _s_max(text: str) -> float:
    """argparse type for --s-max: finite and above SERIES_START in log(s), where shots step."""
    value = _finite_above(SERIES_START)(text)
    if not math.log(value) > math.log(SERIES_START):
        raise argparse.ArgumentTypeError(
            f"must exceed the series start {SERIES_START:g} after taking logs: got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckn-lab",
        description="Numerical laboratory for weighted critical rigidity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--config", help="key=value config file (explicit flags win)")
        return p

    def weights(p, required=True):
        p.add_argument("--a", type=float, required=required)
        p.add_argument("--b", type=float, required=required)
        p.add_argument("--d", type=int, required=required)

    weights(command("params", cmd_params, "derive and print a ParamSet"))

    p = command("scan", cmd_scan, "regime map over a weight range")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--a-step", type=float, default=0.01)
    p.add_argument("--b-offset", type=float, default=0.0, help="scan along b = a + offset")

    p = command("bubble", cmd_bubble, "emit (r, u(r)) of the explicit extremal")
    weights(p)
    p.add_argument("--lam", type=_positive_finite, default=1.0, help="scaling parameter")
    p.add_argument("--grid", type=_count_at_least(1, MAX_SAMPLES), default=2048,
                   help="radius count")
    p.add_argument("--r-min", type=_positive_finite, default=1e-3)
    p.add_argument("--r-max", type=_positive_finite, default=1e3)

    p = command("shoot", cmd_shoot, "radial shooting from amplitude w0")
    weights(p)
    p.add_argument("--w0", type=_positive_finite, required=True)
    p.add_argument("--s-max", type=_s_max, default=1e3)

    p = command("spectrum", cmd_spectrum, "sector eigenvalues and threshold crossing")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=float, required=True, help="intrinsic dimension of the path")
    p.add_argument("--alpha-min", type=_positive_finite,
                   help=f"default {ALPHA_BRACKET[0]:g} x the closed-form threshold")
    p.add_argument("--alpha-max", type=_positive_finite,
                   help=f"default {ALPHA_BRACKET[1]:g} x the closed-form threshold")
    p.add_argument("--alpha-count", type=_count_at_least(1), default=9)
    p.add_argument("--k-max", type=_count_at_least(0), default=2)
    p.add_argument("--grid", type=_count_at_least(1, MAX_SAMPLES), default=2000,
                   help="eigensolver nodes")

    p = command("verify", cmd_verify, "run a verification suite")
    p.add_argument("--suite", choices=tuple(SUITE_FLAGS), required=True)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--format", choices=("csv", "json"), help="estimates only (default json)")
    p.add_argument("--fields", type=_count_at_least(1), help="random fields (identities)")
    p.add_argument("--refine", type=_count_at_least(2), help="refinement levels (identities)")
    p.add_argument("--angular", type=_count_at_least(verify.MIN_ANGULAR_SIZE),
                   help="angular node count (identities)")
    p.add_argument("--grid", type=_count_at_least(1),
                   help="radial node count (estimates, spectrum)")
    weights(p, required=False)  # rigidity: one (a, b, d) triple
    return parser


def _invalid(reason: str) -> int:
    print(reason, file=sys.stderr)
    return EXIT_INVALID_INPUT


def _write_rows_and_record(header: list[str], rows: list, record: dict, out) -> None:
    """CSV to --out and the JSON record to stdout; with no --out, the record goes to stderr."""
    write_text(csv_text(header, rows), out)
    print(json_text(record), end="", file=sys.stdout if out else sys.stderr)


def cmd_params(args) -> int:
    write_text(json_text(derive_params(args.a, args.b, args.d).to_dict()), args.out)
    return EXIT_PASS


def cmd_scan(args) -> int:
    step = args.a_step
    if step == 0:
        return _invalid("scan requires a nonzero --a-step")
    span = (args.a_max - args.a_min) / step
    if not math.isfinite(span) or round(span) >= SCAN_MAX_ROWS:
        return _invalid(f"scan builds at most {SCAN_MAX_ROWS} rows: "
                        "narrow --a-min/--a-max or widen --a-step")
    count = int(round(span)) + 1
    if count <= 0:
        raise EmptyScan("empty a range")
    a_values = (args.a_min + i * step for i in range(count))
    rows = [regime_row(a, a + args.b_offset, args.d) for a in a_values]
    write_text(csv_text(REGIME_HEADER, rows), args.out)
    return EXIT_PASS


def cmd_bubble(args) -> int:
    if args.r_min > args.r_max:   # equal bounds sample one radius
        return _invalid("bubble requires --r-min <= --r-max")
    spec = make_bubble(derive_params(args.a, args.b, args.d), lam=args.lam)
    radii = np.exp(np.linspace(np.log(args.r_min), np.log(args.r_max), args.grid))
    values = eval_bubble(spec, radii)
    write_text(csv_text(["r", "u"], list(zip(radii, values))), args.out)
    return EXIT_PASS


def cmd_shoot(args) -> int:
    ps = derive_params(args.a, args.b, args.d)
    profile = shoot(ps, args.w0, s_max=args.s_max)
    rows = list(zip(profile.s, profile.w, profile.w_prime))
    record = {
        "params": ps.to_dict(),
        "w0": args.w0,
        "classification": profile.classification.value,
        "samples": len(rows),
        "s_end": float(profile.s[-1]),
        "w_end": float(profile.w[-1]),
    }
    _write_rows_and_record(["s", "w", "w_prime"], rows, record, args.out)
    return EXIT_PASS


def cmd_spectrum(args) -> int:
    d, n, N = args.d, args.n, args.grid
    if not 1 < n < math.inf:
        return _invalid("spectrum requires a finite --n > 1")
    if not n > d:  # see path_params
        return _invalid("spectrum requires --n > --d: no alpha is admissible on the path")
    a_lo, a_hi = alpha_bracket(d, n)
    a_lo = a_lo if args.alpha_min is None else args.alpha_min
    a_hi = a_hi if args.alpha_max is None else args.alpha_max
    if not a_lo < a_hi:
        return _invalid(f"spectrum requires --alpha-min < --alpha-max: got {a_lo} and {a_hi}")
    rows = spectrum_table(d, n, np.linspace(a_lo, a_hi, args.alpha_count), args.k_max, N)
    crossing = fs_crossing(d, n, (a_lo, a_hi), N=N)
    _write_rows_and_record(SPECTRUM_HEADER, rows, crossing.to_dict(), args.out)
    return EXIT_PASS


def cmd_verify(args) -> int:
    reads = SUITE_FLAGS[args.suite]
    given = [f for f in ("format", "fields", "refine", "angular", "grid", "a", "b", "d")
             if getattr(args, f) is not None]
    unread = [f"--{f}" for f in given if f not in reads]
    if unread:
        return _invalid(f"--suite {args.suite} does not read {' '.join(unread)}")
    kwargs = {reads[f]: getattr(args, f) for f in given if reads[f]}
    if args.suite == "identities":
        refine = args.refine or verify.IDENTITY_LEVELS
        angular = args.angular or verify.IDENTITY_ANGULAR
        samples = verify.identities_field_samples(refine, angular)
        sizing = f"--refine {refine} --angular {angular}"
    else:  # spectrum's widest operator (converged_lowest_eigenvalue) has 3 --grid nodes
        samples = (3 if args.suite == "spectrum" else 1) * (args.grid or 0)
        sizing = f"--grid {args.grid}"
    if samples > MAX_SAMPLES:
        return _invalid(f"--suite {args.suite} builds arrays of at most {MAX_SAMPLES} samples: "
                        f"{sizing} gives {samples}")
    if args.suite == "rigidity" and given:
        if len(given) < 3:
            return _invalid("--suite rigidity takes --a --b --d together")
        kwargs["param_triples"] = ((args.a, args.b, args.d),)
    # Looked up at call time, so a rebinding of the verify module (tracing) applies.
    report = getattr(verify, f"run_{args.suite}_suite")(seed=args.seed, **kwargs)
    if args.suite == "estimates":
        report, rows = report
    text = csv_text(ESTIMATES_HEADER, rows) if args.format == "csv" else json_text(report)
    write_text(text, args.out)
    if not report.get("pass", False):
        first = report.get("first_failure")
        print(f"contract failure: {first}", file=sys.stderr)
        return EXIT_CONTRACT_FAILURE
    return EXIT_PASS


def _with_config(argv: list[str]) -> list[str]:
    """argv with the ``key=value`` lines of ``--config FILE`` as flags after the command.

    Blank lines and #-comments are skipped.  Flags given on the command line
    come later in argv, so they win.
    """
    pre = argparse.ArgumentParser(prog="ckn-lab", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    flags = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"malformed config line: {line!r}")
            flags.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
    except SystemExit as exc:  # argparse printed the reason (or --help)
        return exc.code
    except (ValueError, OSError) as exc:  # unreadable or malformed --config file
        return _invalid(f"error: {exc}")
    try:
        return args.run(args)
    except AdmissibilityError as exc:
        return _invalid(f"inadmissible parameters: {exc}")
    except (CknLabError, ValueError, OSError) as exc:
        return _invalid(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
