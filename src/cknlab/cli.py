"""Command-line front end.

Commands: params, scan, bubble, shoot, spectrum, verify.  argparse owns every
flag: each subcommand declares only the flags its command reads, with their
types, defaults and required checks, and the command functions read the parsed
namespace.  ``verify`` runs each suite at the one configuration its
tolerances were set for: a suite's resolution is a constant of ``verify``,
not a flag.  Outputs are CSV or JSON plot data (no rendering); identical
configurations with the same seed produce byte-identical reports.
Exit codes: 0 pass, 1 contract failure, 2 invalid input or an OSError such as no
LAPACK dstebz (the reason on stderr).  A CknLabError a suite raises at its fixed
configuration is a contract failure; on the user's parameter triple, invalid input.
"""

from __future__ import annotations

import argparse
import math
import sys

# Modules, not names: each stays lazy (cknlab/__init__.py) until a command reads
# it, and building the parser reads nothing from a module that imports numpy.
from . import bubble, radial_ode, spectral, verify
from .errors import AdmissibilityError, CknLabError
from .params import ALPHA_BRACKET, REGIME_HEADER, alpha_bracket, derive_params, regime_row
# ordered_map stays bound here for the perfbench tracer tests, which patch it.
from .reporting import csv_text, json_text, ordered_map, write_text  # noqa: F401

EXIT_PASS = 0
EXIT_CONTRACT_FAILURE = 1
EXIT_INVALID_INPUT = 2

#: Largest regime map `scan` builds; the row count is checked before any row.
SCAN_MAX_ROWS = 100_000

#: Most float64 samples in one array (32 MB); size flags are checked against it
#: before anything is allocated.
MAX_SAMPLES = 2**22

#: Most eigensolver nodes one `spectrum` command solves: its table plus the
#: crossing's sign tests, of --grid nodes each (90 000 by default at --d 3 --n 6,
#: where the crossing makes 18).
SPECTRUM_MAX_NODES = 2**24

#: suite -> the verify flags it reads besides --seed; --a --b --d together give
#: rigidity's one parameter triple.
SUITE_FLAGS = {
    "identities": (),
    "estimates": ("format",),
    "rigidity": ("a", "b", "d"),
    "spectrum": (),
}


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


def _finite(text: str) -> float:
    """argparse type for a finite float."""
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"must be a finite number: got {text}")
    return number


def _finite_above(low: float):
    """argparse type for a finite float above ``low``."""
    def value(text: str) -> float:
        number = float(text)
        if not low < number < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and above {low:g}: got {text}")
        return number
    return value


_positive_finite = _finite_above(0.0)
_dimension = _count_at_least(2)   # the ambient dimension d


def _s_max(text: str) -> float:
    """argparse type for --s-max: finite and above SERIES_START in log(s), where shots step."""
    start = radial_ode.SERIES_START
    value = _finite_above(start)(text)
    if not math.log(value) > math.log(start):
        raise argparse.ArgumentTypeError(
            f"must exceed the series start {start:g} after taking logs: got {text}")
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
        return p

    def weights(p, required=True):
        p.add_argument("--a", type=_finite, required=required)
        p.add_argument("--b", type=_finite, required=required)
        p.add_argument("--d", type=_dimension, required=required)

    def intervals(text: str) -> int:   # spectrum --grid: the eigensolver's floor, read on use
        return _count_at_least(spectral.MIN_SECTOR_INTERVALS, MAX_SAMPLES)(text)

    weights(command("params", cmd_params, "derive and print a ParamSet"))

    p = command("scan", cmd_scan, "regime map over a weight range")
    p.add_argument("--d", type=_dimension, required=True)
    p.add_argument("--a-min", type=_finite, required=True)
    p.add_argument("--a-max", type=_finite, required=True)
    p.add_argument("--a-step", type=_finite, default=0.01)
    p.add_argument("--b-offset", type=_finite, default=0.0, help="scan along b = a + offset")

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
    p.add_argument("--d", type=_dimension, required=True)
    p.add_argument("--n", type=float, required=True, help="intrinsic dimension of the path")
    p.add_argument("--alpha-min", type=_positive_finite,
                   help=f"default {ALPHA_BRACKET[0]:g} x the closed-form threshold")
    p.add_argument("--alpha-max", type=_positive_finite,
                   help=f"default {ALPHA_BRACKET[1]:g} x the closed-form threshold")
    p.add_argument("--alpha-count", type=_count_at_least(1), default=9)
    p.add_argument("--k-max", type=_count_at_least(0), default=2)
    p.add_argument("--grid", type=intervals, default=2000, help="eigensolver nodes")

    p = command("verify", cmd_verify, "run a verification suite")
    p.add_argument("--suite", choices=tuple(SUITE_FLAGS), required=True)
    p.add_argument("--seed", type=_count_at_least(0))   # default verify.DEFAULT_SEED
    p.add_argument("--format", choices=("csv", "json"), help="estimates only (default json)")
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
        return _invalid(f"scan has no rows: --a-min {args.a_min} to --a-max {args.a_max} "
                        f"in steps of --a-step {step}")
    a_values = (args.a_min + i * step for i in range(count))
    rows = [regime_row(a, a + args.b_offset, args.d) for a in a_values]
    write_text(csv_text(REGIME_HEADER, rows), args.out)
    return EXIT_PASS


def cmd_bubble(args) -> int:
    if args.r_min > args.r_max:   # equal bounds sample one radius
        return _invalid("bubble requires --r-min <= --r-max")
    import numpy as np
    spec = bubble.make_bubble(derive_params(args.a, args.b, args.d), lam=args.lam)
    radii = np.exp(np.linspace(np.log(args.r_min), np.log(args.r_max), args.grid))
    values = bubble.eval_bubble(spec, radii)
    write_text(csv_text(["r", "u"], list(zip(radii, values))), args.out)
    return EXIT_PASS


def cmd_shoot(args) -> int:
    ps = derive_params(args.a, args.b, args.d)
    profile = radial_ode.shoot(ps, args.w0, s_max=args.s_max)
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
    for flag, given, alpha in (("--alpha-min", args.alpha_min, a_lo),
                               ("--alpha-max", args.alpha_max, a_hi)):
        try:
            spectral.path_params(d, n, alpha)
        except AdmissibilityError as exc:
            source = flag if given is not None else f"--n {n!r}"
            return _invalid(f"{source} gives an inadmissible path end alpha = {alpha!r}: {exc}")
    table = args.alpha_count * (args.k_max + 1) * N
    solves = spectral.fs_crossing_solves(a_lo, a_hi)
    if table + solves * N > SPECTRUM_MAX_NODES:
        return _invalid(f"spectrum solves at most {SPECTRUM_MAX_NODES} nodes: --alpha-count "
                        f"{args.alpha_count} x (--k-max {args.k_max} + 1) x --grid {N} gives "
                        f"{table} table nodes, and the crossing's {solves} solves x --grid {N} "
                        f"give {solves * N} more ({table + solves * N} in all)")
    import numpy as np
    rows = spectral.spectrum_table(d, n, np.linspace(a_lo, a_hi, args.alpha_count),
                                   args.k_max, N)
    crossing = spectral.fs_crossing(d, n, (a_lo, a_hi), N=N)
    _write_rows_and_record(spectral.SPECTRUM_HEADER, rows, crossing.to_dict(), args.out)
    return EXIT_PASS


def cmd_verify(args) -> int:
    reads = SUITE_FLAGS[args.suite]
    unread = [f"--{f}" for f in ("format", "a", "b", "d")
              if getattr(args, f) is not None and f not in reads]
    if unread:
        return _invalid(f"--suite {args.suite} does not read {' '.join(unread)}")
    kwargs = {}
    triple = (args.a, args.b, args.d)
    if triple != (None, None, None):   # rigidity's one parameter triple
        if None in triple:
            return _invalid("--suite rigidity takes --a --b --d together")
        kwargs["param_triples"] = (triple,)
    # Looked up at call time, so a rebinding of the verify module (tracing) applies.
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    try:
        report = getattr(verify, f"run_{args.suite}_suite")(seed=seed, **kwargs)
    except CknLabError as exc:
        if kwargs:   # raised on the user's triple: main reports it as invalid input
            raise
        print(f"contract failure: {exc}", file=sys.stderr)
        return EXIT_CONTRACT_FAILURE
    if args.suite == "estimates":
        report, rows = report
    text = csv_text(verify.ESTIMATES_HEADER, rows) if args.format == "csv" else json_text(report)
    write_text(text, args.out)
    if not report.get("pass", False):
        first = report.get("first_failure")
        print(f"contract failure: {first}", file=sys.stderr)
        return EXIT_CONTRACT_FAILURE
    return EXIT_PASS


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the reason (or --help)
        return exc.code
    try:
        return args.run(args)
    except AdmissibilityError as exc:
        return _invalid(f"inadmissible parameters: {exc}")
    except (CknLabError, ValueError, OSError) as exc:
        return _invalid(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
