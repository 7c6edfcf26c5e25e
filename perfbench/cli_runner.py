"""Run one ckn-lab command traced, in a fresh interpreter.

    python3 perfbench/cli_runner.py RESULT.json -- <ckn-lab argv...>

Times ``import cknlab.cli`` from the checkout's ``src/``, installs the span
wrappers, calls ``cknlab.cli.main(argv)`` and writes the import time, the
exit code, the spans and the counters to RESULT.json.  With no command after
``--`` it only times the import.  The command's own output is untouched.
"""

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    result_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_runner.py RESULT.json -- [argv...]")
    sys.path.insert(0, str(BENCH.parent / "src"))
    t0 = time.perf_counter()
    import cknlab.cli

    result = {"import_s": time.perf_counter() - t0, "rc": 0}
    if argv:
        from tracer import Tracer   # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
        tracer.begin_op(0)
        try:
            result["rc"] = cknlab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            result["rc"] = exc.code if isinstance(exc.code, int) else 2
        finally:
            tracer.uninstall()
        result["spans"] = tracer.export()
        result["counters"] = dict(tracer.counters)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
