"""Record the SHA-256 reference digests the benchmark checks outputs against.

    python3 perfbench/record_digests.py

Runs every input an operation list can draw (each suite seed, each CLI
command) once, untraced, and writes perfbench/reference_digests.json.  It
refuses to record an output whose contract fails.  Report bytes are the
program's invariant: re-record only when a change is meant to alter them,
and say so in that change.
"""

import json
import sys
import tempfile

from worker import (OUT_DIR, REFERENCE, WORKLOADS, all_inputs, digests, run_cli_op,
                    run_inprocess_op, use_checkout_src)


def main() -> int:
    use_checkout_src()
    OUT_DIR.mkdir(exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        for wl in WORKLOADS:
            for key in all_inputs(wl):
                if wl == "cli-cold":
                    streams, ok, _ = run_cli_op(key, workdir)
                else:
                    streams, ok = run_inprocess_op(wl, key)
                if not ok:
                    raise SystemExit(f"{wl} {key}: contract failed; nothing recorded")
                refs.setdefault(wl, {})[key] = digests(streams)
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
