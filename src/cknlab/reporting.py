"""CSV/JSON emission and the bounded thread pool.

Reports must be byte-identical for identical configurations: floats are
printed with 17 significant digits, JSON keys are sorted, no timestamps or
machine identifiers appear anywhere, and pooled work preserves input order
regardless of completion order.
"""

from __future__ import annotations

import json
import math
import os
import threading

FLOAT_FMT = "{:.17g}"


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return FLOAT_FMT.format(v)
    return str(v)


def csv_text(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _sanitize(obj):
    """Make report structures JSON-serializable (inf/nan -> strings)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if hasattr(obj, "item") and callable(obj.item) and getattr(obj, "ndim", None) == 0:
        return _sanitize(obj.item())
    if hasattr(obj, "tolist"):
        return _sanitize(obj.tolist())
    return obj


def json_text(report: dict) -> str:
    return json.dumps(_sanitize(report), sort_keys=True, indent=2) + "\n"


def write_text(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        print(text, end="")
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def ordered_map(fn, items) -> list:
    """fn of each item on min(8, CPU count) threads, the caller one of them; the
    results keep the input order.

    Each thread runs one contiguous chunk of the items in order, the caller the
    first.  Once every chunk has ended, the exception of the first failing item
    in input order is raised (a chunk stops at its first).
    """
    items = list(items)
    if not items:
        return []
    count = min(8, os.cpu_count() or 1, len(items))
    edges = [len(items) * i // count for i in range(count + 1)]
    results, errors = [None] * count, [None] * count

    def run(chunk: int) -> None:
        try:
            results[chunk] = [fn(it) for it in items[edges[chunk]:edges[chunk + 1]]]
        except BaseException as exc:    # raised on the calling thread below
            errors[chunk] = exc

    threads = [threading.Thread(target=run, args=(chunk,)) for chunk in range(1, count)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return [r for chunk in results for r in chunk]
