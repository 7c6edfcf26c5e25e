"""CSV/JSON emission and the bounded worker pool.

Reports must be byte-identical for identical configurations: floats are
printed with 17 significant digits, JSON keys are sorted, no timestamps or
machine identifiers appear anywhere, and pooled work preserves input order
regardless of completion order.
"""

from __future__ import annotations

import json
import math
import os

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
    """Map over items on min(8, CPU count) threads; results keep the input order."""
    items = list(items)
    max_workers = min(8, os.cpu_count() or 1)
    if max_workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor   # only a call that pools loads it

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, items))
