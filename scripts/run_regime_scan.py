#!/usr/bin/env python3
"""Map the symmetric / symmetry-breaking regime over the (a, b) plane.

Produces one CSV per offset line b = a + offset (plottable as regime bands)
plus a summary of where the classification flips along each line.

Usage: python scripts/run_regime_scan.py [outdir]
"""

import pathlib
import sys

import numpy as np

from cknlab.params import REGIME_HEADER, regime_row
from cknlab.reporting import csv_text

OUT = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("out")
D = 3
OFFSETS = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8]
A_GRID = np.arange(-2.0, 0.5, 0.005)


def scan_line(offset):
    rows = []
    flip = None
    prev = None
    for a in A_GRID:
        rows.append(regime_row(float(a), float(a + offset), D))
        regime = rows[-1][-1]
        if prev is not None and regime != prev and "excluded" not in (regime, prev):
            flip = float(a)
        prev = regime
    return rows, flip


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for offset in OFFSETS:
        rows, flip = scan_line(offset)
        path = OUT / f"regime_d{D}_offset{offset:g}.csv"
        path.write_text(csv_text(REGIME_HEADER, rows))
        flip_txt = f"{flip:.3f}" if flip is not None else "none in range"
        print(f"offset {offset:g}: {len(rows)} rows -> {path}  (flip at a = {flip_txt})")


if __name__ == "__main__":
    main()
