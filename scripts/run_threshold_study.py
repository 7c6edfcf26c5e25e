#!/usr/bin/env python3
"""Locate the symmetry-breaking threshold numerically and compare it with
the closed form sqrt((d-1)/(n-1)).

For each (d, n) pair this sweeps the bottom eigenvalue of the first few
spherical-harmonic sectors along the fixed-(d, n) weight path, writes the
(alpha, k, eigenvalue) table, and bisects the k = 1 sign change.

Usage: python scripts/run_threshold_study.py [outdir]
"""

import pathlib
import sys

import numpy as np

from cknlab.params import alpha_bracket
from cknlab.reporting import csv_text, json_text
from cknlab.spectral import SPECTRUM_HEADER, fs_crossing, spectrum_table

OUT = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("out")
PAIRS = [(3, 6.0), (2, 4.0), (4, 8.0)]
K_MAX = 2
N_GRID = 2000


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    summaries = []
    for d, n in PAIRS:
        rows = spectrum_table(d, n, np.linspace(*alpha_bracket(d, n), 13), K_MAX, N_GRID)
        path = OUT / f"spectrum_d{d}_n{n:g}.csv"
        path.write_text(csv_text(SPECTRUM_HEADER, rows))
        crossing = fs_crossing(d, n, N=N_GRID)
        summaries.append(crossing.to_dict())
        print(f"(d={d}, n={n:g}): numeric {crossing.alpha_star_numeric:.6f}  "
              f"closed form {crossing.alpha_star_formula:.6f}  "
              f"gap {100 * crossing.relative_gap:.4f}%  -> {path}")
    (OUT / "threshold_summary.json").write_text(json_text({"crossings": summaries}))


if __name__ == "__main__":
    main()
