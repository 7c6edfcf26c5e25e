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

from cknlab.params import felli_schneider_threshold
from cknlab.reporting import csv_text, json_text
from cknlab.spectral import build_sector_operator, fs_crossing, lowest_eigenvalue, path_params

OUT = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("out")
PAIRS = [(3, 6.0), (2, 4.0), (4, 8.0)]
K_MAX = 2
N_GRID = 2000


def sweep(d, n):
    formula = felli_schneider_threshold(d, n)
    alphas = np.linspace(0.7 * formula, 1.3 * formula, 13)
    rows = []
    for alpha in alphas:
        ps = path_params(d, n, float(alpha))
        for k in range(K_MAX + 1):
            ev = lowest_eigenvalue(build_sector_operator(ps, k, N=N_GRID))
            rows.append((float(alpha), k, ev))
    return rows


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    summaries = []
    for d, n in PAIRS:
        rows = sweep(d, n)
        path = OUT / f"spectrum_d{d}_n{n:g}.csv"
        path.write_text(csv_text(["alpha", "k", "lowest_eigenvalue"], rows))
        crossing = fs_crossing(d, n, N=N_GRID)
        summaries.append({
            "d": d,
            "n": n,
            "alpha_star_numeric": crossing.alpha_star_numeric,
            "alpha_star_formula": crossing.alpha_star_formula,
            "relative_gap": crossing.relative_gap,
        })
        print(f"(d={d}, n={n:g}): numeric {crossing.alpha_star_numeric:.6f}  "
              f"closed form {crossing.alpha_star_formula:.6f}  "
              f"gap {100 * crossing.relative_gap:.4f}%  -> {path}")
    (OUT / "threshold_summary.json").write_text(json_text({"crossings": summaries}))


if __name__ == "__main__":
    main()
