#!/usr/bin/env python3
"""Desk-scale rigidity portrait for one parameter set.

Shoots a ladder of amplitudes, fits each decaying profile against the scaled
extremal family, and reports the rigidity defect of the extremal itself
alongside the defect of a deliberately perturbed field for contrast.

Usage: python scripts/run_rigidity_portrait.py [a] [b] [d]
"""

import sys

import numpy as np

from cknlab.bubble import bubble_cylinder, cylinder_amplitude
from cknlab.grids import RadialGrid
from cknlab.params import derive_params
from cknlab.pressure import pressure_of, rigidity_defect, rigidity_defect_breakdown
from cknlab.radial_ode import MATCH_TOL, radial_rigidity_sweep

a, b, d = (float(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3])) \
    if len(sys.argv) == 4 else (-0.5, 0.0, 3)


def main():
    ps = derive_params(a, b, d)
    print(f"params: a={ps.a} b={ps.b} d={ps.d}  ->  n={ps.n:g} alpha={ps.alpha:g} "
          f"threshold={ps.fs_threshold:g} regime={ps.regime.value}")

    c0 = cylinder_amplitude(ps)
    report = radial_rigidity_sweep(ps, c0 * np.logspace(-0.6, 0.6, 12))
    print(f"radial sweep: {report.matched_count}/{len(report.entries)} profiles "
          f"match a scaled extremal (tol {MATCH_TOL:g})")
    for e in report.entries:
        print(f"  w0/c0 = {e.w0 / c0:7.3f}  lambda = {e.lambda_fit:10.6f}  "
              f"sup rel err = {e.sup_rel_error:.2e}")

    grid = RadialGrid(1e-3, 1e3, 8192)
    pf = pressure_of(bubble_cylinder(ps, grid))
    print(f"rigidity defect of the extremal: {rigidity_defect(pf):+.3e}")

    w = bubble_cylinder(ps, grid)
    s = grid.nodes
    perturbed = w.with_values(w.values * (1.0 + 0.05 * s**2 * np.exp(-s)))
    bd = rigidity_defect_breakdown(pressure_of(perturbed))
    print(f"defect of a 5% perturbed field:  {bd['total']:+.3e}  "
          f"(radial hessian term {bd['radial_hessian']:+.3e})")


if __name__ == "__main__":
    main()
