"""Layer probes: the kernels of the ROADMAP baseline table, timed one by one.

    python3 perfbench/probes.py --seed 1

Prints one JSON object of ``probe.<name>_s`` medians and, for the array
kernels, ``probe.<name>_bytes``: input plus output array bytes, computed from
the shapes.  A 2049 x 256 float64 array is 4.2 MB, which fits in the last
level cache of the machines this was written on (105 MiB L3), so the times
are not memory-bandwidth figures.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPEATS = 7


def median_time(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy as np

    from cknlab import bubble, cylfield, grids, pressure, radial_ode, spectral, verify
    from cknlab.params import derive_params

    rng = np.random.default_rng(args.seed)
    h = 0.01
    v1 = rng.standard_normal(2049)
    v2 = rng.standard_normal((2049, 256))
    out = {}

    def probe(name, fn, nbytes=None):
        out[f"probe.{name}_s"] = median_time(fn)
        if nbytes is not None:
            out[f"probe.{name}_bytes"] = nbytes

    for label, v in (("1d", v1), ("2d", v2)):
        probe(f"d_dx_{label}", lambda v=v: grids.d_dx(v, h), 2 * v.nbytes)
        probe(f"d2_dx2_{label}", lambda v=v: grids.d2_dx2(v, h), 2 * v.nbytes)
    for order in (1, 2):
        probe(f"theta_derivative_{order}",
              lambda order=order: cylfield.theta_derivative(v2, order), 2 * v2.nbytes)
    # half a cell cut off each end, so both partial end cells are integrated
    x0, x_end = 0.0, 2048 * h
    probe("integrate_uniform",
          lambda: grids.integrate_uniform(v1, h, x0, x0 + 0.5 * h, x_end - 0.5 * h), v1.nbytes)

    ps2 = derive_params(*verify.D2_IDENTITY_PARAMS)
    grid = grids.RadialGrid(1e-3, 1e3, 1025)
    w = verify.evaluate_log_field(verify.random_log_field_coeffs(rng), grid,
                                  cylfield.PeriodicGrid(256), ps2)
    probe("pressure_bochner", lambda: pressure.bochner_k(pressure.pressure_of(w)))

    ps3 = derive_params(-0.5, 0.0, 3)
    c0 = bubble.cylinder_amplitude(ps3)
    probe("shoot", lambda: radial_ode.shoot(ps3, c0))
    op = spectral.build_sector_operator(ps3, k=1, N=2000)
    probe("lowest_eigenvalue", lambda: spectral.lowest_eigenvalue(op))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
