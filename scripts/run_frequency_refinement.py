#!/usr/bin/env python3
"""Frequency monotonicity of the solved quartic-obstacle case under grid
refinement.

Solves the obstacle problem with thin-space obstacle x1^4 (boundary data
chosen so the contact set is nontrivial) at several resolutions, reduces to
the zero-obstacle normal form, and traces the truncated frequency along the
radius ladder.  Prints the worst monotonicity violation and the plateau
homogeneity estimate per resolution, and checks the homogeneous-input
calibration (normalized value = n + 2*homogeneity to machine precision).

Usage: python3 scripts/run_frequency_refinement.py [--out DIR]
                                                   [--resolutions 32 64 128]
"""

import argparse
import time
from pathlib import Path

import numpy as np

from thinepi.artifacts import write_csv
from thinepi.cli import case_spec
from thinepi.frequency import FrequencyParams, truncated_frequency
from thinepi.profiles import halfspace_2d, make_profile
from thinepi.solver import solve_thin_obstacle, zero_obstacle_field


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="runs/frequency-refinement")
    parser.add_argument("--resolutions", type=int, nargs="+",
                        default=[32, 64, 128])
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = FrequencyParams(theta=0.25, k=2, gamma=0.5)

    print(f"{'resolution':>10} {'contact':>8} {'max violation':>14} "
          f"{'plateau':>9} {'seconds':>8}")
    summary = []
    for res in args.resolutions:
        t0 = time.perf_counter()
        sol = solve_thin_obstacle(case_spec("quartic", res))
        profile = truncated_frequency(zero_obstacle_field(sol), np.zeros(2),
                                      params=params)
        elapsed = time.perf_counter() - t0
        violation = profile.max_violation()
        plateau = profile.mu_estimate()
        contact = int(np.count_nonzero(sol.contact))
        print(f"{res:>10} {contact:>8} {violation:>14.3e} {plateau:>9.4f} "
              f"{elapsed:>8.1f}")
        summary.append({"resolution": res, "contact_nodes": contact,
                        "max_violation": violation, "plateau": plateau})
        write_csv(out / f"frequency_res{res}.csv", profile.rows())
    write_csv(out / "summary.csv", summary)

    worst = 0.0
    for v, expected in ((make_profile(0, 1), 3.0), (halfspace_2d(1.5), 4.0)):
        profile = truncated_frequency(v, np.zeros(2), params=params,
                                      r_max=0.6)
        worst = max(worst, float(np.max(np.abs(profile.normalized()
                                               - expected))))
    print(f"\nhomogeneous calibration: worst |normalized - (n+2*hom)| = "
          f"{worst:.2e}")
    print(f"artifacts under {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
