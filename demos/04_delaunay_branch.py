"""Periodic constant-curvature solutions on the cylinder: the Delaunay branch.

The constant v = 1 always solves the curvature equation.  Below a critical
period L0 it is the only positive solution; at L0 a branch of nonconstant
periodic solutions bifurcates, and as the period grows the solution profile
approaches a string of copies of the extremal bubble.  This script locates
L0, solves above and below it, and follows the branch toward the bubble
tower limit.
"""

import numpy as np

from conflap import (
    FracParams,
    GridFunction,
    asymptotic_profile,
    bifurcation_period,
    bubble_tower_defect,
    continue_branch,
    functional_FL,
    limit_amplitude,
    solve_delaunay,
)


def main():
    p = FracParams(3, 0.5)
    period0 = bifurcation_period(p)
    print(f"n = {p.n}, s = {p.s}: bifurcation period L0 = {period0:.12f}")
    print()

    below = solve_delaunay(p, 0.8 * period0)
    print(f"L = 0.8 L0: max |v - 1| = {np.max(np.abs(below.values - 1.0)):.2e} "
          "(Newton returns to the constant)")

    above = solve_delaunay(p, 1.2 * period0)
    constant = GridFunction(above.period, np.ones(above.values.size))
    print(f"L = 1.2 L0: nonconstant = {above.nonconstant}, "
          f"residual = {above.residual_norm:.2e}")
    print(f"            peak = {np.max(above.values):.6f}, "
          f"trough = {np.min(above.values):.6f}")
    print(f"            curvature quotient {above.energy:.6f} < constant's "
          f"{functional_FL(p, constant):.6f}")
    print()

    print("continuation toward the bubble tower limit:")
    periods = [2.0 * period0, 3.0 * period0, 4.0 * period0]
    branch = continue_branch(p, periods)
    peak_limit = limit_amplitude(p)
    print(f"limit profile amplitude = {peak_limit:.12f} (pi/2 for these "
          "parameters)")
    print(f"{'L / L0':>7}  {'peak':>12}  {'tower defect':>13}")
    for mult, sol in zip((2, 3, 4), branch):
        defect = bubble_tower_defect(sol)
        print(f"{mult:>7}  {np.max(sol.values):>12.8f}  {defect:>13.3e}")
    print()

    sol = branch[-1]
    t = sol.grid().x
    window = np.abs(t) <= 2.0
    ratio = sol.values[window] / asymptotic_profile(p, t[window])
    print("profile / single bubble on |t| <= 2 at L = 4 L0: "
          f"ratio in [{np.min(ratio):.8f}, {np.max(ratio):.8f}]")


if __name__ == "__main__":
    main()
