"""The degenerate extension problem and its Dirichlet-to-Neumann map.

A boundary mode e^(i xi x) extends into the upper half-space as a solution
of div(y^a grad U) = 0 with a = 1 - 2s.  The weighted normal derivative at
y = 0, scaled by the trace constant, must return |xi|^(2s): the fractional
Laplacian realized as a local flux.  In t = |xi| y the mode problem does
not depend on xi, so the library solves one scale-free problem per
(s, mesh_size) and rescales it by |xi|^(2s).  A match at xi != 1 is then a
scaling identity, not a test of the scheme; the tests that count are the
error across s at xi = 1, the convergence under mesh refinement, and the
profile against its closed form 2^(1-s)/Gamma(s) t^s K_s(t).
"""

import sys

import numpy as np
from scipy.special import gamma, kv

from conflap import FracParams, d_s_const, d_star_const, solve_extension_mode


def main():
    print("Dirichlet-to-Neumann flux at xi = 1 vs the exact multiplier 1,")
    print("and the profile against 2^(1-s)/Gamma(s) t^s K_s(t):")
    print(f"{'s':>6}  {'dtn':>14}  {'rel err':>10}  {'profile err':>12}")
    for s in (0.005, 0.05, 0.2, 0.5, 0.8, 0.95, 0.995):
        sol = solve_extension_mode(FracParams(3, s), 1.0)
        # kv overflows below the normal floats, where s = 0.005 has nodes
        normal = sol.mesh >= sys.float_info.min
        t = sol.mesh[normal]
        exact = 2.0 ** (1.0 - s) / gamma(s) * t**s * kv(s, t)
        profile = np.max(np.abs(sol.values[normal] - exact))
        print(f"{s:>6.3f}  {sol.dtn:>14.8f}  {abs(sol.dtn - 1.0):>10.2e}  {profile:>12.2e}")
    print()

    s = 0.8
    print(f"other frequencies rescale the same solve: dtn / |xi|^(2s) at s = {s}")
    for xi in (1e-40, 0.5, 2.0, 4.0, 1e100):
        sol = solve_extension_mode(FracParams(3, s), xi)
        print(f"  xi = {xi:>7.1e}: {sol.dtn / xi ** (2.0 * s):.15f}")
    print()

    print("mesh refinement halves the grading step each row (s = 0.3, xi = 2):")
    p = FracParams(3, 0.3)
    exact = 2.0 ** 0.6
    for mesh_size in (300, 600, 1200, 2400):
        sol = solve_extension_mode(p, 2.0, mesh_size=mesh_size)
        rel = abs(sol.dtn - exact) / exact
        print(f"  K = {mesh_size:>5}: dtn = {sol.dtn:.10f}, rel err = {rel:.3e}")
    print()

    print("trace constants tie the flux to the operator normalization:")
    for s in (0.2, 0.5, 0.8):
        ds = d_s_const(s)
        dstar = d_star_const(s)
        print(f"  s = {s}: d_s = {ds:>14.10f}, d*_s = {dstar:>14.10f}, "
              f"-d_s / (2s) = {-ds / (2.0 * s):>14.10f}")


if __name__ == "__main__":
    main()
