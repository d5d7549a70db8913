"""Spectral symbols on the sphere and the curvature constants they encode.

The operator acts diagonally on spherical harmonics: degree m is scaled by a
ratio of Gamma functions.  This script tabulates that symbol, shows that the
zero mode recovers the curvature constant, and checks two structural
identities: agreement with the conformal Laplacian at s = 1 and with the
order-4 GJMS operator at s = 2, plus the shift factorization that builds
higher orders from a fractional base.  Last, the singular-kernel route on S^3
(Funk-Hecke multipliers at Gauss-Gegenbauer nodes) meets the same symbol.
"""

import math

import numpy as np
from scipy.special import roots_gegenbauer

from conflap import (
    FracParams,
    calibrate_sphere_kernel,
    conformal_laplacian_eigenvalue,
    factored_symbol,
    gjms_symbol,
    singular_integral_apply,
    sphere_curvature,
    sphere_symbol,
)


def main():
    p = FracParams(4, 0.6)
    print(f"symbol on the round sphere, n = {p.n}, s = {p.s}")
    print(f"{'m':>4}  {'symbol':>18}")
    for m in (0, 1, 2, 5, 10, 25, 50):
        print(f"{m:>4}  {sphere_symbol(p, m):>18.12f}")
    print()

    print("zero mode = fractional curvature (a Gamma ratio):")
    for n, s in ((3, 0.5), (4, 0.6), (5, 0.9)):
        q = sphere_curvature(FracParams(n, s))
        ratio = math.gamma(0.5 * n + s) / math.gamma(0.5 * n - s)
        print(f"  n = {n}, s = {s}: Q_s = {q:.12f}, Gamma ratio = {ratio:.12f}")
    print()

    print("integer orders recover the local operators (n = 5, m = 7):")
    conf = conformal_laplacian_eigenvalue(5, 7)
    print(f"  s = 1: symbol = {sphere_symbol(FracParams(5, 1.0), 7):.10f}")
    print(f"         conformal Laplacian eigenvalue = {conf:.10f}")
    print(f"  s = 2: symbol = {sphere_symbol(FracParams(5, 2.0), 7):.10f}")
    print(f"         GJMS product                  = {gjms_symbol(5, 2, 7):.10f}")
    print()

    print("shift factorization: symbol(s0 + k) as a polynomial times symbol(s0)")
    p0 = FracParams(5, 0.4)
    for k in (1, 2):
        for m in (0, 3, 12):
            direct = sphere_symbol(FracParams(5, 0.4 + k), m)
            product = factored_symbol(p0, k, m)
            rel = abs(product - direct) / direct
            print(f"  k = {k}, m = {m:>2}: direct = {direct:>16.8f}, "
                  f"factored = {product:>16.8f}, rel gap = {rel:.2e}")
    print()

    p3 = FracParams(3, 0.7)
    spec = calibrate_sphere_kernel(p3)
    print(f"kernel route on S^3, s = {p3.s}: zonal harmonics at 32 Gauss-Gegenbauer nodes")
    angle = np.arccos(roots_gegenbauer(32, 1.0)[0])
    for m in (0, 1, 4, 12, 30):
        # the degree-m zonal harmonic of S^3, normalized to 1 at the pole
        u = np.sin((m + 1) * angle) / ((m + 1) * np.sin(angle))
        kernel_side = singular_integral_apply(spec, u) @ u / (u @ u)
        symbol = sphere_symbol(p3, m)
        print(f"  m = {m:>2}: symbol = {symbol:>14.10f}, kernel route = {kernel_side:>14.10f}, "
              f"rel gap = {abs(kernel_side - symbol) / symbol:.2e}")


if __name__ == "__main__":
    main()
