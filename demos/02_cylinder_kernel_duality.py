"""Two faces of the cylinder operator: Fourier symbol and singular kernel.

On the cylinder the zero angular mode acts either as a multiplier Theta(xi)
or as a principal-value integral against a kernel K(h) with a power
singularity at h = 0 and an exponential tail (a tempered stable kernel).
The kernel normalization is the closed form C_(n,s) |S^(n-1)| 2^(-(n+2s)/2)
of the pulled-back Euclidean kernel, fitted nowhere, so every frequency is a
genuine cross-check between the two representations.  Past h = 1 the
kernel is also a positive exponential series, which the library sums for the
far field; the demo prints it beside the profile.
"""

import math

import numpy as np

from conflap import FracParams, calibrate_kernel, kernel_base, kernel_multiplier, theta0
from conflap.cylinder import _kernel_series


def main():
    p = FracParams(3, 0.5)
    spec = calibrate_kernel(p)
    cal = spec.calibration
    print(f"normalization = {spec.normalization:.16f} (1/pi = {1.0 / math.pi:.16f})")
    print(f"checked at xi = {cal['check_xi']}: residual = {cal['residual']:.2e}")
    print()

    print("multiplier from the kernel vs the closed-form symbol:")
    print(f"{'xi':>6}  {'kernel route':>18}  {'symbol':>18}  {'rel gap':>10}")
    for xi in (0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 8.0):
        lhs = kernel_multiplier(spec, xi)
        rhs = theta0(p, xi)
        print(f"{xi:>6.2f}  {lhs:>18.12f}  {rhs:>18.12f}  "
              f"{abs(lhs - rhs) / rhs:>10.2e}")
    print()

    print("kernel asymptotics:")
    near = (math.log(kernel_base(p, 2e-4)) - math.log(kernel_base(p, 1e-4)))
    near /= math.log(2.0)
    print(f"  log-log slope near h = 0: {near:.6f}   "
          f"(expected -(1 + 2s) = {-(1.0 + 2.0 * p.s):.6f})")
    far = (math.log(kernel_base(p, 20.0)) - math.log(kernel_base(p, 25.0))) / 5.0
    print(f"  exponential tail rate:    {far:.6f}   "
          f"(expected (n + 2s) / 2 = {0.5 * (p.n + 2.0 * p.s):.6f})")
    # the far field as the library sums it: K0(h) = sum_k a_k e^(-(sigma + 2k) h)
    rates, log_amps = _kernel_series(p)
    for h in (1.0, 5.0, 20.0):
        series = float(np.exp(log_amps - rates * h).sum())
        profile = kernel_base(p, h)
        print(f"  h = {h:>4.1f}: series {series:.15e}, profile {profile:.15e}, "
              f"rel gap {abs(series - profile) / profile:.1e}")
    print()

    print("large xi: the multiplier approaches the flat-space power xi^(2s)")
    for xi in (10.0, 30.0, 100.0):
        ratio = theta0(p, xi) / xi ** (2.0 * p.s)
        print(f"  xi = {xi:>6.1f}: Theta(xi) / xi^(2s) = {ratio:.8f}")


if __name__ == "__main__":
    main()
