"""Two faces of the cylinder operator: Fourier symbol and singular kernel.

On the cylinder the zero angular mode acts either as a multiplier Theta(xi)
or as a principal-value integral against a kernel K(h) with a power
singularity at h = 0 and an exponential tail (a tempered stable kernel).
The kernel normalization is the closed form C_(n,s) |S^(n-1)| 2^(-(n+2s)/2)
of the pulled-back Euclidean kernel, fitted nowhere, so every frequency is a
genuine cross-check between the two representations.
"""

import math

from conflap import FracParams, calibrate_kernel, kernel_base, kernel_multiplier, theta0


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
    print()

    print("large xi: the multiplier approaches the flat-space power xi^(2s)")
    for xi in (10.0, 30.0, 100.0):
        ratio = theta0(p, xi) / xi ** (2.0 * p.s)
        print(f"  xi = {xi:>6.1f}: Theta(xi) / xi^(2s) = {ratio:.8f}")


if __name__ == "__main__":
    main()
