"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Each test states its tolerance inline; none of them depend on
fixtures or on each other.
"""

import json
import math

import numpy as np

from conflap import (
    FracParams,
    GridFunction,
    ModeSpectrum,
    bifurcation_period,
    bubble_tower_defect,
    calibrate_kernel,
    calibrate_sphere_kernel,
    commutator_check,
    continue_branch,
    covariance_bridge,
    d_s_const,
    d_star_const,
    functional_FL,
    gjms_symbol,
    hyp2f1,
    kernel_base,
    kernel_multiplier,
    limit_amplitude,
    log_gamma_abs2,
    singular_integral_apply,
    solve_delaunay,
    solve_extension_mode,
    sphere_symbol,
    theta0,
)
from conflap.cli import main

# Root of xi coth(pi xi / 2) = 4 / pi mapped to the period 2 pi / xi,
# computed with mpmath.findroot at 40 digits.
PERIOD_THRESHOLD_3_HALF = 5.1538187584122886


def test_c01_gamma_modulus_and_gauss_value():
    # |Gamma(1+iy)|^2 = pi y / sinh(pi y), |Gamma(1/2+iy)|^2 = pi / cosh(pi y)
    for y in np.linspace(0.0, 50.0, 100):
        on_line = math.pi * y / math.sinh(math.pi * y) if y > 0.0 else 1.0
        assert abs(math.exp(log_gamma_abs2(1.0, y)) - on_line) <= 1e-12 * on_line
        on_half = math.pi / math.cosh(math.pi * y)
        assert abs(math.exp(log_gamma_abs2(0.5, y)) - on_half) <= 1e-12 * on_half
    # 2F1(a, b; c; 1) against the Gamma product, 50 convergent triples
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(0.1, 1.9, size=2)
        c = a + b + rng.uniform(0.5, 2.5)
        product = math.exp(
            math.lgamma(c)
            + math.lgamma(c - a - b)
            - math.lgamma(c - a)
            - math.lgamma(c - b)
        )
        assert abs(hyp2f1(a, b, c, 1.0) - product) <= 1e-10 * product


def test_c02_sphere_symbol_consistency():
    for n in (5, 6, 7):
        half = 0.5 * n
        for s in (0.3, 0.7, 1.0, 1.5, 2.0):
            constant = math.gamma(half + s) / math.gamma(half - s)
            got = sphere_symbol(FracParams(n, s), 0)
            assert abs(got - constant) <= 1e-12 * abs(constant), (n, s)
        p_one = FracParams(n, 1.0)
        p_two = FracParams(n, 2.0)
        for m in range(51):
            conf = gjms_symbol(n, 1, m)
            assert abs(sphere_symbol(p_one, m) - conf) <= 1e-12 * conf, (n, m)
            gjms = gjms_symbol(n, 2, m)
            assert abs(sphere_symbol(p_two, m) - gjms) <= 1e-12 * gjms, (n, m)


def test_c03_symbol_factorization():
    # symbol(s0 + k) = symbol(s0) times the k shifted conformal-Laplacian
    # factors mu_m + (n/2 + s0 + j - 1)(n/2 - s0 - j), j = 1..k
    cases = [(n, s0, k) for n in (3, 4, 5) for s0 in (0.3, 0.7) for k in (1, 2)
             if s0 + k < 0.5 * n]
    for n, s0, k in cases:
        for m in range(51):
            product = sphere_symbol(FracParams(n, s0), m)
            for j in range(1, k + 1):
                product *= m * (m + n - 1) + (0.5 * n + s0 + j - 1) * (0.5 * n - s0 - j)
            direct = sphere_symbol(FracParams(n, s0 + k), m)
            assert abs(product - direct) <= 1e-10 * abs(direct), (n, s0, k, m)


def test_c04_circle_spectral_integral_duality():
    size = 4096
    theta = 2.0 * math.pi * np.arange(size) / size
    for s in (0.3, 0.5, 0.7):
        p = FracParams(1, s)
        spec = calibrate_sphere_kernel(p)
        for m in range(2, 9):
            u = np.cos(m * theta)
            out = singular_integral_apply(spec, u)
            scale = sphere_symbol(p, m)
            assert np.max(np.abs(out - scale * u)) < 1e-6 * scale, (s, m)


def test_c05_cylinder_duality_and_kernel_slopes():
    frequencies = (0.25, 0.5, 0.9, 1.3, 1.7, 2.3, 3.1, 4.0, 5.0, 6.5)
    for n, s in ((3, 0.5), (4, 0.7)):
        p = FracParams(n, s)
        spec = calibrate_kernel(p)
        for xi in frequencies:
            lhs = kernel_multiplier(spec, xi)
            rhs = theta0(p, xi)
            assert abs(lhs - rhs) < 1e-6 * rhs, (n, s, xi)
        # power singularity h^-(1+2s) at the origin
        near = (math.log(kernel_base(p, 2e-4)) - math.log(kernel_base(p, 1e-4)))
        near /= math.log(2.0)
        assert abs(near + 1.0 + 2.0 * s) < 0.01 * (1.0 + 2.0 * s), (n, s, near)
        # exponential tail with rate (n+2s)/2
        far = (math.log(kernel_base(p, 20.0)) - math.log(kernel_base(p, 25.0))) / 5.0
        rate = 0.5 * (n + 2.0 * s)
        assert abs(far - rate) < 0.01 * rate, (n, s, far)


def test_c06_principal_symbol_limit():
    for n in (3, 4):
        for s in (0.3, 0.5, 0.7):
            ratio = theta0(FracParams(n, s), 100.0) / 100.0 ** (2.0 * s)
            assert 0.95 <= ratio <= 1.05, (n, s, ratio)


def test_c07_extension_dirichlet_to_neumann():
    for s in (0.2, 0.5, 0.8):
        p = FracParams(3, s)
        for xi in (0.5, 1.0, 2.0, 4.0):
            reference = xi ** (2.0 * s)
            coarse = abs(solve_extension_mode(p, xi, mesh_size=600).dtn - reference)
            assert coarse < 1e-3 * reference, (s, xi, coarse)
            fine = abs(solve_extension_mode(p, xi, mesh_size=1200).dtn - reference)
            assert fine <= 0.5 * coarse, (s, xi, coarse, fine)
    for s in np.linspace(0.05, 0.95, 19):
        lhs = d_star_const(s)
        rhs = -d_s_const(s) / (2.0 * s)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs), s


def test_c08_conformal_covariance_bridge():
    for s in (0.05, 0.3, 0.5, 0.7, 0.99):
        p = FracParams(1, s)
        for degree in range(9):
            coeffs = np.zeros(degree + 1)
            coeffs[degree] = 1.0
            report = covariance_bridge(p, ModeSpectrum(1, coeffs))
            assert report["mismatch_l2"] < 1e-3, (s, degree, report["mismatch_l2"])


def test_c09_dilation_commutator_identity():
    size = 4096
    half_width = 40.0
    x = -half_width + (2.0 * half_width / size) * np.arange(size)
    f = GridFunction(2.0 * half_width, np.exp(-0.5 * x * x))
    for s in (0.3, 0.7):
        report = commutator_check(FracParams(1, s), f)
        assert report["residual"] < 1e-4, (s, report["residual"])


def test_c10_delaunay_bifurcation_and_branch():
    p = FracParams(3, 0.5)
    period0 = bifurcation_period(p)
    assert abs(period0 - PERIOD_THRESHOLD_3_HALF) < 1e-8
    # the recovered root balances xi coth(pi xi / 2) = 4 / pi
    xi = 2.0 * math.pi / period0
    assert abs(xi / math.tanh(0.5 * math.pi * xi) - 4.0 / math.pi) < 1e-10

    above = solve_delaunay(p, 1.2 * period0)
    assert above.nonconstant
    assert above.residual_norm < 1e-10
    assert np.min(above.values) > 0.0
    constant = GridFunction(above.period, np.ones(above.values.size))
    assert above.energy < functional_FL(p, constant)

    below = solve_delaunay(p, 0.8 * period0)
    assert np.max(np.abs(below.values - 1.0)) < 1e-6


def test_c11_bubble_tower_limit():
    p = FracParams(3, 0.5)
    period0 = bifurcation_period(p)
    branch = continue_branch(p, [2.0 * period0, 3.0 * period0, 4.0 * period0])
    defects = [bubble_tower_defect(sol) for sol in branch]
    assert defects[0] > defects[1] > defects[2], defects
    peak = limit_amplitude(p)
    gaps = [abs(np.max(sol.values) / peak - 1.0) for sol in branch]
    assert all(gap < 0.05 for gap in gaps), gaps
    assert gaps[-1] <= gaps[0], gaps


def test_c12_cli_selftest_determinism(capsys):
    assert main(["selftest"]) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["diagnostics"]["all_passed"] is True
    assert all(r["status"] == "pass" for r in report["results"])
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == first
