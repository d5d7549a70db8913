"""Tests for the degenerate extension solver and its trace constants."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gamma, kv

from conflap.errors import ParameterError
from conflap.extension import (
    ExtensionSolution,
    d_s_const,
    d_star_const,
    solve_extension_mode,
    weighted_volume_coefficient,
)
from conflap.params import FracParams
from conflap.sphere import sphere_curvature, vol_sphere


class TestTraceConstants:
    def test_half_order_values(self):
        assert d_s_const(0.5) == pytest.approx(-1.0, abs=1e-14)
        assert d_star_const(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_against_direct_gamma_ratio(self):
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            direct = 2.0 ** (2.0 * s) * math.gamma(s) / math.gamma(-s)
            assert d_s_const(s) == pytest.approx(direct, rel=1e-13)

    def test_signs(self):
        for s in (0.05, 0.25, 0.6, 0.95):
            assert d_s_const(s) < 0.0
            assert d_star_const(s) > 0.0

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                d_s_const(bad)

    def test_tiny_order(self):
        # d_s tends to -1 as s -> 0; d*_s = -d_s / (2s) then overflows
        assert d_s_const(1e-310) == -1.0
        with pytest.raises(ParameterError, match="overflows"):
            d_star_const(1e-320)


class TestExtensionMode:
    def test_exact_exponential_at_half(self):
        # at s = 1/2 the weight is trivial and U(y) = exp(-xi y)
        sol = solve_extension_mode(FracParams(3, 0.5), 1.3)
        exact = np.exp(-1.3 * sol.mesh)
        assert np.max(np.abs(sol.values - exact)) < 2e-5
        assert sol.dtn == pytest.approx(1.3, rel=1e-4)

    def test_trace_recovers_multiplier(self):
        for s in (0.2, 0.5, 0.8):
            p = FracParams(3, s)
            for xi in (1e-300, 1e-40, 0.5, 1.0, 2.0, 4.0, 1e3, 1e6, 1e12):
                if (s, xi) == (0.8, 1e-300):
                    continue
                sol = solve_extension_mode(p, xi)
                assert sol.dtn == pytest.approx(xi ** (2.0 * s), rel=1e-3)
        # xi^(2s) = 1e-480 is below the normal floats: refused
        with pytest.raises(ParameterError, match="xi\\^\\(2s\\)"):
            solve_extension_mode(FracParams(3, 0.8), 1e-300)

    def test_one_scale_free_solve_serves_every_frequency(self):
        # in t = xi y the discrete system does not depend on xi, so the
        # trace divided by xi^(2s) is the same number at every frequency and
        # the scheme's own error shows across s at xi = 1
        limits = {0.005: 5e-4, 0.95: 1e-4, 0.995: 1e-5}
        frequencies = (1e-300, 1e-154, 1e-40, 0.5, 1.0, 2.0, 4.0, 1e12, 1e100, 1e154, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (0.001, 0.002, 0.005, 0.02, 0.05, 0.2, 0.5, 0.8, 0.95, 0.995):
                p = FracParams(3, s)
                unit = solve_extension_mode(p, 1.0).dtn
                assert abs(unit - 1.0) <= limits.get(s, 1e-3), (s, unit)
                for xi in frequencies:
                    try:
                        scale = xi ** (2.0 * s)
                    except OverflowError:
                        scale = math.inf
                    if not sys.float_info.min <= scale <= sys.float_info.max:
                        with pytest.raises(ParameterError):
                            solve_extension_mode(p, xi)
                        continue
                    dtn = solve_extension_mode(p, xi).dtn
                    assert dtn / scale == pytest.approx(unit, rel=1e-13), (s, xi)

    def test_profile_matches_bessel_closed_form(self):
        # U(t) = 2^(1-s) / Gamma(s) t^s K_s(t) solves the problem at xi = 1;
        # kv is infinite at the boundary node t = 0, which is left out
        for s, tol in ((0.005, 5e-4), (0.05, 1e-4), (0.2, 1e-4), (0.5, 1e-4),
                       (0.8, 1e-4), (0.95, 1e-4), (0.995, 1e-4)):
            sol = solve_extension_mode(FracParams(3, s), 1.0)
            t = sol.mesh[1:]
            exact = 2.0 ** (1.0 - s) / gamma(s) * t**s * kv(s, t)
            assert np.max(np.abs(sol.values[1:] - exact)) < tol, s

    def test_refinement_reduces_error(self):
        for s, xi in ((0.3, 1.0), (0.8, 2.0)):
            p = FracParams(3, s)
            target = xi ** (2.0 * s)
            coarse = abs(solve_extension_mode(p, xi, mesh_size=300).dtn - target)
            fine = abs(solve_extension_mode(p, xi, mesh_size=600).dtn - target)
            assert coarse / fine >= 2.0

    def test_profile_decreases(self):
        sol = solve_extension_mode(FracParams(4, 0.35), 2.0)
        assert np.all(np.diff(sol.values) < 0.0)
        assert sol.values[-1] < 1e-10

    def test_frequency_sign_is_irrelevant(self):
        p = FracParams(3, 0.4)
        assert solve_extension_mode(p, -2.0).dtn == solve_extension_mode(p, 2.0).dtn

    def test_zero_frequency(self):
        sol = solve_extension_mode(FracParams(3, 0.3), 0.0)
        assert sol.dtn == 0.0
        assert np.all(sol.values == 1.0)

    def test_validation(self):
        p = FracParams(3, 0.3)
        with pytest.raises(ParameterError):
            solve_extension_mode(p, math.nan)
        with pytest.raises(ParameterError, match="xi\\^\\(2s\\)"):
            solve_extension_mode(FracParams(3, 0.8), 1e200)
        # xi^(2s) = 1e-123 is fine, but the mesh end 30/xi overflows
        with pytest.raises(ParameterError, match="30/xi"):
            solve_extension_mode(FracParams(3, 0.2), 1e-308)
        with pytest.raises(ParameterError):
            solve_extension_mode(p, 1.0, mesh_size=16)
        with pytest.raises(ParameterError):
            solve_extension_mode(FracParams(3, 1.2), 1.0)

    def test_small_order_solves_on_log_mesh(self):
        # carried as log t, the couplings 2s / (t_(k+1)^(2s) - t_k^(2s)) keep
        # their digits at s = 0.005, where t^(2s) is close to 1 at every node
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_extension_mode(FracParams(3, 0.005), 1.0)
        assert abs(sol.dtn - 1.0) < 1e-3

    @pytest.mark.parametrize("s", [1e-300, 1e-6, 1e-4, 1e-3])
    def test_tiny_order_keeps_the_trace(self, s):
        # the grading is capped at 4 and the couplings formed with expm1, so
        # the error does not grow as s -> 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xi in (0.5, 2.0):
                dtn = solve_extension_mode(FracParams(3, s), xi).dtn
                assert abs(dtn / xi ** (2.0 * s) - 1.0) < 1e-6, (s, xi)

    @pytest.mark.parametrize("s", [1e-308, 1e-310, 5e-324])
    def test_tiny_order_refuses_before_the_mesh(self, s):
        # below the normal floats 2s expm1(2s dlog t) underflows and the
        # fluxes would divide by zero, whatever the mesh size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mesh_size in (32, 600):
                with pytest.raises(ParameterError, match="normal floats"):
                    solve_extension_mode(FracParams(3, s), 2.0, mesh_size)
        assert math.isfinite(solve_extension_mode(FracParams(3, 2.3e-308), 2.0, 32).dtn)

    def test_solution_arrays_frozen(self):
        sol = solve_extension_mode(FracParams(3, 0.4), 1.0)
        with pytest.raises(ValueError):
            sol.values[0] = 2.0

    def test_solution_copies_the_callers_arrays(self):
        # the record freezes its own copies; the caller's arrays stay writeable
        mesh, values = np.linspace(0.0, 1.0, 8), np.ones(8)
        sol = ExtensionSolution(s=0.4, xi=1.0, mesh=mesh, values=values, dtn=0.0)
        assert mesh.flags.writeable and values.flags.writeable
        values[0] = 2.0
        assert sol.values[0] == 1.0 and not sol.mesh.flags.writeable


def test_weighted_volume_coefficient():
    p = FracParams(3, 0.5)
    value = weighted_volume_coefficient(p, sphere_curvature(p), vol_sphere(3))
    # Q = 1, vol(S^3) = 2 pi^2, d_(1/2) = -1, n/2 - s = 1
    assert value == pytest.approx(-2.0 * math.pi**2, rel=1e-12)
    with pytest.raises(ParameterError):
        weighted_volume_coefficient(p, 1.0, -1.0)
