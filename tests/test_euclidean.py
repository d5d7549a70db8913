"""Tests for the line realizations of the fractional Laplacian."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflap.errors import ParameterError, SupportError
from conflap.euclidean import (
    commutator_check,
    covariance_bridge,
    frac_lap_integral,
    frac_lap_spectral,
    _difference_weights,
    _factor_power_flat_lap,
    _first_panel,
    _lattice_sum,
)
from conflap.params import FracParams, GridFunction
from conflap.specfun import jacobi_unit_rule, panel_rule
from conflap.sphere import ModeSpectrum, frac_lap_constant, sphere_curvature


def closed_form_constant(s):
    """2^(2s) s Gamma(1/2 + s) / (sqrt(pi) Gamma(1 - s)), the exact
    normalization of the one-dimensional difference integral."""
    return (
        2.0 ** (2.0 * s)
        * s
        * math.gamma(0.5 + s)
        / (math.sqrt(math.pi) * math.gamma(1.0 - s))
    )


def grid(half_width, size):
    return -half_width + (2.0 * half_width / size) * np.arange(size)


def _nudft(values, x, xi, dx):
    """Trapezoid Fourier transform hat(u)(xi) = (2 pi)^(-1/2) int u e^(-i xi x)
    as a dense sum over the grid."""
    return dx / math.sqrt(2.0 * math.pi) * (np.exp(-1j * np.outer(xi, x)) @ values)


# (-Delta)^s exp(-x^2/2) = 2^s Gamma(s+1/2)/sqrt(pi) M(s+1/2, 1/2, -x^2/2),
# frozen from a 40-digit confluent hypergeometric evaluation
FRAC_GAUSSIAN_TABLE = {
    (0.6, 0.0): 0.8135490363898384243876,
    (0.6, 0.5): 0.6084236473846682236782,
    (0.6, 1.0): 0.1756264139461458297432,
    (0.6, 2.0): -0.2636051994499630492544,
    (0.6, 3.5): -0.08575236631184779161579,
    (0.25, 0.0): 0.8221789586624585523366,
    (0.25, 0.5): 0.6787627363589744198604,
    (0.25, 1.0): 0.3564112335685672928899,
    (0.25, 2.0): -0.09649308633366984985526,
    (0.25, 3.5): -0.09267855828430944992607,
}


class TestLineGridFunction:
    """The line grid on [-T, T): GridFunction(2 T, values)."""

    def test_grid_layout(self):
        f = GridFunction(8.0, np.zeros(16))
        assert f.dx == 0.5
        assert f.x[0] == -4.0
        assert f.x[-1] == 3.5
        assert f.size == 16
        assert np.array_equal(f.x, grid(4.0, 16))

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            GridFunction(0.0, np.zeros(8))
        with pytest.raises(ParameterError):
            GridFunction(2.0, np.full(8, np.nan))

    def test_values_are_frozen(self):
        f = GridFunction(2.0, np.zeros(8))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestSpectralRoute:
    def test_gaussian_against_closed_form(self):
        # the continuum quadrature of the data taken as zero off the grid:
        # measured 2.0e-15 at s = 0.25 and 5.4e-14 at s = 0.6
        x = grid(32.0, 4096)
        f = GridFunction(64.0, np.exp(-0.5 * x**2))
        for s in (0.25, 0.6):
            out = frac_lap_spectral(FracParams(1, s), f)
            for (sv, xv), target in FRAC_GAUSSIAN_TABLE.items():
                if sv == s:
                    idx = int(round((xv + 32.0) * 64))
                    assert out.values[idx] == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("s", [0.3, 0.7])
    def test_data_not_negligible_at_the_edges(self, s):
        # a width-3 Gaussian on L = 16 stands at 3 % of its peak at the ends;
        # both routes take it as zero off the grid, so they still agree
        # (measured 6.9e-7 at s = 0.3 and 2.6e-4 at s = 0.7)
        x = grid(8.0, 1024)
        f = GridFunction(16.0, np.exp(-0.5 * (x / 3.0) ** 2))
        p = FracParams(1, s)
        core = np.abs(x) <= 4.0
        spectral = frac_lap_spectral(p, f).values[core]
        integral = frac_lap_integral(p, f).values[core]
        assert np.max(np.abs(spectral - integral)) < 1e-3 * np.max(np.abs(spectral))

    def test_rejects_higher_dimensions(self):
        with pytest.raises(ParameterError):
            frac_lap_spectral(FracParams(2, 0.5), GridFunction(8.0, np.zeros(64)))


class TestIntegralRoute:
    def test_gaussian_against_closed_form(self):
        # free-space by construction, so the match is tight at every order
        x = grid(32.0, 4096)
        f = GridFunction(64.0, np.exp(-0.5 * x**2))
        for s, tol in ((0.6, 1e-6), (0.25, 1e-7)):
            p = FracParams(1, s)
            out = frac_lap_integral(p, f)
            for (sv, xv), target in FRAC_GAUSSIAN_TABLE.items():
                if sv != s:
                    continue
                idx = int(round((xv + 32.0) * 64))
                assert out.values[idx] == pytest.approx(target, rel=tol)

    def test_weights_integrate_squares_exactly(self):
        # the composite rule must reproduce int t^2 t^(-1-2s) dt on its range
        s = 0.35
        h = 0.01
        size = 500
        w = _difference_weights(size, h, s)
        nodes = h * np.arange(w.size)
        exact = (size * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
        assert float(w @ nodes**2) == pytest.approx(exact, rel=1e-12)

    def test_calibration_matches_closed_form(self):
        # the library uses C_(1,s) as given, so a least-squares fit of the
        # integral route to the spectral route on a moment-free profile must
        # find the factor 1, and the routes must agree at twice the width
        x = grid(40.0, 4096)
        core = np.abs(x) <= 20.0

        def routes(p, sigma):
            z = x / sigma
            f = GridFunction(80.0, (z**4 - 6.0 * z**2 + 3.0) * np.exp(-0.5 * z**2))
            return frac_lap_spectral(p, f).values[core], frac_lap_integral(p, f).values[core]

        for s in (0.2, 0.5, 0.8):
            p = FracParams(1, s)
            assert frac_lap_constant(p) == pytest.approx(closed_form_constant(s), rel=1e-14)
            spectral, integral = routes(p, 1.0)
            assert (spectral @ integral) / (integral @ integral) == pytest.approx(1.0, rel=2e-5)
            spectral, integral = routes(p, 2.0)
            assert np.linalg.norm(spectral - integral) < 2e-5 * np.linalg.norm(spectral)

    @pytest.mark.parametrize("size", [4096, 65536])
    def test_far_weights_follow_the_kernel(self, size):
        # far from the singularity the cubic rule's weight is h (d h)^(-1-2s)
        # up to O(d^-4), so this holds only if the cell moments keep full
        # relative accuracy at large d, free of cancellation
        h = 1.0 / 64.0
        d = np.arange(size // 2, size - 1)
        for s in (0.05, 0.5, 0.9):
            w = _difference_weights(size, h, s)[d]
            assert np.max(np.abs(w / (h * (d * h) ** (-1.0 - 2.0 * s)) - 1.0)) < 1e-10, s

    def test_rejects_local_orders(self):
        f = GridFunction(8.0, np.zeros(64))
        with pytest.raises(ParameterError):
            frac_lap_integral(FracParams(1, 1.5), f)


class TestCommutator:
    def setup_method(self):
        x = grid(40.0, 4096)
        self.gaussian = GridFunction(80.0, np.exp(-0.5 * (x / 3.0) ** 2))

    def test_identity_below_half(self):
        # the order s-1 term needs the finite-part regularization here, and
        # small s puts the Jacobi weight of the first panel near xi^(-1)
        for s in (0.02, 0.1, 0.3):
            report = commutator_check(FracParams(1, s), self.gaussian)
            assert report["residual"] < 1e-8, s

    def test_identity_above_half(self):
        report = commutator_check(FracParams(1, 0.75), self.gaussian)
        assert report["residual"] < 1e-8

    def test_report_names_quadrature_layout(self):
        # N/2 panels one frequency step wide end at the band limit of the
        # grid, and every grid point with |x| <= L/4 is a target
        f = self.gaussian
        report = commutator_check(FracParams(1, 0.3), f)
        assert report["xi_max"] == math.pi / f.dx
        assert report["panels"] == f.size // 2
        assert report["targets"] == np.count_nonzero(np.abs(f.x) <= 0.25 * f.length)

    def test_local_limit(self):
        # s = 1 runs through the same Fourier quadrature
        report = commutator_check(FracParams(1, 1.0), self.gaussian)
        assert report["residual"] < 1e-8

    def test_half_is_excluded(self):
        with pytest.raises(ParameterError, match="Dirac"):
            commutator_check(FracParams(1, 0.5), self.gaussian)

    def test_rejects_wide_support(self):
        x = grid(40.0, 1024)
        wide = GridFunction(80.0, np.exp(-0.5 * (x / 20.0) ** 2))
        with pytest.raises(SupportError):
            commutator_check(FracParams(1, 0.3), wide)

    def test_zero_input(self):
        # the zero input reports the grid's window, band limit and panels
        # like any other input, with a zero residual
        grid = GridFunction(80.0, np.zeros(1024))
        report = commutator_check(FracParams(1, 0.3), grid)
        bump = GridFunction(grid.length, np.exp(-grid.x**2))
        nonzero = commutator_check(FracParams(1, 0.3), bump)
        assert report["residual"] == 0.0
        assert report.keys() == nonzero.keys()
        for key in ("targets", "xi_max", "panels"):
            assert report[key] == nonzero[key], key
        assert report["targets"] > 0


class TestPanelQuadrature:
    """_lattice_sum and _first_panel, the panel quadrature of
    commutator_check, against the dense double sum: the transform _nudft at
    every node, then explicit phases e^(i xi x) at every 32nd grid point,
    for Gaussians of width 1 and 3 on L = 80 (the commutator inputs, at a
    grid small enough for the dense reference)."""

    size = 1024
    length = 80.0

    def compare(self, sigma, rule, band, powers, panel_sum):
        x = grid(0.5 * self.length, self.size)
        dx = self.length / self.size
        values = np.exp(-0.5 * (x / sigma) ** 2)
        nodes, weights = rule
        lattice = (band[:, None] + nodes).ravel()
        xi = 2.0 * math.pi / self.length * lattice
        # eight blocks keep the dense phase matrix near 12 MB
        fhat = np.concatenate(
            [_nudft(values, x, part, dx) for part in np.array_split(xi, 8)]
        )
        pick = np.arange(0, self.size, 32)
        phases = np.exp(1j * np.outer(x[pick], xi))
        fast = panel_sum(values, dx, rule, powers)[:, pick]
        for lam, row in zip(powers, fast):
            dense = phases @ (np.tile(weights, band.size) * lattice**lam * fhat)
            assert np.max(np.abs(row - dense)) <= 1e-13 * np.max(np.abs(dense)), lam

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_legendre_panels_match_dense_sum(self, sigma):
        # panels (p w, (p + 1) w), p = 1 .. N/2 - 1, at the orders 2s, 2s - 2
        # and 2s - 1 that the check takes at s = 0.3
        band = np.arange(1, self.size // 2)
        self.compare(sigma, panel_rule(0.0, 1.0, 1), band, (0.6, -1.4, -0.4), _lattice_sum)

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_forward_matches_dense_transform(self, sigma):
        # for one node c at order 0 the sum is a trigonometric polynomial in
        # e^(i (p + c) w x); its coefficients, read back on the grid, must be
        # hat(v)((p + c) w) for every Legendre node across the whole band,
        # for u and for the B u of the commutator's left side
        x = grid(0.5 * self.length, self.size)
        dx = self.length / self.size
        u = np.exp(-0.5 * (x / sigma) ** 2)
        stacked = np.stack([u, 0.5 * (1.0 + x**2) * u])
        theta = 2.0 * math.pi / self.length * x
        band = np.arange(1, self.size // 2)
        for node in panel_rule(0.0, 1.0, 1)[0]:
            out = _lattice_sum(stacked, dx, ([node], [1.0]), (0.0,))[0]
            read_back = np.exp(-1j * np.outer(band + node, theta)) @ out.T / self.size
            dense = _nudft(stacked.T, x, 2.0 * math.pi / self.length * (band + node), dx)
            # sup of |hat(v)| over all xi, attained at xi = 0 for v >= 0
            scale = dx * np.sum(np.abs(stacked), axis=1) / math.sqrt(2.0 * math.pi)
            assert np.all(np.max(np.abs(read_back - dense), axis=0) <= 1e-13 * scale)

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_inverse_matches_dense_phase_sum(self, sigma):
        # the sum back over every Legendre panel against explicit phases at
        # every 32nd grid point, with the closed-form transform
        # sigma e^(-(sigma xi)^2 / 2) of the Gaussian as coefficients
        x = grid(0.5 * self.length, self.size)
        dx = self.length / self.size
        nodes, weights = panel_rule(0.0, 1.0, 1)
        lattice = (np.arange(1, self.size // 2)[:, None] + nodes).ravel()
        xi = 2.0 * math.pi / self.length * lattice
        coeffs = (
            sigma * np.exp(-0.5 * (sigma * xi) ** 2)
            * lattice**-0.6 * np.tile(weights, self.size // 2 - 1)
        )
        pick = np.arange(0, self.size, 32)
        dense = np.exp(1j * np.outer(x[pick], xi)) @ coeffs
        values = np.exp(-0.5 * (x / sigma) ** 2)
        fast = _lattice_sum(values, dx, (nodes, weights), (-0.6,))[0, pick]
        assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_first_panel_matches_dense_sum(self, sigma):
        # the first panel (0, w) on the Jacobi nodes, with the finite part's
        # order -1 and the derivative's order 0
        rule = jacobi_unit_rule(-0.4, 16)
        self.compare(sigma, rule, np.arange(1), (-1.0, 0.0), _first_panel)


class TestCovarianceBridge:
    def test_constant_pushforward(self):
        # a circle constant exercises the non-decaying pole route alone
        p = FracParams(1, 0.45)
        report = covariance_bridge(p, ModeSpectrum(1, np.array([1.0])))
        assert report["pole_constant"] == 1.0
        assert report["mismatch_max"] < 1e-4

    def test_mixed_spectrum(self):
        coeffs = np.array([0.7, -0.3, 0.45, 0.0, 0.2, 0.0, 0.0, -0.15, 0.05])
        spectrum = ModeSpectrum(1, coeffs)
        for s in (0.3, 0.7):
            report = covariance_bridge(FracParams(1, s), spectrum)
            assert report["mismatch_max"] < 1e-3

    @pytest.mark.parametrize("s", [0.01, 0.05, 0.3, 0.5, 0.7, 0.99])
    def test_single_modes_at_defaults(self, s):
        # worst mismatch_max over degrees 0..8 at the default grid (250, 2^13),
        # measured: 2.2e-7, 9.2e-7, 2.3e-6, 1.8e-6, 1.1e-6 and 1.9e-7
        mismatch = [
            covariance_bridge(FracParams(1, s), ModeSpectrum(1, np.eye(m + 1)[m]))["mismatch_max"]
            for m in range(9)
        ]
        assert max(mismatch) < 1e-5, (s, mismatch)

    @pytest.mark.parametrize("s", [0.05, 0.3, 0.7])
    def test_truncation_error_falls_like_cube_of_width(self, s):
        # at fixed dx the profile's |x|^(2s-3) tail cut off at |x| = W costs
        # O(W^-3): measured 8.00 per doubling of W from 250 to 1000
        spectrum = ModeSpectrum(1, np.eye(5)[4])
        errors = [
            covariance_bridge(FracParams(1, s), spectrum, half_width=width, size=size)[
                "mismatch_max"
            ]
            for width, size in ((250.0, 1 << 13), (500.0, 1 << 14), (1000.0, 1 << 15))
        ]
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        assert all(7.0 <= r <= 9.0 for r in ratios), (s, errors)

    def test_rejects_bad_inputs(self):
        p = FracParams(1, 0.5)
        with pytest.raises(ParameterError):
            covariance_bridge(p, ModeSpectrum(2, np.array([1.0])))
        with pytest.raises(ParameterError):
            covariance_bridge(p, ModeSpectrum(1, np.array([0.0, 0.0])))
        with pytest.raises(ParameterError):
            covariance_bridge(FracParams(2, 0.5), ModeSpectrum(1, np.array([1.0])))


def test_factor_power_flat_lap_closed_form():
    # pushing the circle constant through the projection gives
    # (-Delta)^s ((1+x^2)/2)^(s-1/2) = Q_s ((1+x^2)/2)^(-s-1/2) exactly
    points = np.linspace(-4.0, 4.0, 9)
    for s in (0.3, 0.45, 0.7):
        p = FracParams(1, s)
        out = _factor_power_flat_lap(p, points)
        expected = sphere_curvature(p) * (0.5 * (1.0 + points**2)) ** (-s - 0.5)
        assert np.max(np.abs(out - expected) / np.abs(expected)) < 1e-10


def test_factor_power_flat_lap_annihilates_constants():
    # at s = 1/2 the profile is identically one and the circle curvature
    # vanishes, so the quadrature must return zero
    out = _factor_power_flat_lap(FracParams(1, 0.5), np.linspace(-4.0, 4.0, 9))
    assert np.max(np.abs(out)) < 1e-14


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    s=st.floats(0.15, 0.85),
    sigma=st.floats(0.5, 3.0),
)
def test_routes_agree_on_smooth_data(s, sigma):
    """The integral route, with its closed-form constant, reproduces the
    spectral route on moment-free profiles for any order and width."""
    p = FracParams(1, s)
    x = grid(40.0, 2048)
    z = x / sigma
    f = GridFunction(80.0, (z**4 - 6.0 * z**2 + 3.0) * np.exp(-0.5 * z**2))
    spectral = frac_lap_spectral(p, f).values
    integral = frac_lap_integral(p, f).values
    core = np.abs(x) <= 20.0
    scale = np.max(np.abs(spectral[core]))
    assert np.max(np.abs(spectral[core] - integral[core])) < 1e-4 * scale
