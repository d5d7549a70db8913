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
    _fourier_kernel,
    _toeplitz,
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

# the same closed form at the ends of the order range, 40 digits
FRAC_GAUSSIAN_EDGES = {
    0.05: {
        0.0: 0.9439550525582937707958,
        0.5: 0.8221985058910107342547,
        1.0: 0.5387210034448635849228,
        2.0: 0.07231332089247597942485,
        3.5: -0.03168148462906647761893,
        5.0: -0.0213040231491191500301,
        8.0: -0.01228567580724807780569,
    },
    0.99: {
        0.0: 0.9927767214749715771955,
        0.5: 0.6591901934265916969962,
        1.0: 0.004955905426310233853588,
        2.0: -0.4025716674494650672944,
        3.5: -0.02646052020395158758236,
        5.0: -0.0006407889851230751595018,
        8.0: -0.0001107540125701106248927,
    },
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
        # measured 9.1e-15 at s = 0.25 and 1.5e-13 at s = 0.6
        x = grid(32.0, 4096)
        f = GridFunction(64.0, np.exp(-0.5 * x**2))
        for s in (0.25, 0.6):
            out = frac_lap_spectral(FracParams(1, s), f)
            for (sv, xv), target in FRAC_GAUSSIAN_TABLE.items():
                if sv == s:
                    idx = int(round((xv + 32.0) * 64))
                    assert out.values[idx] == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("s, tol", [(0.05, 2e-15), (0.99, 2e-11)])
    def test_gaussian_at_the_ends_of_the_range(self, s, tol):
        # error relative to the peak at seven points on |x| <= 8, measured
        # 2.4e-16 at s = 0.05 and 3.3e-12 at s = 0.99, where xi^(2s)
        # amplifies the round-off of the band's top
        x = grid(32.0, 4096)
        out = frac_lap_spectral(FracParams(1, s), GridFunction(64.0, np.exp(-0.5 * x**2)))
        table = FRAC_GAUSSIAN_EDGES[s]
        peak = max(abs(v) for v in table.values())
        for xv, target in table.items():
            assert abs(out.values[int(round((xv + 32.0) * 64))] - target) <= tol * peak, xv

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
    """_fourier_kernel, applied by _toeplitz, against the dense double sum of
    the continuum quadrature: the transform _nudft at every node, then
    explicit phases e^(i xi x) at every 32nd grid point, for Gaussians of
    width 1 and 3 on L = 80 (the commutator inputs, at a grid small enough
    for the dense reference)."""

    size = 1024
    length = 80.0
    no_first_panel = (np.empty(0), np.empty(0))

    def apply(self, values, kernel):
        # sum_t w_t t^lam hat(u)(t w) e^(i t w x_j) = dx / sqrt(2 pi)
        # sum_k u_k K(j - k), with Re K even and Im K odd in m
        dx = self.length / self.size
        conv = _toeplitz(values, kernel.real) + 1j * _toeplitz(values, kernel.imag, odd=True)
        return dx / math.sqrt(2.0 * math.pi) * conv

    def compare(self, sigma, rule, lam, first_lam):
        x = grid(0.5 * self.length, self.size)
        dx = self.length / self.size
        values = np.exp(-0.5 * (x / sigma) ** 2)
        nodes, weights = panel_rule(0.0, 1.0, 1)
        band = np.arange(1, self.size // 2)
        lattice = (band[:, None] + nodes).ravel()
        first_nodes, first_weights = rule
        t = np.concatenate([first_nodes, lattice])
        coeffs = np.concatenate(
            [first_weights * first_nodes**first_lam, np.tile(weights, band.size) * lattice**lam]
        )
        xi = 2.0 * math.pi / self.length * t
        # eight blocks keep the dense phase matrix near 12 MB
        fhat = np.concatenate(
            [_nudft(values, x, part, dx) for part in np.array_split(xi, 8)]
        )
        pick = np.arange(0, self.size, 32)
        dense = np.exp(1j * np.outer(x[pick], xi)) @ (coeffs * fhat)
        kernel = _fourier_kernel(self.size, lam, rule, first_lam)
        fast = self.apply(values, kernel)[pick]
        assert np.max(np.abs(fast - dense)) <= 1e-13 * np.max(np.abs(dense)), (lam, first_lam)
        # and the kernel itself against its defining sum at every 16th m
        m = np.arange(0, self.size + 1, 16)
        direct = np.exp(2j * math.pi / self.size * np.outer(m, t)) @ coeffs
        assert np.max(np.abs(kernel[m] - direct)) <= 1e-13 * np.max(np.abs(direct))

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_legendre_panels_match_dense_sum(self, sigma):
        # panels (p w, (p + 1) w), p = 1 .. N/2 - 1, at the orders 2s, 2s - 2
        # and 2s - 1 that the check takes at s = 0.3: measured at most 7.7e-15
        # for the sum and 9.7e-15 for the kernel
        for lam in (0.6, -1.4, -0.4):
            self.compare(sigma, self.no_first_panel, lam, 0.0)

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_inverse_matches_dense_phase_sum(self, sigma):
        # the sum back over every Legendre panel against explicit phases at
        # every 32nd grid point, with the closed-form transform
        # sigma e^(-(sigma xi)^2 / 2) of the Gaussian as coefficients
        # (measured 1.1e-15)
        x = grid(0.5 * self.length, self.size)
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
        fast = self.apply(values, _fourier_kernel(self.size, -0.6, self.no_first_panel, 0.0))
        assert np.max(np.abs(fast[pick] - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_first_panel_matches_dense_sum(self, sigma):
        # the first panel (0, w) on the Jacobi nodes, with the finite part's
        # order -1 and the derivative's order 0, beside the Legendre panels
        # at the orders 2s - 2 and 2s - 1 that go with them at s = 0.3
        # (measured at most 2.1e-15 for the sum and 5.9e-15 for the kernel)
        rule = jacobi_unit_rule(-0.4, 16)
        for lam, first_lam in ((-1.4, -1.0), (-0.4, 0.0)):
            self.compare(sigma, rule, lam, first_lam)

    @pytest.mark.parametrize("odd", [False, True])
    def test_toeplitz_matches_dense_product(self, odd):
        # sum_k u_k K(j - k) with K(-m) = +-K(m), on two stacked rows
        # (measured 4.7e-16 even and 3.8e-16 odd)
        rng = np.random.default_rng(7)
        n = 256
        values = rng.standard_normal((2, n))
        kernel = rng.standard_normal(n + 1)
        if odd:
            kernel[0] = 0.0
        shift = np.subtract.outer(np.arange(n), np.arange(n))
        matrix = np.where(shift < 0, -1.0 if odd else 1.0, 1.0) * kernel[np.abs(shift)]
        dense = values @ matrix.T
        fast = _toeplitz(values, kernel, odd=odd)
        assert fast.shape == (2, n)
        assert np.max(np.abs(fast - dense)) <= 1e-14 * np.max(np.abs(dense))


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
