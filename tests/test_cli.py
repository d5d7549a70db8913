"""Tests for the command-line surface: dispatch, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import rgamma

import conflap
from conflap import cli
from conflap.cli import main

ORACLE_PERIOD = 5.1538187584122886


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_gaussian_csv(path, half_width=32.0, size=512):
    x = -half_width + (2.0 * half_width / size) * np.arange(size)
    np.savetxt(path, np.column_stack([x, np.exp(-0.5 * x * x)]), delimiter=",")
    return x


class TestCurvature:
    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, ["curvature", "--n", "3", "--s", "0.5"])
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["Q_s"] == pytest.approx(1.0, abs=1e-12)
        assert record["c_ns"] == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert record["d_s"] == pytest.approx(-1.0, abs=1e-12)
        assert record["d_star_s"] == pytest.approx(1.0, abs=1e-12)
        assert record["V_s"] == pytest.approx(-2.0 * math.pi**2, rel=1e-12)

    def test_trace_constants_nulled_outside_domain(self, capsys):
        # Q_s = Gamma(n/2 + s) / Gamma(n/2 - s) holds at every s; c_ns needs
        # s < n/2, and d_s, d*_s and V_s need 0 < s < 1
        for n, s in [(5, 1.5), (2, 1.0), (2, 1.5), (3, 1.5)]:
            code, out, _ = run(capsys, ["curvature", "--n", str(n), "--s", str(s)])
            assert code == 0
            record = json.loads(out)["results"][0]
            q_s = math.gamma(0.5 * n + s) * rgamma(0.5 * n - s)
            assert record["Q_s"] == pytest.approx(q_s, rel=1e-12, abs=1e-12)
            assert (record["c_ns"] is None) == (s >= 0.5 * n)
            assert record["d_s"] is record["d_star_s"] is record["V_s"] is None

    def test_overflowing_trace_weight_is_input_error(self, capsys):
        code, out, err = run(capsys, ["curvature", "--n", "3", "--s", "1e-320"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_underflowing_sphere_volume_is_input_error(self, capsys):
        # vol(S^n) leaves the normal floats from n = 438 (mpmath: 3.17e-308 at
        # n = 437, 3.80e-309 at 438); Gamma((n+1)/2) already does at 343
        code, out, _ = run(capsys, ["curvature", "--n", "437", "--s", "0.3"])
        assert code == 0
        volume = json.loads(out)["diagnostics"]["sphere_volume"]
        assert volume == pytest.approx(3.16992778982654e-308, rel=1e-12)
        code, out, err = run(capsys, ["curvature", "--n", "438", "--s", "0.3"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "underflows" in err


class TestSymbol:
    def test_sphere_defaults_to_eleven_modes(self, capsys):
        code, out, _ = run(capsys, ["symbol", "sphere", "--n", "4", "--s", "0.6"])
        assert code == 0
        payload = json.loads(out)
        assert [r["m"] for r in payload["results"]] == list(range(11))
        zero = payload["results"][0]["symbol"]
        assert zero == pytest.approx(
            math.gamma(2.0 + 0.6) / math.gamma(2.0 - 0.6), rel=1e-12
        )

    def test_cylinder_zero_frequency(self, capsys):
        code, out, _ = run(
            capsys,
            ["symbol", "cylinder", "--n", "3", "--s", "0.5", "--m", "0", "--xi", "0"],
        )
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["symbol"] == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_cylinder_rejects_infinite_frequency(self, capsys):
        code, out, err = run(
            capsys, ["symbol", "cylinder", "--n", "3", "--s", "0.5", "--xi", "inf"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite xi" in err

    def test_sphere_rejects_frequency_flag(self, capsys):
        code, _, err = run(
            capsys, ["symbol", "sphere", "--n", "3", "--s", "0.5", "--xi", "1"]
        )
        assert code == 1
        assert "cylinder" in err

    def test_overflowing_sphere_symbol_is_input_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, ["symbol", "sphere", "--n", "3", "--s", "80", "--m", "300"]
            )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "overflows" in err
        assert caught == []


class TestKernel:
    def test_cylinder_samples_and_calibration(self, capsys):
        code, out, _ = run(
            capsys,
            ["kernel", "cylinder", "--n", "3", "--s", "0.5", "--period", "6.0"],
        )
        assert code == 0
        payload = json.loads(out)
        values = [r["kernel"] for r in payload["results"]]
        assert all(v > 0.0 for v in values)
        assert values == sorted(values, reverse=True)
        for record in payload["results"]:
            assert record["periodized"] >= record["kernel"]
        assert payload["diagnostics"]["calibration"]["residual"] < 1e-8

    def test_sphere_kernel_positive(self, capsys):
        code, out, _ = run(capsys, ["kernel", "sphere", "--n", "1", "--s", "0.3"])
        assert code == 0
        payload = json.loads(out)
        assert all(r["kernel"] > 0.0 for r in payload["results"])
        assert payload["diagnostics"]["normalization"] > 0.0

    def test_huge_separation_gives_zero_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(
                capsys, ["kernel", "cylinder", "--n", "3", "--s", "0.5", "--h", "1e308"]
            )
        assert code == 0
        assert json.loads(out)["results"][0]["kernel"] == 0.0

    def test_infinite_separation_is_input_error(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, ["kernel", "cylinder", "--n", "3", "--s", "0.5", "--h", "inf"]
            )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite h" in err
        assert caught == []

    def test_kernel_overflow_error_is_one_line(self, capsys):
        # scipy's 2F1 is inf near z = 1 at n = 344, though the power factor
        # is about e^12 there; the error says so and names one node
        code, out, err = run(capsys, ["kernel", "cylinder", "--n", "344", "--s", "0.3"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: kernel profile's 2F1 factor is not finite at h = ")
        assert err.rstrip("\n").endswith(", entry 0 of 64")
        assert err.count("\n") == 1

    def test_overflowing_integral_constant_is_input_error(self, capsys):
        # C_(n,s) leaves the floats at n = 439, s = 0.3 (mpmath: 1.11e308 at
        # n = 438, 9.29e308 at 439); Gamma(n/2 + s) already does at 343
        code, out, err = run(capsys, ["kernel", "cylinder", "--n", "439", "--s", "0.3"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "C_(n,s) overflows" in err

    def test_sphere_kernel_in_higher_dimensions(self, capsys):
        # one Funk-Hecke calibration serves every n
        for n, s in (("3", "0.5"), ("7", "0.9")):
            code, out, _ = run(capsys, ["kernel", "sphere", "--n", n, "--s", s])
            assert code == 0
            assert json.loads(out)["diagnostics"]["calibration"]["residual"] < 1e-13

    def test_sphere_kernel_at_large_n(self, capsys):
        # the calibration takes |S^436| directly, not from |S^438|, which underflows
        args = ["kernel", "sphere", "--n", "437", "--s", "0.3", "--cos-theta", "-0.5"]
        code, out, _ = run(capsys, args)
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"]["calibration"]["residual"] < 1e-12
        assert math.isfinite(payload["results"][0]["kernel"])

    def test_mixed_flags_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["kernel", "sphere", "--n", "1", "--s", "0.3", "--h", "1.0"],
        )
        assert code == 1
        assert "cylinder" in err


class TestApply:
    def test_routes_agree_on_gaussian(self, capsys, tmp_path):
        # both routes take the samples as zero off the grid; measured 1.5e-5
        # at s = 0.3 and 6.0e-5 at s = 0.6 over the whole grid
        path = tmp_path / "gauss.csv"
        x = write_gaussian_csv(path)
        for s in ("0.3", "0.6"):
            outputs = []
            for route in ("spectral", "integral"):
                code, out, _ = run(
                    capsys,
                    ["apply", str(path), "--s", s, "--route", route, "--format", "csv"],
                )
                assert code == 0
                rows = np.array([row.split(",") for row in out.splitlines()[1:]], dtype=float)
                assert np.array_equal(rows[:, 0], x)
                outputs.append(rows[:, 1])
            spectral, integral = outputs
            scale = np.max(np.abs(spectral))
            assert np.max(np.abs(spectral - integral)) < 1e-4 * scale, s

    def test_rejects_shifted_grid(self, capsys, tmp_path):
        path = tmp_path / "shifted.csv"
        x = write_gaussian_csv(path)
        data = np.loadtxt(path, delimiter=",")
        data[:, 0] += 0.25
        np.savetxt(path, data, delimiter=",")
        code, _, err = run(capsys, ["apply", str(path), "--s", "0.6"])
        assert code == 1
        assert "never resampled" in err

    def test_rejects_ragged_rows(self, capsys, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.0,1.0,2.0\n")
        code, _, err = run(capsys, ["apply", str(path), "--s", "0.6"])
        assert code == 1
        assert "two columns" in err

    def test_params_and_diagnostics_at_defaults(self, capsys, tmp_path):
        path = tmp_path / "gauss.csv"
        write_gaussian_csv(path)
        code, out, _ = run(capsys, ["apply", str(path), "--s", "0.6"])
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == {
            "command": "apply", "seed": 0, "s": 0.6, "input": str(path),
            "route": "spectral",
        }
        assert payload["diagnostics"] == {
            "route": "spectral", "half_width": 32.0, "size": 512,
        }

    def test_edge_tol_option_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "gauss.csv"
        write_gaussian_csv(path)
        code, out, err = run(capsys, ["apply", str(path), "--s", "0.6", "--edge-tol", "1e-3"])
        assert code == 1
        assert out == ""
        assert "--edge-tol" in err

    def test_integral_diagnostics_carry_closed_form_constant(self, capsys, tmp_path):
        path = tmp_path / "gauss.csv"
        write_gaussian_csv(path)
        code, out, _ = run(capsys, ["apply", str(path), "--s", "0.6", "--route", "integral"])
        assert code == 0
        assert json.loads(out)["diagnostics"] == {
            "route": "integral",
            "integral_constant": conflap.frac_lap_constant(conflap.FracParams(1, 0.6)),
            "half_width": 32.0,
            "size": 512,
        }

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["apply", "no-such.csv", "--s", "0.6"])
        assert code == 1
        assert "no-such.csv" in err


class TestChecks:
    def test_extension_table_meets_target(self, capsys):
        code, out, _ = run(capsys, ["extension-check"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 12
        assert all(r["rel_error"] < 1e-3 for r in payload["results"])
        assert payload["diagnostics"]["failures"] == []
        assert payload["diagnostics"]["d_star_identity_max_residual"] < 1e-13

    def test_extension_row_missing_target_reports_then_exits_2(self, capsys):
        # a mesh of 32 misses the stated 1e-3; the table is written first
        args = ["extension-check", "--s", "0.5", "--xi", "1", "--mesh-size", "32"]
        code, out, err = run(capsys, args)
        assert code == 2
        payload = json.loads(out)
        assert payload["results"][0]["rel_error"] > 1e-3
        assert payload["diagnostics"]["failures"] == ["s=0.5 xi=1.0"]
        assert err == "numerical failure: extension-check failures: s=0.5 xi=1.0\n"

    def test_extension_mesh_past_the_cap_is_input_error(self, capsys):
        # 10^9 nodes would exhaust memory; the cap refuses it before the solve
        code, out, err = run(capsys, ["extension-check", "--mesh-size", "1000000000"])
        assert code == 1
        assert out == ""
        assert err == "error: mesh_size must be in [32, 1000000], got 1000000000\n"

    def test_overflowing_frequency_is_input_error(self, capsys):
        # one scale-free solve serves every frequency whose xi^(2s) is a
        # normal float; at s = 0.8 and xi = 1e-300 it is 1e-480
        for s, xi in (("0.5", "1e200"), ("0.2", "1e-300")):
            code, out, _ = run(capsys, ["extension-check", "--s", s, "--xi", xi])
            assert code == 0
            assert json.loads(out)["results"][0]["rel_error"] < 1e-3
        code, out, err = run(capsys, ["extension-check", "--s", "0.8", "--xi", "1e-300"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "xi^(2s)" in err

    def test_tiny_order_is_input_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["extension-check", "--s", "1e-320", "--xi", "2"])
        assert code == 1
        assert out == ""
        assert err == "error: the extension needs s in the normal floats, got s = 1e-320\n"

    def test_covariance_bridge_small_run(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "covariance-check",
                "--s",
                "0.4",
                "--degree",
                "1",
                "--size",
                str(1 << 15),
                "--half-width",
                "500",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 2
        assert all(r["mismatch_max"] < 1e-3 for r in payload["results"])
        assert payload["diagnostics"]["failures"] == []

    def test_covariance_row_missing_target_reports_then_exits_2(self, capsys):
        # 512 samples over half-width 500 under-resolve degree 1, which
        # misses 1e-3 (6.8e-2), while the constant mode stays exact (5.4e-16)
        args = ["covariance-check", "--s", "0.05", "--degree", "1", "--half-width", "500",
                "--size", "512"]
        code, out, err = run(capsys, args)
        assert code == 2
        payload = json.loads(out)
        assert [r["mismatch_max"] < 1e-3 for r in payload["results"]] == [True, False]
        assert payload["diagnostics"]["failures"] == ["s=0.05 degree=1"]
        assert err == "numerical failure: covariance-check failures: s=0.05 degree=1\n"


class TestBifurcation:
    def test_matches_reference_root(self, capsys):
        code, out, _ = run(capsys, ["bifurcation", "--n", "3", "--s", "0.5"])
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["L0"] == pytest.approx(ORACLE_PERIOD, abs=1e-8)

    def test_grid_keeps_input_order(self, capsys):
        code, out, _ = run(
            capsys,
            ["bifurcation", "--n", "3", "--n", "4", "--s", "0.4", "--s", "0.6"],
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert [(r["n"], r["s"]) for r in rows] == [
            (3, 0.4),
            (3, 0.6),
            (4, 0.4),
            (4, 0.6),
        ]


class TestDelaunay:
    def test_solution_summary_and_samples(self, capsys):
        code, out, _ = run(
            capsys,
            ["delaunay", "--s", "0.5", "--period", "6.2", "--stride", "64"],
        )
        assert code == 0
        payload = json.loads(out)
        summary = payload["diagnostics"]["solutions"][0]
        assert summary["nonconstant"] is True
        assert summary["residual_norm"] < 1e-9
        assert summary["tower_defect"] < 0.5
        assert 1 <= summary["newton_steps"] <= summary["krylov_steps"]
        assert summary["start"] == "seed"
        assert len(payload["results"]) == 512 // 64
        # samples run over the centred period [-L/2, L/2), peak at t = 0
        ts = [r["t"] for r in payload["results"]]
        assert ts[0] == -3.1 and ts[4] == 0.0 and ts[-1] < 3.1
        peak = max(payload["results"], key=lambda r: r["v"])
        assert peak["t"] == 0.0 and peak["v"] == summary["peak"]

    def test_csv_is_flat_sample_table(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "delaunay",
                "--s",
                "0.5",
                "--period",
                "6.2",
                "--stride",
                "128",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "period,t,v"
        assert len(lines) == 1 + 4

    def test_tolerance_above_certificate_cap_is_input_error(self, capsys):
        code, out, err = run(
            capsys,
            [
                "delaunay", "--s", "0.5", "--period", "6.2",
                "--size", "16", "--tol", "1e-3",
            ],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol 0.001 exceeds") and "cap 1.0e-10" in err

    def test_impossible_tolerance_is_numerical_failure(self, capsys):
        code, _, err = run(
            capsys,
            ["delaunay", "--s", "0.5", "--period", "6.2", "--tol", "1e-30"],
        )
        assert code == 2
        assert "numerical failure" in err


class TestHarness:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert "No such command" in err

    @pytest.mark.parametrize(
        "args, params",
        [
            (
                ["symbol", "sphere", "--n", "4", "--s", "0.6"],
                {"geometry": "sphere", "n": 4, "s": 0.6, "m": list(range(11))},
            ),
            (
                ["symbol", "cylinder", "--n", "3", "--s", "0.5"],
                {"geometry": "cylinder", "n": 3, "s": 0.5, "m": 0,
                 "xi": [0.0, 1.0, 2.0, 4.0]},
            ),
            (["curvature", "--n", "3", "--s", "0.5"], {"n": 3, "s": [0.5]}),
            (
                ["kernel", "sphere", "--n", "1", "--s", "0.3"],
                {"geometry": "sphere", "n": 1, "s": 0.3,
                 "cos_theta": [-0.5, 0.0, 0.5, 0.9]},
            ),
            (
                ["kernel", "cylinder", "--n", "3", "--s", "0.5"],
                {"geometry": "cylinder", "n": 3, "s": 0.5,
                 "h": [0.25, 0.5, 1.0, 2.0, 4.0], "period": None},
            ),
            (
                ["extension-check"],
                {"s": [0.2, 0.5, 0.8], "xi": [0.5, 1.0, 2.0, 4.0], "mesh_size": 600},
            ),
            (
                ["covariance-check"],
                {"s": [0.3, 0.5, 0.7], "degree": 4, "size": 8192, "half_width": 250.0},
            ),
            (["bifurcation", "--s", "0.5"], {"n": [3], "s": [0.5]}),
            (
                ["delaunay", "--s", "0.5", "--period", "6.2"],
                {"n": 3, "s": 0.5, "period": [6.2], "size": 512, "stride": 8,
                 "tol": 1e-11},
            ),
        ],
    )
    def test_params_at_defaults(self, capsys, args, params):
        code, out, _ = run(capsys, args)
        assert code == 0
        expected = {"command": args[0], "seed": 0, **params}
        assert json.loads(out)["params"] == expected

    def test_seed_recorded(self, capsys):
        code, out, _ = run(
            capsys, ["--seed", "7", "curvature", "--n", "3", "--s", "0.5"]
        )
        assert code == 0
        assert json.loads(out)["params"]["seed"] == 7

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys,
            ["curvature", "--n", "3", "--s", "0.5", "--output", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["results"]

    def test_import_leaves_scipy_integrate_out(self):
        # the kernel quadratures are fixed rules and the chirp-z sums run on
        # numpy.fft, so the CLI import pays for neither scipy.integrate nor
        # scipy.signal
        src = os.path.dirname(os.path.dirname(conflap.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        probe = (
            "import sys, conflap.cli; "
            "print(any(m in sys.modules for m in ('scipy.integrate', 'scipy.signal')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.strip() == "False"


class TestSelftest:
    def test_passes_and_repeats_byte_identically(self, capsys):
        code, first, _ = run(capsys, ["selftest"])
        assert code == 0
        payload = json.loads(first)
        assert payload["diagnostics"]["all_passed"] is True
        assert all(r["status"] == "pass" for r in payload["results"])
        code, second, _ = run(capsys, ["selftest"])
        assert code == 0
        assert first == second
        assert payload["params"] == {"command": "selftest", "seed": 0}

    def test_failed_check_reports_then_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PERIOD_THRESHOLD_REFERENCE", 5.0)
        code, out, err = run(capsys, ["selftest"])
        assert code == 2
        assert "bifurcation_period_reference" in err
        payload = json.loads(out)
        assert payload["diagnostics"]["all_passed"] is False
        assert payload["diagnostics"]["failures"] == ["bifurcation_period_reference"]
