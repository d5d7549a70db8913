"""Tests for the command-line surface: dispatch, formats, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

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
        code, out, _ = run(capsys, ["curvature", "--n", "5", "--s", "1.5"])
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["d_s"] is None
        assert record["V_s"] is None
        assert record["Q_s"] > 0.0


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

    def test_sphere_rejects_frequency_flag(self, capsys):
        code, _, err = run(
            capsys, ["symbol", "sphere", "--n", "3", "--s", "0.5", "--xi", "1"]
        )
        assert code == 1
        assert "cylinder" in err


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

    def test_mixed_flags_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["kernel", "sphere", "--n", "1", "--s", "0.3", "--h", "1.0"],
        )
        assert code == 1
        assert "cylinder" in err


class TestApply:
    def test_routes_agree_on_gaussian(self, capsys, tmp_path):
        path = tmp_path / "gauss.csv"
        x = write_gaussian_csv(path)
        code, spectral_out, _ = run(
            capsys, ["apply", str(path), "--s", "0.6", "--format", "csv"]
        )
        assert code == 0
        code, integral_out, _ = run(
            capsys,
            ["apply", str(path), "--s", "0.6", "--route", "integral", "--format", "csv"],
        )
        assert code == 0
        spectral = np.array(
            [row.split(",") for row in spectral_out.splitlines()[1:]], dtype=float
        )
        integral = np.array(
            [row.split(",") for row in integral_out.splitlines()[1:]], dtype=float
        )
        assert np.array_equal(spectral[:, 0], x)
        assert np.array_equal(integral[:, 0], x)
        scale = np.max(np.abs(spectral[:, 1]))
        assert np.max(np.abs(spectral[:, 1] - integral[:, 1])) < 1e-3 * scale

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
            "route": "spectral", "edge_tol": 1e-7, "half_width": 32.0, "size": 512,
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
        assert payload["diagnostics"]["d_star_identity_max_residual"] < 1e-13

    def test_overflowing_frequency_is_input_error(self, capsys):
        code, out, err = run(capsys, ["extension-check", "--s", "0.5", "--xi", "1e200"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

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
        assert len(payload["results"]) == 512 // 64

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
                {"s": [0.3, 0.5, 0.7], "degree": 4, "size": 65536, "half_width": 1000.0},
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
