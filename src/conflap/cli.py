"""Command-line surface over the library operations.

Every number in the output comes from a library call; the commands only
collect parameters, dispatch, and format the records.  JSON output carries
``params``, ``results`` and ``diagnostics``; CSV output is the flattened
results table alone.
"""

import csv
import functools
import io
import json

import click
import numpy as np

from .cylinder import (
    BIFURCATION_XTOL,
    calibrate_kernel,
    cyl_curvature,
    cyl_kernel,
    cyl_symbol,
    kernel_multiplier,
    periodized_kernel,
)
from .delaunay import (
    bifurcation_period,
    bubble_tower_defect,
    continue_branch,
    functional_FL,
    solve_delaunay,
)
from .errors import ConflapError, ParameterError
from .euclidean import (
    BRIDGE_GRID,
    commutator_check,
    covariance_bridge,
    frac_lap_integral,
    frac_lap_spectral,
)
from .extension import (
    d_s_const,
    d_star_const,
    solve_extension_mode,
    weighted_volume_coefficient,
)
from .params import FracParams, GridFunction, require_dimension, require_unit_order
from .sphere import (
    ModeSpectrum,
    calibrate_sphere_kernel,
    frac_lap_constant,
    gjms_symbol,
    sphere_curvature,
    sphere_kernel,
    sphere_symbol,
    vol_sphere,
)

# every conflap input error subclasses ValueError (see errors.py)
_VALIDATION_ERRORS = (ValueError, OSError)

PERIOD_THRESHOLD_REFERENCE = 5.1538187584122886
"""Root of xi coth(pi xi / 2) = 4 / pi as a period, for the self test."""


def _emit(fmt, output, params, results, diagnostics):
    if fmt == "json":
        payload = {"params": params, "results": results, "diagnostics": diagnostics}
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        buffer = io.StringIO()
        if results:
            writer = csv.DictWriter(
                buffer,
                fieldnames=list(results[0].keys()),
                lineterminator="\n",
            )
            writer.writeheader()
            writer.writerows(results)
        text = buffer.getvalue()
    with click.open_file(output, "w") as handle:
        handle.write(text)


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
    help="Output format.",
)
_output_option = click.option(
    "--output",
    default="-",
    show_default=True,
    help="Output path; '-' writes to standard output.",
)


def _admits(rule, *args):
    """Whether the library's range rule ``rule`` passes on ``args``."""
    try:
        rule(*args)
    except ParameterError:
        return False
    return True


def _orders_option(**kw):
    return click.option("--s", "orders", type=float, multiple=True, **kw)


@click.group()
@click.option(
    "--seed",
    type=int,
    default=0,
    show_default=True,
    help="Recorded with every run; current operations are fully deterministic.",
)
@click.pass_context
def cli(ctx, seed):
    """Conformal fractional Laplacians on model geometries."""
    ctx.obj = {"seed": seed}


def _command(name):
    """Register ``body``, which returns ``(params, results, diagnostics)``, as
    the command ``name``; its report records the command and the seed, and
    listed ``failures`` in its diagnostics exit 2 after the report is written.
    """

    def register(body):
        @cli.command(name)
        @_format_option
        @_output_option
        @click.pass_context
        @functools.wraps(body)
        def command(ctx, fmt, output, **options):
            params, results, diagnostics = body(**options)
            params = {"command": name, "seed": ctx.obj["seed"], **params}
            _emit(fmt, output, params, results, diagnostics)
            failures = diagnostics.get("failures")
            if failures:
                raise ConflapError(f"{name} failures: {', '.join(failures)}")

        return command

    return register


@_command("symbol")
@click.argument("geometry", type=click.Choice(["sphere", "cylinder"]))
@click.option("--n", type=int, required=True, help="Boundary dimension.")
@click.option("--s", type=float, required=True, help="Fractional order.")
@click.option(
    "--m",
    "modes",
    type=int,
    multiple=True,
    help="Mode numbers; sphere default 0..10, cylinder takes exactly one (default 0).",
)
@click.option(
    "--xi",
    "frequencies",
    type=float,
    multiple=True,
    help="Axial frequencies for the cylinder table (default 0 1 2 4).",
)
def symbol(geometry, n, s, modes, frequencies):
    """Tabulate a scattering symbol over modes or frequencies."""
    p = FracParams(n, s)
    if geometry == "sphere":
        if frequencies:
            raise ParameterError("--xi applies to the cylinder symbol only")
        chosen = list(modes) if modes else list(range(11))
        values = sphere_symbol(p, np.array(chosen))
        results = [{"m": m, "symbol": float(v)} for m, v in zip(chosen, values)]
        params = {"m": chosen}
    else:
        if len(modes) > 1:
            raise ParameterError("cylinder tables sweep xi; give at most one --m")
        m = modes[0] if modes else 0
        chosen = list(frequencies) if frequencies else [0.0, 1.0, 2.0, 4.0]
        values = cyl_symbol(p, m, np.array(chosen))
        results = [{"xi": x, "symbol": float(v)} for x, v in zip(chosen, values)]
        params = {"m": m, "xi": chosen}
    return {"geometry": geometry, "n": n, "s": s, **params}, results, {}


@_command("curvature")
@click.option("--n", type=int, required=True, help="Boundary dimension.")
@_orders_option(required=True, help="Fractional orders; repeat for a sweep.")
def curvature(n, orders):
    """Curvature and trace constants: Q_s, c_(n,s), d_s, d*_s, V_s."""

    def one(s):
        p = FracParams(n, s)
        q_s = float(sphere_curvature(p))
        record = dict(s=s, Q_s=q_s, c_ns=None, d_s=None, d_star_s=None, V_s=None)
        if _admits(require_dimension, n, "c_ns", 2) and _admits(p.require_subcritical, "c_ns"):
            record["c_ns"] = float(cyl_curvature(p))
        if _admits(require_unit_order, s, "d_s") and _admits(p.require_noncritical, "V_s"):
            record["d_s"] = float(d_s_const(s))
            record["d_star_s"] = float(d_star_const(s))
            record["V_s"] = float(weighted_volume_coefficient(p, q_s, vol_sphere(n)))
        return record

    diagnostics = {
        "trace_constants_domain": "0 < s < 1 and s != n/2; null otherwise",
        "sphere_volume": float(vol_sphere(n)),
    }
    return {"n": n, "s": list(orders)}, [one(s) for s in orders], diagnostics


@_command("kernel")
@click.argument("geometry", type=click.Choice(["sphere", "cylinder"]))
@click.option("--n", type=int, required=True, help="Boundary dimension.")
@click.option("--s", type=float, required=True, help="Fractional order.")
@click.option(
    "--cos-theta",
    "cosines",
    type=float,
    multiple=True,
    help="Sphere sample points cos(theta) in [-1, 1); default -0.5 0 0.5 0.9.",
)
@click.option(
    "--h",
    "separations",
    type=float,
    multiple=True,
    help="Cylinder axial separations > 0; default 0.25 0.5 1 2 4.",
)
@click.option(
    "--period",
    type=float,
    default=None,
    help="Also tabulate the periodized kernel K_L at this period (cylinder).",
)
def kernel(geometry, n, s, cosines, separations, period):
    """Sample a singular kernel, with its normalization's check record."""
    p = FracParams(n, s)
    if geometry == "sphere":
        if separations or period is not None:
            raise ParameterError("--h and --period apply to the cylinder kernel")
        spec = calibrate_sphere_kernel(p)
        chosen = list(cosines) if cosines else [-0.5, 0.0, 0.5, 0.9]
        values = sphere_kernel(spec, np.array(chosen))
        results = [
            {"cos_theta": c, "kernel": float(k)} for c, k in zip(chosen, values)
        ]
        params = {"cos_theta": chosen}
    else:
        if cosines:
            raise ParameterError("--cos-theta applies to the sphere kernel")
        spec = calibrate_kernel(p)
        chosen = list(separations) if separations else [0.25, 0.5, 1.0, 2.0, 4.0]
        values = cyl_kernel(spec, np.array(chosen)).tolist()
        periodized = (
            [None] * len(chosen)
            if period is None
            else periodized_kernel(spec, period, np.array(chosen)).tolist()
        )
        results = [
            {"h": h, "kernel": k, "periodized": k_l}
            for h, k, k_l in zip(chosen, values, periodized)
        ]
        params = {"h": chosen, "period": period}
    diagnostics = {
        "normalization": spec.normalization,
        "calibration": spec.calibration,
    }
    return {"geometry": geometry, "n": n, "s": s, **params}, results, diagnostics


def _read_samples(path):
    rows = []
    with open(path, newline="") as handle:
        for line_no, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise ParameterError(
                    f"{path}:{line_no}: expected two columns, got {len(row)}"
                )
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                if line_no == 1:
                    continue
                raise ParameterError(
                    f"{path}:{line_no}: non-numeric sample"
                ) from None
    if not rows:
        raise ParameterError(f"{path}: no samples found")
    data = np.asarray(rows, dtype=float)
    return data[:, 0], data[:, 1]


def _line_grid(x, values):
    f = GridFunction(-2.0 * x[0], values)
    if not np.allclose(x, f.x, rtol=0.0, atol=1e-9 * max(1.0, -x[0])):
        raise ParameterError(
            "abscissae must form the uniform grid -T + j (2T/size) "
            "with the right endpoint excluded; inputs are never resampled"
        )
    return f


@_command("apply")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--s", type=float, required=True, help="Fractional order.")
@click.option(
    "--route",
    type=click.Choice(["spectral", "integral"]),
    default="spectral",
    show_default=True,
    help="Fourier multiplier or difference quadrature; both take the "
    "samples as zero off the grid.",
)
def apply_command(input_path, s, route):
    """Apply the line operator to samples from a two-column CSV file."""
    f = _line_grid(*_read_samples(input_path))
    p = FracParams(1, s)
    if route == "spectral":
        out = frac_lap_spectral(p, f)
        diagnostics = {"route": route}
    else:
        out = frac_lap_integral(p, f)
        diagnostics = {"route": route, "integral_constant": frac_lap_constant(p)}
    diagnostics["half_width"] = 0.5 * f.length
    diagnostics["size"] = f.size
    results = [
        {"x": float(a), "value": float(v)} for a, v in zip(f.x, out.values)
    ]
    params = {"s": s, "input": input_path, "route": route}
    return params, results, diagnostics


@_command("extension-check")
@_orders_option(default=(0.2, 0.5, 0.8), show_default=True)
@click.option(
    "--xi",
    "frequencies",
    type=float,
    multiple=True,
    default=(0.5, 1.0, 2.0, 4.0),
    show_default=True,
)
@click.option("--mesh-size", type=int, default=600, show_default=True)
def extension_check(orders, frequencies, mesh_size):
    """Dirichlet-to-Neumann error table; a row past 1e-3 relative exits 2."""
    if not all(xi > 0.0 for xi in frequencies):
        raise ParameterError("frequencies must be positive for the error table")

    def one(s, xi):
        sol = solve_extension_mode(FracParams(3, s), xi, mesh_size=mesh_size)
        reference = xi ** (2.0 * s)
        return {
            "s": s,
            "xi": xi,
            "dtn": sol.dtn,
            "reference": reference,
            "rel_error": abs(sol.dtn - reference) / reference,
        }

    results = [one(s, xi) for s in orders for xi in frequencies]
    identity = max(
        abs(d_star_const(s) + d_s_const(s) / (2.0 * s)) for s in orders
    )
    params = {"s": list(orders), "xi": list(frequencies), "mesh_size": mesh_size}
    target = 1e-3
    diagnostics = {
        "mesh_size": mesh_size,
        "d_star_identity_max_residual": identity,
        "target_rel_error": target,
        "failures": [f"s={r['s']} xi={r['xi']}" for r in results if not r["rel_error"] < target],
    }
    return params, results, diagnostics


@_command("covariance-check")
@_orders_option(default=(0.3, 0.5, 0.7), show_default=True)
@click.option(
    "--degree",
    type=int,
    default=4,
    show_default=True,
    help="Check every spectrum degree 0..degree.",
)
@click.option("--size", type=int, default=BRIDGE_GRID[1], show_default=True)
@click.option("--half-width", type=float, default=BRIDGE_GRID[0], show_default=True)
def covariance_check(orders, degree, size, half_width):
    """Circle-to-line stereographic bridge residuals; a row past 1e-3 exits 2."""
    if degree < 0:
        raise ParameterError("degree must be nonnegative")

    def one(s, m):
        coeffs = np.zeros(m + 1)
        coeffs[m] = 1.0
        report = covariance_bridge(
            FracParams(1, s),
            ModeSpectrum(1, coeffs),
            half_width=half_width,
            size=size,
        )
        return {
            "s": s,
            "degree": m,
            "mismatch_max": report["mismatch_max"],
            "mismatch_l2": report["mismatch_l2"],
        }

    results = [one(s, m) for s in orders for m in range(degree + 1)]
    params = {
        "s": list(orders),
        "degree": degree,
        "size": size,
        "half_width": half_width,
    }
    target = 1e-3
    missed = [f"s={r['s']} degree={r['degree']}" for r in results
              if not r["mismatch_max"] < target]
    diagnostics = {"size": size, "half_width": half_width, "target": target, "failures": missed}
    return params, results, diagnostics


@_command("bifurcation")
@click.option("--n", "dims", type=int, multiple=True, default=(3,), show_default=True)
@_orders_option(required=True)
def bifurcation(dims, orders):
    """Bifurcation period of the constant branch over a parameter grid."""
    results = [
        {"n": n, "s": s, "L0": float(bifurcation_period(FracParams(n, s)))}
        for n in dims
        for s in orders
    ]
    diagnostics = {"root_solver": "safeguarded Newton on log theta0", "xtol": BIFURCATION_XTOL}
    return {"n": list(dims), "s": list(orders)}, results, diagnostics


@_command("delaunay")
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--s", type=float, required=True)
@click.option(
    "--period",
    "periods",
    type=float,
    multiple=True,
    required=True,
    help="Periods to solve, each from the automatic start.",
)
@click.option("--size", type=int, default=512, show_default=True)
@click.option(
    "--stride",
    type=int,
    default=8,
    show_default=True,
    help="Emit every stride-th grid sample.",
)
@click.option("--tol", type=float, default=1e-11, show_default=True)
def delaunay(n, s, periods, size, stride, tol):
    """Solve the periodic curvature equation along a list of periods."""
    if stride < 1:
        raise ParameterError("stride must be at least 1")
    solutions = continue_branch(FracParams(n, s), list(periods), size=size, tol=tol)
    results = [
        {"period": sol.period, "t": float(t), "v": float(v)}
        for sol in solutions
        for t, v in zip(sol.grid().x[::stride], sol.values[::stride])
    ]
    summaries = [
        {
            "period": sol.period,
            "residual_norm": sol.residual_norm,
            "energy": sol.energy,
            "tower_defect": bubble_tower_defect(sol),
            "nonconstant": sol.nonconstant,
            "peak": float(sol.values.max()),
            "newton_steps": sol.newton_steps,
            "krylov_steps": sol.krylov_steps,
            "start": sol.start,
        }
        for sol in solutions
    ]
    params = {
        "n": n,
        "s": s,
        "period": list(periods),
        "size": size,
        "stride": stride,
        "tol": tol,
    }
    diagnostics = {"solutions": summaries, "size": size, "tol": tol}
    return params, results, diagnostics


def _selftest_records():
    checks = []

    def add(name, metric, bound):
        checks.append(
            {
                "check": name,
                "metric": float(metric),
                "bound": float(bound),
                "status": "pass" if metric < bound else "fail",
            }
        )

    p57 = FracParams(5, 0.75)
    add(
        "sphere_zero_mode_matches_curvature",
        abs(sphere_symbol(p57, 0) - sphere_curvature(p57))
        / sphere_curvature(p57),
        1e-12,
    )
    p62 = FracParams(6, 2.0)
    add(
        "sphere_symbol_matches_gjms_product",
        abs(sphere_symbol(p62, 7) - gjms_symbol(6, 2, 7)) / gjms_symbol(6, 2, 7),
        1e-12,
    )
    circle = calibrate_sphere_kernel(FracParams(1, 0.3))
    add(
        "sphere_kernel_calibration_residual",
        circle.calibration["residual"],
        1e-8,
    )

    p35 = FracParams(3, 0.5)
    cyl_spec = calibrate_kernel(p35)
    duality = abs(
        kernel_multiplier(cyl_spec, 3.0) - cyl_symbol(p35, 0, 3.0)
    ) / cyl_symbol(p35, 0, 3.0)
    add("cylinder_kernel_duality", duality, 1e-6)
    p37 = FracParams(3, 0.7)
    add(
        "cylinder_principal_symbol",
        abs(cyl_symbol(p37, 0, 100.0) / 100.0**1.4 - 1.0),
        0.05,
    )

    mode = solve_extension_mode(FracParams(3, 0.5), 2.0)
    add("extension_dtn_rel_error", abs(mode.dtn - 2.0) / 2.0, 1e-3)
    add(
        "trace_constant_identity",
        abs(d_star_const(0.37) + d_s_const(0.37) / 0.74),
        1e-13,
    )

    size = 4096
    half_width = 64.0
    x = -half_width + (2.0 * half_width / size) * np.arange(size)
    gauss = GridFunction(2.0 * half_width, np.exp(-0.5 * x * x))
    p16 = FracParams(1, 0.7)
    spectral = frac_lap_spectral(p16, gauss).values
    integral = frac_lap_integral(p16, gauss).values
    core = np.abs(x) <= 8.0
    add(
        "line_route_agreement",
        np.max(np.abs(spectral[core] - integral[core]))
        / np.max(np.abs(spectral)),
        1e-10,
    )
    p13 = FracParams(1, 0.3)
    report = commutator_check(p13, gauss)
    add("commutator_residual", report["residual"], 1e-4)

    bridge = covariance_bridge(FracParams(1, 0.5), ModeSpectrum(1, np.array([1.0, 0.5, 0.25])))
    add("covariance_bridge_mismatch", bridge["mismatch_max"], 1e-3)

    threshold = bifurcation_period(p35)
    add(
        "bifurcation_period_reference",
        abs(threshold - PERIOD_THRESHOLD_REFERENCE),
        1e-8,
    )
    bump = solve_delaunay(p35, 1.2 * threshold)
    add("delaunay_residual", bump.residual_norm, 1e-10)
    constant = GridFunction(1.2 * threshold, np.ones(bump.values.size))
    add("delaunay_energy_drop", bump.energy - functional_FL(p35, constant), 0.0)
    defects = [
        bubble_tower_defect(solve_delaunay(p35, mult * threshold))
        for mult in (2.0, 3.0)
    ]
    add("tower_defect_contraction", defects[1] / defects[0], 1.0)
    return checks


@_command("selftest")
def selftest():
    """Run the deterministic invariant suite and report pass/fail lines."""
    results = _selftest_records()
    failed = [r["check"] for r in results if r["status"] != "pass"]
    diagnostics = {
        "checks": len(results),
        "failures": failed,
        "all_passed": not failed,
    }
    return {}, results, diagnostics


def main(argv=None):
    """Entry point mapping library errors onto stable exit codes."""
    try:
        result = cli.main(args=argv, standalone_mode=False, prog_name="conflap")
        return int(result) if isinstance(result, int) else 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return 130
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except _VALIDATION_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except ConflapError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
