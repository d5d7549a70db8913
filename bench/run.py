"""conflap benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload delaunay_sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke

The library is imported from the checkout's ``src/``; nothing is installed.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A full record
(environment, sample counts, tail latency, failure share, errors) is written
to ``.bench_out/`` in the checkout, the traced run's spans beside it.
Workload and metric names and units come from ``BENCHMARK.json``.

Each run starts a fresh workload process that imports the library, warms it
up, draws one input set from ``--seed`` and then repeats it in closed-loop
rounds (one caller, each call waits for the previous one) for ``--seconds``,
at least twice.  Library caches are emptied before every round, so every
repeat does the work of a fresh process.  The speed of a shared host drifts
by tens of percent over seconds and minutes, so a fixed reference loop that
does not touch the library is timed just before and just after every
operation, and the operation's time is scaled to a host on which one
reference run takes ``REFERENCE_S`` (see ``Gauge``).  Workloads whose
operations last seconds and are not interpreter-bound (dense LU, a whole
CLI process) are not scaled: their own length averages the host's jitter,
and the reference tracks their speed worse than it tracks the host.  An
operation's time is the median of its repeats; ``wall_s`` sums these over
the input set and ``op_p50_ms`` is their median (see ``smooth_median``).
Three more fresh processes only set up, so ``setup_s`` is a median of four.
``--smoke`` runs every workload in both modes at tiny sizes.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
# Per-layer metrics read from the traced rounds' counts.  Every other
# per-layer metric is named by its suffix (.self_s, .busy_s, .calls, a
# maximum) or computed by name; see per_layer_values.
COUNTED = ("delaunay.failed", "extension.edge_failed", "bench.runtime_warnings")
MAXIMA = ("max_rel_err", "residual_max")

DEFAULT_SEED = 0
SETUP_PROBES = 3
MIN_ROUNDS = 2
REFERENCE_S = 1e-3  # nominal time of one reference run, see Gauge
REFERENCE_SHARE = 0.05  # reference time on each side of an operation, as a share of it
REFERENCE_MAX_RUNS = 500
RUN_TIMEOUT = 170.0
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CONFLAP_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_PINS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def build(env):
    """Byte-compile the sources once, so no timed import compiles."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "conflap"), str(BENCH)],
        env={**env, "PYTHONDONTWRITEBYTECODE": ""}, capture_output=True, timeout=120,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"compileall failed: {proc.stdout.decode()[-2000:]}")


def spawn(mode, args, env, deadline):
    """Run one child process of this script and return its JSON result."""
    command = [
        sys.executable, str(BENCH / "run.py"), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    command += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} process of {args.workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process of {args.workload} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def import_profile(env):
    """Cumulative import times of conflap.cli and scipy.integrate, in ms,
    medians of three `python -X importtime` runs."""
    cli, integrate = [], []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import conflap.cli"],
            env=env, cwd=ROOT, capture_output=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            raise BenchError("importing conflap.cli failed")
        cumulative = {}
        for line in proc.stderr.decode().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        cli.append(cumulative.get("conflap.cli", 0) / 1e3)
        integrate.append(cumulative.get("scipy.integrate", 0) / 1e3)
    return statistics.median(cli), statistics.median(integrate)


def source_lines():
    """Non-blank, non-comment lines per src/conflap module, and their total."""
    counts = {
        f"src.sloc.{path.stem}": sum(1 for line in path.read_text().splitlines()
                                     if line.strip() and not line.lstrip().startswith("#"))
        for path in (SRC / "conflap").glob("*.py")
    }
    return {"src.sloc.total": sum(counts.values()), **counts}


def per_layer_values(child, env):
    """Every per-layer metric BENCHMARK.json names, from the traced child's
    span times, counts and maxima.  A call, layer, count or error the
    workload never met reads 0."""
    trace = child["trace"]
    values = dict(trace["values"])
    import_ms, integrate_ms = import_profile(env)
    values["cli.import_ms"] = import_ms
    values["cli.import_scipy_integrate_ms"] = integrate_ms
    process_s = child.get("selftest_process_s")
    values["cli.selftest_command_s"] = process_s - import_ms / 1e3 if process_s else 0.0
    values.update(source_lines())
    busy, calls = trace["busy"], trace["calls"]
    for name in (metric["name"] for metric in SPEC["per_layer"]):
        stem, _, suffix = name.rpartition(".")
        if name in values:
            continue
        if suffix == "self_s":
            values[name] = sum(v for span, v in busy.items() if span.startswith(stem + "."))
        elif suffix == "busy_s":
            values[name] = busy.get(stem, 0.0)
        elif suffix == "calls":
            values[name] = calls.get(stem, 0)
        elif name.endswith(MAXIMA):
            values[name] = trace["maxima"].get(name, 0.0)
        elif name in COUNTED:
            values[name] = trace["counts"].get(name, 0)
        elif stem == "src.sloc":
            values[name] = 0  # the module is gone
        else:
            raise BenchError(f"no rule computes the per-layer metric {name}")
    return values


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, timeout=30, check=False)
    return proc.stdout.decode().strip() or None


def run(args):
    """Parent side: set-up probes, the workload process, the result line."""
    deadline = time.monotonic() + RUN_TIMEOUT
    env = child_env()
    OUT.mkdir(exist_ok=True)
    build(env)
    setups = [] if args.trace else [
        spawn("setup", args, env, deadline)["setup_s"] for _ in range(SETUP_PROBES)
    ]
    child = spawn("run", args, env, deadline)
    setups.append(child["setup_s"])
    if args.trace:
        values = per_layer_values(child, env)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": child["wall_s"],
            "op_p50_ms": child["op_p50_ms"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    record = dict(child, setup_samples_s=setups, metrics=metrics, git_commit=git_commit(),
                  src_sloc=source_lines(), seed=args.seed, seconds=args.seconds)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    summary = ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()
                        if not k.startswith("src.sloc."))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted={child['attempted']} "
          f"failed={child['failed']} failed_share={child['failed_share']:.4f} {summary}",
          file=sys.stderr)
    for index, message in list(child["errors"].items())[:5]:
        print(f"  operation {index}: {message}", file=sys.stderr)
    return result


# ---------------------------------------------------------------- child side


def library_api(tracer):
    """conflap's public names; functions wrapped in spans when tracing."""
    import inspect
    from types import SimpleNamespace

    import conflap

    if not Path(conflap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"conflap imported from {conflap.__file__}, not from {SRC}")
    names = {}
    for name in conflap.__all__:
        obj = getattr(conflap, name)
        names[name] = tracer.wrap(obj) if tracer and inspect.isfunction(obj) else obj
    return SimpleNamespace(tracer=tracer, **names)


def clear_library_caches():
    """Empty every functools cache in the library, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "conflap" or name.startswith("conflap."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def environment():
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "machine": platform.machine(),
    }


class Gauge:
    """The host's speed next to each operation, from runs of a fixed
    interpreter loop and a small dense solve (about ``REFERENCE_S`` each)
    that no change to the library can move.  Dividing an operation's time by
    the mean reference time of the runs just before and just after it
    cancels the host's drift."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.matrix = np.random.default_rng(0).standard_normal((96, 96)) + 96.0 * np.eye(96)
        self.rhs = np.ones(96)
        self.spent = 0.0  # wall time of all reference runs
        self.total = 0.0  # summed time of the runs themselves
        self.count = 0

    def runs(self, seconds):
        """Reference runs for about REFERENCE_SHARE of ``seconds``; their
        summed time and count."""
        count = min(REFERENCE_MAX_RUNS, max(2, round(REFERENCE_SHARE * seconds / REFERENCE_S)))
        begin = time.perf_counter()
        total = 0.0
        for _ in range(count):
            start = time.perf_counter()
            acc = 0.0
            for i in range(20000):
                acc += i * 0.5
            self.np.linalg.solve(self.matrix, self.rhs)
            total += time.perf_counter() - start
        self.spent += time.perf_counter() - begin
        self.total += total
        self.count += count
        return total, count


def smooth_median(values):
    """Harrell-Davis estimate of the median: a weighted mean of the order
    statistics.  Per-operation times cluster by Newton iteration count, and
    the plain median jumps between clusters on small changes in timing."""
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(values)
    half = (len(ordered) + 1) / 2.0
    weights = np.diff(betainc(half, half, np.arange(len(ordered) + 1) / len(ordered)))
    return float(weights @ ordered)


def tail(latencies):
    """Highest standard percentile with at least 10 samples beyond it."""
    import numpy as np

    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(latencies) * (1.0 - pct / 100.0) >= 10:
            return {"percentile": pct, "ms": float(np.percentile(latencies, pct)) * 1e3}
    return None


def measure(workload, args, api_plain):
    """Closed-loop rounds over one input set for --seconds, and at least
    MIN_ROUNDS untraced; with --trace 1 rounds alternate untraced and traced,
    and the traced ones feed the per-layer metrics."""
    import resource

    import numpy as np
    from spans import Tracer
    from workloads import CheckFailed, Tally

    tracer = Tracer() if args.trace else None
    api_traced = library_api(tracer) if tracer else None
    run_tally = Tally()
    prelude = workload.trace_prelude(run_tally) if tracer and hasattr(workload, "trace_prelude") else {}
    items = workload.draw(np.random.default_rng(args.seed), tracer is not None)
    gauge = Gauge() if workload.gauged else None
    repeats = [[] for _ in items]  # per operation, its untraced repeats' times
    last = [0.0] * len(items)  # per operation, its latest untraced time
    traced_tallies, latencies, errors, flagged = [], [], {}, set()
    walls = {False: [], True: []}
    attempted = 0
    start = time.perf_counter()

    def enough():
        return (time.perf_counter() - start >= args.seconds and len(walls[False]) >= MIN_ROUNDS
                and (tracer is None or walls[True]))

    round_index = 0
    while not enough():
        traced = tracer is not None and round_index % 2 == 1
        api = api_traced if traced else api_plain
        tally = Tally()
        mark = len(tracer.spans) if traced else 0
        clear_library_caches()
        complete = True
        round_start = time.perf_counter()
        gauged = gauge.spent if gauge else 0.0
        with tracer.span("bench.round") if traced else nullcontext():
            for position, item in enumerate(items):
                if enough():
                    complete = False
                    break
                if traced:
                    tracer.run_id = attempted
                if gauge and not traced:
                    before = gauge.runs(last[position])
                warned = tally.counts["bench.runtime_warnings"]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    op_start = time.perf_counter()
                    try:
                        with tracer.span("bench.op") if traced else nullcontext():
                            lost = workload.op(api, item, tally)
                    except CheckFailed as exc:
                        lost, errors[attempted] = True, str(exc)
                    except Exception as exc:  # a raise is a failed operation, not a crash
                        lost, errors[attempted] = True, f"{type(exc).__name__}: {exc}"
                    elapsed = time.perf_counter() - op_start
                if not traced:
                    latencies.append(elapsed)
                    last[position] = elapsed
                    if gauge:
                        after = gauge.runs(elapsed)
                        reference = (before[0] + after[0]) / (before[1] + after[1])
                        elapsed *= REFERENCE_S / reference
                    repeats[position].append(elapsed)
                tally.add("bench.runtime_warnings",
                          sum(issubclass(w.category, RuntimeWarning) for w in caught))
                if lost or tally.counts["bench.runtime_warnings"] > warned:
                    flagged.add(attempted)
                attempted += 1
        wall = time.perf_counter() - round_start - ((gauge.spent if gauge else 0.0) - gauged)
        run_tally.merge(tally)
        if complete:
            walls[traced].append(wall)
            if traced:
                traced_tallies.append(tally)
        elif traced:
            del tracer.spans[mark:]
        round_index += 1

    who = resource.RUSAGE_CHILDREN if getattr(workload, "rss_of_children", False) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if hasattr(workload, "finish"):
        workload.finish(run_tally)

    per_op = [statistics.median(times) for times in repeats]
    result = {
        "attempted": attempted,
        "failed": len(errors),
        "failed_share": len(flagged) / attempted,
        "errors": {str(k): v for k, v in sorted(errors.items())[:20]},
        "rounds": {"untraced": len(walls[False]), "traced": len(walls[True]),
                   "started": round_index},
        "wall_s": math.fsum(per_op),
        "round_walls_s": walls[False],
        "op_p50_ms": smooth_median(per_op) * 1e3,
        "op_times_ms": [[round(x * 1e3, 4) for x in times] for times in repeats],
        "reference": {"runs": gauge.count, "mean_s": gauge.total / gauge.count} if gauge else None,
        "op_samples": len(latencies),
        "op_latencies_ms": [round(x * 1e3, 4) for x in latencies],
        "op_tail": tail(latencies),
        "peak_rss_mb": peak_rss_mb,
        "counts": dict(run_tally.counts),
        "maxima": dict(run_tally.maxima),
        "environment": environment(),
        **prelude,
    }
    if tracer is not None:
        result["trace"] = trace_summary(tracer, traced_tallies, run_tally, walls,
                                        result["failed_share"])
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.as_json()) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def trace_summary(tracer, traced_tallies, run_tally, walls, failed_share):
    """Span self times, call counts and tally counts per traced round, error
    maxima over the whole run, and the values computed here by name.  A
    span's self time excludes its child spans."""
    from workloads import Tally

    rounds = len(traced_tallies)
    busy, calls = tracer.self_times()
    traced = Tally()
    for tally in traced_tallies:
        traced.merge(tally)
    counts = traced.counts
    reports = tracer.kept["euclidean.commutator_check"]
    last = reports[-1] if reports else {}
    solves = counts.get("delaunay.solves", 0)
    return {
        "busy": {name: v / rounds for name, v in busy.items()},
        "calls": {name: v / rounds for name, v in calls.items()},
        "counts": {name: v / rounds for name, v in counts.items()},
        "maxima": dict(run_tally.maxima),
        "values": {
            "euclidean.commutator_check.xi_max": float(last.get("xi_max", 0.0)),
            "euclidean.commutator_check.targets": float(last.get("targets", 0)),
            "delaunay.nonconstant_ratio":
                counts.get("delaunay.nonconstant", 0) / solves if solves else 0.0,
            "bench.trace_overhead_s":
                statistics.median(walls[True]) - statistics.median(walls[False]),
            "bench.failed_share": failed_share,
        },
    }


def child(args):
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[args.workload](smoke=args.smoke, seed=args.seed, root=str(ROOT))
    api = library_api(None)
    workload.setup(api)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.child == "run":
        result.update(measure(workload, args, api))
    print(json.dumps(result, default=float))
    return 0


# ----------------------------------------------------------------- smoke check


def smoke():
    """Every workload in both modes at tiny sizes; each must be correct."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED, seconds=1,
                                      trace=trace, smoke=True)
            start = time.monotonic()
            good = run(args)["correct"]
            ok &= good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({time.monotonic() - start:.1f} s)")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="with --workload, tiny sizes; alone, check every workload")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if not (SRC / "conflap" / "__init__.py").is_file():
        print(f"error: no conflap sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            if args.smoke:
                return smoke()
            parser.error("--workload is required")
        print(json.dumps(run(args)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
