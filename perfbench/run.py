#!/usr/bin/env python3
"""vectorlight benchmark: panel, cli_maps and points workloads.

Run from the repository root:

    python3 perfbench/run.py --workload panel --seed 1 --seconds 30 --trace 0

Each run builds its inputs from --seed, runs whole rounds of its workload in
a closed loop (one operation at a time, in this one process) until the next
round would end past --seconds, checks every output, and prints every metric
with its unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
runs the same rounds untraced for half the time and traced for the other
half (the outputs must match), then reports the per-layer metrics; layers the
workload never calls are measured on a small probe of all three workloads.
--smoke shrinks the grids to 16 x 16 for the benchmark's own tests.

Numbers compare only between runs on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import namedtuple
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# the workload process may use at most this many BLAS/OpenMP threads
THREADS = "2"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7

# Counts measured on the seed program.  Tracing must not raise them: a
# wrapper that hid evaluate's `cache` parameter would turn the panel's 15
# field evaluations per 70 map requests per chunk into 70.
SEED_COUNTS = {
    "panel": ("scan.field_evals_per_request", 15 / 70),
    "cli_maps": ("scan.field_evals_per_request", 13 / 45),
    "points": ("special.clebsch_gordan.calls_per_point_query", 11.0),
}

WORKLOAD_NAMES = tuple(SEED_COUNTS)

# the workloads module, imported by main() once src/ is on sys.path
workloads = None


def _load_package():
    """Import vectorlight from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "vectorlight", "__init__.py")):
        sys.exit(f"perfbench: no vectorlight sources at {SRC}")
    for var in THREAD_VARS:
        os.environ.setdefault(var, THREADS)
    sys.path.insert(0, SRC)
    import vectorlight
    if not os.path.abspath(vectorlight.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported vectorlight from {vectorlight.__file__}")


# ------------------------------------------------------------ closed loop

# timings: (key, work units, seconds) of every operation that ran
LoopResult = namedtuple("LoopResult", "timings attempted failed")


def _report_failure(what: str, exc: BaseException) -> None:
    print(f"perfbench: FAILED {what}: {exc!r}", file=sys.stderr)
    if not isinstance(exc, SystemExit):
        traceback.print_exception(exc, file=sys.stderr, limit=-3)


def _check(op, result, digests: dict, tracer) -> None:
    digest = op.digest(result)
    if op.key in digests:
        if digests[op.key] != digest:
            raise workloads.CheckFailed(
                f"{op.key}: output differs from an earlier run of it")
    else:
        op.verify(result)
        digests[op.key] = digest
    if tracer is not None and op.bytes_written is not None:
        tracer.counts["cli.bytes_written"] += op.bytes_written(result)


def run_loop(workload, seconds: float, digests: dict, tracer=None) -> LoopResult:
    """Run whole rounds until the next round would end past `seconds`.

    Operations are timed one by one; output checks run between them,
    untraced and outside the timed span.
    """
    timings, attempted, failed = [], 0, 0
    start = time.perf_counter()
    for ops in workload.rounds():
        round_start = time.perf_counter()
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except (Exception, SystemExit) as exc:
                failed += 1
                _report_failure(op.key, exc)
                continue
            timings.append((op.key, op.units, time.perf_counter() - t0))
            try:
                if tracer is None:
                    _check(op, result, digests, None)
                else:
                    with tracer.paused():
                        _check(op, result, digests, tracer)
            except Exception as exc:
                failed += 1
                _report_failure(op.key, exc)
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break
    return LoopResult(timings, attempted, failed)


def best_times(res: LoopResult) -> List[float]:
    """The time of every operation that ran, each read as the fastest run of
    its key (the same inputs, checked to give the same output) in this run.

    A shared host slows single runs at random; an operation's fastest repeat
    is the steadiest estimate of what the program itself costs.
    """
    best = {}
    for key, _, dt in res.timings:
        best[key] = min(dt, best.get(key, dt))
    return [best[key] for key, _, _ in res.timings]


def _work_per_s(res: LoopResult) -> float:
    """Work units per second of operation time, over the whole run."""
    busy = sum(best_times(res))
    return sum(units for _, units, _ in res.timings) / busy if busy else 0.0


# ---------------------------------------------------------------- metrics


def measure_setup(args) -> float:
    """Median wall time of a fresh process that imports and builds inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait returns as the child exits; wait(timeout=...)
        # polls at up to 50 ms intervals and would round the time up to that
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times)


def end_to_end_metrics(res: LoopResult, setup_s: float, peak_mb: float) -> dict:
    import numpy as np
    lat_ms = np.asarray(best_times(res)) * 1e3
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (_work_per_s(res), "1/s"),
        "query_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "query_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


_WRITERS = ("field-map", "transition-map", "sideband-map", "gnuplot-matrix")
_SUBCOMMANDS = ("field-map", "transition-map", "sideband-map", "point",
                "compare", "gnuplot-matrix")


def _span_metrics() -> dict:
    """Per-layer metrics read from a Tracer.

    name -> (unit, spans that must have run for the tracer to measure it,
    value from the tracer).
    """
    m = {}
    for k in (0, 1, 2):
        span = f"beams.field_sample_upto.o{k}"
        m[f"{span}.calls"] = ("count", [span], lambda t, s=span: t.calls[s])
        m[f"{span}.busy_s"] = ("s", [span], lambda t, s=span: t.busy[s])
    m["scan.evaluate.calls"] = (
        "count", ["scan.evaluate"], lambda t: t.calls["scan.evaluate"])
    m["scan.field_evals_per_request"] = (
        "ratio", ["scan.run_scans"],
        lambda t: _ratio(
            t.inner_calls("scan.run_scans", "beams.field_sample_upto"),
            t.inner_calls("scan.run_scans", "scan.evaluate")))
    m["scan.run_scans.busy_s"] = (
        "s", ["scan.run_scans"], lambda t: t.busy["scan.run_scans"])
    m["scan.self_s"] = (
        "s", ["scan.run_scans"],
        lambda t: t.self_time["scan.run_scans"] + t.self_time["scan.evaluate"])
    for name in ("relative_strength", "strength_gradient"):
        span = f"coupling.{name}"
        m[f"{span}.calls"] = ("count", [span], lambda t, s=span: t.calls[s])
        m[f"{span}.busy_s"] = ("s", [span], lambda t, s=span: t.busy[s])
    m["coupling.averaged_strength.busy_s"] = (
        "s", ["coupling.averaged_strength"],
        lambda t: t.busy["coupling.averaged_strength"]
        + t.busy["coupling.averaged_strength_rms"])
    for span in ("special.clebsch_gordan", "motion.sideband_strength_at"):
        m[f"{span}.calls"] = ("count", [span], lambda t, s=span: t.calls[s])
        m[f"{span}.busy_s"] = ("s", [span], lambda t, s=span: t.busy[s])
    m["special.clebsch_gordan.calls_per_point_query"] = (
        "count", ["cli.point"],
        lambda t: _ratio(t.inner_calls("cli.point", "special.clebsch_gordan"),
                         t.calls["cli.point"]))
    for sub in _SUBCOMMANDS:
        span = f"cli.{sub}"
        m[f"{span}.busy_s"] = ("s", [span], lambda t, s=span: t.busy[s])
    cli_spans = [f"cli.{sub}" for sub in _SUBCOMMANDS]
    writer_spans = [f"cli.{sub}" for sub in _WRITERS]
    m["cli.self_s"] = (
        "s", cli_spans, lambda t: sum(t.self_time[s] for s in cli_spans))
    m["cli.bytes_written"] = (
        "B", writer_spans, lambda t: t.counts["cli.bytes_written"])
    m["cli.write_mb_per_s"] = (
        "MB/s", writer_spans,
        lambda t: _ratio(t.counts["cli.bytes_written"] / 1e6,
                         sum(t.self_time[s] for s in writer_spans)))
    m["cli.load_map_csv.busy_s"] = (
        "s", ["cli.load_map_csv"], lambda t: t.busy["cli.load_map_csv"])
    return m


def layer_metrics(tracer, probes) -> dict:
    """Span metrics from the workload's tracer; a layer the workload never
    called is read from the first probe tracer that called it."""
    out = {}
    from_probe = 0
    for name, (unit, spans, value) in _span_metrics().items():
        sources = [t for t in [tracer] + probes
                   if any(t.calls[s] for s in spans)]
        source = sources[0] if sources else tracer
        from_probe += source is not tracer
        out[name] = (float(value(source)), unit)
    out["trace.probe_metrics"] = (float(from_probe), "count")
    return out


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def direct_metrics(smoke: bool) -> dict:
    """Layer throughput from direct calls on the panel's first chunk."""
    import numpy as np
    import vectorlight.beams as beams
    from vectorlight.jets import Jet

    n = 256 if smoke else 8192
    repeats = 1 if smoke else 3
    pts = workloads.panel_configs(workloads.SMOKE_RES if smoke else
                                  workloads.FULL_RES)[0].grid_points()[:n]
    all_beams = workloads.five_beams()
    families = {"lg": all_beams[0], "hg": all_beams[2], "radial": all_beams[3]}
    out = {}
    for order in (0, 1, 2):
        for fam, beam in families.items():
            dt = _median_time(
                lambda: beams.field_sample_upto(beam, pts, order), repeats)
            out[f"beams.field_sample_upto.o{order}.{fam}.mpts_per_s"] = (
                n / dt / 1e6, "Mpts/s")

    x = Jet.coordinate(pts, 0, 3)
    y = Jet.coordinate(pts, 1, 3)
    u = (x * x + y * y) * 1e12
    v = (x * y + u) * 0.5
    e = np.exp(-u.val)
    reps = 3 if smoke else 20
    out["jets.Jet.mul.o3.mpts_per_s"] = (
        n / _median_time(lambda: u * v, reps) / 1e6, "Mpts/s")
    out["jets.Jet.compose.o3.mpts_per_s"] = (
        n / _median_time(lambda: u.compose(e, -e, e, -e), reps) / 1e6,
        "Mpts/s")
    for order in (1, 2, 3):
        jet = Jet.coordinate(pts, 0, order)
        arrays = [getattr(jet, a, None) for a in
                  getattr(type(jet), "__slots__", ())] + list(
                      getattr(jet, "__dict__", {}).values())
        nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        out[f"jets.block_bytes_per_point.o{order}"] = (nbytes / n, "B_computed")
    return out


# ------------------------------------------------------------------ runs


def _host_facts(args) -> dict:
    import numpy as np
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30,
                env=dict(os.environ,
                         GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "git_sha": sha,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def untraced_run(args, workdir: str):
    setup_s = measure_setup(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    res = run_loop(workload, args.seconds, {})
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res.attempted, res.failed, end_to_end_metrics(res, setup_s, peak_mb)


def traced_run(args, workdir: str):
    from tracer import Tracer

    def fresh(name=args.workload, smoke=args.smoke, wdir=workdir):
        return workloads.WORKLOADS[name](args.seed, smoke, wdir)

    digests = {}
    base = run_loop(fresh(), args.seconds / 2, digests)
    tracer = Tracer()
    with tracer:
        traced = run_loop(fresh(), args.seconds / 2, digests, tracer)
    # one smoke round of every workload, for layers this one never calls
    probes = []
    probe_attempted = probe_failed = 0
    for name in WORKLOAD_NAMES:
        probes.append(Tracer())
        with probes[-1]:
            res = run_loop(fresh(name, True, os.path.join(workdir, "probe")),
                           0.0, {}, probes[-1])
        probe_attempted += res.attempted
        probe_failed += res.failed

    metrics = layer_metrics(tracer, probes)
    metrics["trace.overhead_ratio"] = (
        _ratio(_work_per_s(traced), _work_per_s(base)), "ratio")
    metrics.update(direct_metrics(args.smoke))

    failed = base.failed + traced.failed + probe_failed
    count_name, seed_value = SEED_COUNTS[args.workload]
    got = metrics[count_name][0]
    if got > seed_value * (1 + 1e-12):
        failed += 1
        print(f"perfbench: FAILED traced run: {count_name} = {got!r} exceeds "
              f"the seed program's {seed_value!r}", file=sys.stderr)
    attempted = base.attempted + traced.attempted + probe_attempted
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="16 x 16 grids and small direct calls")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_package()
    global workloads
    import workloads

    if args.setup_only:
        w = workloads.WORKLOADS[args.workload](args.seed, args.smoke, WORK_ROOT)
        next(w.rounds())
        return 0

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = traced_run if args.trace else untraced_run
        attempted, failed, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    print("perfbench facts " + json.dumps(_host_facts(args), sort_keys=True))
    print(f"perfbench failed_ratio = {_ratio(failed, attempted)!r} "
          f"(ratio; {failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"perfbench {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
