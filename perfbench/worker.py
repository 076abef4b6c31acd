"""One workload in one fresh process: set up, time, check, report.

Started by ``perfbench/run.py`` with the BLAS thread count pinned in
the environment; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()

from perfbench import layers  # noqa: E402
from perfbench.hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from perfbench.provenance import provenance  # noqa: E402
from perfbench.stats import mean, percentile  # noqa: E402
from perfbench.tracing import SpanTracer  # noqa: E402
from perfbench.workloads import WORKLOADS, normalized  # noqa: E402  (imports repro)

_IMPORT_S = time.perf_counter() - _T_START

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

#: set-up is repeated this many times; ``setup_s`` takes the median
SETUP_REPEATS = 3

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import perfbench.workloads; "
    "print(time.perf_counter() - t)"
)


def _timed(host: HostSpeed, action) -> float:
    """``action()``'s time (or the time it returns), normalized by the
    reference kernel timed just before and after it."""
    before = host.sample()
    start = time.perf_counter()
    elapsed = action()
    elapsed = elapsed if elapsed is not None else time.perf_counter() - start
    return elapsed * REFERENCE_S / ((before + host.sample()) / 2)


def _import_s(host: HostSpeed) -> float:
    """Median normalized import time: this process's own import plus
    that of ``SETUP_REPEATS - 1`` fresh interpreters (imports happen
    once per process, so repeating them needs new processes)."""

    def fresh_import() -> float:
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        return float(probe.stdout.strip().splitlines()[-1])

    times = [_timed(host, lambda: _IMPORT_S)]
    times += [_timed(host, fresh_import) for _ in range(SETUP_REPEATS - 1)]
    return statistics.median(times)


END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("value_ratio_mean", "ratio"),
    ("reopt_ms_p50", "ms"),
    ("reopt_ms_p90", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("burst_latency_ms_p99", "ms"),
    ("burst_rps", "1/s"),
]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(phase, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "wall_s": phase.wall_s,
        "value_ratio_mean": mean(phase.ratios),
        "reopt_ms_p50": 1e3 * percentile(phase.solve_times, 50),
        "reopt_ms_p90": 1e3 * percentile(phase.solve_times, 90),
        "latency_ms_p50": 1e3 * percentile(phase.latencies, 50),
        "latency_ms_p90": 1e3 * percentile(phase.latencies, 90),
        "burst_latency_ms_p99": 1e3 * percentile(phase.burst_latencies, 99),
        "burst_rps": phase.burst_rps,
    }


def _service_layer_figures(tracer, phase) -> None:
    """Per-request service figures read from request-tagged spans."""
    figures = phase.layer_extra["service"]
    due = figures["due"]
    figures["queue_wait"] = [
        t0 - due[int(request)]
        for (_, _, name, t0, _, _, request) in tracer.spans
        if name == "service.submit" and request is not None
    ]
    figures["solve"] = tracer.durations("api.solve")
    figures["serialize"] = tracer.durations("service.serialize")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    host = HostSpeed()
    import_s = _import_s(host)
    setup_times = [
        _timed(host, lambda: workload.setup(args.seed, args.seconds))
        for _ in range(SETUP_REPEATS)
    ]
    setup_s = import_s + statistics.median(setup_times)

    tracer = None
    if not args.trace:
        measured = workload.run()
        rss_mb = _peak_rss_mb()
        phase = normalized(measured) if measured.host_s else measured
        problems = workload.check(phase)
        metrics = _end_to_end(phase, setup_s, rss_mb)
        units = dict(END_TO_END)
    else:
        untraced = workload.run()  # the overhead ratio's base
        workload.setup(args.seed, args.seconds)  # fresh inputs, cold state
        tracer = SpanTracer()
        session_stats: list = []
        layers.install(tracer, session_stats)
        try:
            phase = workload.run()
        finally:
            tracer.restore()
        problems = workload.check(phase)
        missing = layers.missing_layers(tracer, args.workload)
        problems += [f"wrapped entry point {name} recorded no calls" for name in missing]
        extra = dict(phase.layer_extra, wall_s=phase.wall_s, untraced_wall_s=untraced.wall_s)
        if "service" in extra:
            _service_layer_figures(tracer, phase)
        metrics = layers.layer_metrics(tracer, session_stats, extra)
        units = dict(layers.PER_LAYER)

    # a problem not tied to one operation (a missing layer) fails the run
    failed = len(phase.failed_ops) or (1 if problems else 0)
    result = {
        "correct": not problems,
        "attempted": int(phase.n_ops),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(ROOT),
        "problems": problems[:50],
        "n_problems": len(problems),
        "online_n_fallback": getattr(workload, "n_fallback", None),
        "online_vertex_ties": getattr(workload, "vertex_ties", None),
        "wall_s": phase.wall_s,
        "setup_times_s": setup_times,
        # the raw timed phase and the kernel's median time during it
        "measured_wall_s": None if args.trace else measured.wall_s,
        "host_kernel_ms_p50": (
            1e3 * statistics.median(measured.host_s)
            if not args.trace and measured.host_s else None
        ),
        "import_s": import_s,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(dict(details, result=result), indent=2) + "\n"
    )
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}.spans.jsonl")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
