"""Which entry point of each layer the traced run wraps, and the
per-layer metrics derived from the spans.

Each workload declares the wrapped names it must see called
(:data:`EXPECTED_CALLS`); a traced run in which one of them records
zero calls fails, so a rename in ``src/`` cannot silently drop a layer
from the attribution.
"""

from __future__ import annotations

import importlib

from perfbench.stats import percentile

#: per-layer metrics, in report order: (name, unit)
PER_LAYER = [
    ("platform.generate.calls", "count"),
    ("platform.generate.self_s", "s"),
    ("lp.build.calls", "count"),
    ("lp.build.self_s", "s"),
    ("lp.build.cache_hit_ratio", "ratio"),
    ("lp.build.dense_builds", "count"),
    ("lp.highs.calls", "count"),
    ("lp.highs.self_s", "s"),
    ("lp.highs.calls_per_task", "count"),
    ("lp.session.solves", "count"),
    ("lp.session.self_s", "s"),
    ("lp.session.warm_ratio", "ratio"),
    ("lp.session.fallbacks", "count"),
    ("lp.session.iterations", "count"),
    ("lp.session.dual_steps", "count"),
    ("lp.revised.calls", "count"),
    ("lp.revised.self_s", "s"),
    ("lp.lu.factorize.calls", "count"),
    ("lp.lu.factorize.self_s", "s"),
    ("lp.lu.ftran.calls", "count"),
    ("lp.lu.ftran.self_s", "s"),
    ("lp.lu.btran.calls", "count"),
    ("lp.lu.btran.self_s", "s"),
    ("lp.lu.update.calls", "count"),
    ("lp.lu.update.self_s", "s"),
    ("heuristics.greedy.calls", "count"),
    ("heuristics.greedy.self_s", "s"),
    ("heuristics.round_down.calls", "count"),
    ("heuristics.round_down.self_s", "s"),
    ("heuristics.lprg.self_s", "s"),
    ("heuristics.lprr.self_s", "s"),
    ("core.check.calls", "count"),
    ("core.check.self_s", "s"),
    ("parallel.fold.self_s", "s"),
    ("parallel.engine.self_s", "s"),
    ("dynamic.step.calls", "count"),
    ("dynamic.step.self_s", "s"),
    ("dynamic.events.rhs", "count"),
    ("dynamic.events.bound", "count"),
    ("dynamic.events.structural", "count"),
    ("schedule.build.calls", "count"),
    ("schedule.build.self_s", "s"),
    ("simulation.run.calls", "count"),
    ("simulation.run.self_s", "s"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.pool.hit_ratio", "ratio"),
    ("service.pool.solver_for_ms_p50", "ms"),
    ("service.coalescer.batches", "count"),
    ("service.coalescer.mean_batch", "count"),
    ("service.solve_ms_p50", "ms"),
    ("service.solve_ms_p99", "ms"),
    ("service.serialize_ms_p50", "ms"),
    ("service.generator_late_ms_p99", "ms"),
    ("trace.other_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

#: wrapped span names each workload must see called at least once
EXPECTED_CALLS = {
    "sweep": (
        "platform.generate", "lp.build", "lp.highs", "heuristics.greedy",
        "heuristics.round_down", "heuristic.lprg", "parallel.fold",
        "parallel.engine", "parallel.task",
    ),
    "lprr": (
        "lp.build", "lp.session", "lp.revised", "lp.lu.factorize",
        "lp.lu.ftran", "lp.lu.btran", "lp.lu.update", "heuristic.lprr",
        "core.check", "api.solve",
    ),
    "online": (
        "lp.session", "lp.revised", "lp.lu.factorize", "lp.lu.ftran",
        "lp.lu.btran", "lp.lu.update", "heuristics.round_down",
        "core.check", "dynamic.step", "schedule.build", "simulation.run",
        "api.online",
    ),
    "service": (
        "lp.build", "lp.highs", "heuristics.greedy", "heuristics.round_down",
        "core.check", "api.solve", "service.submit", "service.pool.solver_for",
        "service.serialize",
    ),
}


def install(tracer, session_stats: list) -> None:
    """Wrap every layer's entry points; collect each new LPSession's
    :class:`~repro.lp.session.SessionStats` into ``session_stats``."""
    # Load every module that may hold a by-name reference first.
    for module in (
        "repro", "repro.api", "repro.experiments.runner", "repro.parallel",
        "repro.parallel.batch", "repro.dynamic.online",
        "repro.schedule.periodic", "repro.simulation.engine",
        "repro.service", "repro.heuristics.lprg_iterated",
    ):
        importlib.import_module(module)
    from repro.api.report import SolveReport
    from repro.api.solver import Solver
    from repro.core.problem import SteadyStateProblem
    from repro.dynamic.online import OnlineScheduler
    from repro.heuristics.base import Heuristic
    from repro.lp.basis_lu import LUBasis
    from repro.lp.session import LPSession
    from repro.parallel.engine import CampaignEngine
    from repro.parallel.stream import StreamFold
    from repro.service.app import SolverService
    from repro.service.asgi import Router
    from repro.service.pool import SolverPool
    from repro.simulation.engine import FlowSimulator

    for module, attr, name in (
        ("repro.platform.generator", "generate_platform", "platform.generate"),
        ("repro.lp.builder", "build_lp", "lp.build"),
        ("repro.lp.scipy_backend", "solve_lp_scipy", "lp.highs"),
        ("repro.lp.revised", "revised_solve", "lp.revised"),
        ("repro.heuristics.greedy", "greedy_allocate", "heuristics.greedy"),
        ("repro.heuristics.lpr", "round_down", "heuristics.round_down"),
        ("repro.parallel.sweep", "run_sweep_task", "parallel.task"),
        ("repro.schedule.periodic", "build_periodic_schedule", "schedule.build"),
    ):
        tracer.patch_function(module, attr, name)

    for cls, attr, name in (
        (LPSession, "solve", "lp.session"),
        (LUBasis, "__init__", "lp.lu.factorize"),
        (LUBasis, "refactorize", "lp.lu.factorize"),
        (LUBasis, "ftran", "lp.lu.ftran"),
        (LUBasis, "btran", "lp.lu.btran"),
        (LUBasis, "replace_column", "lp.lu.update"),
        (Heuristic, "run", lambda h: f"heuristic.{h.name}"),
        (SteadyStateProblem, "check", "core.check"),
        (StreamFold, "add", "parallel.fold"),
        (StreamFold, "finalize", "parallel.fold"),
        (CampaignEngine, "run", "parallel.engine"),
        (OnlineScheduler, "step", "dynamic.step"),
        (FlowSimulator, "run", "simulation.run"),
        (SolverService, "submit_solve", "service.submit"),
        (SolverPool, "solver_for", "service.pool.solver_for"),
        (SolveReport, "to_dict", "service.serialize"),
    ):
        tracer.patch_method(cls, attr, name)

    for attr, name in (
        ("solve", "api.solve"),
        ("solve_many", "api.solve_many"),
        ("sweep", "api.sweep"),
        ("run_online", "api.online"),
    ):
        tracer.patch_method(Solver, attr, name, transparent=True)

    tracer.hook_method(
        LPSession, "__init__", lambda session: session_stats.append(session.stats)
    )

    # The route handler runs on an executor thread: tag that thread with
    # the request id the generator put in the ``x-request-id`` header, so
    # every span the request causes there carries it.
    original_match = Router.match

    def match(router, method, path):
        handler, params = original_match(router, method, path)

        def tagged(request, **kwargs):
            request_id = request.headers.get("x-request-id")
            tracer.request_id = None if request_id is None else int(request_id)
            try:
                return handler(request, **kwargs)
            finally:
                tracer.request_id = None

        return tagged, params

    tracer.replace(Router, "match", match)


def missing_layers(tracer, workload: str) -> list:
    """Expected span names that recorded zero calls."""
    return [n for n in EXPECTED_CALLS[workload] if tracer.calls(n) == 0]


def layer_metrics(tracer, session_stats, extra: dict) -> dict:
    """Every :data:`PER_LAYER` value from the spans and ``extra``.

    ``extra`` supplies what the workload observed itself: ``n_tasks``,
    ``wall_s``, ``untraced_wall_s``, the online event classes, the
    build-cache counters and the service's queue/pool/coalescer figures.
    """
    ms = 1e3
    t = tracer
    solves = sum(s.n_solves for s in session_stats)
    warm = sum(s.n_warm for s in session_stats)
    cache = extra.get("build_cache", {})
    builds = cache.get("cold_builds", 0) + cache.get("build_hits", 0)
    values = {
        "platform.generate.calls": t.calls("platform.generate"),
        "platform.generate.self_s": t.self_s("platform.generate"),
        "lp.build.calls": t.calls("lp.build"),
        "lp.build.self_s": t.self_s("lp.build"),
        "lp.build.cache_hit_ratio": (
            cache.get("build_hits", 0) / builds if builds else 0.0
        ),
        "lp.build.dense_builds": cache.get("dense_builds", 0),
        "lp.highs.calls": t.calls("lp.highs"),
        "lp.highs.self_s": t.self_s("lp.highs"),
        "lp.highs.calls_per_task": t.calls("lp.highs") / max(1, extra["n_tasks"]),
        "lp.session.solves": solves,
        "lp.session.self_s": t.self_s("lp.session"),
        "lp.session.warm_ratio": warm / solves if solves else 0.0,
        "lp.session.fallbacks": sum(s.n_fallback for s in session_stats),
        "lp.session.iterations": sum(s.iterations for s in session_stats),
        "lp.session.dual_steps": sum(s.dual_steps for s in session_stats),
        "lp.revised.calls": t.calls("lp.revised"),
        "lp.revised.self_s": t.self_s("lp.revised"),
    }
    for op in ("factorize", "ftran", "btran", "update"):
        values[f"lp.lu.{op}.calls"] = t.calls(f"lp.lu.{op}")
        values[f"lp.lu.{op}.self_s"] = t.self_s(f"lp.lu.{op}")
    events = extra.get("events", {})
    service = extra.get("service", {})
    values.update(
        {
            "heuristics.greedy.calls": t.calls("heuristics.greedy"),
            "heuristics.greedy.self_s": t.self_s("heuristics.greedy"),
            "heuristics.round_down.calls": t.calls("heuristics.round_down"),
            "heuristics.round_down.self_s": t.self_s("heuristics.round_down"),
            "heuristics.lprg.self_s": t.self_s("heuristic.lprg"),
            "heuristics.lprr.self_s": t.self_s("heuristic.lprr"),
            "core.check.calls": t.calls("core.check"),
            "core.check.self_s": t.self_s("core.check"),
            "parallel.fold.self_s": t.self_s("parallel.fold"),
            "parallel.engine.self_s": t.self_s("parallel.engine"),
            "dynamic.step.calls": t.calls("dynamic.step"),
            "dynamic.step.self_s": t.self_s("dynamic.step"),
            "dynamic.events.rhs": events.get("rhs", 0),
            "dynamic.events.bound": events.get("bounds", 0),
            "dynamic.events.structural": events.get("structural", 0),
            "schedule.build.calls": t.calls("schedule.build"),
            "schedule.build.self_s": t.self_s("schedule.build"),
            "simulation.run.calls": t.calls("simulation.run"),
            "simulation.run.self_s": t.self_s("simulation.run"),
            "service.queue_wait_ms_p50": ms * percentile(service.get("queue_wait", []), 50),
            "service.queue_wait_ms_p99": ms * percentile(service.get("queue_wait", []), 99),
            "service.pool.hit_ratio": service.get("pool_hit_ratio", 0.0),
            "service.pool.solver_for_ms_p50": ms * percentile(
                t.durations("service.pool.solver_for"), 50
            ),
            "service.coalescer.batches": service.get("batches", 0),
            "service.coalescer.mean_batch": service.get("mean_batch", 0.0),
            "service.solve_ms_p50": ms * percentile(service.get("solve", []), 50),
            "service.solve_ms_p99": ms * percentile(service.get("solve", []), 99),
            "service.serialize_ms_p50": ms * percentile(
                service.get("serialize", []), 50
            ),
            "service.generator_late_ms_p99": ms * percentile(
                service.get("late", []), 99
            ),
            "trace.other_s": extra["wall_s"] - t.covered_s(),
            "trace.overhead_ratio": extra["wall_s"] / extra["untraced_wall_s"] - 1.0,
        }
    )
    return values
