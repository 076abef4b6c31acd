"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs a
fixed amount of work in :meth:`run` (sized from ``--seconds`` by a
constant, never by a measured speed, so two commits do the same work),
and checks the outputs in :meth:`check`, outside the timed phase. A
batch workload times the reference kernel of :mod:`perfbench.hostspeed`
between its operations, and :func:`normalized` rescales its timings to
the reference speed.

Why each workload exists, and which layer it stresses, is in
``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro import DynamicOptions, Solver, SolverConfig
from repro.api import build_scenario
from repro.core.problem import SteadyStateProblem
from repro.dynamic.online import OnlineScheduler
from repro.experiments.config import (
    DEFAULT_SCENARIO,
    PAPER_GRID,
    Setting,
    payoffs_for,
    spec_for,
)
from repro.heuristics.base import get_heuristic
from repro.lp.builder import build_lp
from repro.lp.session import LPSession
from repro.parallel.sweep import build_sweep_tasks
from repro.platform.generator import generate_platform
from repro.service import create_app

from perfbench.hostspeed import REFERENCE_S, HostSpeed
from perfbench.tracing import SpanTracer

#: relative tolerance for two independent LP engines agreeing on a bound
LP_AGREE_RTOL = 1e-6
#: slack allowed above the LP bound
BOUND_TOL = 1e-7


@dataclass
class Phase:
    """What one timed run observed (times in seconds)."""

    wall_s: float
    n_ops: int
    latencies: list  # per-operation latency
    solve_times: list  # per-solve time as the program reports it
    #: completion time from when the burst was due, and burst throughput
    #: (for a batch workload, :func:`normalized` fills both in)
    burst_latencies: list = field(default_factory=list)
    burst_rps: float = 0.0
    outputs: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    layer_extra: dict = field(default_factory=dict)
    #: reference-kernel time around each latency's and each solve's
    #: operation (batch workloads only)
    host_s: list = field(default_factory=list)
    solve_host_s: list = field(default_factory=list)
    #: the timed phase in pieces, with their kernel times, when the
    #: latencies do not add up to it
    work_s: "list | None" = None
    work_host_s: "list | None" = None


def normalized(phase: Phase) -> Phase:
    """``phase`` with every operation's latency and every solve's time
    rescaled by ``REFERENCE_S`` over the reference kernel's time around
    its operation: seconds at the reference machine's speed.

    ``wall_s`` becomes the sum of the rescaled pieces of work (by
    default the latencies), and the burst figures treat those pieces as
    run back to back. Raw timings follow the host: over ten seeds a
    run's wall clock spread 14-31%, and the same work ran 1.4 times
    slower from one minute to the next.
    """
    def rescaled(times, hosts):
        return [t * REFERENCE_S / h for t, h in zip(times, hosts)]

    work = (
        rescaled(phase.latencies, phase.host_s) if phase.work_s is None
        else rescaled(phase.work_s, phase.work_host_s)
    )
    done = list(itertools.accumulate(work))
    return dataclasses.replace(
        phase,
        wall_s=done[-1],
        latencies=rescaled(phase.latencies, phase.host_s),
        solve_times=rescaled(phase.solve_times, phase.solve_host_s),
        burst_latencies=done,
        burst_rps=phase.n_ops / done[-1],
    )


#: seeds the fixed grid-point design (and online's platforms and traces)
DESIGN_SEED = 20050404


def grid_settings(n: int, k_values) -> "list[Setting]":
    """``n`` Table-1 grid points, K round-robin over ``k_values``.

    Like :func:`repro.experiments.config.sample_settings`, but every
    other parameter cycles through all of its Table-1 values, and the
    pairing comes from :data:`DESIGN_SEED`, not from the run's seed.
    Every run then solves the same grid points on freshly drawn random
    platforms; with only a few dozen tasks a run, letting the seed pick
    the grid points too made one run's mix of dense and sparse graphs
    swing the wall clock by a quarter.
    """
    rng = np.random.default_rng(DESIGN_SEED)
    columns = {
        key: rng.permutation(np.resize(np.asarray(PAPER_GRID[key]), n))
        for key in ("connectivity", "heterogeneity", "mean_g", "mean_bw", "mean_maxcon")
    }
    return [
        Setting(
            k=int(k_values[i % len(k_values)]),
            connectivity=float(columns["connectivity"][i]),
            heterogeneity=float(columns["heterogeneity"][i]),
            mean_g=float(columns["mean_g"][i]),
            mean_bw=float(columns["mean_bw"][i]),
            mean_maxcon=float(columns["mean_maxcon"][i]),
        )
        for i in range(n)
    ]


def grid_problems(settings, rng, platform_rng=None) -> list:
    """One random platform per setting (drawn from ``platform_rng``,
    default ``rng``), payoffs from ``rng``, objective max-min."""
    problems = []
    for setting in settings:
        platform = generate_platform(
            spec_for(setting, DEFAULT_SCENARIO),
            rng=rng if platform_rng is None else platform_rng,
        )
        payoffs = payoffs_for(setting, DEFAULT_SCENARIO, rng)
        problems.append(SteadyStateProblem(platform, payoffs, objective="maxmin"))
    return problems


def _seeds(rng, n: int) -> list:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


# ----------------------------------------------------------------------
class SweepWorkload:
    """Figure 5/6 slice: ``Solver.sweep`` over K round-robin."""

    name = "sweep"
    K_VALUES = (5, 15, 25)
    #: seconds one K ladder takes at the seed commit (sizes the work)
    LADDER_S = 0.28
    #: tasks whose LP bound is re-solved on LPSession in the check
    CHECK_MAX_K = 15

    def setup(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 1])
        n_ladders = max(1, round(seconds / self.LADDER_S))
        self.settings = grid_settings(n_ladders * len(self.K_VALUES), self.K_VALUES)
        self.root_seed = int(rng.integers(2**31 - 1))
        # warm-up: first-call imports (HiGHS, rounding) happen here
        Solver(SolverConfig(stream=True, jobs=1)).sweep(
            grid_settings(1, (5,)), n_platforms=1, rng=0
        )

    #: rows a task yields: both objectives x (LP bound + three methods)
    ROWS_PER_TASK = 2 * 4

    def run(self) -> Phase:
        rows: list = []
        marks: list = []  # (start, end) of each task, host probe excluded
        host = HostSpeed()
        probes = [host.sample()]
        solver = Solver(SolverConfig(stream=True, jobs=1))

        def progress(done, total):
            end = time.perf_counter()
            probes.append(host.sample())
            marks.append((start[0], end))
            start[0] = time.perf_counter()

        t0 = time.perf_counter()
        start = [t0]
        solver.sweep(
            self.settings,
            n_platforms=1,
            rng=self.root_seed,
            progress=progress,
            on_rows=rows.extend,
        )
        wall = time.perf_counter() - t0 - sum(probes[1:])  # kernel time out
        host_s = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        return Phase(
            wall_s=wall,
            n_ops=len(self.settings),
            latencies=[end - begin for begin, end in marks],
            solve_times=[row.runtime for row in rows],
            host_s=host_s,
            solve_host_s=[host_s[i // self.ROWS_PER_TASK] for i in range(len(rows))],
            outputs=rows,
            layer_extra={
                "n_tasks": len(self.settings),
                "build_cache": solver.state.lp_cache.stats(),
            },
        )

    def check(self, phase: Phase) -> list:
        rows = phase.outputs
        per_task = self.ROWS_PER_TASK
        problems = []
        if len(rows) != len(self.settings) * per_task:
            problems.append(f"{len(rows)} rows for {len(self.settings)} tasks")
        for i, row in enumerate(rows):
            if row.method == "lp":
                continue
            ratio = row.ratio
            phase.ratios.append(ratio)
            if not 0.0 <= ratio <= 1.0 + BOUND_TOL:
                phase.failed_ops.add(i // per_task)
                problems.append(f"ratio {ratio} of {row.method} at K={row.setting.k}")
        # The HiGHS bound must agree with an independent LPSession solve.
        tasks = build_sweep_tasks(
            self.settings, DEFAULT_SCENARIO, ("greedy", "lpr", "lprg"),
            ("maxmin", "sum"), 1, self.root_seed,
        )
        for index, task in enumerate(tasks[: len(self.K_VALUES)]):
            if task.setting.k > self.CHECK_MAX_K:
                continue
            rng = np.random.default_rng(task.seed)
            platform = generate_platform(spec_for(task.setting, task.scenario), rng=rng)
            payoffs = payoffs_for(task.setting, task.scenario, rng)
            for row in rows[index * per_task:(index + 1) * per_task]:
                if row.method != "lp":
                    continue
                problem = SteadyStateProblem(platform, payoffs, objective=row.objective)
                value = LPSession(build_lp(problem)).solve().value
                if abs(value - row.lp_value) > LP_AGREE_RTOL * max(1.0, abs(value)):
                    phase.failed_ops.add(index)
                    problems.append(
                        f"HiGHS bound {row.lp_value} != LPSession {value} "
                        f"(K={task.setting.k}, {row.objective})"
                    )
        return problems


# ----------------------------------------------------------------------
class LPRRWorkload:
    """Figure 7 slice: LPRR solve chains on the default LP session."""

    name = "lprr"
    K = 10
    OBJECTIVES = ("maxmin", "sum")
    #: seconds one solve takes at the seed commit (sizes the work)
    SOLVE_S = 0.15

    def setup(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 2])
        n = max(2, round(seconds / self.SOLVE_S))
        problems = grid_problems(grid_settings(n, (self.K,)), rng)
        self.problems = [
            p.with_objective(self.OBJECTIVES[i % 2]) for i, p in enumerate(problems)
        ]
        self.seeds = _seeds(rng, n)
        Solver(SolverConfig(method="lprr")).solve(self.problems[0], rng=0)

    def run(self) -> Phase:
        reports, latencies, cache = [], [], {}
        host = HostSpeed()
        probes = [host.sample()]
        t0 = time.perf_counter()
        for problem, seed in zip(self.problems, self.seeds):
            start = time.perf_counter()
            solver = Solver(SolverConfig(method="lprr"))
            reports.append(solver.solve(problem, rng=seed))
            end = time.perf_counter()
            probes.append(host.sample())
            latencies.append(end - start)
            _add_counts(cache, solver.state.lp_cache.stats())
        wall = time.perf_counter() - t0 - sum(probes[1:])  # kernel time out
        host_s = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        return Phase(
            wall_s=wall,
            n_ops=len(reports),
            latencies=latencies,
            solve_times=[r.runtime for r in reports],
            host_s=host_s,
            solve_host_s=host_s,
            outputs=reports,
            layer_extra={"n_tasks": len(reports), "build_cache": cache},
        )

    def check(self, phase: Phase) -> list:
        """Every allocation is feasible and no value beats the HiGHS bound."""
        problems = []
        for i, (problem, report) in enumerate(zip(self.problems, phase.outputs)):
            bound = get_heuristic("lp").run(problem).value
            phase.ratios.append(report.value / bound)
            verdict = problem.check(report.allocation)
            if not verdict.ok:
                phase.failed_ops.add(i)
                problems.append(f"LPRR allocation {i} infeasible: {verdict.violations[:2]}")
            if report.value > bound * (1.0 + BOUND_TOL) + BOUND_TOL:
                phase.failed_ops.add(i)
                problems.append(f"LPRR value {report.value} above LP bound {bound}")
        return problems


# ----------------------------------------------------------------------
class OnlineWorkload:
    """Online re-scheduling: ``Solver.run_online`` over event traces."""

    name = "online"
    FAMILIES = ("drift-heavy", "failure-storm", "churn")
    K = 10
    #: seconds one cycle of the three families (26 events) takes at seed
    CYCLE_S = 1.25

    def setup(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 3])
        settings = grid_settings(max(4, round(seconds / self.CYCLE_S)), (self.K,))
        # Platforms and event traces come from the design seed and
        # ``--seed`` draws the payoffs: with the platforms drawn from
        # ``--seed`` the wall clock spread 33% over four seeds, and with
        # the traces too one seed's run cost 20% more than another's.
        design = np.random.default_rng(DESIGN_SEED)
        problems = grid_problems(settings, rng, design)
        self.runs = [
            (problem, family, trace_seed)
            for problem in problems
            for family, trace_seed in zip(self.FAMILIES, _seeds(design, len(self.FAMILIES)))
        ]
        warm = grid_problems(grid_settings(1, (5,)), rng)[0]
        self._solver(False).run_online(warm, "churn", rng=0)

    @staticmethod
    def _solver(check_oracle: bool) -> Solver:
        return Solver(SolverConfig(dynamic=DynamicOptions(check_oracle=check_oracle)))

    def run(self) -> Phase:
        reports, step_s, trace_s, events, cache = [], [], [], {}, {}
        host = HostSpeed()
        probes = [host.sample()]
        host_s = []
        # an event's latency is its ``OnlineScheduler.step`` call
        step = OnlineScheduler.step

        def timed_step(scheduler, event):
            start = time.perf_counter()
            record = step(scheduler, event)
            step_s.append(time.perf_counter() - start)
            return record

        timer = SpanTracer()
        timer.replace(OnlineScheduler, "step", timed_step)
        t0 = time.perf_counter()
        try:
            for problem, family, seed in self.runs:
                start = time.perf_counter()
                solver = self._solver(False)
                report = solver.run_online(problem, family, rng=seed)
                trace_s.append(time.perf_counter() - start)
                probes.append(host.sample())
                _add_counts(cache, solver.state.lp_cache.stats())
                reports.append(report)
                host_s.extend([(probes[-2] + probes[-1]) / 2] * len(report))
                for record in report.records:
                    events[record.classification] = events.get(record.classification, 0) + 1
        finally:
            timer.restore()
        wall = time.perf_counter() - t0 - sum(probes[1:])  # kernel time out
        n_events = sum(len(r) for r in reports)
        return Phase(
            wall_s=wall,
            n_ops=n_events,
            latencies=step_s,
            solve_times=[rec.reoptimize_seconds for r in reports for rec in r.records],
            host_s=host_s,
            solve_host_s=host_s,
            work_s=trace_s,
            work_host_s=[(a + b) / 2 for a, b in zip(probes, probes[1:])],
            outputs=reports,
            # one ratio of sums: per-event ratios swing with events whose
            # LP value is near zero
            ratios=[
                sum(rec.alloc_value for r in reports for rec in r.records)
                / sum(rec.value for r in reports for rec in r.records)
            ],
            layer_extra={"n_tasks": n_events, "events": events, "build_cache": cache},
        )

    def check(self, phase: Phase) -> list:
        """Replay every trace with the oracle on: each event must match
        the from-scratch re-solve bitwise, and the timed run must have
        reached the same LP optimum. At a near-tie the oracle pass may
        re-extract a different optimal vertex (see
        ``OnlineScheduler._step``), so the timed run is compared by value
        and vertex differences are only counted."""
        problems = []
        stats: list = []
        hook = SpanTracer()
        hook.hook_method(LPSession, "__init__", lambda session: stats.append(session.stats))
        self.vertex_ties = 0
        try:
            offset = 0
            for (problem, family, seed), report in zip(self.runs, phase.outputs):
                checked = self._solver(True).run_online(problem, family, rng=seed)
                for j, (timed, record) in enumerate(zip(report.records, checked.records)):
                    if record.oracle_match is not True:
                        phase.failed_ops.add(offset + j)
                        problems.append(f"{family} event {j}: oracle mismatch")
                    if abs(timed.value - record.value) > LP_AGREE_RTOL * max(1.0, abs(record.value)):
                        phase.failed_ops.add(offset + j)
                        problems.append(
                            f"{family} event {j}: timed LP value {timed.value} "
                            f"!= oracle-checked {record.value}"
                        )
                    self.vertex_ties += timed.solution_sha != record.solution_sha
                if len(checked) != len(report):
                    problems.append(f"{family}: replay has {len(checked)} events, not {len(report)}")
                offset += len(report)
        finally:
            hook.restore()
        self.n_fallback = sum(s.n_fallback for s in stats)
        if phase.n_ops < 100:
            problems.append(f"only {phase.n_ops} events (need >= 100)")
        return problems


# ----------------------------------------------------------------------
class ServiceWorkload:
    """Open-loop ``POST /solve`` traffic against the in-process app.

    Its work is a fixed schedule; ``seconds`` does not size it.
    """

    name = "service"
    SCENARIOS = (
        "das2", "grid5000", "intercontinental", "hotspot",
        "table1-small", "table1-medium",
    )
    #: scenarios small enough (K <= 9) for an LPRR request
    LPRR_SCENARIOS = ("das2", "grid5000", "intercontinental", "hotspot", "table1-small")
    METHODS = ("greedy", "lpr", "lprg")
    LPRR_SHARE = 0.02
    #: share of requests with a fresh platform seed (pool miss, cold build)
    COLD_SHARE = 0.1
    RATE = 60.0  # steady requests per second, below seed capacity
    BURST_FACTOR = 10
    STEADY_N = 1000  # so 10 requests lie beyond p99
    BURST_N = 200
    #: idle gap between the phases, so the burst starts on an empty queue
    GAP_S = 1.0

    def setup(self, seed: int, seconds: float) -> None:
        rng = np.random.default_rng([seed, 4])
        self.warm_seeds = {sc: int(rng.integers(2**31 - 1)) for sc in self.SCENARIOS}
        bodies = self._bodies(rng, self.STEADY_N) + self._bodies(rng, self.BURST_N)
        steady = np.cumsum(rng.exponential(1.0 / self.RATE, self.STEADY_N))
        burst = steady[-1] + self.GAP_S + np.cumsum(
            rng.exponential(1.0 / (self.RATE * self.BURST_FACTOR), self.BURST_N)
        )
        self.schedule = list(zip(np.concatenate([steady, burst]).tolist(), bodies))
        if getattr(self, "app", None) is not None:
            self.app.service.close()
        self.app = create_app()
        # warm the pool and every code path once, closed loop
        warm = [
            {"scenario": sc, "scenario_seed": self.warm_seeds[sc], "seed": 0,
             "objective": obj, "config": {"method": m}}
            for sc in self.SCENARIOS for m in self.METHODS for obj in ("maxmin", "sum")
        ]
        asyncio.run(self._drive([(0.0, body) for body in warm], closed=True))

    def _bodies(self, rng, n: int) -> list:
        """``n`` requests with a fixed mix in a seeded order.

        Every (scenario, method, objective) combination appears equally
        often, and exact shares are LPRR and cold, so two seeds differ
        in order, solve seeds and platform draws but not in mix; a
        drawn mix moved the median between request classes.
        """
        combos = [
            (sc, m, obj)
            for sc in self.SCENARIOS for m in self.METHODS for obj in ("maxmin", "sum")
        ]
        mix = [combos[i] for i in rng.permutation(np.resize(np.arange(len(combos)), n))]
        eligible = [i for i, c in enumerate(mix) if c[0] in self.LPRR_SCENARIOS]
        lprr = set(rng.choice(eligible, round(self.LPRR_SHARE * n), replace=False).tolist())
        cold = set(rng.choice(n, round(self.COLD_SHARE * n), replace=False).tolist())
        bodies = []
        for i, (scenario, method, objective) in enumerate(mix):
            bodies.append({
                "scenario": scenario,
                "scenario_seed": (
                    int(rng.integers(2**31 - 1)) if i in cold else self.warm_seeds[scenario]
                ),
                "seed": int(rng.integers(2**31 - 1)),
                "objective": objective,
                "config": {"method": "lprr" if i in lprr else method},
            })
        return bodies

    async def _drive(self, schedule, closed: bool = False) -> list:
        """Send each request when due; return (due, sent, done, status, body)."""
        app = self.app
        results: list = [None] * len(schedule)

        async def send_one(i, due, body):
            payload = json.dumps(body).encode()
            scope = {
                "type": "http", "asgi": {"version": "3.0"}, "http_version": "1.1",
                "method": "POST", "scheme": "http", "path": "/solve",
                "query_string": b"",
                "headers": [(b"host", b"bench"), (b"x-request-id", str(i).encode())],
                "client": ("bench", 0), "server": ("bench", 80),
            }
            messages = [{"type": "http.request", "body": payload, "more_body": False}]
            reply = {"status": None, "chunks": []}

            async def receive():
                return messages.pop(0) if messages else {"type": "http.disconnect"}

            async def send(message):
                if message["type"] == "http.response.start":
                    reply["status"] = message["status"]
                elif message["type"] == "http.response.body":
                    reply["chunks"].append(message.get("body", b""))

            sent = time.perf_counter()
            await app(scope, receive, send)
            results[i] = (due, sent, time.perf_counter(), reply["status"],
                          b"".join(reply["chunks"]))

        if closed:
            for i, (_, body) in enumerate(schedule):
                await send_one(i, time.perf_counter(), body)
            return results
        tasks = []
        t0 = time.perf_counter() + 0.05
        self.t0 = t0
        for i, (offset, body) in enumerate(schedule):
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(send_one(i, due, body)))
        await asyncio.gather(*tasks)
        return results

    def run(self) -> Phase:
        results = asyncio.run(self._drive(self.schedule))
        t0 = self.t0
        wall = max(r[2] for r in results) - t0
        failed = {i for i, r in enumerate(results) if r[3] != 200}
        latency = [
            float("inf") if i in failed else r[2] - r[0] for i, r in enumerate(results)
        ]
        steady, burst = latency[: self.STEADY_N], latency[self.STEADY_N:]
        burst_res = results[self.STEADY_N:]
        burst_ok = sum(1 for i in range(self.STEADY_N, len(results)) if i not in failed)
        burst_span = max(r[2] for r in burst_res) - burst_res[0][0]
        reports = [
            None if i in failed else json.loads(r[4])["report"]
            for i, r in enumerate(results)
        ]
        service = self.app.service
        pool = service.pool.stats()
        lookups = pool["pool_hits"] + pool["pool_misses"]
        coalescer = service.coalescer.stats()
        return Phase(
            wall_s=wall,
            n_ops=len(results),
            latencies=steady,
            solve_times=[r["runtime"] for r in reports if r is not None],
            burst_latencies=burst,
            burst_rps=burst_ok / burst_span,
            outputs=reports,
            failed_ops=set(failed),
            layer_extra={
                "n_tasks": len(results),
                "build_cache": pool["solver_totals"],
                "service": {
                    "late": [r[1] - r[0] for r in results],
                    "pool_hit_ratio": pool["pool_hits"] / lookups if lookups else 0.0,
                    "batches": coalescer["batches"],
                    "mean_batch": (
                        coalescer["coalesced_requests"] / coalescer["batches"]
                        if coalescer["batches"] else 0.0
                    ),
                    "due": [r[0] for r in results],
                },
            },
        )

    def check(self, phase: Phase) -> list:
        """Every 200 response must equal a direct ``Solver.solve`` of the
        same request bitwise (value, allocation, LP-solve count)."""
        problems = []
        built: dict = {}
        solvers: dict = {}
        bounds: dict = {}
        for i, ((_, body), report) in enumerate(zip(self.schedule, phase.outputs)):
            if report is None:
                problems.append(f"request {i} was not answered with 200")
                continue
            key = (body["scenario"], body["scenario_seed"], body["objective"])
            if key not in built:
                built[key] = build_scenario(
                    body["scenario"], objective=body["objective"],
                    rng=np.random.default_rng(body["scenario_seed"]),
                )
                bounds[key] = get_heuristic("lp").run(built[key]).value
            method = body["config"]["method"]
            solver = solvers.setdefault(method, Solver(SolverConfig(method=method)))
            direct = solver.solve(built[key], rng=body["seed"]).to_dict()
            if any(report[f] != direct[f] for f in ("value", "allocation", "n_lp_solves", "method")):
                phase.failed_ops.add(i)
                problems.append(f"request {i} ({method} on {body['scenario']}) differs from a direct solve")
            phase.ratios.append(report["value"] / bounds[key])
        self.app.service.close()
        self.app = None
        return problems


WORKLOADS = {
    w.name: w for w in (SweepWorkload, LPRRWorkload, OnlineWorkload, ServiceWorkload)
}
