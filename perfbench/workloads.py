"""The four benchmark workloads.

Each workload turns ``(seed, round index)`` into that round's inputs with
:class:`random.Random`, so the same seed always gives the same inputs and
the program only ever sees the generated documents.  A round is a fixed
set of operations (trials, map cells or requests); the loop in
``run.py`` times whole rounds and calls :meth:`Workload.check` on each
output right after timing it.

Checks never compare against stored output: they use the closed forms in
``reference.py`` or properties the method must have.
"""

from __future__ import annotations

import asyncio
import copy
import http.client
import json
import math
import random
import statistics
import threading
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign import executor as campaign_executor
from repro.core import registry
from repro.optimize import regime
from repro.scenario import runner as scenario_runner
from repro.scenario.spec import ScenarioSpec
from repro.service import app as service_app
from repro.service import tiers
from repro.simulation.trace import CATEGORIES

from reference import (
    lower_storage,
    expected_periods,
    general_phase_gap,
    periods_match,
    pure_periodic_makespan,
)

YEAR = 365.0 * 86400.0
GB = 1e9
PROTOCOLS = ["PurePeriodicCkpt", "BiPeriodicCkpt", "ABFT&PeriodicCkpt"]
#: Shared platform and workload scalars (the paper's Figure 7 defaults).
DOWNTIME = 60.0
LIBRARY_FRACTION = 0.8
TOTAL_TIME = 86400.0
ALPHA = 0.8
#: A numeric optimum agrees with Eq. 11 to ~1e-8; this leaves margin.
EXACT_RTOL = 1e-6
#: Standard errors a Monte-Carlo mean may sit from its exact expectation.
MEAN_SIGMAS = 6.0

STORAGE_STACKS: Dict[str, Dict[str, Any]] = {
    "pfs": {"kind": "remote-pfs", "params": {"write_bandwidth": 200 * GB}},
    "multi-level": {
        "kind": "multi-level",
        "params": {
            "local": {"kind": "node-local", "params": {"node_write_bandwidth": 2 * GB}},
            "remote": {"kind": "remote-pfs", "params": {"write_bandwidth": 200 * GB}},
        },
    },
    "buddy": {
        "kind": "buddy",
        "params": {
            "link_bandwidth": 1 * GB,
            "fallback_storage": {"kind": "remote-pfs", "params": {"write_bandwidth": 200 * GB}},
        },
    },
}
MEMORY_PER_NODE = 8 * GB


def expected(protocol: str, costs: Tuple[float, float], mtbf: float) -> Dict[str, Tuple[str, float]]:
    """:func:`reference.expected_periods` at the shared workload scalars."""
    return expected_periods(
        protocol,
        checkpoint=costs[0],
        recovery=costs[1],
        downtime=DOWNTIME,
        mtbf=mtbf,
        library_fraction=LIBRARY_FRACTION,
        total=TOTAL_TIME,
        alpha=ALPHA,
    )


#: Where checkpointing the composite's GENERAL phase beats running it
#: unprotected by a small share of the phase time, ``optimize_period`` can
#: settle on the costlier unprotected regime.  Over 10 000 sampled points
#: next to the tie (C from 4 to 1000 s) the wrong answers had gaps in
#: (0, 3.4e-4] and none lay below 0.  Whether a seeded input falls there
#: depends on the seed, so seeded inputs inside this band are redrawn (each
#: run prints how many); :data:`TIE_PROBE` shows the fault on every seed.
TIE_BAND = (0.0, 4e-4)
#: ``(C, platform MTBF)`` of a fixed point in the band (gap 1.2e-4) where
#: ``optimize_period`` answers the composite's GENERAL period with 21 007 s
#: instead of the Eq. 11 value of 9 502 s.  Every regime-map and
#: advisor-replay round holds one operation on it, checked like every other
#: and counted in ``failed`` when it fails.
TIE_PROBE = (700.0, 65250.0)


def near_tie(costs: Tuple[float, float], mtbf: float) -> bool:
    """Whether a point sits in the composite's near-tie band."""
    gap = general_phase_gap(costs[0], costs[1], DOWNTIME, mtbf, LIBRARY_FRACTION, (1.0 - ALPHA) * TOTAL_TIME)
    return TIE_BAND[0] < gap < TIE_BAND[1]


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    """The generator of one round's inputs."""
    return random.Random(f"{workload}:{seed}:{index}")


@dataclass
class Outcome:
    """What one round did: operations, output, per-request samples."""

    ops: int
    output: Any
    #: ``(class, latency seconds)`` per request (advisor only).
    samples: List[Tuple[str, float]] = field(default_factory=list)
    #: Operations on :data:`TIE_PROBE` that failed their check (set by
    #: :meth:`Workload.check`); every other failed check is a problem.
    failed: int = 0


class Workload:
    """Interface ``run.py`` runs; see the module docstring."""

    name = ""
    #: Name of the operation spans in the traced run.
    root = "round"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Seeded draws thrown away because they fell in :data:`TIE_BAND`.
        self.redrawn = 0

    def setup(self) -> None:
        """Everything before the first timed operation (may run repeatedly)."""

    def inputs(self, index: int) -> Any:
        raise NotImplementedError

    def execute(self, inputs: Any, tracer=None, index: int = 0) -> Outcome:
        raise NotImplementedError

    def check(self, inputs: Any, outcome: Outcome) -> List[str]:
        """The problems of one round's output; sets ``outcome.failed``."""
        return []

    def deep_check(self, inputs: Any, outcome: Outcome) -> List[str]:
        """A costlier check, run on one round after the timed region."""
        return []

    def fingerprint(self, outcome: Outcome) -> str:
        return repr(outcome.output)

    def answer_seconds(self, outcome: Outcome, wall: float) -> float:
        """The time of one answer in a round: by default the whole round."""
        return wall

    def before_round(self) -> None:
        """Per-round preparation, outside the round's timer."""

    def close(self) -> None:
        """Stop whatever :meth:`setup` started."""


def _root(tracer, index: int):
    return tracer.operation_span("round", index) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------- #
# Monte-Carlo sweeps
# ---------------------------------------------------------------------- #
class _Sweep(Workload):
    """A ``scenario run`` per round: parse the spec document, run the grid.

    Every round draws a fresh simulation seed, as a new ``scenario run``
    would; the grid and platform stay fixed, so the work per round does too.
    """

    document: Dict[str, Any] = {}

    def setup(self) -> None:
        self.spec = ScenarioSpec.from_dict(self.document)
        self.trials_per_round = (
            len(self.spec.mtbf_axis)
            * len(self.spec.alpha_axis)
            * len(self.spec.protocols)
            * self.spec.simulation.runs
        )

    def inputs(self, index: int) -> Dict[str, Any]:
        document = copy.deepcopy(self.document)
        document["simulation"]["seed"] = round_rng(self.name, self.seed, index).randrange(2**31)
        return document

    def execute(self, inputs, tracer=None, index: int = 0) -> Outcome:
        with _root(tracer, index):
            spec = ScenarioSpec.from_dict(inputs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scenario_runner.ExponentialAssumptionWarning)
                result = scenario_runner.run_scenario(spec)
        return Outcome(ops=self.trials_per_round, output=result)

    def fingerprint(self, outcome: Outcome) -> str:
        return repr(
            [
                (p.mtbf, p.alpha, sorted(p.model_waste.items()), sorted(p.simulated.items()))
                for p in outcome.output.points
            ]
        )

    def _summary_problems(self, outcome: Outcome) -> List[str]:
        problems = []
        runs = self.spec.simulation.runs
        for point in outcome.output.points:
            for name in self.spec.protocols:
                summary = point.simulated.get(name, {})
                if summary.get("runs") != runs:
                    problems.append(f"{name} at {point.mtbf:g}/{point.alpha:g}: runs {summary.get('runs')}")
                if summary.get("truncated") != 0:
                    problems.append(
                        f"{name} at {point.mtbf:g}/{point.alpha:g}: "
                        f"{summary.get('truncated')} truncated trials"
                    )
        return problems


class SweepVectorized(_Sweep):
    name = "sweep-vectorized"
    document = {
        "name": "bench-sweep-vectorized",
        "protocols": PROTOCOLS,
        "platform": {
            "mtbf": 7200.0,
            "checkpoint": 600.0,
            "recovery": 600.0,
            "downtime": DOWNTIME,
            "library_fraction": LIBRARY_FRACTION,
            "abft_overhead": 1.03,
            "abft_reconstruction": 2.0,
        },
        "workload": {"total_time": TOTAL_TIME, "alpha": ALPHA, "epochs": 1},
        "failures": {"model": "exponential"},
        "sweep": {"mtbf_values": [3600.0, 7200.0, 14400.0], "alpha_values": [0.2, 0.8]},
        "simulation": {"validate": True, "runs": 300, "seed": 0, "backend": "vectorized"},
    }

    def check(self, inputs, outcome: Outcome) -> List[str]:
        problems = self._summary_problems(outcome)
        platform = inputs["platform"]
        runs = inputs["simulation"]["runs"]
        for point in outcome.output.points:
            mean, var = pure_periodic_makespan(
                TOTAL_TIME,
                platform["checkpoint"],
                platform["recovery"],
                platform["downtime"],
                point.mtbf,
            )
            observed = point.simulated["PurePeriodicCkpt"]["makespan_mean"]
            error = math.sqrt(var / runs)
            if abs(observed - mean) > MEAN_SIGMAS * error:
                problems.append(
                    f"PurePeriodicCkpt at mtbf {point.mtbf:g}, alpha {point.alpha:g}: mean makespan "
                    f"{observed:.1f} is {abs(observed - mean) / error:.1f} standard errors "
                    f"from the exact {mean:.1f}"
                )
        return problems


class SweepEvent(_Sweep):
    name = "sweep-event"
    #: The shape of ``examples/custom_scenario.json`` (Weibull k = 0.7), with
    #: 20 trials per point instead of 50 to keep rounds short.
    document = {
        "name": "bench-sweep-event",
        "protocols": PROTOCOLS,
        "platform": {
            "mtbf": 7200.0,
            "checkpoint": 600.0,
            "recovery": 600.0,
            "downtime": DOWNTIME,
            "library_fraction": LIBRARY_FRACTION,
            "abft_overhead": 1.03,
            "abft_reconstruction": 2.0,
        },
        "workload": {"total_time": TOTAL_TIME, "alpha": ALPHA, "epochs": 1},
        "failures": {"model": "weibull", "params": {"shape": 0.7}},
        "sweep": {
            "mtbf_values": [3600.0, 7200.0, 10800.0, 14400.0],
            "alpha_values": [0.0, 0.5, 1.0],
        },
        "simulation": {"validate": True, "runs": 20, "seed": 0},
    }

    def check(self, inputs, outcome: Outcome) -> List[str]:
        return self._summary_problems(outcome)

    def deep_check(self, inputs, outcome: Outcome) -> List[str]:
        """Per-trial checks on one round, re-run with its trial tables.

        The event tables must summarise to exactly what the timed run
        reported; per trial, the categories add up to the makespan and the
        waste is ``1 - T0 / makespan``; and the vectorized engine gives the
        same trials bit for bit.
        """
        problems: List[str] = []
        spec = ScenarioSpec.from_dict(inputs)
        job = scenario_runner.scenario_sweep_job(spec)
        executor = campaign_executor.ParallelMonteCarloExecutor(workers=1)
        points = {(p.mtbf, p.alpha): p for p in outcome.output.points}
        for mtbf, alpha in job.grid():
            parameters = job.parameters.with_mtbf(mtbf)
            workload = job.workload(alpha)
            failure_model = job.point_failure_model(mtbf)
            for name in job.protocols:
                entry = registry.resolve_protocol(name)
                where = f"{name} at {mtbf:g}/{alpha:g}"
                simulator = entry.simulator_cls(
                    parameters, workload, failure_model=failure_model, max_slowdown=job.max_slowdown
                )
                table = executor.run(simulator.simulate_once, runs=job.simulation_runs, seed=job.seed).table
                if table.summary_dict() != points[(mtbf, alpha)].simulated[name]:
                    problems.append(f"{where}: trial table does not summarise to the reported point")
                data = table.data
                categories = sum(data[category] for category in CATEGORIES)
                if not all(
                    math.isclose(c, m, rel_tol=1e-9, abs_tol=1e-6)
                    for c, m in zip(categories, data["makespan"])
                ):
                    problems.append(f"{where}: categories do not sum to the makespan")
                expected = [1.0 - workload.total_time / m for m in data["makespan"]]
                if not all(
                    math.isclose(w, e, rel_tol=1e-12, abs_tol=1e-15)
                    for w, e in zip(data["waste"], expected)
                ):
                    problems.append(f"{where}: waste differs from 1 - T0/makespan")
                engine = entry.vectorized_cls(
                    parameters, workload, failure_model=failure_model, max_slowdown=job.max_slowdown
                )
                vectorized = engine.run_trials(job.simulation_runs, job.seed)
                if not vectorized == table:
                    problems.append(f"{where}: vectorized trials differ from the event walk")
        return problems


# ---------------------------------------------------------------------- #
# Regime maps
# ---------------------------------------------------------------------- #
NODE_COUNTS = (1000, 4000, 16000)
NODE_MTBF_YEARS = (6.0, 12.0, 25.0, 50.0)


class RegimeMapWorkload(Workload):
    """Three analytical regime maps per round: flat costs, storage stacks,
    and the one-cell map on :data:`TIE_PROBE`.

    Each round jitters the node-MTBF axis by up to 5%; every cell stays
    well inside the feasible regime, so the optimizer does the same kind
    of work on every seed.
    """

    name = "regime-map"

    def setup(self) -> None:
        shared = dict(application_time=TOTAL_TIME, alpha=ALPHA, library_fraction=LIBRARY_FRACTION, downtime=DOWNTIME)
        mtbfs = tuple(y * YEAR for y in NODE_MTBF_YEARS)
        self.flat_base = regime.RegimeMapSpec(
            node_counts=NODE_COUNTS, node_mtbf_values=mtbfs, checkpoint_costs=(60.0, 300.0, 600.0), **shared
        )
        self.storage_base = regime.RegimeMapSpec(
            node_counts=NODE_COUNTS,
            node_mtbf_values=mtbfs,
            storage_stacks=STORAGE_STACKS,
            memory_per_node=MEMORY_PER_NODE,
            **shared,
        )
        checkpoint, mtbf = TIE_PROBE
        self.probe = regime.RegimeMapSpec(
            node_counts=(1000,), node_mtbf_values=(mtbf * 1000,), checkpoint_costs=(checkpoint,), **shared
        )
        self.cells_per_round = self.flat_base.cell_count + self.storage_base.cell_count + self.probe.cell_count

    def inputs(self, index: int):
        rng = round_rng(self.name, self.seed, index)
        while True:
            mtbfs = tuple(y * YEAR * rng.uniform(0.95, 1.05) for y in NODE_MTBF_YEARS)
            if not any(
                near_tie(costs, node_mtbf / nodes)
                for nodes in NODE_COUNTS
                for node_mtbf in mtbfs
                for costs in self._cell_costs(nodes, node_mtbf / nodes)
            ):
                break
            self.redrawn += 1
        return (
            self.flat_base.replace(node_mtbf_values=mtbfs),
            self.storage_base.replace(node_mtbf_values=mtbfs),
            self.probe,
        )

    def _cell_costs(self, nodes: int, mtbf: float) -> List[Tuple[float, float]]:
        """``(C, R)`` of every cell at one (nodes, platform MTBF)."""
        flat = [(c, c) for c in self.flat_base.checkpoint_costs]
        return flat + [
            lower_storage(tree, MEMORY_PER_NODE * nodes, nodes, mtbf) for tree in STORAGE_STACKS.values()
        ]

    def execute(self, inputs, tracer=None, index: int = 0) -> Outcome:
        with _root(tracer, index):
            maps = tuple(regime.compute_regime_map(spec) for spec in inputs)
        return Outcome(ops=self.cells_per_round, output=maps)

    def fingerprint(self, outcome: Outcome) -> str:
        return "".join(m.to_json() for m in outcome.output)

    def check(self, inputs, outcome: Outcome) -> List[str]:
        *seeded, probe = outcome.output
        problems = [p for regime_map in seeded for cell in regime_map.cells for p in _cell_problems(cell)]
        outcome.failed = sum(1 for cell in probe.cells if _cell_problems(cell))
        return problems


def _cell_problems(cell) -> List[str]:
    """One regime-map cell against the reference lowering and periods."""
    where = f"cell {cell.nodes}/{cell.node_mtbf:.4g}/{cell.storage or cell.checkpoint}"
    problems = [f"{where}: {p}" for p in _winner_problems(cell.results, cell.winner)]
    if cell.storage is None:
        checkpoint = recovery = cell.checkpoint
    else:
        checkpoint, recovery = lower_storage(
            STORAGE_STACKS[cell.storage], MEMORY_PER_NODE * cell.nodes, cell.nodes, cell.platform_mtbf
        )
        if not math.isclose(cell.checkpoint, checkpoint, rel_tol=1e-12):
            problems.append(f"{where}: lowered C {cell.checkpoint!r}, expected {checkpoint!r}")
    for name in PROTOCOLS:
        reference = expected(name, (checkpoint, recovery), cell.node_mtbf / cell.nodes)
        mismatch = periods_match(cell.results[name]["periods"], reference, EXACT_RTOL)
        if mismatch:
            problems.append(f"{where}: {name} {mismatch}")
    return problems


# ---------------------------------------------------------------------- #
# The advisor service
# ---------------------------------------------------------------------- #
#: The loaded surface: nodes x node MTBF x C, platform MTBF ~2000-160000 s.
SURFACE_NODES = (1000, 4000, 16000)
SURFACE_NODE_MTBFS = tuple(y * YEAR for y in (1.0, 2.0, 5.0))
SURFACE_CHECKPOINTS = (300.0, 600.0)
#: New questions per round by kind; classes follow from the kind.
ONMAP_LINE, ONMAP_BILINEAR = 10, 10
OFF_HULL, OTHER_COST, STORAGE, FORCED, COMPARE = 4, 4, 4, 4, 4
REPEATS = 100
#: The kind of the one question per round on :data:`TIE_PROBE`.
PROBE_KIND = "tie-probe"
EXPECTED_TIER = {"repeat": tiers.TIER_CACHE, "onmap": tiers.TIER_MAP, "exact": tiers.TIER_ANALYTICAL}
CLASSES = tuple(EXPECTED_TIER)


@dataclass
class Question:
    """One request: what to send, its class and the reference inputs."""

    path: str
    body: bytes
    kind: str
    klass: str
    costs: Tuple[float, float]
    mtbf: float
    first: int = -1  # index of the question this one repeats


def _scenario(mtbf: float, checkpoint: Optional[float] = None, storage=None) -> Dict[str, Any]:
    platform: Dict[str, Any] = {"mtbf": mtbf, "downtime": DOWNTIME, "library_fraction": LIBRARY_FRACTION}
    if checkpoint is not None:
        platform["checkpoint"] = checkpoint
    scenario: Dict[str, Any] = {
        "name": "bench-advisor",
        "protocols": PROTOCOLS,
        "platform": platform,
        "workload": {"total_time": TOTAL_TIME, "alpha": ALPHA},
    }
    if storage is not None:
        scenario["storage"] = storage
    return scenario


class ServiceHost:
    """An advisor service on ``127.0.0.1:<ephemeral>``, in a thread of its own.

    Stopping cancels every task from inside the event loop, so the loop
    cannot close while cancellations are still being scheduled into it.
    """

    def __init__(self, service) -> None:
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=lambda: asyncio.run(self._serve(service)), daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("advisor service failed to start within 10 s")

    async def _serve(self, service) -> None:
        self._loop = asyncio.get_running_loop()

        def ready(host: str, port: int) -> None:
            self.port = port
            self._ready.set()

        try:
            await service_app.serve_forever(service, self.host, 0, ready=ready)
        except asyncio.CancelledError:
            pass

    def stop(self) -> None:
        def cancel_all() -> None:
            for task in asyncio.all_tasks():
                task.cancel()

        self._loop.call_soon_threadsafe(cancel_all)
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("advisor service did not stop within 10 s")


class AdvisorReplay(Workload):
    """A closed loop: one client, one keep-alive connection, one service.

    Each round is one advisor session: a new service (empty answer cache)
    on the surface loaded at set-up, sent 141 requests in a seeded order:
    41 new questions (20 inside the map's hull, 21 the map cannot answer,
    one of them on :data:`TIE_PROBE`) and 100 repeats of questions asked
    earlier in the round.
    """

    name = "advisor-replay"
    root = "request"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.service: Optional[ServiceHost] = None
        self.connection: Optional[http.client.HTTPConnection] = None
        self.surface = None

    def setup(self) -> None:
        self.close()
        spec = regime.RegimeMapSpec(
            node_counts=SURFACE_NODES,
            node_mtbf_values=SURFACE_NODE_MTBFS,
            checkpoint_costs=SURFACE_CHECKPOINTS,
            application_time=TOTAL_TIME,
            alpha=ALPHA,
            library_fraction=LIBRARY_FRACTION,
            downtime=DOWNTIME,
        )
        self.surface = tiers.RegimeSurface(regime.compute_regime_map(spec))
        self.before_round()

    def before_round(self) -> None:
        """Start a new service on the loaded surface and connect to it."""
        self.close()
        self.service = ServiceHost(service_app.create_app(surface=self.surface))
        self.connection = http.client.HTTPConnection(self.service.host, self.service.port, timeout=60)
        self.connection.connect()

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None
        if self.service is not None:
            self.service.stop()
            self.service = None

    # ------------------------------------------------------------------ #
    def inputs(self, index: int) -> List[Question]:
        rng = round_rng(self.name, self.seed, index)
        lo = min(SURFACE_NODE_MTBFS) / max(SURFACE_NODES)
        hi = max(SURFACE_NODE_MTBFS) / min(SURFACE_NODES)

        def inside() -> float:
            return math.exp(rng.uniform(math.log(lo * 1.01), math.log(hi / 1.01)))

        def optimize(kind, klass, scenario, costs, extra=None) -> Question:
            payload = {"scenario": scenario, **(extra or {})}
            return Question(
                "/optimize", json.dumps(payload).encode(), kind, klass, costs, scenario["platform"]["mtbf"]
            )

        fresh: List[Question] = []
        for _ in range(ONMAP_LINE):
            c = rng.choice(SURFACE_CHECKPOINTS)
            fresh.append(optimize("line", "onmap", _scenario(inside(), c), (c, c)))
        for _ in range(ONMAP_BILINEAR):
            c = rng.choice(SURFACE_CHECKPOINTS)
            nodes = float(rng.randint(min(SURFACE_NODES) + 1, max(SURFACE_NODES) - 1))
            node_mtbf = rng.uniform(min(SURFACE_NODE_MTBFS) * 1.01, max(SURFACE_NODE_MTBFS) / 1.01)
            extra = {"nodes": nodes, "node_mtbf": node_mtbf}
            fresh.append(optimize("bilinear", "onmap", _scenario(node_mtbf / nodes, c), (c, c), extra))

        def clear(costs, draw) -> float:
            """Draw platform MTBFs until the point is off the composite's tie."""
            while True:
                mtbf = draw()
                if not near_tie(costs(mtbf), mtbf):
                    return mtbf
                self.redrawn += 1

        for _ in range(OFF_HULL):
            c = SURFACE_CHECKPOINTS[0]
            mtbf = clear(lambda _: (c, c), lambda: rng.uniform(hi * 1.1, hi * 2.5))
            fresh.append(optimize("off-hull", "exact", _scenario(mtbf, c), (c, c)))
        for _ in range(OTHER_COST):
            c = rng.uniform(100.0, 900.0)
            mtbf = clear(lambda _: (c, c), inside)
            fresh.append(optimize("other-cost", "exact", _scenario(mtbf, c), (c, c)))
        for _ in range(STORAGE):
            label = rng.choice(sorted(STORAGE_STACKS))
            nodes = rng.choice(SURFACE_NODES)
            storage = {**STORAGE_STACKS[label], "data_bytes": MEMORY_PER_NODE * nodes, "node_count": nodes}

            def lowered(mu, storage=storage, nodes=nodes):
                return lower_storage(storage, MEMORY_PER_NODE * nodes, nodes, mu)

            mtbf = clear(lowered, inside)
            fresh.append(optimize("storage", "exact", _scenario(mtbf, storage=storage), lowered(mtbf)))
        for _ in range(FORCED):
            c = rng.choice(SURFACE_CHECKPOINTS)
            mtbf = clear(lambda _: (c, c), inside)
            fresh.append(optimize("forced", "exact", _scenario(mtbf, c), (c, c), {"tier": "analytical"}))
        for _ in range(COMPARE):
            c = rng.choice(SURFACE_CHECKPOINTS)
            scenario = _scenario(clear(lambda _: (c, c), inside), c)
            fresh.append(
                Question(
                    "/compare", json.dumps({"scenario": scenario}).encode(), "compare", "exact",
                    (c, c), scenario["platform"]["mtbf"],
                )
            )
        c, mtbf = TIE_PROBE
        fresh.append(optimize(PROBE_KIND, "exact", _scenario(mtbf, c), (c, c)))
        rng.shuffle(fresh)
        # Repeats go to random slots after the first question and each
        # repeats a question already asked earlier in the round.
        slots = sorted(rng.sample(range(1, len(fresh) + REPEATS), REPEATS))
        stream: List[Question] = []
        new = iter(fresh)
        asked: List[int] = []
        for position in range(len(fresh) + REPEATS):
            if slots and slots[0] == position:
                slots.pop(0)
                target = rng.choice(asked)
                original = stream[target]
                stream.append(
                    Question(original.path, original.body, original.kind, "repeat",
                             original.costs, original.mtbf, first=target)
                )
            else:
                asked.append(len(stream))
                stream.append(next(new))
        return stream

    def answer_seconds(self, outcome: Outcome, wall: float) -> float:
        """The geometric mean of the round's per-class median latencies.

        Each class weighs the same whatever its share of the stream, so a
        tier that gets ``f`` times slower moves this by ``f ** (1/3)``.
        """
        medians = [statistics.median(s for k, s in outcome.samples if k == klass) for klass in CLASSES]
        return math.exp(statistics.fmean(math.log(m) for m in medians))

    def execute(self, inputs: List[Question], tracer=None, index: int = 0) -> Outcome:
        connection = self.connection
        headers = {"Content-Type": "application/json"}
        replies = []
        samples = []
        base = index * len(inputs)
        for number, question in enumerate(inputs):
            context = tracer.operation_span("request", base + number) if tracer is not None else nullcontext()
            with context:
                began = time.perf_counter()
                connection.request("POST", question.path, body=question.body, headers=headers)
                response = connection.getresponse()
                body = response.read()
                latency = time.perf_counter() - began
            replies.append((response.status, body, response.getheader("X-Repro-Tier")))
            samples.append((question.klass, latency))
        return Outcome(ops=len(inputs), output=replies, samples=samples)

    def check(self, inputs: List[Question], outcome: Outcome) -> List[str]:
        problems: List[str] = []
        outcome.failed = 0
        for number, question in enumerate(inputs):
            found = [
                f"request {number} ({question.klass}/{question.kind}): {p}"
                for p in self._reply_problems(question, outcome.output[number], outcome.output)
            ]
            if question.kind == PROBE_KIND and question.klass != "repeat":
                outcome.failed += bool(found)
            else:
                problems.extend(found)
        return problems

    def _reply_problems(self, question: Question, reply, replies) -> List[str]:
        status, body, tier = reply
        if status != 200:
            return [f"status {status}"]
        problems = []
        if tier != EXPECTED_TIER[question.klass]:
            problems.append(f"served by {tier!r}, expected {EXPECTED_TIER[question.klass]!r}")
        if question.klass == "repeat":
            if body != replies[question.first][1]:
                problems.append("hit bytes differ from the miss")
            return problems
        answer = json.loads(body)
        if question.klass == "onmap":
            return problems + self._check_interpolated(question, answer)
        points = (
            [(point["mtbf"], point["optima"], point["winner"]) for point in answer["points"]]
            if question.path == "/compare"
            else [(question.mtbf, answer["results"], answer["winner"])]
        )
        for mtbf, results, winner in points:
            for name in PROTOCOLS:
                mismatch = periods_match(results[name]["periods"], expected(name, question.costs, mtbf), EXACT_RTOL)
                if mismatch:
                    problems.append(f"{name} {mismatch}")
            problems.extend(_winner_problems(results, winner))
        return problems

    @staticmethod
    def _check_interpolated(question: Question, answer: Dict[str, Any]) -> List[str]:
        """An interpolated period lies within the service's documented
        tolerance of Eq. 11 where every corner it blends is in the Eq. 11
        regime, and above the phase where every corner runs it as one chunk.
        """
        geometry = answer["interpolation"]
        if geometry["mode"] == "bilinear":
            corners = [m / n for n in geometry["node_bracket"] for m in geometry["node_mtbf_bracket"]]
        else:
            corners = list(geometry["platform_mtbf_bracket"])
        problems = []
        for name in PROTOCOLS:
            at_corners = [expected(name, question.costs, mu) for mu in corners]
            reference = {}
            for keyword, target in expected(name, question.costs, question.mtbf).items():
                kinds = {corner.get(keyword, ("none", 0.0))[0] for corner in at_corners}
                if kinds == {target[0]}:
                    reference[keyword] = target
            mismatch = periods_match(
                answer["results"][name]["periods"], reference, tiers.INTERPOLATION_PERIOD_RTOL
            )
            if mismatch:
                problems.append(f"{name} {mismatch}")
        problems.extend(_winner_problems(answer["results"], answer["winner"]))
        return problems


def _winner_problems(results: Dict[str, Any], winner: str) -> List[str]:
    wastes = {name: result["waste"] for name, result in results.items()}
    if wastes[winner] != min(wastes.values()):
        return [f"winner {winner} does not have the smallest waste"]
    return []


WORKLOADS = {
    cls.name: cls for cls in (SweepVectorized, SweepEvent, RegimeMapWorkload, AdvisorReplay)
}


def class_percentiles(samples: List[Tuple[str, float]]) -> Dict[str, float]:
    """Per-class median latency and the all-request p99, in ms."""
    out: Dict[str, float] = {}
    for klass in CLASSES:
        values = [latency for k, latency in samples if k == klass]
        out[f"advisor.{klass}_p50_ms"] = statistics.median(values) * 1e3 if values else 0.0
    values = sorted(latency for _, latency in samples)
    out["advisor.request_p99_ms"] = (
        statistics.quantiles(values, n=100)[98] * 1e3 if len(values) >= 100 else 0.0
    )
    return out
