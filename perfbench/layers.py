"""The traced run: spans around the program's public functions.

:class:`Tracer` replaces each function in :data:`WRAPS` at the name its
callers look it up by (a module global or a class attribute) with a
wrapper that records one span: name, start, end, parent span and the
benchmark operation it belongs to.  Nothing inside ``repro`` changes; the
wrappers are removed when the traced region ends.  Spans stay in memory,
one packed entry per field, and :meth:`Tracer.write` saves them as a
compressed NumPy archive with one array per field.

:func:`layer_metrics` folds the span totals and self times (a span's
duration minus the part its child spans cover) into the per-layer
metrics that ``BENCHMARK.json`` lists (``run.py`` reports them in its order,
with its units).
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import itertools
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, attribute path, span name).  A span name may appear on several
#: entries: every name callers can reach the same layer through.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    # simulation.rng
    ("repro.simulation.vectorized", "trial_seed_sequences", "rng.derive"),
    ("repro.simulation.runner", "trial_seed_sequences", "rng.derive"),
    ("repro.simulation.rng", "RandomStreams.generator_for_trial", "rng.derive"),
    ("numpy.random", "default_rng", "rng.build"),
    # simulation.vectorized / schedule / failures / event trials
    ("repro.simulation.vectorized", "VectorizedPhasedSimulator.run_trial_range", "engine.run"),
    ("repro.core.protocols.pure_periodic", "compile_pure_periodic_schedule", "schedule.compile"),
    ("repro.core.protocols.bi_periodic", "compile_bi_periodic_schedule", "schedule.compile"),
    ("repro.core.protocols.abft_periodic", "compile_abft_periodic_schedule", "schedule.compile"),
    ("repro.core.protocols.no_ft", "compile_no_ft_schedule", "schedule.compile"),
    ("repro.simulation.schedule", "ScheduleInterpreter.run", "interpreter.walk"),
    ("repro.failures.exponential", "ExponentialFailureModel.sample_interarrivals", "failures.sample"),
    ("repro.failures.weibull", "WeibullFailureModel.sample_interarrivals", "failures.sample"),
    ("repro.failures.lognormal", "LogNormalFailureModel.sample_interarrivals", "failures.sample"),
    ("repro.core.protocols.base", "ProtocolSimulator.simulate", "event.trial"),
    # campaign
    ("repro.campaign.executor", "ShardedVectorizedExecutor.run", "executor.run"),
    ("repro.campaign.executor", "ParallelMonteCarloExecutor.run", "executor.run"),
    ("repro.campaign.sweep_runner", "SweepRunner.run", "sweep.run"),
    ("repro.campaign.sweep_runner", "waste_points", "sweep.analytical"),
    # utils.stats / simulation.table
    ("repro.simulation.table", "TrialTable.summarize", "summary"),
    ("repro.simulation.table", "TrialTable.summary_dict", "summary"),
    ("repro.simulation.runner", "MonteCarloResult.from_table", "summary"),
    # scenario
    ("repro.scenario.spec", "ScenarioSpec.from_dict", "scenario.parse"),
    ("repro.scenario.spec", "ScenarioSpec.to_dict", "scenario.canonical"),
    ("repro.scenario.spec", "ScenarioSpec.content_hash", "scenario.canonical"),
    # checkpointing / core.analytical / optimize
    ("repro.checkpointing.stack", "StorageStack.lowered_costs", "checkpointing.lower"),
    ("repro.core.analytical.base", "AnalyticalModel.evaluate", "analytical.evaluate"),
    ("repro.optimize.period", "optimize_period", "optimize"),
    ("repro.optimize.regime", "optimize_period", "optimize"),
    ("repro.service.tiers", "optimize_period", "optimize"),
    ("repro.optimize.regime", "compute_regime_map", "regime.map"),
    # service
    ("repro.service.http", "HTTPServer._respond", "service.respond"),
    ("repro.service.http", "Request.json", "service.parse"),
    ("repro.service.app", "answer_key", "service.key"),
    ("repro.service.cache", "AnswerCache.get", "service.lookup"),
    ("repro.service.cache", "AnswerCache.put", "service.lookup"),
    ("repro.service.http", "Response.json", "service.render"),
    ("repro.service.http", "Response.encode", "service.render"),
    ("repro.service.tiers", "RegimeSurface.interpolate", "service.interpolate"),
    ("repro.service.app", "analytical_answer", "service.exact"),
    ("repro.service.app", "optimize_scenario", "service.exact"),
)

#: Constructors counted without a span (one call per optimizer evaluation).
COUNTED = (("repro.core.analytical.base", "AnalyticalModel.__init__", "analytical.model_builds"),)


class _Frame:
    __slots__ = ("span_id", "name", "start", "children", "parent", "outermost")

    def __init__(self, span_id, name, start, parent, outermost):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.children = 0.0
        self.parent = parent
        self.outermost = outermost


class Tracer:
    """Records spans from the installed wrappers; one instance per run."""

    def __init__(self) -> None:
        #: Span fields, one packed array per field, one entry per span.
        self.fields: Dict[str, array] = {
            "id": array("q"),
            "name": array("B"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "operation": array("q"),
        }
        self.names: Dict[str, int] = {}
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.under: Dict[Tuple[str, str], float] = {}
        self.counters: Dict[str, int] = {}
        self.operation = 0
        self._root: Optional[_Frame] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> _Frame:
        stack = self._stack()
        # A thread with no open span (the service's event loop) parents
        # its spans under the operation the client has open.
        parent = stack[-1] if stack else self._root
        outermost = not any(frame.name == name for frame in stack)
        frame = _Frame(next(self._ids), name, time.perf_counter(), parent, outermost)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        parent = frame.parent
        name = frame.name
        if parent is not None:
            parent.children += duration
            key = (name, parent.name)
            self.under[key] = self.under.get(key, 0.0) + duration
        self.count[name] = self.count.get(name, 0) + 1
        if frame.outermost:
            self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame.children
        fields = self.fields
        fields["id"].append(frame.span_id)
        fields["name"].append(self.names.setdefault(name, len(self.names)))
        fields["start"].append(frame.start)
        fields["end"].append(end)
        fields["parent"].append(parent.span_id if parent is not None else 0)
        fields["operation"].append(self.operation)

    @property
    def span_count(self) -> int:
        return len(self.fields["id"])

    def operation_span(self, name: str, operation: int):
        """Context manager for one benchmark operation (the root span)."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.operation = operation
                tracer._root = tracer.open(name)
                return tracer._root

            def __exit__(self, *exc):
                root = tracer._root
                tracer._root = None
                tracer.close(root)
                return False

        return _Root()

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # ------------------------------------------------------------------ #
    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                frame = tracer.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(frame)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if name == "optimize":
                tracer.bump("optimize.evaluations", int(result.evaluations))
            return result

        return traced

    def _counted(self, fn: Callable, counter: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.bump(counter)
            return fn(*args, **kwargs)

        return counted

    def _replace(self, module: str, path: str, make: Callable[[Callable], Callable]) -> None:
        owner: Any = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._installed.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every entry of :data:`WRAPS` and :data:`COUNTED`."""
        for module, path, name in WRAPS:
            self._replace(module, path, lambda fn, name=name: self._wrap(fn, name))
        for module, path, counter in COUNTED:
            self._replace(module, path, lambda fn, counter=counter: self._counted(fn, counter))

    def uninstall(self) -> None:
        """Put every original back, in reverse order."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """Save the spans: one array per field, times in seconds since the
        first span, ``name`` indexing the ``names`` array."""
        columns = {field: np.frombuffer(values, dtype=values.typecode) for field, values in self.fields.items()}
        origin = columns["start"].min() if self.span_count else 0.0
        columns["start"] = columns["start"] - origin
        columns["end"] = columns["end"] - origin
        names = np.array(sorted(self.names, key=self.names.get))
        np.savez_compressed(path, names=names, **columns)


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def layer_metrics(
    tracer: Tracer, phases: Dict[str, float], root: str
) -> Dict[str, float]:
    """Fold one traced region into the per-layer metrics ``BENCHMARK.json`` lists.

    ``phases`` holds the engine phase seconds ``repro.obs`` accumulated over
    the region; ``root`` is the name of the operation spans.
    """
    total = tracer.total.get
    own = tracer.self_time.get
    count = tracer.count.get
    under = tracer.under.get
    engine_run = total("engine.run", 0.0)
    phased = sum(phases.get(phase, 0.0) for phase in ("sample", "execute", "gather"))
    out = {
        "rng.derive_s": own("rng.derive", 0.0),
        "rng.build_s": total("rng.build", 0.0),
        "rng.generators_built": count("rng.build", 0),
        "engine.run_s": engine_run,
        "engine.compile_s": phases.get("compile", 0.0),
        "engine.sample_s": phases.get("sample", 0.0),
        "engine.execute_s": phases.get("execute", 0.0),
        "engine.gather_s": phases.get("gather", 0.0),
        "engine.unphased_s": max(engine_run - phased, 0.0),
        "schedule.compile_calls": count("schedule.compile", 0),
        "schedule.compile_s": total("schedule.compile", 0.0),
        "interpreter.walk_s": own("interpreter.walk", 0.0),
        "failures.sample_s": total("failures.sample", 0.0),
        "trial.overhead_s": own("event.trial", 0.0),
        "executor.overhead_s": own("executor.run", 0.0),
        "sweep.overhead_s": own("sweep.run", 0.0),
        "sweep.analytical_s": total("sweep.analytical", 0.0),
        "summary.s": total("summary", 0.0),
        "scenario.parse_calls": count("scenario.parse", 0),
        "scenario.parse_s": total("scenario.parse", 0.0),
        "checkpointing.lower_calls": count("checkpointing.lower", 0),
        "checkpointing.lower_s": total("checkpointing.lower", 0.0),
        "analytical.evaluations": count("analytical.evaluate", 0),
        "analytical.model_builds": tracer.counters.get("analytical.model_builds", 0),
        "analytical.evaluate_s": total("analytical.evaluate", 0.0),
        "optimize.calls": count("optimize", 0),
        "optimize.evaluations": tracer.counters.get("optimize.evaluations", 0),
        "optimize.s": total("optimize", 0.0),
        "regime.overhead_s": own("regime.map", 0.0),
        "service.parse_s": total("service.parse", 0.0)
        + under(("scenario.parse", "service.respond"), 0.0),
        "service.key_s": total("service.key", 0.0)
        + under(("scenario.canonical", "service.respond"), 0.0),
        "service.lookup_s": total("service.lookup", 0.0),
        "service.render_s": total("service.render", 0.0),
        "service.interpolate_s": total("service.interpolate", 0.0),
        "service.exact_s": total("service.exact", 0.0),
    }
    if root == "request":
        # The client's request span minus the server-side handling inside
        # it is the HTTP/socket/event-loop time; what the handler spends
        # outside every finer layer is the unattributed part.
        out["service.transport_s"] = own("request", 0.0)
        out["trace.unattributed_s"] = own("service.respond", 0.0)
    else:
        out["service.transport_s"] = 0.0
        out["trace.unattributed_s"] = own(root, 0.0)
    return out
