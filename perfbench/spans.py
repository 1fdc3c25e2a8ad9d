"""Outside-in instrumentation for the readout-serving benchmark.

Nothing here edits the program. Every measurement wraps a public
function or method of ``repro`` from the benchmark's own code, by
replacing the attribute on its class or module for as long as it is
needed and putting the original back afterwards:

- :class:`LatencyProbe` times each micro-batch decision, from the moment
  the traffic source yields the chunk that holds the batch's last shot
  to the moment the batch's labels reach ``QueueingSink.consume``.
- :class:`Tracer` records named spans (name, start, end, parent span,
  run id) around one call into each layer, keeps them in memory, and
  derives per-layer busy and self times from them. Span names are
  ``<layer>.<operation>``, the layer being the ``repro`` module.

Process shards are forked from the benchmark process. To measure inside
them, the benchmark swaps the task functions the cluster hands its pool
(the private ``repro.pipeline.cluster._run_feedline`` and
``_prefit_feedline``) for its own entry points (:func:`run_feedline_plain`,
:func:`run_feedline_traced`, :func:`prefit_traced`), which call the
originals. Worker spans travel back through spool files
in the directory named by ``PERFBENCH_SPOOL``; worker latency samples
travel back in the shard's report ``details``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import uuid
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from time import perf_counter

import repro.backends
import repro.pipeline.cluster as cluster
import repro.pipeline.runner as runner
from repro.backends.base import InstrumentBackend
from repro.backends.recording import ReplayBackend
from repro.backends.simulator import SimulatorBackend
from repro.discriminators.mlr import MLRDiscriminator
from repro.dsp.matched_filter import FusedKernelBank
from repro.ml.dataset import StandardScaler
from repro.ml.nn.layers import Dense
from repro.physics.simulator import ReadoutSimulator
from repro.pipeline.batching import MicroBatcher
from repro.pipeline.drift import DriftMonitor
from repro.pipeline.registry import CalibrationRegistry
from repro.pipeline.runner import ReadoutPipeline
from repro.pipeline.shm import SharedMemoryTraceSource, SharedTraceBlock
from repro.pipeline.sink import EraserSpeculationSink, QueueingSink
from repro.pipeline.stages import BatchDiscriminationEngine
from repro.serve.service import ReadoutService

#: Environment variable naming the directory worker spans are spooled to.
SPOOL_ENV = "PERFBENCH_SPOOL"

#: The shard functions the cluster dispatches, captured before any patch.
_RUN_FEEDLINE = cluster._run_feedline
_PREFIT_FEEDLINE = cluster._prefit_feedline

# (owner, attribute, span name, wraps an iterator?) per traced phase.
# Setup excludes the per-batch layers: calibration training calls
# Dense.forward tens of thousands of times, and tracing it would only
# measure the tracer.
SETUP_TARGETS = (
    (ReadoutService, "warm", "serve.warm", False),
    (CalibrationRegistry, "get_or_fit", "registry.get_or_fit", False),
    (runner, "generate_corpus", "data.generate_corpus", False),
    (MLRDiscriminator, "fit", "discriminators.fit", False),
    (InstrumentBackend, "open", "backends.open", False),
    (ReplayBackend, "open", "backends.open", False),
    (repro.backends, "load_corpus", "backends.open", False),
    (cluster.MultiFeedlineRunner, "prewarm", "cluster.prewarm", False),
)
RUN_TARGETS = (
    (ReadoutService, "run", "serve.run", False),
    (ReadoutPipeline, "run", "runner.run", False),
    (MicroBatcher, "rebatch", "batching.rebatch", True),
    (ReplayBackend, "acquire", "backends.acquire", True),
    (SimulatorBackend, "acquire", "backends.acquire", True),
    (SharedMemoryTraceSource, "chunks", "backends.acquire", True),
    (ReadoutSimulator, "simulate", "physics.simulate", False),
    (BatchDiscriminationEngine, "process", "stages.process", False),
    (FusedKernelBank, "scores", "dsp.mf_scores", False),
    (StandardScaler, "transform_inplace", "ml.scaler", False),
    (MLRDiscriminator, "head_levels_and_margin", "discriminators.heads", False),
    (Dense, "forward", "ml.dense_forward", False),
    (DriftMonitor, "observe", "drift.observe", False),
    (QueueingSink, "consume", "sink.consume", False),
    (EraserSpeculationSink, "consume", "eraser.consume", False),
    (cluster.MultiFeedlineRunner, "run_replay", "cluster.run_replay", False),
    (SharedTraceBlock, "__init__", "shm.publish", False),
    (SharedTraceBlock, "unlink", "shm.unlink", False),
)

_MISSING = object()


class PatchStack:
    """Attribute replacements, undone in reverse order.

    One stack per process: the latency probe and the tracer both patch
    some of the same attributes, and only last-in-first-out restoration
    leaves each one exactly as it found it. A forked child (a process
    shard) starts with every inherited patch undone, so a worker runs
    the plain program unless its own entry point patches it again.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def apply(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def mark(self) -> int:
        return len(self._undo)

    def restore(self, mark: int = 0) -> None:
        while len(self._undo) > mark:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


PATCHES = PatchStack()
os.register_at_fork(after_in_child=PATCHES.restore)


class LatencyProbe:
    """Per-batch decision latency, from chunk arrival to sink hand-off.

    :meth:`stream` wraps the chunk iterator the pipeline pulls and notes
    when each chunk is yielded and how many shots have arrived so far;
    :meth:`consumed` runs when a batch's labels reach the sink, finds
    the chunk holding that batch's last shot, and records the elapsed
    time. Batches reach the sink in shot order, so the running shot
    count identifies each batch's last shot whatever the batch size.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.start_run()

    def start_run(self) -> None:
        self._chunk_ends: list[int] = []
        self._chunk_times: list[float] = []
        self._arrived = 0
        self._served = 0

    def stream(self, chunks):
        for chunk in chunks:
            self._arrived += chunk.n_shots
            self._chunk_ends.append(self._arrived)
            self._chunk_times.append(perf_counter())
            yield chunk

    def consumed(self, n_shots: int) -> None:
        now = perf_counter()
        last_shot = self._served + n_shots - 1
        self._served += n_shots
        chunk = bisect_right(self._chunk_ends, last_shot)
        self.samples.append(now - self._chunk_times[chunk])

    def hook_sink(self, patches: PatchStack) -> None:
        """Note every batch handed to a ``QueueingSink`` (the run loop's)."""
        consume = vars(QueueingSink)["consume"]

        def probed_consume(sink, levels, joint, batch_id):
            self.consumed(len(joint))
            return consume(sink, levels, joint, batch_id)

        patches.apply(QueueingSink, "consume", probed_consume)

    def watch_backend(self, backend) -> None:
        """Wrap one session backend's ``acquire`` iterator.

        The class attribute is looked up on every call, so a tracer
        wrapping the class method later is still inside the probe.
        """
        cls = type(backend)

        def probed_acquire(shots, seed=None):
            return self.stream(cls.acquire(backend, shots, seed=seed))

        backend.acquire = probed_acquire

    def hook_shared_memory_source(self, patches: PatchStack) -> None:
        """Wrap the shard-side chunk source (process-shard replay)."""
        chunks = vars(SharedMemoryTraceSource)["chunks"]

        def probed_chunks(source):
            return self.stream(chunks(source))

        patches.apply(SharedMemoryTraceSource, "chunks", probed_chunks)


# Span record fields; a record is a list so that closing it can fill in
# its end time and add its duration to its parent's child time.
NAME, THREAD, START, END, PARENT, RUN, CHILD = range(7)


class Tracer:
    """In-memory span recorder around calls into each layer.

    ``run`` tags every span opened while it is set: ``None`` during set-up,
    the served run's index afterwards. Spans nest per thread; a span's
    self time is its duration minus the time its child spans cover.
    """

    def __init__(self, patches: PatchStack = PATCHES) -> None:
        self.patches = patches
        self.spans: list[list] = []
        self.items: Counter = Counter()
        self.remote: dict[int, list[list]] = {}
        self.run: int | None = None
        self._local = threading.local()
        self._mark: int | None = None

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [
            name,
            threading.get_ident(),
            perf_counter(),
            0.0,
            stack[-1] if stack else None,
            self.run,
            0.0,
        ]
        stack.append(record)
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        now = perf_counter()
        record[END] = now
        self._local.stack.pop()
        parent = record[PARENT]
        if parent is not None:
            parent[CHILD] += now - record[START]

    def iterate(self, name: str, iterable):
        """Yield from ``iterable``, one span per ``next`` call."""
        iterator = iter(iterable)
        while True:
            record = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.end(record)
            self.items[name] += 1
            yield item

    def _wrap(self, name: str, fn, iterator: bool):
        if iterator:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.iterate(name, fn(*args, **kwargs))

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                record = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(record)

        return traced

    # -- arming ---------------------------------------------------------

    def install(self, targets, shard_entry=None) -> None:
        """Wrap ``targets``; optionally route shard tasks to ``shard_entry``.

        ``shard_entry`` is ``(attribute of repro.pipeline.cluster,
        worker function)``: the parent swaps which module-level function
        the pool pickles, so forked workers trace themselves too.
        """
        if self._mark is not None:
            raise RuntimeError("tracer is already installed")
        self._mark = self.patches.mark()
        for owner, attr, name, iterator in targets:
            self.patches.apply(
                owner, attr, self._wrap(name, vars(owner)[attr], iterator)
            )
        if shard_entry is not None:
            self.patches.apply(cluster, *shard_entry)

    def uninstall(self) -> None:
        if self._mark is not None:
            self.patches.restore(self._mark)
            self._mark = None

    # -- worker spans ---------------------------------------------------

    def spool(self, directory: str | os.PathLike) -> None:
        """Write this (worker) tracer's spans for the parent to collect."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        payload = {
            "pid": os.getpid(),
            "items": dict(self.items),
            "spans": [
                [
                    record[NAME],
                    record[THREAD],
                    record[START],
                    record[END],
                    -1 if record[PARENT] is None else index[id(record[PARENT])],
                    record[CHILD],
                ]
                for record in self.spans
            ],
        }
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        tmp = path / f"{uuid.uuid4().hex}.tmp"
        tmp.write_text(json.dumps(payload))
        tmp.rename(tmp.with_suffix(".json"))

    def collect(self, directory: str | os.PathLike) -> None:
        """Adopt spooled worker spans, tagged with the current ``run``."""
        path = Path(directory)
        if not path.is_dir():
            return
        for file in sorted(path.glob("*.json")):
            payload = json.loads(file.read_text())
            file.unlink()
            records: list[list] = []
            for name, thread, start, end, parent, child in payload["spans"]:
                records.append(
                    [
                        name,
                        thread,
                        start,
                        end,
                        records[parent] if parent >= 0 else None,
                        self.run,
                        child,
                    ]
                )
            self.remote.setdefault(payload["pid"], []).extend(records)
            self.items.update(payload["items"])

    # -- views ----------------------------------------------------------

    def records(self, runs, local: bool = True, remote: bool = True):
        """Span records whose run tag is in ``runs``."""
        pools = []
        if local:
            pools.append(self.spans)
        if remote:
            pools.extend(self.remote.values())
        return [r for pool in pools for r in pool if r[RUN] in runs]

    def chrome_trace(self) -> dict:
        """All spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = []
        pools = [(os.getpid(), self.spans), *self.remote.items()]
        for pid, pool in pools:
            index = {id(record): i for i, record in enumerate(pool)}
            for i, record in enumerate(pool):
                parent = record[PARENT]
                events.append(
                    {
                        "name": record[NAME],
                        "cat": record[NAME].split(".")[0],
                        "ph": "X",
                        "ts": record[START] * 1e6,
                        "dur": (record[END] - record[START]) * 1e6,
                        "pid": pid,
                        "tid": record[THREAD],
                        "args": {
                            "id": i,
                            "parent": None
                            if parent is None
                            else index[id(parent)],
                            "run": "setup"
                            if record[RUN] is None
                            else record[RUN],
                        },
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_totals(records) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy time, and self time.

    Busy time counts a span only when no enclosing span has the same
    name, so a layer re-entered through itself is not counted twice.
    """
    totals: dict[str, dict[str, float]] = {}
    for record in records:
        name = record[NAME]
        entry = totals.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        duration = record[END] - record[START]
        entry["calls"] += 1
        entry["self"] += duration - record[CHILD]
        parent = record[PARENT]
        while parent is not None and parent[NAME] != name:
            parent = parent[PARENT]
        if parent is None:
            entry["busy"] += duration
    return totals


# -- process-shard entry points (pickled by name, run in the workers) --


def run_feedline_plain(task):
    """One feedline shard, with its decision latencies in the report."""
    probe = LatencyProbe()
    mark = PATCHES.mark()
    probe.hook_shared_memory_source(PATCHES)
    probe.hook_sink(PATCHES)
    try:
        name, report = _RUN_FEEDLINE(task)
    finally:
        PATCHES.restore(mark)
    report.details["perfbench_latency_s"] = probe.samples
    return name, report


def run_feedline_traced(task):
    """:func:`run_feedline_plain` with the shard's layers traced."""
    tracer = Tracer()
    tracer.run = 0
    tracer.install(RUN_TARGETS)
    try:
        return run_feedline_plain(task)
    finally:
        tracer.uninstall()
        tracer.spool(os.environ[SPOOL_ENV])


def prefit_traced(task):
    """The cluster's calibration task with its set-up layers traced."""
    tracer = Tracer()
    tracer.install(SETUP_TARGETS)
    try:
        return _PREFIT_FEEDLINE(task)
    finally:
        tracer.uninstall()
        tracer.spool(os.environ[SPOOL_ENV])
