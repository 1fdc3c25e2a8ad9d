"""One benchmark run of one workload, in one process.

``perfbench/run.py`` starts this module with ``src`` on the path and the
program's debug switches (``REPRO_SANITIZE``, ``REPRO_LOCK_DEBUG``)
removed from the environment. The run:

1. makes the workload's inputs from ``--seed``: the calibration seed,
   the traffic seed and, on replay workloads, a corpus recorded through
   the public record path (``RecordingBackend`` over the simulator);
2. sets a ``ReadoutService`` up :data:`SETUP_REPS` times, each from an
   empty calibration registry, and keeps the last one warm;
3. computes the expected labels offline, with ``MLRDiscriminator.predict``
   on the same traces, before anything is timed;
4. serves the traffic in a closed loop (one caller waiting for each
   ``run()``) for ``--seconds`` and checks every run against step 3;
5. prints readable lines, then one JSON payload as the last line.

On a one-CPU workload a fixed reference kernel is timed just before each
set-up and each run, and the end-to-end times are reported at the
nominal CPU speed (see :meth:`Bench.cpu_speed`); the readable lines give
them as measured too.

With ``--trace 1`` every second run is traced (see :mod:`perfbench.spans`);
the untraced runs in between give the tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import spans
from perfbench.workloads import WORKLOADS, Workload, parse_args
from repro.backends import RecordingBackend, SimulatorBackend
from repro.backends.corpus import MANIFEST_NAME
from repro.data.basis import digits_to_state
from repro.data.dataset import ReadoutCorpus
from repro.fpga.latency import (
    decision_budget_ns,
    pipeline_latency_cycles,
    pipeline_latency_ns,
)
from repro.physics.device import default_five_qubit_chip, multi_feedline_chips
from repro.pipeline.registry import CalibrationRegistry
from repro.pipeline.runner import DEFAULT_DEVICE, fit_or_load_discriminator
from repro.serve import ReadoutService, ServeSpec
from repro.serve.spec import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    TrafficSpec,
)

CHUNK_SIZE = 256
PROFILE = "quick"
SETUP_REPS = 3
SEED_MODULUS = 2**31 - 2
#: The reference kernel's time at the nominal CPU speed that one-CPU
#: workloads report their times at; it only sets the scale.
REFERENCE_MS = 8.0

_REF_RNG = np.random.default_rng(0)
_REF_A = (_REF_RNG.standard_normal((64, 512))
          + 1j * _REF_RNG.standard_normal((64, 512)))
_REF_B = _REF_RNG.standard_normal((512, 20)) + 0j


def reference_ms() -> float:
    """Time of a fixed kernel that runs no program code, in ms.

    An interpreter loop, small complex matmuls, sorts and reductions: the
    mix of the single-feedline serving path, so that on a shared host its
    time follows the CPU's speed the way the program's does.
    """
    start = perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    for _ in range(20):
        np.sort((_REF_A @ _REF_B).real, axis=0)
        np.abs(_REF_A).sum()
    return (perf_counter() - start) * 1e3


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run as specified."""


@dataclass(frozen=True)
class Expected:
    """Offline-``predict`` reference for one feedline's traffic."""

    name: str
    counts: np.ndarray
    n_correct: int
    n_shots: int


@dataclass
class Served:
    """One ``ReadoutService.run`` call and its check."""

    index: int
    warmup: bool
    traced: bool
    wall: float
    attempted: int
    failed: int
    raised: bool
    shots: int = 0
    correct: int = 0
    feedline_wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    #: Factor from this run's times to times at the nominal CPU speed.
    speed: float = 1.0


def serve_spec(workload: Workload, seed: int, corpus: Path | None,
               registry: Path) -> ServeSpec:
    replay = workload.backend == "replay"
    return ServeSpec(
        traffic=TrafficSpec(
            shots=workload.shots,
            chunk_size=CHUNK_SIZE,
            seed=None if replay else seed + 1,
            backend=workload.backend,
            corpus_path=str(corpus) if replay else None,
        ),
        cluster=ClusterSpec(
            feedlines=workload.feedlines,
            executor=workload.executor,
            workers=workload.feedlines,
        ),
        batching=BatchingSpec(batch_size=workload.batch_size),
        calibration=CalibrationSpec(
            profile=PROFILE, registry_dir=str(registry), seed=seed
        ),
    )


def record_corpus(path: Path, shots: int, seed: int) -> None:
    """Record replay traffic through the public record path."""
    backend = RecordingBackend(
        SimulatorBackend(default_five_qubit_chip(), chunk_size=CHUNK_SIZE),
        path,
    )
    with backend:
        for _ in backend.acquire(shots, seed=seed):
            pass


def traffic_chunks(service: ReadoutService, workload: Workload,
                   corpus: Path | None, seed: int):
    """Yield the (traces, prepared levels) every run serves, in chunks.

    Chunk by chunk, so that the check adds little to the peak memory
    the benchmark reports: replay traffic is read file by file as the
    corpus manifest lists it, simulated traffic is regenerated from the
    traffic seed exactly as the session's simulator backend makes it.
    """
    if workload.backend == "replay":
        manifest = json.loads((corpus / MANIFEST_NAME).read_text())
        for entry in manifest["chunks"]:
            yield (np.load(corpus / entry["feedline"]["file"]),
                   np.load(corpus / entry["levels"]["file"]))
        return
    backend = SimulatorBackend(service.backend.chip, chunk_size=CHUNK_SIZE)
    for chunk in backend.acquire(workload.shots, seed=seed + 1):
        yield chunk.feedline, chunk.prepared_levels


def expected_labels(service: ReadoutService, workload: Workload,
                    chunks) -> tuple[list[Expected], tuple[int, ...]]:
    """Offline ``predict`` counts and accuracy per feedline."""
    registry = CalibrationRegistry(service.registry_dir)
    if workload.feedlines == 1:
        targets = [("feedline-0", default_five_qubit_chip(), DEFAULT_DEVICE)]
    else:
        targets = [
            (f"feedline-{i}", chip, f"feedline-{i}")
            for i, chip in enumerate(multi_feedline_chips(workload.feedlines))
        ]
    models = []
    for name, chip, device in targets:
        discriminator, cached = fit_or_load_discriminator(
            service.profile, registry, chip=chip, device=device,
            design=service.spec.calibration.design,
        )
        if not cached:
            raise BenchmarkError(
                f"{name}: the served calibration artifact is missing from "
                f"{service.registry_dir}"
            )
        models.append(discriminator)
    counts = [np.zeros(chip.n_levels**chip.n_qubits, dtype=np.int64)
              for _, chip, _ in targets]
    n_correct = [0] * len(targets)
    n_shots = 0
    for traces, levels in chunks:
        prepared = np.asarray(levels, dtype=np.int8)
        n_shots += traces.shape[0]
        for i, ((_, chip, _), model) in enumerate(zip(targets, models)):
            truth = digits_to_state(prepared.astype(np.int64), chip.n_levels)
            predicted = model.predict(ReadoutCorpus(
                feedline=traces,
                labels=truth,
                prepared_levels=prepared,
                initial_levels=prepared,
                final_levels=prepared,
                chip=chip,
            ))
            counts[i] += np.bincount(predicted, minlength=counts[i].size)
            n_correct[i] += int(np.sum(predicted == truth))
    expected = [
        Expected(name, c, k, n_shots)
        for (name, _, _), c, k in zip(targets, counts, n_correct)
    ]
    return expected, tuple(models[0].models[0].layer_sizes)


def check_run(report, workload: Workload, expected: list[Expected]):
    """(failed shots, served correct shots, served shots, slowest wall).

    A served shot fails when its label disagrees with offline predict:
    the mismatch count is half the L1 distance between the served and
    expected assignment counts, raised to the gap in correct shots or in
    shot count when either is larger.
    """
    if workload.feedlines == 1:
        reports = [report]
    else:
        reports = [report.feedline_reports[e.name] for e in expected]
    failed = correct = shots = 0
    for served, want in zip(reports, expected):
        counts = np.asarray(served.assignment_counts, dtype=np.int64)
        served_correct = round((served.accuracy or 0.0) * served.n_shots)
        failed += max(
            int(np.abs(counts - want.counts).sum()) // 2,
            abs(served_correct - want.n_correct),
            abs(served.n_shots - want.n_shots),
        )
        correct += served_correct
        shots += served.n_shots
    return failed, correct, shots, max(r.wall_seconds for r in reports)


class Bench:
    """State of one benchmark run (one workload, one seed)."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, work: Path, trace_file: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = spans.Tracer() if trace else None
        self.work = work
        self.spool = work / "spool"
        self.trace_file = trace_file
        self.probe = spans.LatencyProbe()
        self.corpus: Path | None = None
        self.setup_walls: list[float] = []
        self.setup_speeds: list[float] = []
        self.cold_fits: list[int] = []

    def cpu_speed(self) -> float:
        """Factor from times measured now to times at nominal CPU speed.

        A shared host's CPU speed drifts by up to 2x over minutes, and a
        one-CPU workload's times drift with it. Timing a fixed kernel on
        the same CPU just before each timed span measures that speed, so
        the span can be reported at the nominal speed. The process-shard
        workload's time is set by its shards sharing two CPUs, which the
        kernel does not follow, so its times are reported as measured.
        """
        if not self.workload.one_cpu:
            return 1.0
        return REFERENCE_MS / reference_ms()

    # -- phases ---------------------------------------------------------

    def setup(self) -> ReadoutService:
        if self.workload.backend == "replay":
            self.corpus = self.work / "corpus"
            record_corpus(self.corpus, self.workload.shots, self.seed + 1)
        service = None
        for rep in range(SETUP_REPS):
            if service is not None:
                service.close()
                shutil.rmtree(self.work / f"registry-{rep - 1}")
            spec = serve_spec(
                self.workload, self.seed, self.corpus,
                self.work / f"registry-{rep}",
            )
            if self.tracer is not None:
                self.tracer.install(
                    spans.SETUP_TARGETS,
                    shard_entry=("_prefit_feedline", spans.prefit_traced),
                )
            self.setup_speeds.append(self.cpu_speed())
            start = perf_counter()
            service = ReadoutService(spec)
            service.warm()
            self.setup_walls.append(perf_counter() - start)
            if self.tracer is not None:
                self.tracer.uninstall()
                self.tracer.collect(self.spool)
            self.cold_fits.append(service.stats.cold_fits)
        return service

    def serve(self, service: ReadoutService) -> list[Served]:
        self.expected, self.head_sizes = expected_labels(
            service, self.workload,
            traffic_chunks(service, self.workload, self.corpus, self.seed),
        )
        mark = spans.PATCHES.mark()
        try:
            if self.workload.feedlines == 1:
                self.probe.hook_sink(spans.PATCHES)
                self.probe.watch_backend(service.backend)
            else:
                spans.PATCHES.apply(
                    spans.cluster, "_run_feedline", spans.run_feedline_plain
                )
            # Run 0 warms caches and is checked but not timed; with
            # tracing, even runs are traced and odd runs are not.
            results = [self.serve_one(service, 0, warmup=True, traced=False)]
            deadline = perf_counter() + self.seconds
            index = 1
            while index < 3 or perf_counter() < deadline:
                traced = self.tracer is not None and index % 2 == 0
                results.append(
                    self.serve_one(service, index, warmup=False, traced=traced)
                )
                index += 1
        finally:
            spans.PATCHES.restore(mark)
        return results

    def serve_one(self, service: ReadoutService, index: int, warmup: bool,
                  traced: bool) -> Served:
        attempted = self.workload.shots * self.workload.feedlines
        speed = self.cpu_speed()
        self.probe.start_run()
        first_sample = len(self.probe.samples)
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.run = index
            tracer.install(
                spans.RUN_TARGETS,
                shard_entry=(
                    ("_run_feedline", spans.run_feedline_traced)
                    if self.workload.feedlines > 1
                    else None
                ),
            )
        start = perf_counter()
        try:
            report = service.run()
        except Exception:  # repro: allow(broad-except) a raising run counts as failed shots
            wall = perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            traceback.print_exc()
            service.warm()
            if self.workload.feedlines == 1:
                self.probe.watch_backend(service.backend)
            return Served(index, warmup, traced, wall, attempted, attempted,
                          raised=True, speed=speed)
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            tracer.collect(self.spool)
        failed, correct, shots, feedline_wall = check_run(
            report, self.workload, self.expected
        )
        if self.workload.feedlines == 1:
            latencies = self.probe.samples[first_sample:]
        else:
            latencies = [
                sample
                for r in report.feedline_reports.values()
                for sample in r.details["perfbench_latency_s"]
            ]
        return Served(index, warmup, traced, wall, attempted, failed,
                      raised=False, shots=shots, correct=correct,
                      feedline_wall=feedline_wall, latencies=latencies,
                      speed=speed)

    # -- results --------------------------------------------------------

    def end_to_end(self, results: list[Served], peak_rss_mb: float) -> dict:
        timed = [r for r in results if not r.warmup and not r.traced]
        ok = [r for r in timed if not r.raised]
        if not ok:
            raise BenchmarkError("every timed run raised")
        n_samples = sum(len(r.latencies) for r in ok)
        print(
            f"closed loop: {len(timed)} timed runs, {sum(r.shots for r in ok)}"
            f" shots in {sum(r.wall for r in ok):.3f} s; "
            f"{n_samples} batch decisions"
        )
        measured = self.timings(ok, scaled=False)
        print("as measured: " + ", ".join(
            f"{k} {v:.6g}" for k, v in measured.items())
            + "; setup_s per set-up: " + ", ".join(
                f"{s:.3f}" for s in self.setup_walls))
        times = measured
        if self.workload.one_cpu:
            times = self.timings(ok, scaled=True)
            ref = statistics.median(REFERENCE_MS / r.speed for r in ok)
            print(f"at nominal CPU speed (reference kernel {ref:.3f} ms "
                  f"median, nominal {REFERENCE_MS:g} ms): " + ", ".join(
                      f"{k} {v:.6g}" for k, v in times.items()))
        return {
            "shots_per_s": (times["shots_per_s"], "1/s"),
            "decision_latency_p50_ms": (times["decision_latency_p50_ms"],
                                        "ms"),
            "decision_latency_p90_ms": (times["decision_latency_p90_ms"],
                                        "ms"),
            "setup_s": (times["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "accuracy": (
                sum(r.correct for r in ok) / sum(r.shots for r in ok),
                "fraction"),
            "ok_shot_fraction": (
                1.0 - sum(r.failed for r in results)
                / sum(r.attempted for r in results),
                "fraction"),
        }

    def timings(self, ok: list[Served], scaled: bool) -> dict[str, float]:
        """End-to-end times as measured, or at the nominal CPU speed."""
        def scale(factor: float) -> float:
            return factor if scaled else 1.0

        latencies_ms = np.asarray(
            [s * scale(r.speed) for r in ok for s in r.latencies]) * 1e3
        p50, p90, p99 = np.percentile(latencies_ms, [50, 90, 99])
        # Shots served over the summed wall of the timed runs, so each
        # stretch of the window counts by its length, not the median
        # run's rate.
        return {
            "shots_per_s": sum(r.shots for r in ok)
            / sum(r.wall * scale(r.speed) for r in ok),
            "decision_latency_p50_ms": float(p50),
            "decision_latency_p90_ms": float(p90),
            "decision_latency_p99_ms (diagnostic)": float(p99),
            "setup_s": statistics.median(
                w * scale(f) for w, f in zip(self.setup_walls,
                                             self.setup_speeds)),
        }

    def per_layer(self, results: list[Served]) -> dict:
        tracer = self.tracer
        traced = [r for r in results if r.traced and not r.raised]
        plain = [r for r in results if not r.traced and not r.warmup
                 and not r.raised]
        if not traced or not plain:
            raise BenchmarkError("need a traced and an untraced run")
        runs = {r.index for r in traced}
        n_runs = len(traced)
        shots = sum(r.shots for r in traced)
        wall = sum(r.wall for r in traced)
        main = threading.get_ident()
        local = tracer.records(runs, remote=False)
        on_main = [r for r in local if r[spans.THREAD] == main]
        totals = spans.span_totals(local + tracer.records(runs, local=False))

        def total(name: str, kind: str) -> float:
            return totals.get(name, {}).get(kind, 0.0) / n_runs

        # Accounting on the serving thread: layer self times plus the
        # time outside every span add up to the traced wall. ``serve.run``
        # wraps the whole ``run()`` call, so the sum holds whenever every
        # span closed, and ``unaccounted`` is only the benchmark loop's
        # own time around the call; this checks that the span tree is
        # whole. The time the named layers miss is the self time of the
        # entry points, ``serve.run`` and ``runner.run``, which
        # ``traced_share`` leaves out.
        roots = [r for r in on_main if r[spans.PARENT] is None]
        unaccounted = wall - sum(r[spans.END] - r[spans.START] for r in roots)
        self_by_layer: dict[str, float] = {}
        for r in on_main:
            layer = r[spans.NAME].split(".")[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + (
                r[spans.END] - r[spans.START] - r[spans.CHILD]
            )
        accounted = sum(self_by_layer.values()) + unaccounted
        if abs(accounted - wall) > 1e-6:
            raise BenchmarkError(
                f"a span did not close: {accounted!r} s of self time + "
                f"unaccounted vs {wall!r} s traced wall"
            )
        glue = self_by_layer.get("serve", 0.0) + self_by_layer.get(
            "runner", 0.0)
        print(
            f"accounting (serving thread, {n_runs} traced runs): "
            + " + ".join(f"{k} {v:.4f}" for k, v in sorted(
                self_by_layer.items(), key=lambda kv: -kv[1]))
            + f" + unaccounted {unaccounted:.6f} = {accounted:.4f} s"
            f" = traced wall {wall:.4f} s"
        )
        self.print_fpga_reference(totals, shots)

        # Cluster figures only ever measure MultiFeedlineRunner.run_replay:
        # on one feedline they read 0.
        feedline_wall = dispatch = 0.0
        if self.workload.feedlines > 1:
            replay_wall = {r[spans.RUN]: r[spans.END] - r[spans.START]
                           for r in on_main
                           if r[spans.NAME] == "cluster.run_replay"}
            feedline_wall = statistics.fmean(r.feedline_wall for r in traced)
            dispatch = statistics.fmean(
                replay_wall[r.index] - r.feedline_wall for r in traced)
        # Traced and untraced runs serve the same shots and alternate,
        # so their median walls compare like for like.
        overhead = (statistics.median(r.wall for r in traced)
                    / statistics.median(r.wall for r in plain) - 1.0)
        items = tracer.items
        setup = spans.span_totals(tracer.records({None}))
        n_setups = len(self.setup_walls)

        def setup_total(name: str) -> float:
            return setup.get(name, {}).get("busy", 0.0) / n_setups

        return {
            "backends.acquire_s": (total("backends.acquire", "self"), "s/run"),
            "backends.chunks": (items["backends.acquire"] / n_runs,
                                "count/run"),
            "physics.simulate_s": (total("physics.simulate", "busy"),
                                   "s/run"),
            "physics.simulate_calls": (total("physics.simulate", "calls"),
                                       "count/run"),
            "batching.rebatch_s": (total("batching.rebatch", "self"),
                                   "s/run"),
            "batching.batches": (items["batching.rebatch"] / n_runs,
                                 "count/run"),
            "dsp.mf_scores_s": (total("dsp.mf_scores", "busy"), "s/run"),
            "dsp.mf_calls": (total("dsp.mf_scores", "calls"), "count/run"),
            "ml.scaler_s": (total("ml.scaler", "busy"), "s/run"),
            "discriminators.heads_s": (total("discriminators.heads", "self"),
                                       "s/run"),
            "ml.dense_forward_s": (total("ml.dense_forward", "busy"),
                                   "s/run"),
            "ml.dense_forward_calls": (total("ml.dense_forward", "calls"),
                                       "count/run"),
            "stages.process_s": (total("stages.process", "busy"), "s/run"),
            "stages.self_s": (total("stages.process", "self"), "s/run"),
            "drift.observe_s": (total("drift.observe", "busy"), "s/run"),
            "sink.consume_s": (total("sink.consume", "busy"), "s/run"),
            "eraser.consume_s": (total("eraser.consume", "busy"), "s/run"),
            "runner.self_s": (total("runner.run", "self"), "s/run"),
            "serve.self_s": (total("serve.run", "self"), "s/run"),
            "cluster.run_replay_s": (total("cluster.run_replay", "busy"),
                                     "s/run"),
            "cluster.feedline_wall_max_s": (feedline_wall, "s/run"),
            "cluster.dispatch_s": (dispatch, "s/run"),
            "shm.publish_s": (total("shm.publish", "busy"), "s/run"),
            "shm.unlink_s": (total("shm.unlink", "busy"), "s/run"),
            "registry.get_or_fit_s": (setup_total("registry.get_or_fit"),
                                      "s/setup"),
            "data.generate_corpus_s": (setup_total("data.generate_corpus"),
                                       "s/setup"),
            "discriminators.fit_s": (setup_total("discriminators.fit"),
                                     "s/setup"),
            "backends.open_s": (setup_total("backends.open"), "s/setup"),
            "cluster.prewarm_s": (setup_total("cluster.prewarm"), "s/setup"),
            "registry.cold_fits": (statistics.fmean(self.cold_fits),
                                   "count/setup"),
            "unaccounted_s": (unaccounted / n_runs, "s/run"),
            "traced_share": (1.0 - (unaccounted + glue) / wall, "fraction"),
            "trace_overhead": (overhead, "fraction"),
        }

    def print_fpga_reference(self, totals: dict, shots: int) -> None:
        """Each layer's self ns/shot beside the FPGA datapath's cycles.

        An ungated reference: the FPGA model (``repro.fpga.latency``)
        spends the matched-filter flush, one cycle per dense layer, and
        an input-register/argmax overhead per decision at 1 GHz.
        """
        sizes = self.head_sizes
        dense = len(sizes) - 1
        flush = round(decision_budget_ns(sizes) - pipeline_latency_ns(sizes))
        fpga = {
            "dsp.mf_scores": f"{flush} cycles (matched-filter flush)",
            "ml.dense_forward": f"{dense} cycles (1 per dense layer)",
            "discriminators.heads": (
                f"{pipeline_latency_cycles(sizes) - dense} cycles "
                "(input register + argmax)"),
        }
        print(f"{'layer (span)':<24} {'self ns/shot':>14}  FPGA model")
        for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self"]):
            print(f"{name:<24} {entry['self'] / shots * 1e9:>14.1f}  "
                  f"{fpga.get(name, '-')}")
        print(f"{'FPGA decision budget':<24} {'':>14}  "
              f"{decision_budget_ns(sizes):.0f} ns per shot at 1 GHz")

    def write_chrome_trace(self) -> None:
        self.trace_file.parent.mkdir(parents=True, exist_ok=True)
        self.trace_file.write_text(json.dumps(self.tracer.chrome_trace()))
        print(f"chrome trace: {self.trace_file} (open in Perfetto)")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest shard child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS: {own:.1f} MB own + {child:.1f} MB largest child")
    return own + child


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        root: Path) -> dict:
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    os.environ[spans.SPOOL_ENV] = str(work / "spool")
    bench = Bench(
        workload, seed, seconds, trace, work,
        state / f"trace-{workload.name}.json",
    )
    try:
        service = bench.setup()
        try:
            results = bench.serve(service)
        finally:
            service.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"checked {len(results)} runs against offline predict: "
          f"failed_shot_fraction {failed / attempted:.6g} "
          f"({failed} of {attempted} shots)")
    if trace:
        metrics = bench.per_layer(results)
        bench.write_chrome_trace()
    else:
        metrics = bench.end_to_end(results, peak_rss_mb())
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "runs_served": len(results),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = args.seed % SEED_MODULUS
    print(f"perfbench {workload.name}: seed {seed}, {args.seconds:g} s, "
          f"trace {args.trace}; closed loop, one caller")
    payload = run(workload, seed, args.seconds, bool(args.trace), Path.cwd())
    payload["run"] = {"workload": workload.name, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
