"""Process shards sized to the CPU: per-worker BLAS shares, one shared
resource tracker, and replay corpora published once per serving session."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.pipeline.cluster as cluster
from repro.analysis.sanitizers import shmaudit
from repro.analysis.sanitizers.reports import ENV_FLAG as SANITIZE_FLAG
from repro.analysis.sanitizers.reports import ReportLog
from repro.backends import RecordingBackend, SimulatorBackend, load_corpus
from repro.config import Profile
from repro.data import ReadoutCorpus, generate_corpus
from repro.data.basis import digits_to_state
from repro.exceptions import ConfigurationError
from repro.physics.device import multi_feedline_chips
from repro.pipeline import MultiFeedlineRunner, PipelineConfig
from repro.pipeline.cluster import ProcessShardExecutor, available_cpus
from repro.pipeline.registry import CalibrationRegistry
from repro.pipeline.runner import fit_or_load_discriminator
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    ReadoutService,
    ServeSpec,
    TrafficSpec,
)

N_RUNS = 3


def tiny_profile() -> Profile:
    """A fast sizing profile (not a named profile)."""
    return Profile(
        name="tiny",
        shots_per_state=10,
        calibration_shots=100,
        nn_epochs=8,
        fnn_epochs=2,
        batch_size=64,
        qec_shots=10,
        qudit_shots=10,
        spectral_max_points=100,
        seed=701,
    )


def _blas_threads(_index: int) -> int:
    """Probe task: this worker's OpenBLAS thread count."""
    return cluster._openblas_threads()[1]()


def _shard_dies(task):
    raise RuntimeError(f"shard for {task.name} died")


class CountingLedger(shmaudit.ShmLedger):
    """A ledger that also remembers every segment ever created."""

    def __init__(self, log: ReportLog) -> None:
        super().__init__(log=log)
        self.created: list[str] = []

    def note_create(self, name, nbytes, label=None, site=None) -> None:
        self.created.append(name)
        super().note_create(name, nbytes, label=label, site=site)


@pytest.fixture()
def ledger(monkeypatch):
    log = ReportLog()
    monkeypatch.setenv(SANITIZE_FLAG, "1")
    ledger = CountingLedger(log)
    monkeypatch.setattr(shmaudit, "GLOBAL_LEDGER", ledger)
    yield ledger
    assert log.outstanding() == ()


@pytest.fixture(scope="module")
def feedline_chips():
    return multi_feedline_chips(2, n_qubits=2)


@pytest.fixture(scope="module")
def corpus_path(feedline_chips, tmp_path_factory):
    """A recorded corpus every feedline's geometry accepts (broadcast)."""
    path = tmp_path_factory.mktemp("shards") / "corpus"
    inner = SimulatorBackend(feedline_chips[0], chunk_size=20)
    with RecordingBackend(inner, path) as backend:
        list(backend.acquire(60, seed=47))
    return path


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("shards-registry")


def replay_spec(corpus_path: Path, registry_dir: Path) -> ServeSpec:
    return ServeSpec(
        traffic=TrafficSpec(
            shots=60,
            chunk_size=20,
            backend="replay",
            corpus_path=str(corpus_path),
        ),
        cluster=ClusterSpec(
            feedlines=2, executor="process", workers=2, qubits_per_feedline=2
        ),
        batching=BatchingSpec(batch_size=16),
        calibration=CalibrationSpec(registry_dir=str(registry_dir)),
    )


class TestBlasShare:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_worker_gets_its_share_of_the_cpus(self, workers):
        if cluster._openblas_threads() is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread control")
        executor = ProcessShardExecutor(workers)
        try:
            reported = executor.map(_blas_threads, range(2 * workers))
        finally:
            executor.close()
        assert reported == [max(1, available_cpus() // workers)] * (
            2 * workers
        )

    def test_parent_blas_is_left_alone(self):
        control = cluster._openblas_threads()
        if control is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread control")
        before = control[1]()
        ProcessShardExecutor(2).close()
        assert control[1]() == before


class TestSessionPublication:
    def test_one_segment_per_distinct_corpus_for_the_session(
        self, ledger, corpus_path, registry_dir
    ):
        spec = replay_spec(corpus_path, registry_dir)
        with ReadoutService(spec, profile=tiny_profile()) as service:
            for _ in range(N_RUNS):
                service.run()
            # The broadcast corpus is one segment, published at warm-up.
            assert len(ledger.created) == 1
            assert [r.name for r in ledger.live()] == ledger.created
            assert ledger.live()[0].label == "feedline-0,feedline-1"
        assert ledger.live() == ()

    def test_one_shot_replay_publishes_distinct_corpora_only(
        self, ledger, feedline_chips, registry_dir
    ):
        corpora = [
            generate_corpus(feedline_chips[0], shots_per_state=4, seed=5),
            generate_corpus(feedline_chips[1], shots_per_state=4, seed=6),
        ]
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="serial",
            registry_dir=registry_dir,
        ) as runner:
            runner.run_replay(corpora)
            assert len(ledger.created) == 2
            assert ledger.live() == ()
            runner.run_replay({"feedline-0": corpora[0],
                               "feedline-1": corpora[0]})
            assert len(ledger.created) == 3
            assert ledger.live() == ()

    def test_no_segment_outlives_a_raising_run(
        self, ledger, monkeypatch, corpus_path, registry_dir
    ):
        spec = replay_spec(corpus_path, registry_dir)
        service = ReadoutService(spec, profile=tiny_profile()).warm()
        try:
            assert len(ledger.live()) == 1
            with monkeypatch.context() as patched:
                patched.setattr(cluster, "_run_feedline", _shard_dies)
                with pytest.raises(RuntimeError, match="died"):
                    service.run()
            assert ledger.live() == ()
            # The session re-warms, republishes, and serves again.
            assert service.run().n_shots == 120
            assert len(ledger.created) == 2
        finally:
            service.close()
        assert ledger.live() == ()

    def test_runner_without_publication_is_rejected(
        self, feedline_chips, registry_dir
    ):
        with MultiFeedlineRunner(
            feedline_chips, tiny_profile(), executor="serial",
            registry_dir=registry_dir,
        ) as runner:
            with pytest.raises(ConfigurationError, match="publish_replay"):
                runner.run_replay()


class TestServedLabels:
    def test_every_run_matches_offline_predict_and_one_shot_replay(
        self, corpus_path, registry_dir, feedline_chips
    ):
        spec = replay_spec(corpus_path, registry_dir)
        profile = tiny_profile()
        corpus = load_corpus(corpus_path)
        with ReadoutService(spec, profile=profile) as service:
            served = [service.run() for _ in range(N_RUNS)]
        registry = CalibrationRegistry(registry_dir)
        prepared = np.asarray(corpus.prepared_levels, dtype=np.int8)
        with MultiFeedlineRunner(
            feedline_chips,
            profile,
            executor="process",
            workers=2,
            config=PipelineConfig(batch_size=16),
            chunk_size=20,
            registry_dir=registry_dir,
        ) as runner:
            one_shot = runner.run_replay(corpus)
        for i, chip in enumerate(feedline_chips):
            name = f"feedline-{i}"
            model, cached = fit_or_load_discriminator(
                profile, registry, chip=chip, device=name
            )
            assert cached
            truth = digits_to_state(prepared.astype(np.int64), chip.n_levels)
            predicted = model.predict(ReadoutCorpus(
                feedline=corpus.feedline,
                labels=truth,
                prepared_levels=prepared,
                initial_levels=prepared,
                final_levels=prepared,
                chip=chip,
            ))
            offline = np.bincount(
                predicted, minlength=chip.n_levels**chip.n_qubits
            ).tolist()
            assert one_shot.feedline_reports[name].assignment_counts == offline
            for report in served:
                assert report.feedline_reports[name].assignment_counts == (
                    offline
                )


TRACKER_SCRIPT = textwrap.dedent(
    """
    import tempfile

    from repro.config import Profile
    from repro.data import generate_corpus
    from repro.physics.device import multi_feedline_chips
    from repro.pipeline import MultiFeedlineRunner

    profile = Profile(
        name="tiny", shots_per_state=10, calibration_shots=100,
        nn_epochs=4, fnn_epochs=2, batch_size=64, qec_shots=10,
        qudit_shots=10, spectral_max_points=100, seed=701,
    )
    chips = multi_feedline_chips(2, n_qubits=2, trace_len=120)
    corpora = [
        generate_corpus(chip, shots_per_state=4, seed=11 + i)
        for i, chip in enumerate(chips)
    ]
    with tempfile.TemporaryDirectory() as registry:
        with MultiFeedlineRunner(
            chips, profile, executor="process", workers=2,
            registry_dir=registry,
        ) as runner:
            runner.prefit()
            report = runner.run_replay(corpora)
    print(report.n_shots)
    """
)


def test_forked_shards_share_the_parents_resource_tracker():
    """Workers forked before the tracker existed warned at exit about
    (and unlinked) segments the parent had already unlinked."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in (SANITIZE_FLAG, "REPRO_LOCK_DEBUG")
    }
    env["PYTHONPATH"] = src
    done = subprocess.run(
        [sys.executable, "-c", TRACKER_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(2 * 4 * 9)]
    assert "resource_tracker" not in done.stderr, done.stderr
