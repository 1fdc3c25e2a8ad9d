"""Vectorized discrimination stages with a fused zero-copy hot path.

The multiplexed feedline carries one frequency channel per qubit, and the
front half of discrimination — digital down-conversion, boxcar decimation,
matched-filter scoring — is linear in the raw trace. The
:class:`BatchDiscriminationEngine` exploits that: in its default
``fused`` mode the demod tone and boxcar weights are folded into every
qubit's matched-filter kernels once at load time (see
:meth:`~repro.discriminators.features.MatchedFilterFeatureExtractor
.fused_kernel_bank`), so one matmul over the stacked
``(n_qubits * n_filters, trace_len)`` weight bank scores *all* channels
of a micro-batch directly from the raw feedline — no per-qubit
``feedline * tone`` copies, no decimated intermediates, no
``np.concatenate`` of per-channel score blocks. Scores land in a
caller-supplied (or engine-owned, reused) feature buffer and go straight
to the per-qubit networks: their layers are stacked across heads, with
the feature scaler folded into the first one (see :meth:`~repro
.discriminators.mlr.MLRDiscriminator.head_levels_and_margin`), so each
layer is one batched matmul over every head.

The ``legacy`` mode keeps the original per-channel chain — each
micro-batch fans out one task per qubit channel across a
``concurrent.futures`` executor — as the bit-exact reference the fused
path is regression-tested against.

Either way the engine consumes a *fitted* :class:`~repro.discriminators
.mlr.MLRDiscriminator` — it reuses the exact kernels, scaler, and heads,
so streaming predictions match offline ``predict``.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from repro.data.basis import digits_to_state
from repro.discriminators.mlr import MLRDiscriminator
from repro.dsp.matched_filter import FusedKernelBank
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.physics.device import ChipConfig

__all__ = ["ENGINE_MODES", "BatchResult", "BatchDiscriminationEngine"]

#: Valid engine modes: the fused zero-copy path (default) and the
#: per-channel reference chain.
ENGINE_MODES = ("fused", "legacy")


@dataclass(frozen=True)
class BatchResult:
    """One micro-batch's discrimination output with stage timings.

    Attributes
    ----------
    levels:
        Per-qubit predicted levels (n_shots, n_qubits).
    joint:
        Joint state labels (n_shots,), base ``n_levels``.
    stage_seconds:
        Wall time per stage for this batch. Sharded stages report their
        critical path (slowest channel), matching what a parallel deploy
        would observe. The fused path reports its single matmul under
        ``matched_filter`` and 0.0 for ``demod`` — the tone is folded
        into the kernels at load time, so demodulation genuinely costs
        nothing per batch.
    mean_margin:
        Mean top-2 probability margin over every (shot, qubit) head
        decision in the batch — the confidence signal online drift
        detection tracks (a drifting device erodes it long before
        assignments flip en masse).
    """

    levels: np.ndarray
    joint: np.ndarray
    stage_seconds: dict[str, float]
    mean_margin: float = float("nan")

    @property
    def n_shots(self) -> int:
        return self.levels.shape[0]


def _score_channel(
    extractor,
    qubit: int,
    feedline: np.ndarray,
    if_frequency_ghz: float,
    times_ns: np.ndarray,
) -> tuple[np.ndarray, float, float]:
    """Demod + decimate + matched-filter one qubit channel of a batch.

    Delegates to the extractor's own channel helpers so streaming and
    offline scoring cannot drift apart; this wrapper only adds the
    per-substage timing.
    """
    t0 = time.perf_counter()
    traces = extractor.channel_baseband(feedline, if_frequency_ghz, times_ns)
    t1 = time.perf_counter()
    scores = extractor.score_baseband(qubit, traces)
    t2 = time.perf_counter()
    return scores, t1 - t0, t2 - t1


def _score_channel_args(args) -> tuple[np.ndarray, float, float]:
    """Tuple-unpacking shim for ``executor.map`` channel dispatch.

    Module-level on purpose: a lambda closed over the call site is not
    picklable, which crashed every process-pool executor handed to the
    engine. This function round-trips through pickle like any other
    top-level callable.
    """
    return _score_channel(*args)


class BatchDiscriminationEngine:
    """Runs fitted-discriminator stages over raw feedline batches.

    Parameters
    ----------
    discriminator:
        A fitted :class:`MLRDiscriminator` whose kernels/scaler/heads are
        served unchanged.
    chip:
        The device the stream comes from (provides IFs and sample times).
    executor:
        Optional ``concurrent.futures`` executor for channel sharding in
        ``legacy`` mode; ``None`` runs channels inline. The fused mode
        is one BLAS call and never uses it.
    mode:
        ``"fused"`` (default) scores every channel in a single matmul
        over the precomputed fused kernel bank; ``"legacy"`` runs the
        original per-channel demod → decimate → matched-filter chain.

    Per-window state — the fused weight bank, sample timestamps, and
    matmul scratch — is cached on the engine keyed by raw trace length,
    so a warm serving loop recomputes none of it per batch.
    """

    def __init__(
        self,
        discriminator: MLRDiscriminator,
        chip: ChipConfig,
        executor: Executor | None = None,
        mode: str = "fused",
    ) -> None:
        if mode not in ENGINE_MODES:
            raise ConfigurationError(
                f"mode must be one of {ENGINE_MODES}, got {mode!r}"
            )
        if not getattr(discriminator, "_fitted", False):
            raise NotFittedError(
                "BatchDiscriminationEngine requires a fitted discriminator"
            )
        extractor = discriminator.extractor
        if extractor.banks_ is None:
            raise NotFittedError("discriminator's feature extractor is not fitted")
        if len(extractor.banks_) != chip.n_qubits:
            raise DataError(
                f"discriminator calibrated for {len(extractor.banks_)} "
                f"qubits, chip has {chip.n_qubits}"
            )
        self.discriminator = discriminator
        self.chip = chip
        self.executor = executor
        self.mode = mode
        self.n_features = chip.n_qubits * extractor.filters_per_qubit
        # Per-trace-length caches (typically one entry; truncated-window
        # serving adds one per distinct window).
        self._fused_banks: dict[int, FusedKernelBank] = {}
        self._sample_times: dict[int, np.ndarray] = {}
        # Reused per-batch workspaces, grown once to the largest batch.
        self._complex_scratch: np.ndarray | None = None
        self._feature_scratch: np.ndarray | None = None

    def _times(self, trace_len: int) -> np.ndarray:
        """Sample timestamps for a window, computed once per length."""
        times = self._sample_times.get(trace_len)
        if times is None:
            times = self.chip.sample_times(trace_len)
            self._sample_times[trace_len] = times
        return times

    def _fused_bank(self, trace_len: int) -> FusedKernelBank:
        """The fused weight bank for a raw window, built once per length."""
        bank = self._fused_banks.get(trace_len)
        if bank is None:
            bank = self.discriminator.extractor.fused_kernel_bank(
                self.chip, trace_len
            )
            self._fused_banks[trace_len] = bank
        return bank

    def _scratch(self, n_shots: int) -> tuple[np.ndarray, np.ndarray]:
        """(complex, float) per-batch workspaces, reused across batches."""
        if (
            self._complex_scratch is None
            or self._complex_scratch.shape[0] < n_shots
        ):
            self._complex_scratch = np.empty(
                (n_shots, self.n_features), dtype=np.complex128
            )
            self._feature_scratch = np.empty(
                (n_shots, self.n_features), dtype=np.float64
            )
        return (
            self._complex_scratch[:n_shots],
            self._feature_scratch[:n_shots],
        )

    def process(
        self, feedline: np.ndarray, out_features: np.ndarray | None = None
    ) -> BatchResult:
        """Discriminate one micro-batch of raw feedline traces.

        ``out_features`` — optional preallocated ``(n_shots,
        n_features)`` float buffer (a :class:`~repro.pipeline.buffers
        .BufferRing` slot) the fused path writes raw scores into; the
        engine's own reused scratch serves when omitted. Ignored in
        ``legacy`` mode.
        """
        feedline = np.atleast_2d(np.asarray(feedline))
        disc = self.discriminator

        if self.mode == "fused":
            n = feedline.shape[0]
            bank = self._fused_bank(feedline.shape[1])
            complex_scratch, feature_scratch = self._scratch(n)
            features = (
                out_features if out_features is not None else feature_scratch
            )
            t0 = time.perf_counter()
            x = bank.scores(feedline, out=features, scratch=complex_scratch)
            t1 = time.perf_counter()
            demod_s, mf_s = 0.0, t1 - t0
        else:
            times = self._times(feedline.shape[1])
            extractor = disc.extractor
            args = [
                (
                    extractor,
                    q,
                    feedline,
                    self.chip.qubits[q].if_frequency_ghz,
                    times,
                )
                for q in range(self.chip.n_qubits)
            ]
            if self.executor is None:
                sharded = [_score_channel(*a) for a in args]
            else:
                sharded = list(self.executor.map(_score_channel_args, args))
            # Critical path: the slowest channel bounds the sharded stages.
            demod_s = max(t for _, t, _ in sharded)
            mf_s = max(t for _, _, t in sharded)
            t1 = time.perf_counter()
            x = np.concatenate(  # repro: allow(no-hidden-copy) legacy reference chain, not the fused hot path
                [scores for scores, _, _ in sharded], axis=1
            )

        t2 = time.perf_counter()
        # The shared helper keeps serving margins computed exactly like
        # the calibration-time reference margin drift scoring compares
        # against (and its argmax matches offline ``predict``).
        levels, mean_margin = disc.head_levels_and_margin(x)
        joint = digits_to_state(levels, self.chip.n_levels)
        discriminate_s = time.perf_counter() - t2

        return BatchResult(
            levels=levels,
            joint=joint,
            stage_seconds={
                "demod": demod_s,
                "matched_filter": mf_s,
                "discriminate": discriminate_s,
            },
            mean_margin=mean_margin,
        )
