"""End-to-end readout simulation: preparation to digitized feedline traces."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro._util import check_random_state
from repro.exceptions import ConfigurationError, ShapeError
from repro.physics.device import ChipConfig
from repro.physics.jumps import TransitionRates, sample_level_matrix
from repro.physics.multiplex import multiplex
from repro.physics.noise import complex_white_noise
from repro.physics.trajectories import field_recurrence, qubit_field_tables

__all__ = ["SimulationResult", "FeedlineTables", "ReadoutSimulator"]


@dataclass(frozen=True)
class SimulationResult:
    """Output of a batch simulation.

    Attributes
    ----------
    feedline:
        Digitized multiplexed IQ signal, complex64 (n_shots, trace_len).
        Its real/imag parts are what the two ADCs record.
    prepared_levels:
        The *intended* per-qubit levels (n_shots, n_qubits) — the labels a
        calibration run would assign.
    initial_levels:
        Levels actually occupied at t=0 after preparation errors (natural
        leakage, thermal population).
    final_levels:
        Levels at the end of the window, after mid-readout jumps.
    """

    feedline: np.ndarray
    prepared_levels: np.ndarray
    initial_levels: np.ndarray
    final_levels: np.ndarray

    @property
    def n_shots(self) -> int:
        return self.feedline.shape[0]


class FeedlineTables(NamedTuple):
    """Jump-free feedline building blocks for one readout window length.

    Attributes
    ----------
    fields:
        Baseband field of each qubit pinned in each level, complex128
        (n_qubits, n_levels, trace_len).
    weights:
        Per-source tone weights from :func:`~repro.physics.multiplex.multiplex`,
        complex128 (n_qubits, trace_len).
    contributions:
        ``weights[:, None] * fields``: what each pinned qubit adds to the
        feedline, complex128 (n_qubits, n_levels, trace_len).
    """

    fields: np.ndarray
    weights: np.ndarray
    contributions: np.ndarray


class ReadoutSimulator:
    """Simulates multiplexed dispersive readout for one chip.

    A shot whose qubits hold their levels through the window is a sum of
    fixed per-(qubit, level) feedline templates, built once per window
    length; only the (qubit, shot) rows that jump run the field
    recurrence.

    Parameters
    ----------
    chip:
        Device description.
    seed:
        RNG seed or generator; all stochastic stages (preparation errors,
        jumps, noise) draw from it.
    """

    def __init__(
        self, chip: ChipConfig, seed: int | np.random.Generator | None = None
    ) -> None:
        self.chip = chip
        self._rng = check_random_state(seed)
        self._rates = [TransitionRates.from_qubit(q) for q in chip.qubits]
        # Field tables of every qubit, stacked so code q * n_levels + level
        # indexes qubit q in that level.
        per_qubit = [qubit_field_tables(q, chip.dt_ns) for q in chip.qubits]
        self._steady = np.concatenate([steady for steady, _ in per_qubit])
        self._decay = np.concatenate([decay for _, decay in per_qubit])
        # The chip is frozen, so entries keyed on trace_len never go stale.
        self._tables: dict[int, FeedlineTables] = {}

    def feedline_tables(self, trace_len: int) -> FeedlineTables:
        """The jump-free templates for ``trace_len`` samples (cached)."""
        tables = self._tables.get(trace_len)
        if tables is None:
            chip = self.chip
            codes = np.repeat(
                np.arange(chip.n_qubits * chip.n_levels)[:, None],
                trace_len,
                axis=1,
            )
            fields = field_recurrence(codes, self._steady, self._decay)
            fields = fields.reshape(chip.n_qubits, chip.n_levels, trace_len)
            weights = multiplex(chip, chip.sample_times(trace_len))
            tables = FeedlineTables(
                fields, weights, weights[:, None, :] * fields
            )
            # Every later call reads these; a caller must not edit them.
            for table in tables:
                table.flags.writeable = False
            self._tables[trace_len] = tables
        return tables

    def _apply_preparation_errors(self, prepared: np.ndarray) -> np.ndarray:
        """Sample actual initial levels given intended levels."""
        initial = prepared.copy()
        for q, qubit in enumerate(self.chip.qubits):
            col = prepared[:, q]
            u = self._rng.random(col.shape[0])
            thermal = (col == 0) & (u < qubit.prep_thermal_prob)
            leak = (col == 1) & (u < qubit.prep_leak_prob)
            initial[thermal, q] = 1
            initial[leak, q] = 2
        return initial

    def simulate(
        self,
        prepared_levels: np.ndarray,
        trace_len: int | None = None,
        include_preparation_errors: bool = True,
    ) -> SimulationResult:
        """Simulate one readout window for a batch of prepared states.

        Parameters
        ----------
        prepared_levels:
            Integer array (n_shots, n_qubits): intended level per qubit.
        trace_len:
            Override the chip's readout window length (used by the
            readout-duration sweep of Fig 5b).
        include_preparation_errors:
            When False, qubits start exactly in their prepared level
            (useful for controlled unit tests).

        Raises
        ------
        ShapeError
            ``prepared_levels`` is not (n_shots, n_qubits) with at least
            one shot.
        ConfigurationError
            A level outside ``[0, n_levels)``, or a ``trace_len`` that is
            not an integer >= 2.
        """
        chip = self.chip
        prepared = np.asarray(prepared_levels, dtype=np.int64)
        if (
            prepared.ndim != 2
            or prepared.shape[0] == 0
            or prepared.shape[1] != chip.n_qubits
        ):
            raise ShapeError(
                f"prepared_levels must be (n_shots >= 1, {chip.n_qubits}), "
                f"got {prepared.shape}"
            )
        if prepared.min() < 0 or prepared.max() >= chip.n_levels:
            raise ConfigurationError(
                f"levels must lie in [0, {chip.n_levels})"
            )
        if trace_len is None:
            trace_len = chip.trace_len
        elif trace_len != int(trace_len):
            raise ConfigurationError(
                f"trace_len must be an integer, got {trace_len!r}"
            )
        trace_len = int(trace_len)
        if trace_len < 2:
            raise ConfigurationError(f"trace_len must be >= 2, got {trace_len}")

        if include_preparation_errors:
            initial = self._apply_preparation_errors(prepared)
        else:
            initial = prepared.copy()

        tables = self.feedline_tables(trace_len)
        n_shots, n_qubits = prepared.shape
        n_levels = chip.n_levels
        # held[s, q * n_levels + l] = 1 when qubit q of shot s sits in
        # level l for the whole window.
        held = np.zeros((n_shots, n_qubits * n_levels), dtype=np.complex128)
        final = np.empty_like(initial)
        jumped_rows, jumped_codes = [], []
        for q in range(n_qubits):
            levels = sample_level_matrix(
                initial[:, q], self._rates[q], trace_len, chip.dt_ns, self._rng
            )
            final[:, q] = levels[:, -1]
            # A jump can land in sample 0, so a row is jump-free when it
            # holds its sample-0 level, not its initial one.
            jumped = (levels != levels[:, :1]).any(axis=1)
            still = np.flatnonzero(~jumped)
            held[still, q * n_levels + levels[still, 0]] = 1.0
            rows = np.flatnonzero(jumped)
            jumped_rows.append(rows)
            jumped_codes.append(
                np.add(levels[rows], q * n_levels, dtype=np.intp)
            )

        templates = tables.contributions.reshape(n_qubits * n_levels, -1)
        feedline = held @ templates
        # One recurrence over every jumped (qubit, shot) row.
        fields = field_recurrence(
            np.concatenate(jumped_codes), self._steady, self._decay
        )
        offset = 0
        for q, rows in enumerate(jumped_rows):
            feedline[rows] += (
                tables.weights[q] * fields[offset : offset + rows.size]
            )
            offset += rows.size

        feedline += complex_white_noise(
            feedline.shape, chip.noise_std, self._rng
        )
        feedline = chip.adc.digitize(feedline)
        return SimulationResult(
            feedline=feedline.astype(np.complex64),
            prepared_levels=prepared,
            initial_levels=initial,
            final_levels=final,
        )

    def simulate_joint_states(
        self,
        joint_states: np.ndarray,
        shots_per_state: int,
        n_levels: int | None = None,
        trace_len: int | None = None,
    ) -> tuple[SimulationResult, np.ndarray]:
        """Simulate ``shots_per_state`` shots for each joint basis state.

        Returns the batch result and the per-shot joint state labels.
        """
        from repro.data.basis import state_to_digits

        if shots_per_state < 1:
            raise ConfigurationError("shots_per_state must be >= 1")
        n_levels = self.chip.n_levels if n_levels is None else n_levels
        states = np.asarray(joint_states, dtype=np.int64)
        labels = np.repeat(states, shots_per_state)
        digits = state_to_digits(labels, self.chip.n_qubits, n_levels)
        result = self.simulate(digits, trace_len=trace_len)
        return result, labels
