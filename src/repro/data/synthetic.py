"""Synthetic corpus generation for the paper's experimental setups."""

from __future__ import annotations

import numpy as np

from repro._util import check_random_state
from repro.data.basis import all_states, digits_to_state
from repro.data.dataset import ReadoutCorpus
from repro.exceptions import ConfigurationError
from repro.physics.device import ChipConfig, default_five_qubit_chip
from repro.physics.simulator import ReadoutSimulator

__all__ = ["generate_corpus", "generate_calibration_shots"]


def generate_corpus(
    chip: ChipConfig | None = None,
    shots_per_state: int = 16,
    states: np.ndarray | None = None,
    seed: int | np.random.Generator | None = None,
    chunk_states: int = 27,
) -> ReadoutCorpus:
    """Generate a labeled three-level corpus over joint basis states.

    The paper's dataset covers all ``3**5 = 243`` joint states of the
    five-qubit chip (leaked-state traces mined by clustering); here every
    state is prepared directly with the same per-state shot count.

    Parameters
    ----------
    chip:
        Device; defaults to :func:`default_five_qubit_chip`.
    shots_per_state:
        Traces per joint basis state.
    states:
        Subset of joint state indices; all of them by default.
    seed:
        RNG seed or generator.
    chunk_states:
        States simulated per batch, bounding peak memory: each batch's
        complex128 feedline, noise and quantization temporaries are a few
        times its complex64 rows, which are written straight into the
        corpus's preallocated feedline.
    """
    chip = chip if chip is not None else default_five_qubit_chip()
    if chunk_states < 1:
        raise ConfigurationError("chunk_states must be >= 1")
    if shots_per_state < 1:
        raise ConfigurationError("shots_per_state must be >= 1")
    rng = check_random_state(seed)
    sim = ReadoutSimulator(chip, seed=rng)
    states = (
        all_states(chip.n_qubits, chip.n_levels)
        if states is None
        else np.asarray(states, dtype=np.int64)
    )

    feedline = np.empty(
        (states.size * shots_per_state, chip.trace_len), dtype=np.complex64
    )
    labels = []
    prepared, initial, final = [], [], []
    for start in range(0, states.size, chunk_states):
        chunk = states[start : start + chunk_states]
        result, chunk_labels = sim.simulate_joint_states(chunk, shots_per_state)
        first = start * shots_per_state
        feedline[first : first + result.n_shots] = result.feedline
        labels.append(chunk_labels)
        prepared.append(result.prepared_levels.astype(np.int8))
        initial.append(result.initial_levels.astype(np.int8))
        final.append(result.final_levels.astype(np.int8))

    return ReadoutCorpus(
        feedline=feedline,
        labels=np.concatenate(labels),
        prepared_levels=np.concatenate(prepared, axis=0),
        initial_levels=np.concatenate(initial, axis=0),
        final_levels=np.concatenate(final, axis=0),
        chip=chip,
    )


def generate_calibration_shots(
    chip: ChipConfig | None = None,
    n_shots: int = 4000,
    seed: int | np.random.Generator | None = None,
    chunk_shots: int = 2000,
) -> ReadoutCorpus:
    """Generate *two-level* calibration shots with natural leakage.

    Mirrors the paper's source data: qubits are prepared only in |0> or
    |1> (cycling through the 2^n computational basis states), but
    preparation errors occasionally leave a qubit in |2>. Sec V.A's
    spectral clustering discovers those leaked traces without any |2>
    calibration; ``initial_levels`` carries the ground truth to score it.
    """
    chip = chip if chip is not None else default_five_qubit_chip()
    if n_shots < 1:
        raise ConfigurationError("n_shots must be >= 1")
    rng = check_random_state(seed)
    sim = ReadoutSimulator(chip, seed=rng)

    n_states = 2**chip.n_qubits
    state_cycle = np.tile(
        np.arange(n_states, dtype=np.int64), n_shots // n_states + 1
    )[:n_shots]
    # Expand binary joint indices to per-qubit 0/1 levels.
    shifts = np.arange(chip.n_qubits - 1, -1, -1)
    digits = (state_cycle[:, None] >> shifts) & 1

    feedline = np.empty((n_shots, chip.trace_len), dtype=np.complex64)
    prepared, initial, final = [], [], []
    for start in range(0, n_shots, chunk_shots):
        chunk = digits[start : start + chunk_shots]
        result = sim.simulate(chunk)
        feedline[start : start + result.n_shots] = result.feedline
        prepared.append(result.prepared_levels.astype(np.int8))
        initial.append(result.initial_levels.astype(np.int8))
        final.append(result.final_levels.astype(np.int8))

    prepared_all = np.concatenate(prepared, axis=0)
    labels = digits_to_state(prepared_all.astype(np.int64), chip.n_levels)
    return ReadoutCorpus(
        feedline=feedline,
        labels=labels,
        prepared_levels=prepared_all,
        initial_levels=np.concatenate(initial, axis=0),
        final_levels=np.concatenate(final, axis=0),
        chip=chip,
    )
