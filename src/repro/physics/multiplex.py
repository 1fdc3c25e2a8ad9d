"""Frequency multiplexing of per-qubit baseband fields onto one feedline.

Each qubit's readout tone sits at its own intermediate frequency inside the
ADC Nyquist band; the feedline carries the sum. Inter-resonator crosstalk
mixes the baseband fields *before* upconversion, so a neighbor's state
bleeds into each qubit's tone — the error mechanism the paper's
all-qubit-input neural network corrects.

Mixing and upconversion are both linear, so they fold into one weight per
source qubit and sample: with mixing ``M = I + C`` and tones
``tone[q, t] = exp(2 pi i f_q t)``,

    feedline[t] = sum_q tone[q, t] sum_p M[q, p] alpha_p[t]
                = sum_p W[p, t] alpha_p[t],   W = M^T tone.
"""

from __future__ import annotations

import math

import numpy as np

from repro.physics.device import ChipConfig

__all__ = ["multiplex"]

TWO_PI = 2.0 * math.pi


def multiplex(chip: ChipConfig, times_ns: np.ndarray) -> np.ndarray:
    """Per-source feedline weights ``W`` (n_qubits, len(times_ns)).

    Row ``p`` is what one unit of qubit ``p``'s baseband field contributes
    to the feedline at each sample: its own tone plus the crosstalk it
    leaks into every other qubit's tone.
    """
    ifs = np.array([q.if_frequency_ghz for q in chip.qubits])
    tones = np.exp(1j * TWO_PI * ifs[:, None] * np.asarray(times_ns))
    mixing = np.eye(chip.n_qubits, dtype=complex) + chip.crosstalk
    return mixing.T @ tones
