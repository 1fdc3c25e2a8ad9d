"""Resonator field trajectories conditioned on qubit level trajectories.

Applies the exact one-sample propagator of the dispersive Langevin equation
(see :mod:`repro.physics.dispersive`) as a recurrence over ADC samples:

    alpha[t+1] = ss(level_t) + (alpha[t] - ss(level_t)) * decay(level_t)

which is exact for levels held constant over each sample period and
naturally produces the ring-up transient from alpha[0] = 0 as well as the
mid-trace kinks that relaxation/excitation matched filters key on.

:func:`field_recurrence` is the one implementation of that recurrence. It
indexes per-row ``ss``/``decay`` tables by an integer code per sample, so
one call can evolve rows of different qubits together: the simulator runs
it once over the ``n_qubits * n_levels`` pinned rows to build its
per-(qubit, level) templates, and once per batch over only the rows whose
qubit jumps (code ``q * n_levels + level``). Every operation is
elementwise, so a row's trace does not depend on which other rows share
the call.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.physics.device import QubitParams
from repro.physics.dispersive import segment_decay, steady_state_field

__all__ = [
    "field_recurrence",
    "qubit_field_tables",
    "baseband_response",
    "state_mean_response",
]


def field_recurrence(
    codes: np.ndarray,
    steady: np.ndarray,
    decay: np.ndarray,
    initial_field: complex = 0.0,
) -> np.ndarray:
    """Evolve the field recurrence over a batch of code trajectories.

    Parameters
    ----------
    codes:
        Integer array (n_rows, trace_len) indexing ``steady``/``decay``
        at each sample.
    steady, decay:
        Complex steady-state field and one-sample propagator per code.
    initial_field:
        Field of every row at t=0 (already LO-rotated).

    Returns
    -------
    complex128 array (n_rows, trace_len); sample t holds the field at the
    *start* of sample period t. ``alpha[t+1]`` is computed as
    ``(alpha[t] - ss) * decay + ss`` by the same operations for every
    caller, so a row's values do not depend on the rows beside it.
    """
    n, trace_len = codes.shape
    # Time-major, so every step works on contiguous rows; transposed back
    # to shot-major on return.
    ss = steady[codes.T]
    dc = decay[codes.T]
    out = np.empty((trace_len, n), dtype=np.complex128)
    out[0] = initial_field
    # The product goes to a buffer distinct from its operands: numpy's
    # aliased in-place complex multiply rounds one-element rows
    # differently, which would make a row depend on the batch size.
    delta = np.empty(n, dtype=np.complex128)
    for t in range(trace_len - 1):
        np.subtract(out[t], ss[t], out=delta)
        np.multiply(delta, dc[t], out=out[t + 1])
        out[t + 1] += ss[t]
    return np.ascontiguousarray(out.T)


def qubit_field_tables(
    qubit: QubitParams, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-level LO-rotated steady-state field and one-sample propagator."""
    pulls = qubit.level_pulls()
    lo = np.exp(1j * qubit.lo_phase)
    steady = steady_state_field(qubit.drive, pulls, qubit.kappa) * lo
    return steady, segment_decay(pulls, qubit.kappa, dt)


def baseband_response(
    qubit: QubitParams,
    level_matrix: np.ndarray,
    dt: float,
    initial_field: complex = 0.0,
) -> np.ndarray:
    """Complex baseband field traces for a batch of level trajectories.

    Parameters
    ----------
    qubit:
        Device parameters (sets pulls, linewidth, drive, LO phase).
    level_matrix:
        Integer array (n_shots, trace_len): level at each ADC sample.
    dt:
        Sample period in ns.
    initial_field:
        Field at t=0; 0 models the probe tone switching on with the window.

    Returns
    -------
    complex128 array (n_shots, trace_len); sample t holds the field at the
    *start* of sample period t, so traces begin at ``initial_field``.
    """
    levels = np.asarray(level_matrix)
    if levels.ndim != 2:
        raise ShapeError(f"level_matrix must be 2-D, got {levels.shape}")
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    steady, decay = qubit_field_tables(qubit, dt)
    if levels.min() < 0 or levels.max() >= steady.shape[0]:
        raise ShapeError("levels out of range for a 3-level qubit")
    lo = np.exp(1j * qubit.lo_phase)
    return field_recurrence(levels, steady, decay, complex(initial_field) * lo)


def state_mean_response(
    qubit: QubitParams, level: int, trace_len: int, dt: float
) -> np.ndarray:
    """Noise-free, jump-free trace for a qubit pinned in ``level``.

    This is the ideal "template" trace (Fig 3c); matched filters built from
    data converge to combinations of these templates.
    """
    if not 0 <= level < 3:
        raise ConfigurationError(f"level must be in [0, 3), got {level}")
    levels = np.full((1, trace_len), level, dtype=np.int8)
    return baseband_response(qubit, levels, dt)[0]
