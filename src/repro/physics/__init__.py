"""Dispersive-readout physics simulator.

Replaces the paper's five-qubit hardware dataset (Lienhard et al.) with a
first-principles synthetic equivalent. The chain is:

1. :mod:`repro.physics.jumps` — continuous-time Markov sampling of each
   qubit's level trajectory during the measurement window (relaxation and
   measurement-induced excitation, including leakage to |2>).
2. :mod:`repro.physics.dispersive` + :mod:`repro.physics.trajectories` —
   the readout resonator's complex field, evolved exactly through each
   piecewise-constant level segment (cavity ring-up, state-dependent pull).
   A qubit that holds its level all window traces a fixed per-(qubit,
   level) template, computed once per window length; one stacked
   recurrence per batch evolves only the (qubit, shot) rows that jump.
3. :mod:`repro.physics.multiplex` — frequency multiplexing of all qubits
   onto one feedline with inter-resonator crosstalk. Both are linear, so
   the crosstalk folds into one tone weight per source qubit and sample:
   a held qubit adds its precomputed weighted template, a jumped one its
   weighted field.
4. :mod:`repro.physics.noise` + :mod:`repro.physics.adc` — amplifier noise
   and ADC sampling/quantization.
"""

from repro.physics.adc import ADCConfig
from repro.physics.device import (
    ChipConfig,
    QubitParams,
    default_five_qubit_chip,
)
from repro.physics.drift import DEMO_DRIFT, DriftModel
from repro.physics.jumps import TransitionRates, sample_level_matrix
from repro.physics.simulator import ReadoutSimulator, SimulationResult

__all__ = [
    "QubitParams",
    "ChipConfig",
    "ADCConfig",
    "DEMO_DRIFT",
    "DriftModel",
    "default_five_qubit_chip",
    "TransitionRates",
    "sample_level_matrix",
    "ReadoutSimulator",
    "SimulationResult",
]
