"""Additive noise models for the amplification chain."""

from __future__ import annotations

import numpy as np

from repro._util import check_random_state
from repro.exceptions import ConfigurationError

__all__ = ["complex_white_noise", "apply_gain_drift"]


def complex_white_noise(
    shape: tuple[int, ...],
    std: float,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Circularly symmetric complex Gaussian noise with total std ``std``.

    Each quadrature gets ``std / sqrt(2)`` so that
    ``E[|n|^2] = std**2`` — the convention used for the chip's
    ``noise_std`` parameter.
    """
    if std < 0:
        raise ConfigurationError(f"std must be >= 0, got {std}")
    rng = check_random_state(rng)
    if std == 0:
        return np.zeros(shape, dtype=np.complex128)
    scale = std / np.sqrt(2.0)
    noise = np.empty(shape, dtype=np.complex128)
    noise.real = rng.normal(0.0, scale, shape)
    noise.imag = rng.normal(0.0, scale, shape)
    return noise


def apply_gain_drift(
    signal: np.ndarray,
    drift_std: float,
    rng: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Apply a per-shot multiplicative gain fluctuation.

    Models slow amplifier gain drift between shots: each trace is scaled by
    ``1 + g`` with ``g ~ N(0, drift_std)``. Disabled (identity) when
    ``drift_std`` is 0.
    """
    if drift_std < 0:
        raise ConfigurationError(f"drift_std must be >= 0, got {drift_std}")
    if drift_std == 0:
        return signal
    rng = check_random_state(rng)
    gains = 1.0 + rng.normal(0.0, drift_std, signal.shape[0])
    return signal * gains[:, None]
