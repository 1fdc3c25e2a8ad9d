"""Dataset utilities: stratified splitting and feature standardization."""

from __future__ import annotations

import numpy as np

from repro._util import as_1d_int, as_2d_float, check_random_state
from repro.exceptions import ConfigurationError, DataError, NotFittedError

__all__ = ["stratified_split", "StandardScaler"]


def stratified_split(
    y: np.ndarray,
    train_fraction: float,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split sample indices into train/test, stratified by label.

    The paper uses a 30-70 train/test split *per basis state*; stratifying
    keeps every state present on both sides even at small shot counts.

    Returns
    -------
    (train_idx, test_idx):
        Integer index arrays (shuffled within each stratum). Strata with a
        single sample go to the training side.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    y = as_1d_int(y)
    rng = check_random_state(seed)
    train_parts, test_parts = [], []
    for label in np.unique(y):
        idx = np.flatnonzero(y == label)
        rng.shuffle(idx)
        if idx.size == 1:
            train_parts.append(idx)
            continue
        n_train = int(round(idx.size * train_fraction))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(idx[:n_train])
        test_parts.append(idx[n_train:])
    if not test_parts:
        raise DataError("split produced an empty test set; add more samples")
    train_idx = np.concatenate(train_parts)
    test_idx = np.concatenate(test_parts)
    rng.shuffle(train_idx)
    rng.shuffle(test_idx)
    return train_idx, test_idx


class StandardScaler:
    """Per-feature standardization to zero mean and unit variance.

    Matched-filter scores for different filters have wildly different
    scales; all NN discriminators standardize their inputs with statistics
    from the training split only.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        """Record the column means and standard deviations of ``x``."""
        x = as_2d_float(x)
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        # Constant features pass through unscaled rather than exploding.
        self.scale_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Apply the fitted standardization."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler is not fitted")
        x = as_2d_float(x)
        if x.shape[1] != self.mean_.shape[0]:
            raise DataError(
                f"expected {self.mean_.shape[0]} features, got {x.shape[1]}"
            )
        return (x - self.mean_) / self.scale_

    def transform_inplace(self, x: np.ndarray) -> np.ndarray:
        """Standardize a float feature block in place; returns it.

        For a caller that owns a reusable float buffer the raw features
        were written into: the standardization mutates it rather than
        allocating a fresh array. ``x`` must already be 2-D float (no
        coercion — a coerced copy would defeat the point). Serving does
        not call it (the MLR heads fold the scaler into their first
        layer); ``perfbench`` still traces it by name as ``ml.scaler``.
        """
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler is not fitted")
        x = np.asarray(x)
        if x.ndim != 2 or not np.issubdtype(x.dtype, np.floating):
            raise DataError(
                f"transform_inplace needs a 2-D float array, got "
                f"{x.dtype} with shape {x.shape}"
            )
        if x.shape[1] != self.mean_.shape[0]:
            raise DataError(
                f"expected {self.mean_.shape[0]} features, got {x.shape[1]}"
            )
        x -= self.mean_
        x /= self.scale_
        return x

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit on ``x`` and return its standardized copy."""
        return self.fit(x).transform(x)

    def inverse_transform(self, x: np.ndarray) -> np.ndarray:
        """Undo the standardization."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler is not fitted")
        x = as_2d_float(x)
        return x * self.scale_ + self.mean_
