"""Evaluation metrics matching the paper's error reporting.

Table I reports:

* classification *error* rate (``100% − classification rate``) for mnist and
  facedet, and
* mean-squared error for inversek2j and bscholes.

Additionally the paper summarizes voltage sweeps with the *average error
increase* (AEI) relative to the nominal-voltage error, and reports MATIC's
benefit as the ratio of naive AEI to adaptive AEI ("AEI reduction").
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "classification_error",
    "classification_rate",
    "mean_squared_error",
    "average_error_increase",
]


def _labels_from(outputs: np.ndarray) -> np.ndarray:
    """Derive integer class labels from network outputs.

    Multi-column outputs use argmax; single-column (binary, sigmoid) outputs
    threshold at 0.5.
    """
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim == 1:
        outputs = outputs.reshape(-1, 1)
    if outputs.shape[1] == 1:
        return (outputs[:, 0] >= 0.5).astype(int)
    return np.argmax(outputs, axis=1)


def classification_rate(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples classified correctly (the paper's "classif. rate")."""
    labels = np.asarray(labels, dtype=int).reshape(-1)
    predicted = _labels_from(predictions)
    if predicted.shape != labels.shape:
        raise ValueError(
            f"predictions imply {predicted.shape[0]} samples, labels have {labels.shape[0]}"
        )
    if labels.size == 0:
        raise ValueError("cannot compute classification rate of an empty set")
    return float(np.mean(predicted == labels))


def classification_error(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Classification error rate, ``1 − classification_rate``."""
    return 1.0 - classification_rate(predictions, labels)


def mean_squared_error(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error averaged over samples and output dimensions."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise ValueError("cannot compute MSE of an empty set")
    return float(np.mean((predictions - targets) ** 2))


def average_error_increase(errors: np.ndarray, nominal_error: float) -> float:
    """Average error increase (AEI) across a set of operating points.

    The paper's Table I reports AEI averaged "across both voltage and all
    benchmarks"; this helper performs the per-benchmark voltage average, and
    the caller averages across benchmarks.
    """
    errors = np.asarray(errors, dtype=float).reshape(-1)
    if errors.size == 0:
        raise ValueError("errors must be non-empty")
    increases = np.maximum(errors - float(nominal_error), 0.0)
    return float(np.mean(increases))
