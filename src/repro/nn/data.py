"""Dataset containers and batching utilities.

The paper splits each benchmark into train/test subsets with either a 7-to-1
or a 10-to-1 ratio; :func:`train_test_split` implements exactly that, and
:class:`Dataset` is the small container every generator in
:mod:`repro.datasets` returns.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "train_test_split", "iterate_minibatches", "one_hot"]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer class labels as one-hot row vectors."""
    labels = np.asarray(labels, dtype=int)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if num_classes <= 0:
        raise ValueError("num_classes must be positive")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    encoded = np.zeros((labels.size, num_classes), dtype=float)
    encoded[np.arange(labels.size), labels] = 1.0
    return encoded


@dataclass
class Dataset:
    """A supervised dataset: row-major inputs and matching targets.

    Attributes
    ----------
    inputs:
        Array of shape ``(num_samples, num_features)``.
    targets:
        Array of shape ``(num_samples, num_outputs)``; classification
        datasets store one-hot rows (or a single probability column for
        binary tasks).
    labels:
        Optional integer class labels, kept alongside one-hot targets so
        classification-rate metrics do not need to re-derive them.
    name:
        Human-readable benchmark name (``mnist``, ``facedet`` ...).
    """

    inputs: np.ndarray
    targets: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.inputs.ndim != 2:
            raise ValueError("inputs must be 2-D (samples, features)")
        if self.targets.ndim == 1:
            self.targets = self.targets.reshape(-1, 1)
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must have the same length")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if len(self.labels) != len(self.inputs):
                raise ValueError("labels length must match inputs")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def num_features(self) -> int:
        return self.inputs.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.targets.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return a new dataset containing only ``indices``."""
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            inputs=self.inputs[indices],
            targets=self.targets[indices],
            labels=None if self.labels is None else self.labels[indices],
            name=self.name,
            metadata=dict(self.metadata),
        )

    def shuffled(self, rng: np.random.Generator | int | None = None) -> "Dataset":
        """Return a row-shuffled copy."""
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        order = rng.permutation(len(self))
        return self.subset(order)


def train_test_split(
    dataset: Dataset,
    ratio: int | float = 7,
    rng: np.random.Generator | int | None = None,
) -> tuple[Dataset, Dataset]:
    """Split a dataset into train/test subsets.

    ``ratio`` follows the paper's convention: a value of ``7`` means a
    7-to-1 train/test split (i.e. 7/8 of the samples train), ``10`` means
    10-to-1.  Fractions in ``(0, 1)`` are also accepted and interpreted as
    the train fraction directly.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    train_fraction = ratio if 0 < ratio < 1 else ratio / (ratio + 1.0)
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    order = rng.permutation(len(dataset))
    cut = int(round(train_fraction * len(dataset)))
    cut = min(max(cut, 1), len(dataset) - 1)
    return dataset.subset(order[:cut]), dataset.subset(order[cut:])


def iterate_minibatches(
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(inputs, targets)`` mini-batches, optionally shuffled.

    Shuffling gathers the rows once, in the order of one ``rng.shuffle`` of
    ``arange(n)``; every batch is a slice of that per-epoch copy (or, when
    unshuffled, of ``inputs`` and ``targets`` themselves).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    n = len(inputs)
    if len(targets) != n:
        raise ValueError("inputs and targets must have the same length")
    if shuffle:
        rng = rng if rng is not None else np.random.default_rng()
        order = np.arange(n)
        rng.shuffle(order)
        inputs, targets = inputs[order], targets[order]
    for start in range(0, n, batch_size):
        stop = start + batch_size
        yield inputs[start:stop], targets[start:stop]
