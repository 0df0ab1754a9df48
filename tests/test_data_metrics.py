"""Unit tests for repro.nn.data and repro.nn.metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Dataset,
    average_error_increase,
    classification_error,
    classification_rate,
    iterate_minibatches,
    mean_squared_error,
    one_hot,
    train_test_split,
)


class TestOneHot:
    def test_basic_encoding(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=int), 2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=50))
    def test_rows_sum_to_one(self, labels):
        out = one_hot(np.array(labels), 10)
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(len(labels)))
        np.testing.assert_array_equal(np.argmax(out, axis=1), labels)


class TestDataset:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros((4, 1)))

    def test_reshapes_1d_targets(self):
        ds = Dataset(np.zeros((3, 2)), np.zeros(3))
        assert ds.targets.shape == (3, 1)

    def test_requires_2d_inputs(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.zeros(3))

    def test_subset_preserves_labels(self):
        ds = Dataset(np.arange(10).reshape(5, 2), np.zeros(5), labels=np.arange(5))
        sub = ds.subset(np.array([1, 3]))
        np.testing.assert_array_equal(sub.labels, [1, 3])
        assert len(sub) == 2

    def test_properties(self):
        ds = Dataset(np.zeros((6, 4)), np.zeros((6, 3)))
        assert len(ds) == 6
        assert ds.inputs.shape == (6, 4) and ds.targets.shape == (6, 3)


class TestTrainTestSplit:
    def test_seven_to_one_ratio(self):
        ds = Dataset(np.zeros((800, 2)), np.zeros(800))
        train, test = train_test_split(ds, ratio=7, rng=0)
        assert len(train) == 700
        assert len(test) == 100

    def test_ten_to_one_ratio(self):
        ds = Dataset(np.zeros((1100, 2)), np.zeros(1100))
        train, test = train_test_split(ds, ratio=10, rng=0)
        assert len(train) == 1000
        assert len(test) == 100

    def test_fractional_ratio(self):
        ds = Dataset(np.zeros((100, 2)), np.zeros(100))
        train, test = train_test_split(ds, ratio=0.8, rng=0)
        assert len(train) == 80

    def test_no_overlap_and_full_coverage(self):
        inputs = np.arange(100).reshape(50, 2).astype(float)
        ds = Dataset(inputs, np.zeros(50), labels=np.arange(50))
        train, test = train_test_split(ds, ratio=4, rng=3)
        combined = sorted(train.labels.tolist() + test.labels.tolist())
        assert combined == list(range(50))

    def test_invalid_ratio(self):
        ds = Dataset(np.zeros((10, 2)), np.zeros(10))
        with pytest.raises(ValueError):
            train_test_split(ds, ratio=0)


class TestMinibatches:
    def test_covers_all_samples(self):
        x = np.arange(23).reshape(-1, 1).astype(float)
        t = x.copy()
        seen = []
        for bx, _ in iterate_minibatches(x, t, batch_size=5, shuffle=False):
            seen.extend(bx[:, 0].tolist())
        assert sorted(seen) == list(range(23))

    def test_last_batch_may_be_short(self):
        x = np.zeros((10, 1))
        sizes = [len(b) for b, _ in iterate_minibatches(x, x, batch_size=4, shuffle=False)]
        assert sizes == [4, 4, 2]

    def test_shuffle_changes_order(self):
        x = np.arange(50).reshape(-1, 1).astype(float)
        first_batch, _ = next(
            iterate_minibatches(x, x, batch_size=50, rng=np.random.default_rng(0))
        )
        assert not np.array_equal(first_batch[:, 0], np.arange(50))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(np.zeros((4, 1)), np.zeros((4, 1)), batch_size=0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            list(iterate_minibatches(np.zeros((4, 1)), np.zeros((5, 1)), batch_size=2))


class TestMetrics:
    def test_classification_rate_multiclass(self):
        predictions = np.array([[0.9, 0.1, 0.0], [0.1, 0.2, 0.7], [0.4, 0.5, 0.1]])
        labels = np.array([0, 2, 0])
        assert classification_rate(predictions, labels) == pytest.approx(2 / 3)
        assert classification_error(predictions, labels) == pytest.approx(1 / 3)

    def test_classification_rate_binary_single_column(self):
        predictions = np.array([[0.8], [0.3], [0.6]])
        labels = np.array([1, 0, 0])
        assert classification_rate(predictions, labels) == pytest.approx(2 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            classification_rate(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_mse_matches_numpy(self):
        p = np.array([[1.0, 2.0]])
        t = np.array([[0.0, 0.0]])
        assert mean_squared_error(p, t) == pytest.approx(2.5)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_error(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_error_increase_clips_at_zero(self):
        assert average_error_increase(np.array([0.05]), 0.10) == 0.0
        assert average_error_increase(np.array([0.30]), 0.10) == pytest.approx(0.20)

    def test_average_error_increase(self):
        errors = np.array([0.2, 0.4, 0.05])
        assert average_error_increase(errors, 0.1) == pytest.approx((0.1 + 0.3 + 0.0) / 3)

    def test_average_error_increase_empty_raises(self):
        with pytest.raises(ValueError):
            average_error_increase(np.array([]), 0.1)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        st.floats(0.0, 1.0),
    )
    def test_aei_is_non_negative_and_bounded(self, errors, nominal):
        aei = average_error_increase(np.array(errors), nominal)
        assert 0.0 <= aei <= 1.0
