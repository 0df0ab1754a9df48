"""Unit tests for repro.nn.activations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_passes import sigmoid_forward
from repro.nn import (
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    get_activation,
)

ALL_ACTIVATIONS = [Identity(), Sigmoid(), Tanh(), ReLU(), LeakyReLU(), Softmax()]


class TestForwardValues:
    def test_identity_passthrough(self):
        x = np.array([-2.0, 0.0, 3.5])
        np.testing.assert_allclose(Identity().forward(x), x)

    def test_sigmoid_known_values(self):
        s = Sigmoid()
        np.testing.assert_allclose(s.forward(np.array([0.0])), [0.5])
        np.testing.assert_allclose(
            s.forward(np.array([1.0])), [1.0 / (1.0 + np.exp(-1.0))]
        )

    def test_sigmoid_extreme_inputs_are_stable(self):
        s = Sigmoid()
        out = s.forward(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_tanh_matches_numpy(self):
        x = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(Tanh().forward(x), np.tanh(x))

    def test_relu_clamps_negatives(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])

    def test_leaky_relu_negative_slope(self):
        out = LeakyReLU(0.1).forward(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(out, [-0.2, 3.0])

    def test_leaky_relu_rejects_negative_slope_param(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.5)

    def test_softmax_rows_sum_to_one(self):
        out = Softmax().forward(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.sum(axis=1), [1.0, 1.0])

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = Softmax().forward(x)
        b = Softmax().forward(x + 100.0)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_large_logits_stable(self):
        out = Softmax().forward(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))


class TestBackward:
    @pytest.mark.parametrize(
        "activation", [Sigmoid(), Tanh(), ReLU(), LeakyReLU(0.05), Identity()]
    )
    def test_gradient_matches_finite_difference(self, activation):
        x = np.linspace(-2.0, 2.0, 41) + 0.013  # avoid the ReLU kink exactly
        y = activation.forward(x)
        analytic = activation.backward(x, y)
        eps = 1e-6
        numeric = (activation.forward(x + eps) - activation.forward(x - eps)) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_sigmoid_gradient_peak_at_zero(self):
        s = Sigmoid()
        x = np.array([0.0])
        assert s.backward(x, s.forward(x))[0] == pytest.approx(0.25)

    def test_relu_gradient_is_binary(self):
        r = ReLU()
        x = np.array([-1.0, 2.0])
        np.testing.assert_allclose(r.backward(x, r.forward(x)), [0.0, 1.0])


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("identity", Identity),
            ("sigmoid", Sigmoid),
            ("tanh", Tanh),
            ("relu", ReLU),
            ("leaky_relu", LeakyReLU),
            ("softmax", Softmax),
        ],
    )
    def test_lookup_by_name(self, name, cls):
        assert isinstance(get_activation(name), cls)

    def test_lookup_is_case_insensitive(self):
        assert isinstance(get_activation("SiGmOiD"), Sigmoid)

    def test_instance_passthrough(self):
        instance = Sigmoid()
        assert get_activation(instance) is instance

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown activation"):
            get_activation("does-not-exist")


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=32))
    def test_sigmoid_output_in_unit_interval(self, values):
        out = Sigmoid().forward(np.array(values))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=32))
    def test_tanh_output_bounded(self, values):
        out = Tanh().forward(np.array(values))
        assert np.all(np.abs(out) <= 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=32))
    def test_relu_non_negative_and_idempotent(self, values):
        r = ReLU()
        out = r.forward(np.array(values))
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(r.forward(out), out)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-30, 30), min_size=2, max_size=8),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_softmax_is_a_probability_distribution(self, rows):
        out = Softmax().forward(np.array(rows))
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(len(rows)), atol=1e-9)


class TestSigmoidMatchesBranchForm:
    """``exp(-|x|)`` with one ``np.where`` against the boolean fancy-index form."""

    #: values the float strategy might reach rarely: the extremes, the
    #: smallest subnormal, where exp over/underflows and where 1 + e rounds
    EDGES = (
        0.0, -0.0, np.inf, -np.inf, 1.8e308, -1.8e308, 5e-324, -5e-324, 2.2e-308,
        -2.2e-308, 709.78, -709.78, 745.2, -745.2, 36.8, -36.8, 37.5, -37.5,
    )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.floats(-800.0, 800.0),
                st.floats(-1e-300, 1e-300),
                st.sampled_from(EDGES),
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_bits_identical_without_nan(self, values):
        x = np.array(values, dtype=float)
        assert np.array_equal(
            Sigmoid().forward(x).view(np.uint64), sigmoid_forward(x).view(np.uint64)
        )

    def test_every_edge_at_once_and_as_a_matrix(self):
        x = np.array(self.EDGES).reshape(3, -1)
        out = Sigmoid().forward(x)
        assert out.shape == x.shape
        assert np.array_equal(out.view(np.uint64), sigmoid_forward(x).view(np.uint64))

    def test_nan_gives_nan(self):
        """Only the NaN's sign bit may differ: ``-|x|`` sets it."""
        x = np.array([np.nan, -np.nan, 1.0, -3.0, np.nan, 0.0])
        out, reference = Sigmoid().forward(x), sigmoid_forward(x)
        nan = np.isnan(x)
        assert np.all(np.isnan(out[nan])) and np.all(np.isnan(reference[nan]))
        assert np.array_equal(out[~nan].view(np.uint64), reference[~nan].view(np.uint64))
