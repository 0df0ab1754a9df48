"""Unit tests for the activation function unit (PWL approximation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import ActivationFunctionUnit, PiecewiseLinearFunction
from repro.nn import Sigmoid, Tanh


def _max_error(function, reference, low=-8.0, high=8.0):
    """Maximum absolute error of ``function`` against ``reference``."""
    xs = np.linspace(low, high, 2001)
    return float(np.max(np.abs(function(xs) - reference(xs))))


class TestPiecewiseLinearFunction:
    def test_exact_at_segment_edges(self):
        sigmoid = Sigmoid()
        pwl = PiecewiseLinearFunction(sigmoid.forward, (-8, 8), num_segments=16)
        edges = np.linspace(-8, 8, 17)
        np.testing.assert_allclose(pwl(edges), sigmoid.forward(edges), atol=1e-12)

    def test_saturation_outside_range(self):
        sigmoid = Sigmoid()
        pwl = PiecewiseLinearFunction(sigmoid.forward, (-8, 8), num_segments=16)
        assert pwl(np.array([-50.0]))[0] == pytest.approx(sigmoid.forward(np.array([-8.0]))[0])
        assert pwl(np.array([50.0]))[0] == pytest.approx(sigmoid.forward(np.array([8.0]))[0])

    def test_error_decreases_with_more_segments(self):
        sigmoid = Sigmoid()
        coarse = PiecewiseLinearFunction(sigmoid.forward, (-8, 8), num_segments=4)
        fine = PiecewiseLinearFunction(sigmoid.forward, (-8, 8), num_segments=32)
        assert _max_error(fine, sigmoid.forward) < _max_error(coarse, sigmoid.forward)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFunction(np.tanh, (2, 1))
        with pytest.raises(ValueError):
            PiecewiseLinearFunction(np.tanh, (-1, 1), num_segments=0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=64))
    def test_sigmoid_pwl_error_bound(self, values):
        sigmoid = Sigmoid()
        pwl = PiecewiseLinearFunction(sigmoid.forward, (-8, 8), num_segments=16)
        x = np.array(values)
        error = np.abs(pwl(x) - sigmoid.forward(x))
        # 16-segment table keeps the approximation within ~1.2e-2 everywhere
        # (saturation adds the sigmoid tail value outside the covered range)
        assert np.all(error < 1.5e-2)


class TestActivationFunctionUnit:
    def test_supported_list(self):
        afu = ActivationFunctionUnit()
        x = np.linspace(-2.0, 2.0, 5)
        for name in ("identity", "relu", "sigmoid", "tanh", "softmax"):
            assert afu.apply(name, x).shape == x.shape

    def test_relu_exact(self):
        afu = ActivationFunctionUnit()
        x = np.array([-2.0, 0.5])
        np.testing.assert_allclose(afu.apply("relu", x), [0.0, 0.5])

    def test_identity_and_softmax_passthrough(self):
        afu = ActivationFunctionUnit()
        x = np.array([[1.0, -2.0]])
        np.testing.assert_allclose(afu.apply("identity", x), x)
        np.testing.assert_allclose(afu.apply("softmax", x), x)

    def test_sigmoid_close_to_exact(self):
        afu = ActivationFunctionUnit()
        x = np.linspace(-6, 6, 101)
        np.testing.assert_allclose(afu.apply("sigmoid", x), Sigmoid().forward(x), atol=0.02)

    def test_tanh_close_to_exact(self):
        afu = ActivationFunctionUnit()
        x = np.linspace(-4, 4, 101)
        np.testing.assert_allclose(afu.apply("tanh", x), Tanh().forward(x), atol=0.05)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            ActivationFunctionUnit().apply("gelu", np.zeros(3))

    def test_approximation_error_reporting(self):
        afu = ActivationFunctionUnit(num_segments=16)
        assert _max_error(lambda x: afu.apply("sigmoid", x), Sigmoid().forward) < 0.02
        assert _max_error(lambda x: afu.apply("relu", x), lambda x: np.maximum(x, 0.0)) == 0.0

    def test_more_segments_reduce_error(self):
        coarse = ActivationFunctionUnit(num_segments=8)
        fine = ActivationFunctionUnit(num_segments=64)
        sigmoid = Sigmoid().forward
        assert _max_error(lambda x: fine.apply("sigmoid", x), sigmoid) < _max_error(
            lambda x: coarse.apply("sigmoid", x), sigmoid
        )
