"""Unit tests for the benchmark dataset generators and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    BENCHMARKS,
    black_scholes_price,
    forward_kinematics,
    generate_blackscholes,
    generate_digits,
    generate_faces,
    generate_inversek2j,
    get_benchmark,
    inverse_kinematics,
    norm_cdf,
)
from repro.nn import Trainer, classification_error


class TestDigits:
    def test_shapes_and_ranges(self):
        ds = generate_digits(num_samples=200, seed=0)
        assert ds.inputs.shape == (200, 100)
        assert ds.targets.shape == (200, 10)
        assert ds.labels.shape == (200,)
        assert np.all(ds.inputs >= 0.0) and np.all(ds.inputs <= 1.0)
        assert ds.name == "mnist"

    def test_reproducible_with_seed(self):
        a = generate_digits(num_samples=50, seed=3)
        b = generate_digits(num_samples=50, seed=3)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_digits(num_samples=50, seed=3)
        b = generate_digits(num_samples=50, seed=4)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_all_classes_present(self):
        ds = generate_digits(num_samples=500, seed=1)
        assert set(np.unique(ds.labels)) == set(range(10))

    def test_one_hot_consistency(self):
        ds = generate_digits(num_samples=100, seed=2)
        np.testing.assert_array_equal(np.argmax(ds.targets, axis=1), ds.labels)

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            generate_digits(num_samples=0)

    def test_learnable_by_paper_topology(self):
        ds = generate_digits(num_samples=1200, seed=5)
        spec = get_benchmark("mnist")
        train, test = spec.split(ds, seed=6)
        net = spec.build_network(seed=7)
        Trainer(net, learning_rate=0.2, epochs=40, seed=8).fit(train)
        error = classification_error(net.predict(test.inputs), test.labels)
        assert error < 0.30  # far better than the 90% error of chance


class TestFaces:
    def test_shapes_and_ranges(self):
        ds = generate_faces(num_samples=100, seed=0)
        assert ds.inputs.shape == (100, 400)
        assert ds.targets.shape == (100, 1)
        assert set(np.unique(ds.labels)).issubset({0, 1})
        assert np.all(ds.inputs >= 0.0) and np.all(ds.inputs <= 1.0)

    def test_class_balance(self):
        ds = generate_faces(num_samples=1000, seed=1)
        face_fraction = np.mean(ds.labels)
        assert 0.4 < face_fraction < 0.6

    def test_face_fraction_parameter(self):
        ds = generate_faces(num_samples=500, seed=2, face_fraction=0.8)
        assert np.mean(ds.labels) > 0.7

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_faces(num_samples=0)
        with pytest.raises(ValueError):
            generate_faces(face_fraction=1.0)

    def test_faces_brighter_in_centre_than_nonfaces_on_average(self):
        ds = generate_faces(num_samples=400, seed=3)
        images = ds.inputs.reshape(-1, 20, 20)
        centre = images[:, 6:14, 6:14].mean(axis=(1, 2))
        assert centre[ds.labels == 1].mean() != pytest.approx(
            centre[ds.labels == 0].mean(), abs=0.01
        )


class TestInverseK2J:
    def test_kinematics_roundtrip(self):
        rng = np.random.default_rng(0)
        theta1 = rng.uniform(0, np.pi / 2, 100)
        theta2 = rng.uniform(0, np.pi / 2, 100)
        x, y = forward_kinematics(theta1, theta2)
        recovered1, recovered2 = inverse_kinematics(x, y)
        fx, fy = forward_kinematics(recovered1, recovered2)
        np.testing.assert_allclose(fx, x, atol=1e-9)
        np.testing.assert_allclose(fy, y, atol=1e-9)

    def test_dataset_shapes_and_normalization(self):
        ds = generate_inversek2j(num_samples=300, seed=0)
        assert ds.inputs.shape == (300, 2)
        assert ds.targets.shape == (300, 2)
        assert np.all(ds.targets >= 0.0) and np.all(ds.targets <= 1.0)
        assert np.all(ds.inputs >= 0.0) and np.all(ds.inputs <= 1.0)

    def test_deterministic(self):
        a = generate_inversek2j(num_samples=50, seed=9)
        b = generate_inversek2j(num_samples=50, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_inversek2j(num_samples=-1)


class TestBlackScholes:
    def test_norm_cdf_known_values(self):
        assert float(norm_cdf(np.array([0.0]))[0]) == pytest.approx(0.5)
        assert float(norm_cdf(np.array([1.96]))[0]) == pytest.approx(0.975, abs=1e-3)
        assert float(norm_cdf(np.array([-1.96]))[0]) == pytest.approx(0.025, abs=1e-3)

    def test_call_price_properties(self):
        spot = np.array([100.0])
        strike = np.array([100.0])
        rate = np.array([0.05])
        vol = np.array([0.2])
        t = np.array([1.0])
        call = black_scholes_price(spot, strike, rate, vol, t, np.array([0.0]))
        put = black_scholes_price(spot, strike, rate, vol, t, np.array([1.0]))
        # at-the-money call worth more than put when rates are positive
        assert call[0] > put[0] > 0
        # put-call parity: C - P = S - K e^{-rT}
        parity = spot[0] - strike[0] * np.exp(-rate[0] * t[0])
        assert call[0] - put[0] == pytest.approx(parity, abs=1e-2)

    def test_deep_in_the_money_call(self):
        price = black_scholes_price(
            np.array([150.0]), np.array([100.0]), np.array([0.02]),
            np.array([0.2]), np.array([0.5]), np.array([0.0]),
        )
        intrinsic = 150.0 - 100.0 * np.exp(-0.02 * 0.5)
        assert price[0] >= intrinsic - 1e-6

    def test_dataset_shapes(self):
        ds = generate_blackscholes(num_samples=200, seed=0)
        assert ds.inputs.shape == (200, 6)
        assert ds.targets.shape == (200, 1)
        assert np.all(ds.targets >= 0.0) and np.all(ds.targets <= 1.0)
        assert np.all(ds.inputs >= -1e-9) and np.all(ds.inputs <= 1.0 + 1e-9)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            generate_blackscholes(num_samples=0)


class TestRegistry:
    def test_benchmark_list_matches_paper_table(self):
        assert list(BENCHMARKS) == ["mnist", "facedet", "inversek2j", "bscholes"]

    @pytest.mark.parametrize(
        "name,topology",
        [("mnist", "100-32-10"), ("facedet", "400-8-1"),
         ("inversek2j", "2-16-2"), ("bscholes", "6-16-1")],
    )
    def test_topologies_match_table1(self, name, topology):
        assert get_benchmark(name).topology == topology

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            get_benchmark("imagenet")

    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_generate_and_split_consistent_with_topology(self, name):
        spec = get_benchmark(name)
        ds = spec.generate(num_samples=120, seed=0)
        assert ds.inputs.shape[1] == int(spec.topology.split("-")[0])
        assert ds.targets.shape[1] == int(spec.topology.split("-")[-1])
        train, test = spec.split(ds, seed=1)
        assert len(train) + len(test) == 120
        ratio = len(train) / len(test)
        assert ratio == pytest.approx(spec.train_test_ratio, rel=0.35)

    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_build_network_matches_topology(self, name):
        spec = get_benchmark(name)
        network = spec.build_network(seed=0)
        widths = tuple(int(w) for w in spec.topology.split("-"))
        assert network.widths == widths

    def test_error_metric_dispatch(self):
        mnist = get_benchmark("mnist")
        ds = mnist.generate(num_samples=50, seed=0)
        predictions = ds.targets  # perfect predictions
        assert mnist.error(predictions, ds) == 0.0
        inversek2j = get_benchmark("inversek2j")
        reg = inversek2j.generate(num_samples=50, seed=0)
        assert inversek2j.error(reg.targets, reg) == 0.0

    def test_classification_error_requires_labels(self):
        spec = get_benchmark("mnist")
        ds = spec.generate(num_samples=20, seed=0)
        stripped = ds.subset(np.arange(20))
        stripped.labels = None
        with pytest.raises(ValueError):
            spec.error(ds.targets, stripped)
