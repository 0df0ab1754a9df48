"""The procedural workload catalog: grammar, generators, cache keys, and the
MATIC flow on non-default chip geometries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import Snnac, SnnacConfig
from repro.datasets import (
    BENCHMARKS,
    ProceduralSpec,
    generate_lowrank,
    generate_teacher,
    get_benchmark,
)
from repro.experiments.cache import ArtifactCache
from repro.experiments.common import prepare_benchmark
from repro.matic.flow import MaticFlow, TrainingConfig


class TestProceduralGrammar:
    def test_mlp_deep_stack(self):
        spec = get_benchmark("synth/mlp-d8-w256")
        assert isinstance(spec, ProceduralSpec)
        assert spec.family == "mlp"
        assert spec.topology == "32-" + "-".join(["256"] * 8) + "-8"

    def test_mlp_custom_io_widths(self):
        spec = get_benchmark("synth/mlp-d2-w16-i10-o3")
        assert spec.topology == "10-16-16-3"

    def test_wide_fan_in(self):
        spec = get_benchmark("synth/wide-f512")
        assert spec.topology == "512-16-4"
        assert get_benchmark("synth/wide-f128-h8-o2").topology == "128-8-2"

    def test_autoencoder(self):
        spec = get_benchmark("synth/ae-i64-b8")
        assert spec.topology == "64-8-64"

    def test_lookup_is_memoized(self):
        assert get_benchmark("synth/ae-i64-b8") is get_benchmark("synth/AE-i64-b8")

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="family"):
            get_benchmark("synth/conv-d3")

    @pytest.mark.parametrize(
        "name",
        [
            "synth/mlp-w8",  # missing required depth
            "synth/mlp-d2-w8-d3",  # duplicate token
            "synth/mlp-d0-w8",  # non-positive value
            "synth/mlp-d2-w8-x9",  # unknown token letter
            "synth/mlp-d2-wbig",  # non-numeric value
            "synth/ae-i8-b16",  # bottleneck wider than the input
        ],
    )
    def test_invalid_names_raise(self, name):
        with pytest.raises(ValueError):
            get_benchmark(name)

    def test_unknown_plain_name_still_raises_keyerror(self):
        with pytest.raises(KeyError):
            get_benchmark("definitely-not-a-benchmark")

    def test_registered_catalog_unchanged(self):
        assert list(BENCHMARKS) == ["mnist", "facedet", "inversek2j", "bscholes"]


class TestProceduralGenerators:
    def test_teacher_is_seed_deterministic_and_bounded(self):
        a = generate_teacher(num_samples=64, seed=7, in_features=12, out_features=3)
        b = generate_teacher(num_samples=64, seed=7, in_features=12, out_features=3)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert a.inputs.shape == (64, 12) and a.targets.shape == (64, 3)
        assert a.inputs.min() >= 0 and a.inputs.max() <= 1
        assert a.targets.min() >= 0 and a.targets.max() <= 1
        c = generate_teacher(num_samples=64, seed=8, in_features=12, out_features=3)
        assert not np.array_equal(a.targets, c.targets)

    def test_teacher_function_is_stable_under_sample_count(self):
        # the teacher is sampled before the inputs, so growing the dataset
        # extends it without redefining the function being learned
        small = generate_teacher(
            num_samples=16, seed=3, in_features=6, out_features=2, noise_level=0.0
        )
        large = generate_teacher(
            num_samples=64, seed=3, in_features=6, out_features=2, noise_level=0.0
        )
        np.testing.assert_array_equal(small.inputs, large.inputs[:16])
        np.testing.assert_array_equal(small.targets, large.targets[:16])

    def test_lowrank_reconstruction_targets(self):
        data = generate_lowrank(num_samples=32, seed=5, width=20, rank=4)
        np.testing.assert_array_equal(data.inputs, data.targets)
        assert data.inputs.shape == (32, 20)
        assert data.inputs.min() >= 0 and data.inputs.max() <= 1
        # inputs are (noisily) rank-4: the 5th singular value collapses
        singular_values = np.linalg.svd(
            data.inputs - data.inputs.mean(axis=0), compute_uv=False
        )
        assert singular_values[4] < 0.2 * singular_values[0]

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            generate_teacher(num_samples=0)
        with pytest.raises(ValueError):
            generate_lowrank(width=4, rank=8)

    def test_spec_generate_uses_its_parameters(self):
        spec = get_benchmark("synth/wide-f24-h4-o2")
        data = spec.generate(num_samples=10, seed=1)
        assert data.inputs.shape == (10, 24)
        assert data.targets.shape == (10, 2)
        assert data.name == "synth/wide-f24-h4-o2"
        network = spec.build_network(seed=0)
        assert network.widths == (24, 4, 2)


class TestSpecKeys:
    def test_spec_key_captures_full_parameterization(self):
        a = get_benchmark("synth/mlp-d2-w8").spec_key()
        b = get_benchmark("synth/mlp-d2-w16").spec_key()
        c = get_benchmark("synth/mlp-d2-w8-i32").spec_key()  # i32 is the default
        assert a != b
        # an explicit default resolves to the same functional parameters
        # (only the name — which stays part of the identity — differs)
        assert {k: v for k, v in a.items() if k != "name"} == {
            k: v for k, v in c.items() if k != "name"
        }
        assert "generator_params" in a and "topology" in a

    def test_paper_specs_have_keys_too(self):
        key = get_benchmark("mnist").spec_key()
        assert key["name"] == "mnist"
        assert key["topology"] == "100-32-10"


class TestPrepareBenchmarkCaching:
    def test_procedural_workloads_memoize_on_the_full_spec(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "cache")
        kwargs = dict(num_samples=80, seed=2, epochs=2, cache=cache)
        first = prepare_benchmark("synth/ae-i12-b3", **kwargs)
        stores = cache.stats.stores
        assert stores > 0
        second = prepare_benchmark("synth/ae-i12-b3", **kwargs)
        assert cache.stats.stores == stores  # pure cache hit
        np.testing.assert_array_equal(
            first.baseline.predict(first.test.inputs),
            second.baseline.predict(second.test.inputs),
        )
        # a different parameterization of the same family must miss
        prepare_benchmark("synth/ae-i12-b4", **kwargs)
        assert cache.stats.stores > stores

    def test_prepared_procedural_benchmark_structure(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "cache")
        prepared = prepare_benchmark(
            "synth/mlp-d2-w8-i6-o2", num_samples=100, seed=1, epochs=3, cache=cache
        )
        assert prepared.name == "synth/mlp-d2-w8-i6-o2"
        assert prepared.baseline.widths == (6, 8, 8, 2)
        assert len(prepared.train) + len(prepared.test) == 100
        assert np.isfinite(prepared.baseline_error)


class TestMaticFlowOnProceduralWorkloads:
    """Acceptance: procedural specs train/deploy through MaticFlow on
    non-default geometries."""

    def _flow(self, cache=None):
        return MaticFlow(
            word_bits=16,
            training=TrainingConfig(epochs=2, learning_rate=0.15, seed=0),
            training_cache=cache,
        )

    @pytest.mark.parametrize(
        "name,geometry",
        [
            ("synth/mlp-d3-w8-i6-o2", SnnacConfig(num_pes=4, words_per_bank=128, seed=7)),
            ("synth/wide-f40-h4-o2", SnnacConfig(num_pes=2, words_per_bank=256, seed=7)),
            ("synth/ae-i16-b4", SnnacConfig(num_pes=16, words_per_bank=32, seed=7)),
        ],
    )
    def test_deploy_adaptive_on_non_default_geometry(self, name, geometry):
        spec = get_benchmark(name)
        dataset = spec.generate(num_samples=80, seed=3)
        train, test = spec.split(dataset, seed=4)
        chip = Snnac(geometry)
        deployment = self._flow().deploy_adaptive(
            chip,
            spec.topology,
            train,
            target_voltage=0.50,
            loss=spec.loss,
        )
        outputs = deployment.run_at(test.inputs)
        assert outputs.shape == test.targets.shape
        assert np.isfinite(spec.error(outputs, test))

    def test_deep_stack_deploys_naively_on_a_scaled_geometry(self):
        # synth/mlp-d8-w256 needs ~530k words: far beyond the fabricated
        # 8x512 chip, comfortably within a 16-PE, 64k-words-per-bank one
        spec = get_benchmark("synth/mlp-d8-w256")
        network = spec.build_network(seed=0)
        config = SnnacConfig(num_pes=16, words_per_bank=40960, seed=7)
        chip = Snnac(config)
        dataset = spec.generate(num_samples=8, seed=3)
        deployment = self._flow().deploy_naive(
            chip,
            spec.topology,
            dataset,
            target_voltage=0.9,
            loss=spec.loss,
            initial_network=network,
        )
        outputs = deployment.run_at(dataset.inputs)
        assert outputs.shape == (8, 8)
        assert np.all(np.isfinite(outputs))
