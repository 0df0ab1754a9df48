"""Voltage-axis-batched adaptive deployments.

Three layers of soundness guarantees for the batched MATIC path:

1. **Sweep profiling** (`SramProfiler.profile_bank_sweep`,
   `MaticFlow.profile_chip_sweep`) must be *bit-identical* to the measured
   per-voltage procedure — the analytic derivation is an optimization, never
   a model change — and must fall back to the measured loop whenever the
   procedure it models was customized.
2. **Cold-path identity**: `deploy_adaptive_sweep(warm_start=False)` must be
   bit-identical to the historical one-`deploy_adaptive`-per-voltage flow,
   and chained adaptive tasks run on the queue bit-identical to serial runs.
3. **Warm-start soundness**: warm points converge within tolerance of cold
   ones, under the reduced budget, and warm/cold artifacts never collide in
   the trained-weights cache (the initial-weights content keys the lineage).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.soc import Snnac, SnnacConfig
from repro.experiments.cache import ArtifactCache
from repro.matic.flow import MaticFlow, ProfileCacheCounters, TrainingConfig
from repro.nn.data import Dataset
from repro.sram import SramProfiler

VOLTAGES = (0.53, 0.50, 0.46)


def make_chip(seed: int = 5) -> Snnac:
    return Snnac(SnnacConfig(num_pes=2, words_per_bank=64, word_bits=16, seed=seed))


def make_dataset(seed: int = 0, samples: int = 120) -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(samples, 2))
    targets = np.stack(
        [0.3 * inputs[:, 0] + 0.1, 0.5 * np.abs(inputs[:, 1])], axis=1
    )
    return Dataset(inputs, targets), Dataset(inputs[:40], targets[:40])


def assert_reports_identical(measured, derived):
    assert len(measured) == len(derived)
    for reference, candidate in zip(measured, derived):
        assert reference.fault_map == candidate.fault_map
        np.testing.assert_array_equal(
            reference.fault_map.stuck_mask, candidate.fault_map.stuck_mask
        )
        np.testing.assert_array_equal(
            reference.fault_map.stuck_values, candidate.fault_map.stuck_values
        )
        assert reference.read_after_write_errors == candidate.read_after_write_errors
        assert reference.read_after_read_errors == candidate.read_after_read_errors
        assert reference.pattern_errors == candidate.pattern_errors
        assert reference.voltage == candidate.voltage
        assert reference.temperature == candidate.temperature


class TestProfilerSweepEquivalence:
    """profile_bank_sweep is an equivalence oracle against profile_bank."""

    def test_default_patterns_bit_identical(self):
        profiler = SramProfiler()
        bank = make_chip().memory[0]
        derived = profiler.profile_bank_sweep(bank, VOLTAGES)
        measured = [profiler.profile_bank(bank, v) for v in VOLTAGES]
        assert_reports_identical(measured, derived)

    def test_custom_patterns_bit_identical(self):
        profiler = SramProfiler(test_patterns={"checker": 0xAAAA, "inverse": 0x5555})
        bank = make_chip().memory[1]
        derived = profiler.profile_bank_sweep(bank, VOLTAGES)
        measured = [profiler.profile_bank(bank, v) for v in VOLTAGES]
        assert_reports_identical(measured, derived)

    def test_partial_patterns_under_record_identically(self):
        """An all-ones-only background misses cells preferring 1 in both the
        measured and the derived procedure."""
        profiler = SramProfiler(test_patterns={"ones": 0xFFFF})
        bank = make_chip().memory[0]
        derived = profiler.profile_bank_sweep(bank, [0.46])
        measured = [profiler.profile_bank(bank, 0.46)]
        assert_reports_identical(measured, derived)
        full = SramProfiler().profile_bank(bank, 0.46)
        assert derived[0].fault_map.num_faults < full.fault_map.num_faults

    @settings(max_examples=15, deadline=None)
    @given(
        voltages=st.lists(
            st.floats(min_value=0.35, max_value=0.95), min_size=1, max_size=4
        ),
        temperature=st.floats(min_value=-10.0, max_value=85.0),
    )
    def test_equivalence_holds_across_operating_points(self, voltages, temperature):
        profiler = SramProfiler()
        bank = make_chip(seed=7).memory[0]
        derived = profiler.profile_bank_sweep(bank, voltages, temperature)
        measured = [profiler.profile_bank(bank, v, temperature) for v in voltages]
        assert_reports_identical(measured, derived)

    def test_sweep_leaves_contents_and_read_counter_untouched(self):
        """The analytic pass must not disturb the bank: no reads, no writes,
        deployed contents intact."""
        bank = make_chip().memory[0]
        words = (np.arange(bank.num_words, dtype=np.uint64) * 17) & np.uint64(0xFFFF)
        bank.write_all(words)
        reads = bank.read_count
        SramProfiler().profile_bank_sweep(bank, VOLTAGES)
        assert bank.read_count == reads
        np.testing.assert_array_equal(bank.stored_words(), words)

    def test_overridden_profile_bank_falls_back_to_measured_loop(self):
        """A subclass with its own measurement procedure invalidates the
        analytic derivation — the sweep must delegate to it per voltage."""
        calls = []

        class CustomProfiler(SramProfiler):
            def profile_bank(self, bank, voltage, temperature=25.0):
                calls.append(float(voltage))
                return super().profile_bank(bank, voltage, temperature)

        profiler = CustomProfiler()
        bank = make_chip().memory[0]
        derived = profiler.profile_bank_sweep(bank, VOLTAGES)
        assert calls == [float(v) for v in VOLTAGES]
        measured = [SramProfiler().profile_bank(bank, v) for v in VOLTAGES]
        assert_reports_identical(measured, derived)

    def test_unrestored_profiler_falls_back_with_side_effects(self):
        """restore_contents=False profiling leaves the last test pattern in
        the bank — part of the contract, so the sweep must reproduce it."""
        swept, looped = make_chip().memory[0], make_chip().memory[0]
        reports = SramProfiler(restore_contents=False).profile_bank_sweep(
            swept, VOLTAGES
        )
        reference = [
            SramProfiler(restore_contents=False).profile_bank(looped, v)
            for v in VOLTAGES
        ]
        assert_reports_identical(reference, reports)
        np.testing.assert_array_equal(swept.stored_words(), looped.stored_words())
        assert swept.read_count > 0  # genuinely measured, not derived

    def test_nonpositive_voltage_rejected(self):
        with pytest.raises(ValueError, match="voltage must be positive"):
            SramProfiler().profile_bank_sweep(make_chip().memory[0], [0.5, 0.0])


class TestProfileChipSweep:
    def test_matches_per_voltage_profile_chip(self, tmp_path):
        flow = MaticFlow(training_cache=ArtifactCache(root=tmp_path / "cache"))
        per_voltage = [flow.profile_chip(make_chip(), v) for v in VOLTAGES]
        swept = flow.profile_chip_sweep(make_chip(), VOLTAGES)
        assert len(swept) == len(VOLTAGES)
        for reference_maps, sweep_maps in zip(per_voltage, swept):
            assert reference_maps == sweep_maps

    def test_one_record_per_bank_and_counters(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "cache")
        flow = MaticFlow(training_cache=cache)
        chip = make_chip()
        flow.profile_chip_sweep(chip, VOLTAGES)
        assert flow.profile_counters.sweep_misses == len(chip.memory)
        sweep_records = list((cache.root / "fault-map-sweep").glob("*.pkl"))
        assert len(sweep_records) == len(chip.memory)

        flow.profile_chip_sweep(make_chip(), VOLTAGES)
        assert flow.profile_counters.sweep_hits == len(chip.memory)
        assert len(list((cache.root / "fault-map-sweep").glob("*.pkl"))) == len(
            chip.memory
        )

    def test_distinct_axes_do_not_collide(self, tmp_path):
        cache = ArtifactCache(root=tmp_path / "cache")
        flow = MaticFlow(training_cache=cache)
        full = flow.profile_chip_sweep(make_chip(), VOLTAGES)
        shorter = flow.profile_chip_sweep(make_chip(), VOLTAGES[:2])
        assert flow.profile_counters.sweep_misses == 2 * len(make_chip().memory)
        assert full[:2] == [list(maps) for maps in shorter] or full[:2] == shorter

    def test_counters_reset_and_as_dict(self):
        counters = ProfileCacheCounters(chip_hits=3, sweep_misses=2)
        snapshot = counters.as_dict()
        assert snapshot["chip_hits"] == 3 and snapshot["sweep_misses"] == 2
        counters.reset()
        assert all(value == 0 for value in counters.as_dict().values())


class TestColdPathIdentity:
    """warm_start=False is the historical flow, bit for bit."""

    def test_cold_sweep_bit_identical_to_per_voltage_deploys(self):
        train, _ = make_dataset()
        config = TrainingConfig(epochs=6, seed=3)
        historical = [
            MaticFlow(training=config).deploy_adaptive(
                make_chip(), "2-8-2", train, target_voltage=v
            )
            for v in VOLTAGES
        ]
        points = MaticFlow(training=config).deploy_adaptive_sweep(
            make_chip(), "2-8-2", train, voltages=VOLTAGES, warm_start=False
        )
        for reference, point in zip(historical, points):
            assert not point.warm_started
            assert point.voltage == reference.target_voltage
            for a, b in zip(
                reference.network.layers, point.deployment.network.layers
            ):
                np.testing.assert_array_equal(a.weights, b.weights)
                np.testing.assert_array_equal(a.bias, b.bias)
            assert reference.fault_maps == point.deployment.fault_maps

    def test_cold_sweep_shares_trained_weights_cache_with_historical_flow(
        self, tmp_path
    ):
        """Same initial weights + same masks + same config ⇒ the same
        trained-weights keys: the batched cold spelling recalls the
        historical flow's artifacts instead of retraining."""
        train, _ = make_dataset()
        cache = ArtifactCache(root=tmp_path / "cache")
        config = TrainingConfig(epochs=6, seed=3)
        for v in VOLTAGES:
            MaticFlow(training=config, training_cache=cache).deploy_adaptive(
                make_chip(), "2-8-2", train, target_voltage=v
            )
        stores = cache.stats.stores
        MaticFlow(training=config, training_cache=cache).deploy_adaptive_sweep(
            make_chip(), "2-8-2", train, voltages=VOLTAGES, warm_start=False
        )
        # only the fault-map-sweep records are new; every training recalls
        assert (
            cache.stats.stores == stores + len(make_chip().memory)
        ), "cold sweep must not retrain points the historical flow cached"


class TestWarmStartSoundness:
    def test_warm_points_within_tolerance_of_cold(self):
        train, test = make_dataset()
        config = TrainingConfig(epochs=12, seed=3)

        def mse(deployment):
            outputs = deployment.run_at(test.inputs)
            return float(np.mean((outputs - test.targets) ** 2))

        cold = MaticFlow(training=config).deploy_adaptive_sweep(
            make_chip(), "2-8-2", train, voltages=VOLTAGES, warm_start=False,
            measure=mse,
        )
        warm = MaticFlow(training=config).deploy_adaptive_sweep(
            make_chip(), "2-8-2", train, voltages=VOLTAGES, warm_start=True,
            measure=mse,
        )
        assert not warm[0].warm_started  # highest voltage trains cold
        assert all(point.warm_started for point in warm[1:])
        for cold_point, warm_point in zip(cold, warm):
            assert warm_point.measurement == pytest.approx(
                cold_point.measurement, abs=0.01
            )

    def test_warm_points_run_the_reduced_budget(self):
        train, _ = make_dataset()
        config = TrainingConfig(epochs=12, seed=3)
        points = MaticFlow(training=config).deploy_adaptive_sweep(
            make_chip(), "2-8-2", train, voltages=VOLTAGES, warm_epochs=2
        )
        assert points[0].history.epochs_run == config.epochs
        for point in points[1:]:
            assert point.history.epochs_run <= 2

    def test_walk_order_is_high_to_low_but_results_in_input_order(self):
        train, _ = make_dataset()
        config = TrainingConfig(epochs=4, seed=3)
        shuffled = (0.46, 0.53, 0.50)
        points = MaticFlow(training=config).deploy_adaptive_sweep(
            make_chip(), "2-8-2", train, voltages=shuffled
        )
        assert [point.voltage for point in points] == [float(v) for v in shuffled]
        # 0.53 is the walk's first point — the only cold one
        by_voltage = {point.voltage: point for point in points}
        assert not by_voltage[0.53].warm_started
        assert by_voltage[0.50].warm_started and by_voltage[0.46].warm_started

    def test_warm_and_cold_artifacts_never_collide(self, tmp_path):
        """The warm lineage keys through the initial-weights content: only
        the first (cold) point of a warm sweep may share an artifact with
        the cold sweep; every later point must train and store fresh."""
        train, _ = make_dataset()
        cache = ArtifactCache(root=tmp_path / "cache")
        config = TrainingConfig(epochs=6, seed=3)
        MaticFlow(training=config, training_cache=cache).deploy_adaptive_sweep(
            make_chip(), "2-8-2", train, voltages=VOLTAGES, warm_start=False
        )
        trained = len(list((cache.root / "trained-weights").glob("*.pkl")))
        assert trained == len(VOLTAGES)
        MaticFlow(training=config, training_cache=cache).deploy_adaptive_sweep(
            make_chip(), "2-8-2", train, voltages=VOLTAGES, warm_start=True
        )
        warm_trained = len(list((cache.root / "trained-weights").glob("*.pkl")))
        # first warm point == first cold point (legitimately shared); the
        # other warm points differ in initial weights AND epochs, so they
        # must have produced brand-new artifacts, never overwritten cold ones
        assert warm_trained == trained + len(VOLTAGES) - 1

    def test_warm_rerun_recalls_every_point(self, tmp_path):
        """The chained walk is deterministic, so a warm rerun is pure recall
        — the lineage key is stable across processes and sweeps."""
        train, _ = make_dataset()
        cache = ArtifactCache(root=tmp_path / "cache")
        config = TrainingConfig(epochs=6, seed=3)
        first = MaticFlow(
            training=config, training_cache=cache
        ).deploy_adaptive_sweep(make_chip(), "2-8-2", train, voltages=VOLTAGES)
        stores = cache.stats.stores
        second = MaticFlow(
            training=config, training_cache=cache
        ).deploy_adaptive_sweep(make_chip(), "2-8-2", train, voltages=VOLTAGES)
        assert cache.stats.stores == stores  # nothing retrained
        for a, b in zip(first, second):
            for la, lb in zip(
                a.deployment.network.layers, b.deployment.network.layers
            ):
                np.testing.assert_array_equal(la.weights, lb.weights)

    def test_empty_axis_rejected(self):
        train, _ = make_dataset()
        with pytest.raises(ValueError, match="at least one voltage"):
            MaticFlow().deploy_adaptive_sweep(
                make_chip(), "2-8-2", train, voltages=()
            )


class TestQueuedAdaptiveSweep:
    def test_queued_chained_tasks_bit_identical_to_serial(self, tmp_path):
        """The chained adaptive task is one task per benchmark like the naive
        one; run on the queue, through its result store, it must match the
        serial run bit for bit."""
        from repro.experiments.engine import SweepRunner
        from repro.experiments.fig10_error_vs_voltage import run_fig10

        cache = ArtifactCache(root=tmp_path / "cache")
        kwargs = dict(
            benchmarks=("inversek2j", "bscholes"),
            voltages=(0.9, 0.5, 0.46),
            num_samples=200,
            adaptive_epochs=2,
            cache=cache,
        )
        reference = run_fig10(runner=SweepRunner(workers=1), **kwargs)

        merged = run_fig10(
            runner=SweepRunner(
                workers=1,
                backend="queue",
                store=ArtifactCache(root=tmp_path / "results"),
                sweep_label="fig10-adaptive-queue-test",
            ),
            **kwargs,
        )
        for name in kwargs["benchmarks"]:
            for a, b in zip(
                reference.sweep_for(name).points, merged.sweep_for(name).points
            ):
                assert (
                    a.voltage,
                    a.bit_fault_rate,
                    a.naive_error,
                    a.adaptive_error,
                ) == (b.voltage, b.bit_fault_rate, b.naive_error, b.adaptive_error)
