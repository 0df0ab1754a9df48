"""Tests for the variation-scenario layer: correlated bit-cell models,
process corners, environment trajectories, cache-identity guarantees, the
stratified canary policy wiring, and the ``variation_scenarios`` driver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import NOMINAL_OPERATING_POINT, Snnac, SnnacConfig
from repro.experiments.cache import ArtifactCache, cache_digest
from repro.matic.flow import MaticFlow
from repro.sram import (
    FAST_CORNER,
    SLOW_CORNER,
    TYPICAL_CORNER,
    CorrelatedVminModel,
    CorrelationSpec,
    EmpiricalVminModel,
    EnvironmentalConditions,
    EnvironmentTrajectory,
    GaussianVminModel,
    SramBank,
    TemperatureChamber,
    TrajectoryStep,
    VariationScenario,
    WeightMemorySystem,
)
from repro.sram.profiler import SramProfiler


class TestCorrelatedVminModel:
    @pytest.mark.parametrize("base_cls", [EmpiricalVminModel, GaussianVminModel])
    def test_zero_correlation_is_bit_identical_to_base(self, base_cls):
        base = base_cls()
        wrapped = CorrelatedVminModel(base=base)
        for seed in (5, 7):
            a = base.sample(128, 16, np.random.default_rng(seed))
            b = wrapped.sample(128, 16, np.random.default_rng(seed))
            np.testing.assert_array_equal(a.vmin_read, b.vmin_read)
            np.testing.assert_array_equal(a.preferred_state, b.preferred_state)

    def test_sampling_is_reproducible(self):
        model = CorrelatedVminModel(row=0.3, region=0.2)
        a = model.sample(32, 16, np.random.default_rng(9))
        b = model.sample(32, 16, np.random.default_rng(9))
        np.testing.assert_array_equal(a.vmin_read, b.vmin_read)
        np.testing.assert_array_equal(a.preferred_state, b.preferred_state)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatedVminModel(row=-0.1)
        with pytest.raises(ValueError):
            CorrelatedVminModel(row=1.0)
        with pytest.raises(ValueError):
            CorrelatedVminModel(row=0.6, region=0.5)  # shared variance >= 1
        with pytest.raises(ValueError):
            CorrelatedVminModel(column_group_size=0)
        with pytest.raises(ValueError):
            CorrelatedVminModel(num_regions=0)

    def test_failure_probability_delegates_to_base(self):
        base = EmpiricalVminModel()
        voltages = np.linspace(0.40, 0.55, 7)
        for spec in (CorrelationSpec(row=0.4), CorrelationSpec.from_shape("mixed", 0.6)):
            model = CorrelatedVminModel(
                base=base, row=spec.row, column_group=spec.column_group, region=spec.region
            )
            np.testing.assert_array_equal(
                model.failure_probability(voltages), base.failure_probability(voltages)
            )

    def test_row_correlation_clusters_row_means(self):
        """Shared per-row components inflate the variance of row means far
        beyond the i.i.d. sampling noise at equal marginal variance."""
        iid = CorrelatedVminModel()
        correlated = CorrelatedVminModel(row=0.5)
        iid_rows = iid.sample(256, 16, np.random.default_rng(3)).vmin_read.mean(axis=1)
        corr_rows = correlated.sample(
            256, 16, np.random.default_rng(3)
        ).vmin_read.mean(axis=1)
        assert corr_rows.var() > 3 * iid_rows.var()

    def test_region_correlation_clusters_fault_maps(self):
        spec = CorrelationSpec.from_shape("region", 0.6)
        scenario = VariationScenario(name="region-test", correlation=spec)
        iid_bank = SramBank(256, 16, seed=7)
        corr_bank = SramBank(256, 16, seed=7, scenario=scenario)
        voltage = 0.47
        iid_corr = iid_bank.fault_map_at(voltage).clustering_summary()
        corr_corr = corr_bank.fault_map_at(voltage).clustering_summary()
        assert corr_corr["column_autocorrelation"] > iid_corr["column_autocorrelation"]

    def test_preferred_one_probability_respected(self):
        base = GaussianVminModel(preferred_one_probability=1.0)
        model = CorrelatedVminModel(base=base, row=0.3)
        cells = model.sample(64, 16, np.random.default_rng(1))
        assert np.all(cells.preferred_state == 1)

    @settings(max_examples=20, deadline=None)
    @given(
        row=st.floats(0.0, 0.45),
        region=st.floats(0.0, 0.45),
    )
    def test_marginals_preserved_for_any_strengths(self, row, region):
        """For any strengths in [0, 1) the per-cell marginal distribution
        matches the i.i.d. base.  Sampled across many populations (distinct
        seeds) so shared components average out; a single population's
        cross-sectional std is biased low under shared components."""
        base = GaussianVminModel()
        model = CorrelatedVminModel(base=base, row=row, region=region)
        cells = np.concatenate(
            [
                model.sample(32, 16, np.random.default_rng(s)).vmin_read.ravel()
                for s in range(24)
            ]
        )
        assert cells.mean() == pytest.approx(base.mean, abs=4e-3)
        assert cells.std() == pytest.approx(base.sigma, rel=0.12)


    def test_mixed_shape_preserves_empirical_marginals(self):
        """The mixed shape (row + column-group + region components) keeps the
        empirical base's per-cell marginal: pooled over 30 populations, the
        mean moves by under 2 mV and the spread by under 10%."""
        base = EmpiricalVminModel()
        spec = CorrelationSpec.from_shape("mixed", 0.6)
        correlated = CorrelatedVminModel(
            base=base, row=spec.row, column_group=spec.column_group, region=spec.region
        )

        def pooled(model):
            return np.concatenate([
                model.sample(64, 16, np.random.default_rng(s)).vmin_read.ravel()
                for s in range(30)
            ])

        iid_cells, corr_cells = pooled(base), pooled(correlated)
        assert abs(float(iid_cells.mean()) - float(corr_cells.mean())) < 0.002
        assert 0.9 < float(corr_cells.std() / iid_cells.std()) < 1.1


class TestCorrelationSpec:
    def test_from_shape(self):
        assert CorrelationSpec.from_shape("iid", 0.7).is_iid
        assert CorrelationSpec.from_shape("row", 0.5).row == 0.5
        assert CorrelationSpec.from_shape("column", 0.5).column_group == 0.5
        assert CorrelationSpec.from_shape("region", 0.5).region == 0.5
        mixed = CorrelationSpec.from_shape("mixed", 0.6)
        assert mixed.total == pytest.approx(0.6)
        assert mixed.row == pytest.approx(0.3)

    def test_from_shape_rejects_unknown(self):
        with pytest.raises(ValueError):
            CorrelationSpec.from_shape("checkerboard", 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationSpec(row=1.0)
        with pytest.raises(ValueError):
            CorrelationSpec(row=0.5, column_group=0.5)
        with pytest.raises(ValueError):
            CorrelationSpec(num_regions=0)

    def test_spec_keys_distinguish_structures(self):
        keys = {
            cache_digest(CorrelationSpec().spec_key()),
            cache_digest(CorrelationSpec(row=0.3).spec_key()),
            cache_digest(CorrelationSpec(region=0.3).spec_key()),
            cache_digest(CorrelationSpec(row=0.3, num_regions=8).spec_key()),
        }
        assert len(keys) == 4


class TestEnvironmentTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnvironmentTrajectory(steps=())
        with pytest.raises(ValueError):
            EnvironmentTrajectory(
                steps=(
                    TrajectoryStep(2.0, EnvironmentalConditions()),
                    TrajectoryStep(1.0, EnvironmentalConditions()),
                )
            )
        with pytest.raises(ValueError):
            EnvironmentTrajectory(
                steps=(TrajectoryStep(-1.0, EnvironmentalConditions()),)
            )

    def test_from_chamber_matches_schedule(self):
        chamber = TemperatureChamber()
        trajectory = EnvironmentTrajectory.from_chamber(chamber, dwell_hours=2.0)
        chamber_conditions = chamber.conditions()
        lifted = trajectory.conditions()
        assert len(lifted) == len(chamber_conditions)
        assert [c.temperature for c in lifted] == [
            c.temperature for c in chamber_conditions
        ]
        assert trajectory.steps[-1].time_hours == pytest.approx(
            2.0 * (len(lifted) - 1)
        )

    def test_aging_accumulates_over_time(self):
        trajectory = EnvironmentTrajectory.from_chamber(
            TemperatureChamber(), dwell_hours=1.0, aging_vmin_shift_per_hour=1e-3
        )
        shifts = [c.vmin_shift for c in trajectory.conditions()]
        assert shifts[0] == pytest.approx(0.0)
        assert shifts == sorted(shifts)
        assert shifts[-1] == pytest.approx(1e-3 * (len(shifts) - 1))

    def test_environment_vmin_shift_raises_fault_rate(self):
        chip = Snnac(SnnacConfig(num_pes=2, words_per_bank=64, seed=13))
        baseline = chip.memory.fault_rate_at(0.5)
        chip.set_environment(EnvironmentalConditions(vmin_shift=0.02))
        shifted = chip.memory.fault_rate_at(0.5)
        assert shifted > baseline
        # returning to nominal restores the exact original rate: the mask
        # cache is keyed on the offset, so no stale masks survive
        chip.set_environment(EnvironmentalConditions())
        assert chip.memory.fault_rate_at(0.5) == baseline


class TestProcessCornerWiring:
    @pytest.mark.parametrize(
        "corner,sign",
        [(SLOW_CORNER, 1), (TYPICAL_CORNER, 0), (FAST_CORNER, -1)],
    )
    def test_corner_shifts_fault_rate(self, corner, sign):
        scenario = VariationScenario(name=corner.name, corner=corner)
        typical = Snnac(SnnacConfig(num_pes=2, words_per_bank=64, seed=13))
        skewed = Snnac(
            SnnacConfig(num_pes=2, words_per_bank=64, seed=13), scenario=scenario
        )
        rate_tt = typical.memory.fault_rate_at(0.5)
        rate_corner = skewed.memory.fault_rate_at(0.5)
        if sign > 0:
            assert rate_corner > rate_tt
        elif sign < 0:
            assert rate_corner < rate_tt
        else:
            assert rate_corner == rate_tt
        for bank in skewed.memory:
            assert bank.vmin_offset == pytest.approx(corner.vmin_shift)

    def test_corner_scales_leakage_not_dynamic(self):
        typical = Snnac(SnnacConfig(num_pes=2, words_per_bank=64, seed=13))
        slow = Snnac(
            SnnacConfig(num_pes=2, words_per_bank=64, seed=13),
            scenario=VariationScenario(name="ss", corner=SLOW_CORNER),
        )
        a = typical.energy_model.breakdown(NOMINAL_OPERATING_POINT)
        b = slow.energy_model.breakdown(NOMINAL_OPERATING_POINT)
        assert b.sram_leakage == pytest.approx(
            a.sram_leakage * SLOW_CORNER.leakage_scale
        )
        assert b.logic_leakage == pytest.approx(
            a.logic_leakage * SLOW_CORNER.leakage_scale
        )
        assert b.sram_dynamic == pytest.approx(a.sram_dynamic)
        assert b.logic_dynamic == pytest.approx(a.logic_dynamic)

    def test_with_leakage_scale_validation_and_identity(self):
        chip = Snnac(SnnacConfig(num_pes=2, words_per_bank=64, seed=13))
        model = chip.energy_model
        assert model.with_leakage_scale(1.0) is model
        with pytest.raises(ValueError):
            model.with_leakage_scale(0.0)
        # scaling returns an independent copy: the original is untouched
        scaled = model.with_leakage_scale(0.5)
        assert scaled is not model
        assert model.sram.leakage.nominal_power == pytest.approx(
            2.0 * scaled.sram.leakage.nominal_power
        )

    def test_corner_and_environment_offsets_compose(self):
        chip = Snnac(
            SnnacConfig(num_pes=2, words_per_bank=64, seed=13),
            scenario=VariationScenario(name="ss", corner=SLOW_CORNER),
        )
        chip.set_environment(EnvironmentalConditions(vmin_shift=0.01))
        for bank in chip.memory:
            assert bank.vmin_offset == pytest.approx(SLOW_CORNER.vmin_shift + 0.01)


class TestScenario:
    def test_iid_scenario_returns_base_model(self):
        base = EmpiricalVminModel()
        scenario = VariationScenario()
        assert scenario.variation_model(base) is base

    def test_correlated_scenario_wraps_base(self):
        scenario = VariationScenario(
            name="row", correlation=CorrelationSpec(row=0.4)
        )
        model = scenario.variation_model()
        assert isinstance(model, CorrelatedVminModel)
        assert model.row == 0.4

    def test_digest_distinguishes_scenarios(self):
        digests = {
            VariationScenario().digest(),
            VariationScenario(
                name="row", correlation=CorrelationSpec(row=0.4)
            ).digest(),
            VariationScenario(name="ss", corner=SLOW_CORNER).digest(),
        }
        assert len(digests) == 3

    def test_iid_scenario_chip_is_bit_identical_to_legacy(self):
        legacy = Snnac(SnnacConfig(num_pes=2, words_per_bank=64, seed=21))
        scenario = Snnac(
            SnnacConfig(num_pes=2, words_per_bank=64, seed=21),
            scenario=VariationScenario(),
        )
        for lb, sb in zip(legacy.memory, scenario.memory):
            np.testing.assert_array_equal(lb.cells.vmin_read, sb.cells.vmin_read)
            np.testing.assert_array_equal(
                lb.fault_map_at(0.5).stuck_mask, sb.fault_map_at(0.5).stuck_mask
            )


class TestCacheKeySeparation:
    """Identical geometry and seed, different scenarios → distinct cache
    identities at every layer that memoizes profile artifacts."""

    def _banks(self):
        iid = SramBank(64, 16, seed=17)
        correlated = SramBank(
            64,
            16,
            seed=17,
            scenario=VariationScenario(
                name="row", correlation=CorrelationSpec(row=0.4)
            ),
        )
        return iid, correlated

    def test_profile_cache_keys_differ(self):
        iid, correlated = self._banks()
        profiler = SramProfiler()
        key_a = cache_digest(MaticFlow._profile_cache_key(iid, 0.5, 25.0, profiler))
        key_b = cache_digest(
            MaticFlow._profile_cache_key(correlated, 0.5, 25.0, profiler)
        )
        assert key_a != key_b

    def test_offset_changes_cache_key_for_same_population(self):
        bank = SramBank(64, 16, seed=17)
        profiler = SramProfiler()
        before = cache_digest(MaticFlow._profile_cache_key(bank, 0.5, 25.0, profiler))
        bank.vmin_offset = 0.02
        after = cache_digest(MaticFlow._profile_cache_key(bank, 0.5, 25.0, profiler))
        assert before != after

    def test_mask_digests_differ(self):
        iid, correlated = self._banks()
        assert iid.mask_digest(0.5, 25.0) != correlated.mask_digest(0.5, 25.0)

    def test_artifact_cache_stores_separate_entries(self, tmp_path):
        iid, correlated = self._banks()
        cache = ArtifactCache(root=tmp_path)
        profiler = SramProfiler()
        builds = []
        for bank in (iid, correlated):
            key = MaticFlow._profile_cache_key(bank, 0.5, 25.0, profiler)
            cache.get_or_create(
                "fault-map-test", key, lambda b=bank: builds.append(b.name) or b.name
            )
        assert len(builds) == 2  # second bank was a miss, not a stale hit


#: The driver grid: one zero-correlation reference plus two correlated shapes
#: at equal marginal variance, each measured on six sampled dies.
DRIVER_KWARGS = dict(
    benchmarks=("inversek2j",),
    shapes=("iid", "region", "mixed"),
    strengths=(0.5,),
    num_dies=6,
    num_pes=4,
    words_per_bank=256,
    num_samples=300,
    adaptive_epochs=8,
    seed=3,
)


class TestVariationScenariosDriver:
    @pytest.fixture(scope="class")
    def cache(self, tmp_path_factory):
        return ArtifactCache(root=tmp_path_factory.mktemp("variation-cache"))

    @pytest.fixture(scope="class")
    def result(self, cache):
        from repro.experiments.engine import SweepRunner
        from repro.experiments.variation_scenarios import run_variation_scenarios

        return run_variation_scenarios(
            runner=SweepRunner(workers=1), cache=cache, **DRIVER_KWARGS
        )

    def test_grid_shape(self, result):
        assert [(p.shape, p.strength) for p in result.points] == [
            ("iid", 0.0),
            ("region", 0.5),
            ("mixed", 0.5),
        ]
        assert len({p.scenario_digest for p in result.points}) == 3

    def test_correlation_shifts_measurables(self, result):
        iid, *correlated = result.points
        for point in correlated:
            assert point.row_autocorrelation > iid.row_autocorrelation
            assert point.vmin_std > iid.vmin_std

    def test_deployment_measured(self, result):
        for point in result.points:
            assert point.naive_error is not None
            assert point.adaptive_error is not None
            assert point.adaptive_error <= point.naive_error + 0.05
            assert point.stratified_regions >= point.margin_regions

    def test_rendering(self, result):
        text = result.to_experiment_result().to_text()
        assert "iid" in text and "region" in text and "mixed" in text

    def test_queue_run_bit_identical(self, cache, result):
        """Points that round-trip through the queue's result store match
        the serial run's."""
        from repro.experiments.engine import SweepRunner
        from repro.experiments.variation_scenarios import run_variation_scenarios

        queued = run_variation_scenarios(
            runner=SweepRunner(
                workers=1, backend="queue", store=cache, sweep_label="variation-queue-test"
            ),
            cache=cache,
            **DRIVER_KWARGS,
        )
        assert [vars(p) for p in queued.points] == [
            vars(p) for p in result.points
        ]

    def test_skip_error_leaves_fields_none(self, tmp_path):
        from repro.experiments.engine import SweepRunner
        from repro.experiments.variation_scenarios import run_variation_scenarios

        result = run_variation_scenarios(
            benchmarks=("inversek2j",),
            shapes=("iid",),
            strengths=(),
            num_dies=2,
            num_pes=2,
            words_per_bank=64,
            measure_error=False,
            runner=SweepRunner(workers=1),
            cache=ArtifactCache(root=tmp_path),
        )
        (point,) = result.points
        assert point.naive_error is None
        assert point.adaptive_error is None


class TestFlowCanaryPlacement:
    def test_flow_threads_placement_to_selector(self):
        flow = MaticFlow(word_bits=16, canary_placement="stratified")
        assert flow.canary_placement == "stratified"
        default = MaticFlow(word_bits=16)
        assert default.canary_placement == "margin"
