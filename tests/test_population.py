"""Chip-population fleet simulator: seeding, serving, and driver assembly.

The acceptance bar: per-die ``SeedSequence.spawn`` children match numpy's
spawn tree exactly (so any die can be re-materialized in isolation), the
seeded request stream is deterministic and host-independent, a fleet of
one die is bit-identical to a direct :func:`simulate_die` call, and the
driver's duplicate-voltage serving path aliases rather than recomputes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.cache import ArtifactCache
from repro.experiments.common import default_flow, prepare_benchmark
from repro.experiments.engine import SweepRunner
from repro.experiments.fleet_population import (
    DEFAULT_OPERATING_VOLTAGES,
    run_fleet_population,
)
from repro.population import (
    ChipPopulation,
    FleetRequest,
    simulate_die,
    summarize_fleet,
)
from repro.sram.variation import CorrelationSpec, VariationScenario

GEOMETRY = dict(num_pes=4, words_per_bank=128)
NUM_SAMPLES = 240
SEED = 3


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ArtifactCache(root=tmp_path_factory.mktemp("population-cache"))


@pytest.fixture(scope="module")
def prepared(cache):
    return prepare_benchmark(
        "inversek2j", num_samples=NUM_SAMPLES, seed=SEED, cache=cache
    )


@pytest.fixture(scope="module")
def flow(cache):
    return default_flow(seed=SEED, cache=cache)


def _simulate(population, die, flow, prepared, requests=(), **kw):
    kw.setdefault("target_voltage", 0.50)
    return simulate_die(
        population,
        die,
        flow,
        topology=prepared.spec.topology,
        train=prepared.train,
        loss=prepared.spec.loss,
        baseline=prepared.baseline,
        test_inputs=prepared.test.inputs,
        error_fn=lambda outputs: float(prepared.spec.error(outputs, prepared.test)),
        requests=requests,
        **kw,
    )


class TestChipPopulation:
    def test_die_sequence_matches_numpy_spawn_tree(self):
        population = ChipPopulation(num_dies=5, entropy=42, **GEOMETRY)
        children = np.random.SeedSequence(42).spawn(5)
        for die, child in enumerate(children):
            ours = population.die_sequence(die)
            assert np.array_equal(
                ours.generate_state(4), child.generate_state(4)
            ), f"die {die} diverged from SeedSequence.spawn"

    def test_die_sampling_deterministic_and_independent(self):
        population = ChipPopulation(num_dies=3, entropy=7, **GEOMETRY)
        again = ChipPopulation(num_dies=3, entropy=7, **GEOMETRY)
        a = population.sample_chip(1)
        b = again.sample_chip(1)
        for bank_a, bank_b in zip(a.memory, b.memory):
            assert np.array_equal(bank_a.cells.vmin_read, bank_b.cells.vmin_read)
        other = population.sample_chip(2)
        assert not np.array_equal(
            a.memory[0].cells.vmin_read, other.memory[0].cells.vmin_read
        )

    def test_die_index_validated(self):
        population = ChipPopulation(num_dies=2, **GEOMETRY)
        with pytest.raises(ValueError):
            population.die_sequence(2)
        with pytest.raises(ValueError):
            ChipPopulation(num_dies=0)

    def test_scenario_threads_into_sampling(self):
        scenario = VariationScenario(
            name="region-0.60-tt",
            correlation=CorrelationSpec.from_shape("region", 0.6),
        )
        plain = ChipPopulation(num_dies=1, entropy=7, **GEOMETRY)
        correlated = ChipPopulation(
            num_dies=1, entropy=7, scenario=scenario, **GEOMETRY
        )
        assert not np.array_equal(
            plain.sample_chip(0).memory[0].cells.vmin_read,
            correlated.sample_chip(0).memory[0].cells.vmin_read,
        )

    def test_request_stream_deterministic_and_mixed(self):
        population = ChipPopulation(num_dies=4, entropy=9, **GEOMETRY)
        stream = population.request_stream(64, DEFAULT_OPERATING_VOLTAGES, seed=1)
        again = population.request_stream(64, DEFAULT_OPERATING_VOLTAGES, seed=1)
        assert stream == again
        assert len(stream) == 64
        assert {request.die for request in stream} <= set(range(4))
        assert {request.voltage for request in stream} <= set(
            DEFAULT_OPERATING_VOLTAGES
        )
        # the default stream actually mixes operating points and dies
        assert len({request.voltage for request in stream}) > 1
        assert len({request.die for request in stream}) > 1
        assert stream != population.request_stream(
            64, DEFAULT_OPERATING_VOLTAGES, seed=2
        )

    def test_request_stream_validates_inputs(self):
        population = ChipPopulation(num_dies=2, **GEOMETRY)
        with pytest.raises(ValueError):
            population.request_stream(-1, (0.5,))
        with pytest.raises(ValueError):
            population.request_stream(4, ())


class TestSimulateDie:
    def test_report_shape_and_served_requests(self, flow, prepared):
        population = ChipPopulation(num_dies=2, entropy=SEED, **GEOMETRY)
        requests = [
            FleetRequest(index=0, die=0, voltage=0.90),
            FleetRequest(index=1, die=0, voltage=0.50),
            FleetRequest(index=2, die=0, voltage=0.50),
            FleetRequest(index=3, die=1, voltage=0.50),
        ]
        report = _simulate(population, 0, flow, prepared, requests)
        assert report.die == 0
        assert report.requests_served == 3  # die 1's request is not ours
        assert report.requests_by_voltage == {0.90: 1, 0.50: 2}
        assert set(report.errors_by_voltage) == {0.90, 0.50}
        assert report.cycles > 0
        assert report.busy_seconds > 0.0
        assert 0.0 < report.vmin < 1.0
        assert 0.0 <= report.fault_rate < 1.0
        assert report.canary_margin is not None
        assert len(report.error_samples()) == 3

    def test_duplicate_voltage_requests_alias_one_measurement(
        self, flow, prepared
    ):
        """Serving many requests at one operating point measures it once —
        the run_sweep duplicate-voltage aliasing the fleet relies on."""
        population = ChipPopulation(num_dies=1, entropy=SEED, **GEOMETRY)
        many = [
            FleetRequest(index=i, die=0, voltage=0.50) for i in range(6)
        ] + [FleetRequest(index=6, die=0, voltage=0.90)]
        report = _simulate(population, 0, flow, prepared, many)
        assert report.requests_by_voltage == {0.50: 6, 0.90: 1}
        # all six duplicate requests share one error measurement
        assert len(report.errors_by_voltage) == 2

    def test_summarize_fleet_aggregates(self, flow, prepared):
        population = ChipPopulation(num_dies=2, entropy=SEED, **GEOMETRY)
        requests = population.request_stream(8, (0.90, 0.50), seed=SEED)
        reports = [
            _simulate(population, die, flow, prepared, requests)
            for die in range(2)
        ]
        summary = summarize_fleet(reports, target_voltage=0.50)
        assert summary.num_dies == 2
        assert summary.total_requests == 8
        assert 0.0 <= summary.yield_fraction <= 1.0
        assert summary.vmin_min <= summary.vmin_mean <= summary.vmin_max
        assert summary.throughput_requests_per_second > 0.0
        assert set(summary.error_percentiles) == {
            request.voltage for request in requests
        }
        for stats in summary.error_percentiles.values():
            assert stats["p50"] <= stats["p99"] <= stats["max"] or np.isclose(
                stats["p50"], stats["max"]
            )
        with pytest.raises(ValueError):
            summarize_fleet([], target_voltage=0.50)


class TestFleetPopulationDriver:
    def test_single_die_fleet_matches_direct_simulation(
        self, cache, flow, prepared
    ):
        result = run_fleet_population(
            benchmark="inversek2j",
            dies=1,
            num_requests=6,
            voltages=(0.90, 0.50),
            num_samples=NUM_SAMPLES,
            seed=SEED,
            chip_seed=11,
            runner=SweepRunner(workers=1),
            cache=cache,
            flow=flow,
            **GEOMETRY,
        )
        population = ChipPopulation(num_dies=1, entropy=11, **GEOMETRY)
        requests = population.request_stream(6, (0.90, 0.50), seed=SEED)
        direct = _simulate(population, 0, flow, prepared, requests)
        fleet = result.report_for(0)
        assert (fleet.vmin, fleet.fault_rate, fleet.canary_margin) == (
            direct.vmin,
            direct.fault_rate,
            direct.canary_margin,
        )
        assert fleet.errors_by_voltage == direct.errors_by_voltage
        assert fleet.requests_by_voltage == direct.requests_by_voltage
        assert fleet.seed == direct.seed

    def test_queue_and_warm_rerun_match_serial(self, tmp_path):
        """A fleet on the queue backend, whose reports round-trip through the
        result store, matches the serial reports, and a warm re-run over the
        same store matches without profiling any die again."""
        kwargs = dict(
            benchmark="inversek2j",
            dies=4,
            num_requests=12,
            voltages=(0.90, 0.50),
            num_samples=300,
            seed=SEED,
            chip_seed=11,
            **GEOMETRY,
        )
        store = ArtifactCache(root=tmp_path)
        reference = run_fleet_population(
            runner=SweepRunner(workers=1), cache=store, **kwargs
        )

        def profile_artifacts():
            return sorted(tmp_path.glob("fault-map*/*.pkl"))

        profiled = profile_artifacts()
        assert profiled
        warm = run_fleet_population(
            runner=SweepRunner(workers=1), cache=ArtifactCache(root=tmp_path), **kwargs
        )
        assert warm.reports == reference.reports
        assert profile_artifacts() == profiled  # every die profile recalled

        queued = run_fleet_population(
            runner=SweepRunner(
                workers=1, backend="queue", store=store, sweep_label="fleet-queue-test"
            ),
            cache=store,
            **kwargs,
        )
        assert queued.reports == reference.reports

    def test_fleet_run_and_rendering(self, cache, flow):
        result = run_fleet_population(
            benchmark="inversek2j",
            dies=3,
            num_requests=9,
            voltages=(0.90, 0.50),
            num_samples=NUM_SAMPLES,
            seed=SEED,
            runner=SweepRunner(workers=1),
            cache=cache,
            flow=flow,
            **GEOMETRY,
        )
        assert [report.die for report in result.reports] == [0, 1, 2]
        assert result.summary is not None
        assert result.summary.total_requests == 9
        assert result.quarantined == []
        text = result.to_experiment_result().to_text()
        assert "fleet" in text
        assert "Vmin (V)" in text
        # scenario-aware runs record the scenario digest
        assert result.scenario_digest is None
        correlated = run_fleet_population(
            benchmark="inversek2j",
            dies=1,
            num_requests=2,
            voltages=(0.50,),
            shape="region",
            strength=0.6,
            num_samples=NUM_SAMPLES,
            seed=SEED,
            runner=SweepRunner(workers=1),
            cache=cache,
            flow=flow,
            **GEOMETRY,
        )
        assert correlated.scenario_digest is not None
        assert correlated.reports[0].vmin != result.reports[0].vmin
