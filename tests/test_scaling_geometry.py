"""The scaling_geometry driver: structure, determinism, the queue backend,
and the capacity-wall / spill reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.cache import ArtifactCache
from repro.experiments.engine import SweepRunner
from repro.experiments.scaling_geometry import (
    GeometryPoint,
    run_scaling_geometry,
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return ArtifactCache(root=tmp_path_factory.mktemp("scaling-cache"))


KWARGS = dict(
    workloads=(
        "inversek2j",
        "synth/ae-i16-b4",
        "synth/mlp-d3-w16",
        "synth/wide-f96-h8",
        "synth/ae-i32-b4",
    ),
    num_pes_values=(2, 8, 16),
    words_per_bank_values=(16, 64, 128, 512),
    num_samples=300,
    epochs=5,
    seed=3,
)


@pytest.fixture(scope="module")
def result(cache):
    return run_scaling_geometry(runner=SweepRunner(workers=1), cache=cache, **KWARGS)


class TestScalingGeometry:
    def test_grid_shape_and_order(self, result):
        assert len(result.points) == 5 * 3 * 4
        assert [
            (p.workload, p.num_pes, p.words_per_bank) for p in result.points
        ] == [
            (name, pes, words)
            for name in KWARGS["workloads"]
            for pes in KWARGS["num_pes_values"]
            for words in KWARGS["words_per_bank_values"]
        ]

    def test_capacity_wall_reported_not_raised(self, result):
        walls = [p for p in result.points if not p.fits]
        assert walls  # (2 PEs, 16 words) cannot hold any workload
        for point in walls:
            assert point.utilization > 1
            assert point.error is None

    def test_error_is_geometry_invariant(self, result):
        for name in KWARGS["workloads"]:
            errors = {p.error for p in result.points_for(name) if p.fits}
            assert len(errors) == 1

    def test_cycles_drop_with_more_pes(self, result):
        # the two workloads small enough to fit a 2-PE, 128-word ring
        for name in ("inversek2j", "synth/ae-i16-b4"):
            fitting = [p for p in result.points_for(name) if p.fits]
            by_geometry = {(p.num_pes, p.words_per_bank): p for p in fitting}
            few = by_geometry.get((2, 128))
            many = by_geometry.get((8, 128))
            assert few is not None and many is not None
            assert many.cycles_per_inference < few.cycles_per_inference

    def test_energy_measured_at_every_fitting_point(self, result):
        for p in (p for p in result.points if p.fits):
            assert p.energy_per_inference_pj > 0
            assert p.efficiency_gops_per_w > 0

    def test_spill_pays_extra_passes(self, result):
        # inversek2j fits 8x16 only by spilling its hidden layer; those
        # extra passes must show up as a higher cycle count than the same
        # ring with roomy banks
        by_geometry = {
            (p.num_pes, p.words_per_bank): p
            for p in result.points_for("inversek2j")
            if p.fits
        }
        tight = by_geometry[(8, 16)]
        roomy = by_geometry[(8, 128)]
        assert tight.spilled_neurons > 0 and roomy.spilled_neurons == 0
        assert tight.cycles_per_inference > roomy.cycles_per_inference
        # identical model and voltage: the SRAM traffic is geometry-invariant
        assert tight.sram_reads == roomy.sram_reads

    def test_spill_reported_on_tight_banks(self, result):
        tight = [p for p in result.points if p.fits and p.words_per_bank == 16]
        assert any(p.spilled_neurons > 0 for p in tight)

    def test_rendering(self, result):
        text = result.to_experiment_result().to_text()
        assert "does not fit" in text
        assert "inversek2j" in text and "synth/ae-i16-b4" in text

    def test_deterministic_across_runs(self, cache, result):
        again = run_scaling_geometry(
            runner=SweepRunner(workers=1), cache=cache, **KWARGS
        )
        for a, b in zip(result.points, again.points):
            assert (a.workload, a.num_pes, a.words_per_bank) == (
                b.workload,
                b.num_pes,
                b.words_per_bank,
            )
            assert a.fits == b.fits
            if a.fits:
                assert a.error == b.error
                assert a.cycles_per_inference == b.cycles_per_inference
                assert a.energy_per_inference_pj == b.energy_per_inference_pj

    def test_queue_run_is_bit_identical(self, cache, result):
        """Points that round-trip through the queue's result store match
        the serial run's."""
        queued = run_scaling_geometry(
            runner=SweepRunner(
                workers=1, backend="queue", store=cache, sweep_label="test-scaling-queue"
            ),
            cache=cache,
            **KWARGS,
        )
        assert [vars(p) for p in queued.points] == [vars(p) for p in result.points]


class TestGeometryPoint:
    def test_defaults_mark_unmeasured_fields(self):
        point = GeometryPoint(
            workload="w", num_pes=2, words_per_bank=4, fits=False, utilization=2.0
        )
        assert point.error is None
        assert point.cycles_per_inference == 0
        # equality must survive the result store's pickle round-trip (no NaN)
        import pickle

        assert pickle.loads(pickle.dumps(point)) == point
