"""Tests for the experiment drivers (scaled-down parameters).

The benchmark harness exercises the drivers at full scale; these tests run
them with small workloads to verify structure, determinism of the fast
drivers, and the qualitative relationships every regenerated table relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentResult,
    format_table,
    prepare_benchmark,
    run_fig5,
    run_fig9a,
    run_fig9b,
    run_fig10,
    run_fig11,
    run_fig12,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.engine import SweepRunner
from repro.experiments.fig10_error_vs_voltage import BenchmarkSweep, VoltagePoint


class TestCommonHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "long header"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, separator, two data rows
        assert "long header" in lines[1]

    def test_format_table_row_length_check(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["1"]])

    def test_experiment_result_rendering(self):
        result = ExperimentResult(
            experiment="demo", headers=["x"], rows=[["1"]],
            paper_reference={"value": 3}, notes="a note",
        )
        text = result.to_text()
        assert "demo" in text and "paper reference" in text and "a note" in text

    def test_prepare_benchmark_structure(self):
        prepared = prepare_benchmark("inversek2j", num_samples=300, seed=1, epochs=10)
        assert prepared.name == "inversek2j"
        assert len(prepared.train) + len(prepared.test) == 300
        assert prepared.baseline_error < 0.15


class TestEnergyDrivers:
    def test_fig11_structure(self):
        result = run_fig11()
        assert result.nominal.total > result.optimized.total
        assert result.sram_reduction > result.logic_reduction > 1.0
        assert len(result.to_experiment_result().rows) == 3

    def test_table2_scenarios_present(self):
        result = run_table2()
        names = [s.name for s in result.scenarios]
        assert names == ["HighPerf", "EnOpt_split", "EnOpt_joint"]
        for scenario in result.scenarios:
            assert scenario.reduction > 1.0
            assert scenario.matic_energy < scenario.baseline_energy

    def test_table2_accuracy_floor_respected(self):
        result = run_table2(accuracy_floor_voltage=0.60)
        assert result.scenario("EnOpt_split").matic_point.sram_voltage >= 0.60
        assert result.scenario("EnOpt_joint").matic_point.sram_voltage >= 0.60

    def test_table3_rows(self):
        result = run_table3(num_samples=300)
        assert result.snnac_matic.efficiency_gops_per_w > result.snnac_nominal.efficiency_gops_per_w
        assert len(result.rows) == 6

    def test_fig9a_small_geometry(self):
        result = run_fig9a(voltages=np.array([0.44, 0.50, 0.54]), num_words=256)
        rates = [p.measured_rate for p in result.points]
        assert rates[0] > rates[1] > rates[2]

    def test_fig9a_samples_one_population_per_sweep(self, monkeypatch):
        from repro.sram import EmpiricalVminModel

        sampled = []
        sample = EmpiricalVminModel.sample

        def counted(model, num_words, word_bits, rng):
            sampled.append((num_words, word_bits))
            return sample(model, num_words, word_bits, rng)

        monkeypatch.setattr(EmpiricalVminModel, "sample", counted)
        result = run_fig9a(
            voltages=np.array([0.44, 0.47, 0.50, 0.54]),
            num_words=128,
            runner=SweepRunner(workers=1, backend="serial"),
        )
        assert len(result.points) == 4
        assert sampled == [(128, 16)]

    def test_fig9a_tasks_cannot_write_into_the_shared_population(self, monkeypatch):
        from repro.experiments import fig09_sram
        from repro.sram import BitcellPopulation, SramBank

        worker = fig09_sram._fig9a_point_worker
        probed = []

        def probing_worker(shared, task):
            bank = SramBank(
                *shared["vmin_read"].shape,
                cells=BitcellPopulation(shared["vmin_read"], shared["preferred_state"]),
            )
            for array in (bank.cells.vmin_read, bank.cells.preferred_state):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1
            probed.append(shared["vmin_read"])
            return worker(shared, task)

        monkeypatch.setattr(fig09_sram, "_fig9a_point_worker", probing_worker)
        voltages = np.array([0.44, 0.50])
        probe = run_fig9a(
            voltages=voltages, num_words=64, runner=SweepRunner(workers=1, backend="serial")
        )
        assert len(probed) == 2 and probed[0] is probed[1]
        monkeypatch.undo()
        plain = run_fig9a(
            voltages=voltages, num_words=64, runner=SweepRunner(workers=1, backend="serial")
        )
        assert probe.points == plain.points


class TestTrainingDrivers:
    def test_fig5_small(self):
        result = run_fig5(
            fault_rates=(0.01, 0.05), num_samples=600, adaptive_epochs=15, seed=2
        )
        assert len(result.points) == 2
        for point in result.points:
            assert 0.0 <= point.adaptive_error <= 1.0
            assert 0.0 <= point.naive_error <= 1.0
        assert result.points[0].adaptive_error <= result.points[0].naive_error + 0.05

    def test_fig9b_small(self):
        result = run_fig9b(
            benchmark="inversek2j", hidden_widths=(2, 8, 16), num_samples=400, epochs=15
        )
        assert [p.topology for p in result.points] == ["2-2-2", "2-8-2", "2-16-2"]
        params = [p.num_parameters for p in result.points]
        assert params == sorted(params)
        # wider models fit at least as well as the tiny 2-hidden-unit one
        assert result.points[-1].test_error <= result.points[0].test_error + 0.02

    def test_fig10_single_benchmark_small(self):
        result = run_fig10(
            benchmarks=("inversek2j",),
            voltages=(0.90, 0.50),
            num_samples=400,
            adaptive_epochs=15,
            seed=3,
        )
        sweep = result.sweep_for("inversek2j")
        assert len(sweep.points) == 2
        nominal = sweep.point_at(0.90)
        scaled = sweep.point_at(0.50)
        assert nominal.bit_fault_rate == 0.0
        assert scaled.bit_fault_rate > 0.0
        assert scaled.adaptive_error <= scaled.naive_error + 1e-9
        with pytest.raises(KeyError):
            sweep.point_at(0.77)
        with pytest.raises(KeyError):
            result.sweep_for("mnist")

    def test_fig12_small(self):
        result = run_fig12(
            benchmark="inversek2j", num_samples=400, adaptive_epochs=15, seed=4
        )
        assert len(result.steps) == 11  # 25→-15 in 15° steps, then -15→90
        assert result.voltage_temperature_correlation < 0.0
        for step in result.steps:
            assert 0.40 <= step.sram_voltage <= 0.62
            assert step.vmin_shift == 0.0  # no aging by default

    def test_fig12_accepts_workers_1_runner(self):
        from repro.experiments.engine import SweepRunner

        result = run_fig12(
            benchmark="inversek2j",
            num_samples=400,
            adaptive_epochs=15,
            seed=4,
            runner=SweepRunner(workers=1),
        )
        assert len(result.steps) == 11

    def test_fig12_aging_trajectory_accumulates_vmin_shift(self):
        result = run_fig12(
            benchmark="inversek2j",
            num_samples=400,
            adaptive_epochs=15,
            seed=4,
            dwell_hours=2.0,
            aging_vmin_shift_per_hour=1e-4,
        )
        shifts = [step.vmin_shift for step in result.steps]
        assert shifts == sorted(shifts)
        assert shifts[0] == pytest.approx(0.0)
        # 11 steps x 2 h dwell at 1e-4 V/h: last step carries 10x2x1e-4 V
        assert shifts[-1] == pytest.approx(2e-3)
        # an aged chip cannot regulate below a fresh one at the same step
        fresh = run_fig12(
            benchmark="inversek2j", num_samples=400, adaptive_epochs=15, seed=4
        )
        assert result.steps[-1].sram_voltage >= fresh.steps[-1].sram_voltage - 1e-9


class TestTable1Construction:
    def _synthetic_sweep(self):
        sweep = BenchmarkSweep(benchmark="mnist", metric="classification", nominal_error=0.10)
        for voltage, naive, adaptive in [
            (0.90, 0.10, 0.10),
            (0.50, 0.60, 0.15),
            (0.46, 0.80, 0.20),
        ]:
            sweep.points.append(
                VoltagePoint(voltage=voltage, bit_fault_rate=0.0, naive_error=naive,
                             adaptive_error=adaptive)
            )
        return sweep

    def test_aei_computation(self):
        sweep = self._synthetic_sweep()
        assert sweep.average_error_increase("naive") == pytest.approx((0.5 + 0.7) / 2)
        assert sweep.average_error_increase("adaptive") == pytest.approx((0.05 + 0.10) / 2)

    def test_table1_from_synthetic_sweep(self):
        from repro.experiments.fig10_error_vs_voltage import Fig10Result

        result = run_table1(benchmarks=("mnist",), sweep=Fig10Result(sweeps=[self._synthetic_sweep()]))
        row = result.rows[0]
        assert row.naive_050 == pytest.approx(0.60)
        assert row.adaptive_046 == pytest.approx(0.20)
        assert row.aei_reduction == pytest.approx(8.0)
        assert result.average_aei_reduction == pytest.approx(8.0)
        text = result.to_experiment_result().to_text()
        assert "AEI" in text
