"""Unit and property-based tests for repro.sram.array (SramBank and
WeightMemorySystem): the read-disturb failure mechanism MATIC depends on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sram import BitcellPopulation, GaussianVminModel, SramBank, WeightMemorySystem
from repro.sram.bitops import popcount, unpack_words


def write_all(bank, words):
    """Write the whole bank in address order."""
    bank.write(np.arange(bank.num_words), words)


def read_all(bank, **operating_point):
    """Read the whole bank in address order at an operating point."""
    return bank.read(np.arange(bank.num_words), **operating_point)


def bit_errors(bank, reference):
    """Number of stored bits that differ from ``reference``."""
    return popcount(bank.stored_words() ^ reference)


@pytest.fixture()
def bank():
    return SramBank(64, 16, seed=7, name="test-bank")


class TestBasicAccess:
    def test_geometry(self, bank):
        assert bank.size_bits == 64 * 16
        assert bank.size_bytes == 128
        assert bank.word_mask == 0xFFFF

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SramBank(0, 16)
        with pytest.raises(ValueError):
            SramBank(8, 70)

    def test_write_read_at_nominal_voltage(self, bank):
        words = np.arange(64, dtype=np.uint64)
        write_all(bank, words)
        np.testing.assert_array_equal(read_all(bank, voltage=0.9), words)

    def test_single_address_access(self, bank):
        bank.write(5, 0xBEEF)
        assert bank.read(5, voltage=0.9)[0] == 0xBEEF

    def test_write_masks_to_word_length(self, bank):
        bank.write(0, 0x1FFFF)
        assert bank.read(0, voltage=0.9)[0] == 0xFFFF

    def test_address_out_of_range(self, bank):
        with pytest.raises(IndexError):
            bank.read(64)
        with pytest.raises(IndexError):
            bank.write(-1, 0)

    def test_word_count_mismatch(self, bank):
        with pytest.raises(ValueError):
            bank.write(np.array([0, 1]), np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            write_all(bank, np.zeros(10, dtype=np.uint64))

    def test_invalid_voltage(self, bank):
        with pytest.raises(ValueError):
            bank.read(0, voltage=0.0)

    def test_counters(self, bank):
        write_all(bank, np.zeros(64, dtype=np.uint64))
        read_all(bank)
        assert bank.write_count == 64
        assert bank.read_count == 64

    def test_stored_words_is_non_destructive(self, bank):
        write_all(bank, np.arange(64, dtype=np.uint64))
        before_reads = bank.read_count
        bank.stored_words()
        assert bank.read_count == before_reads


class TestReadDisturbBehaviour:
    def test_no_errors_at_nominal(self, bank):
        reference = np.full(64, 0xA5A5, dtype=np.uint64)
        write_all(bank, reference)
        read_all(bank, voltage=0.9)
        assert bit_errors(bank, reference) == 0

    def test_errors_appear_at_low_voltage(self, bank):
        reference = np.full(64, 0xA5A5, dtype=np.uint64)
        write_all(bank, reference)
        read_all(bank, voltage=0.45)
        assert bit_errors(bank, reference) > 0

    def test_corruption_matches_fault_map(self, bank):
        """Reads at voltage V corrupt exactly the cells the fault map predicts."""
        reference = np.arange(64, dtype=np.uint64) * 321 % 65536
        write_all(bank, reference)
        fault_map = bank.fault_map_at(0.46)
        observed = read_all(bank, voltage=0.46)
        np.testing.assert_array_equal(observed, fault_map.apply(reference))

    def test_corruption_is_stable_across_repeated_reads(self, bank):
        reference = np.full(64, 0x0F0F, dtype=np.uint64)
        write_all(bank, reference)
        first = read_all(bank, voltage=0.45)
        second = read_all(bank, voltage=0.45)
        third = read_all(bank, voltage=0.9)  # corruption persists even at nominal
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, third)

    def test_write_refreshes_disturbed_cells(self, bank):
        reference = np.full(64, 0x3333, dtype=np.uint64)
        write_all(bank, reference)
        read_all(bank, voltage=0.42)
        write_all(bank, reference)
        np.testing.assert_array_equal(read_all(bank, voltage=0.9), reference)

    def test_lower_voltage_corrupts_more_cells(self, bank):
        reference = np.full(64, 0xFFFF, dtype=np.uint64)
        errors = []
        for voltage in (0.52, 0.48, 0.44):
            write_all(bank, reference)
            read_all(bank, voltage=voltage)
            errors.append(bit_errors(bank, reference))
        assert errors[0] <= errors[1] <= errors[2]

    def test_temperature_shifts_failure_boundary(self, bank):
        reference = np.full(64, 0x5A5A, dtype=np.uint64)
        write_all(bank, reference)
        read_all(bank, voltage=0.47, temperature=-15.0)
        cold_errors = bit_errors(bank, reference)
        write_all(bank, reference)
        read_all(bank, voltage=0.47, temperature=90.0)
        hot_errors = bit_errors(bank, reference)
        assert cold_errors >= hot_errors

    def test_fault_map_polarity_is_preferred_state(self, bank):
        fault_map = bank.fault_map_at(0.46)
        for fault in fault_map.faults[:20]:
            assert fault.stuck_value == bank.cells.preferred_state[fault.address, fault.bit]

    def test_marginal_cells_are_sorted_and_safe(self, bank):
        marginal = bank.marginal_cells(0.50, count=8)
        assert len(marginal) == 8
        vmins = [bank.cells.vmin_read[f.address, f.bit] for f in marginal]
        assert all(v <= 0.50 for v in vmins)
        assert vmins == sorted(vmins, reverse=True)

    def test_marginal_cells_count_validation(self, bank):
        with pytest.raises(ValueError):
            bank.marginal_cells(0.5, count=0)

    @settings(max_examples=25, deadline=None)
    @given(
        voltage=st.floats(0.40, 0.60),
        pattern=st.integers(0, 2**16 - 1),
        seed=st.integers(0, 100),
    )
    def test_read_disturb_idempotence_property(self, voltage, pattern, seed):
        """Once disturbed, repeated reads at the same or higher voltage return
        the same data (the stability property MAT relies on)."""
        bank = SramBank(16, 16, seed=seed)
        write_all(bank, np.full(16, pattern, dtype=np.uint64))
        first = read_all(bank, voltage=voltage)
        second = read_all(bank, voltage=voltage)
        higher = read_all(bank, voltage=voltage + 0.2)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, higher)


class TestRailBoundary:
    """A cell whose V_min,read equals the rail exactly must be safe in every
    path: read, fault_map_at, and marginal_cells must agree on it."""

    VOLTAGE = 0.5

    @pytest.fixture()
    def boundary_bank(self):
        bank = SramBank(16, 8, seed=3)
        # pin one cell exactly at the rail, its neighbours clearly around it
        bank.cells.vmin_read[:] = 0.30
        bank.cells.vmin_read[4, 2] = self.VOLTAGE
        bank.cells.vmin_read[4, 3] = self.VOLTAGE + 0.01
        bank.cells.preferred_state[:] = 1
        return bank

    def test_read_at_rail_is_safe(self, boundary_bank):
        write_all(boundary_bank, np.zeros(16, dtype=np.uint64))
        words = read_all(boundary_bank, voltage=self.VOLTAGE)
        # bit (4, 2) at the rail survives; bit (4, 3) above it flips to 1
        assert (int(words[4]) >> 2) & 1 == 0
        assert (int(words[4]) >> 3) & 1 == 1

    def test_fault_map_excludes_rail_cell(self, boundary_bank):
        fault_map = boundary_bank.fault_map_at(self.VOLTAGE)
        positions = {(f.address, f.bit) for f in fault_map.faults}
        assert (4, 2) not in positions
        assert (4, 3) in positions

    def test_marginal_cells_include_rail_cell_first(self, boundary_bank):
        marginal = boundary_bank.marginal_cells(self.VOLTAGE, count=3)
        assert (marginal[0].address, marginal[0].bit) == (4, 2)

    def test_all_paths_agree(self, boundary_bank):
        """The rail cell is safe everywhere, never disturbed in one path and
        safe in another."""
        fault_positions = {
            (f.address, f.bit) for f in boundary_bank.fault_map_at(self.VOLTAGE).faults
        }
        write_all(boundary_bank, np.zeros(16, dtype=np.uint64))
        read_all(boundary_bank, voltage=self.VOLTAGE)
        stored = unpack_words(boundary_bank.stored_words(), boundary_bank.word_bits)
        disturbed = {(int(a), int(b)) for a, b in zip(*np.nonzero(stored))}
        assert disturbed == fault_positions
        marginal_positions = {
            (f.address, f.bit)
            for f in boundary_bank.marginal_cells(self.VOLTAGE, count=16 * 8)
        }
        assert not (marginal_positions & fault_positions)
        assert (4, 2) in marginal_positions


class TestMarginalCellTieBreak:
    def test_ties_resolved_by_address_then_bit(self):
        bank = SramBank(8, 4, seed=0)
        bank.cells.vmin_read[:] = 0.48  # every cell tied at the same margin
        marginal = bank.marginal_cells(0.50, count=6)
        positions = [(f.address, f.bit) for f in marginal]
        assert positions == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]

    def test_selection_is_reproducible(self):
        bank_a = SramBank(32, 8, seed=11)
        bank_b = SramBank(32, 8, seed=11)
        sel_a = [(f.address, f.bit) for f in bank_a.marginal_cells(0.5, count=8)]
        sel_b = [(f.address, f.bit) for f in bank_b.marginal_cells(0.5, count=8)]
        assert sel_a == sel_b


class TestMarginalCellLimit:
    """``marginal_cells(limit=...)`` keeps addresses below the limit only."""

    def test_zero_limit_is_empty(self, bank):
        assert bank.marginal_cells(0.50, count=8, limit=0) == []

    @pytest.mark.parametrize("limit", [64, 65, 1000])
    def test_limit_at_or_above_num_words_is_no_limit(self, bank, limit):
        assert bank.marginal_cells(0.50, count=40, limit=limit) == bank.marginal_cells(
            0.50, count=40
        )

    def test_count_above_candidates_returns_every_candidate_in_order(self):
        bank = SramBank(8, 4, seed=0)
        bank.cells.vmin_read[:] = 0.60  # fails at 0.50 V
        bank.cells.vmin_read[1, 2] = 0.45
        bank.cells.vmin_read[3, 0] = 0.48
        bank.cells.vmin_read[5, 1] = 0.48
        bank.cells.vmin_read[6, 3] = 0.49
        marginal = bank.marginal_cells(0.50, count=100, limit=6)
        assert [(f.address, f.bit) for f in marginal] == [(3, 0), (5, 1), (1, 2)]

    def test_every_cell_failing_is_empty(self, bank):
        # the bank's weakest-to-strongest spread sits well above 0.20 V
        assert (bank.effective_vmin(25.0) > 0.20).all()
        assert bank.marginal_cells(0.20, count=8) == []
        assert bank.marginal_cells(0.20, count=8, limit=10) == []


class TestGivenPopulation:
    """``SramBank(cells=)``: a bank built around a population already sampled."""

    def test_draws_nothing_and_shares_the_arrays(self):
        cells = SramBank(32, 12, seed=4).cells
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        bank = SramBank(32, 12, seed=rng, cells=cells)
        assert rng.bit_generator.state == state
        assert bank.cells is cells
        sampled = SramBank(32, 12, seed=4)
        for voltage in (0.44, 0.50):
            assert bank.fault_map_at(voltage) == sampled.fault_map_at(voltage)
            write_all(bank, np.arange(32, dtype=np.uint64))
            write_all(sampled, np.arange(32, dtype=np.uint64))
            np.testing.assert_array_equal(
                read_all(bank, voltage=voltage), read_all(sampled, voltage=voltage)
            )

    @pytest.mark.parametrize("shape", [(32, 11), (31, 12), (12, 32)])
    def test_rejects_a_population_of_another_shape(self, shape):
        cells = BitcellPopulation(np.full(shape, 0.4), np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ValueError, match="expected \\(32, 12\\)"):
            SramBank(32, 12, cells=cells)


class TestWeightMemorySystem:
    def test_build(self):
        memory = WeightMemorySystem.build(8, 128, 16, seed=0)
        assert len(memory) == 8
        assert memory.total_bits == 8 * 128 * 16
        assert memory.word_bits == 16
        assert memory[0].name == "pe0.weights"

    def test_banks_have_independent_variation(self):
        memory = WeightMemorySystem.build(2, 64, 16, seed=0)
        assert not np.allclose(memory[0].cells.vmin_read, memory[1].cells.vmin_read)

    def test_same_seed_reproducible(self):
        a = WeightMemorySystem.build(2, 32, 16, seed=5)
        b = WeightMemorySystem.build(2, 32, 16, seed=5)
        np.testing.assert_allclose(a[0].cells.vmin_read, b[0].cells.vmin_read)

    def test_mixed_word_lengths_rejected(self):
        banks = [SramBank(8, 16, seed=0), SramBank(8, 8, seed=1)]
        with pytest.raises(ValueError):
            WeightMemorySystem(banks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightMemorySystem([])

    def test_fault_rate_at_decreases_with_voltage(self):
        memory = WeightMemorySystem.build(4, 128, 16, seed=3)
        assert memory.fault_rate_at(0.44) > memory.fault_rate_at(0.50) > memory.fault_rate_at(0.60)

    def test_fault_maps_cover_all_banks(self):
        memory = WeightMemorySystem.build(3, 64, 16, seed=3)
        maps = memory.fault_maps_at(0.46)
        assert len(maps) == 3
        assert all(m.num_words == 64 for m in maps)

    def test_custom_variation_model(self):
        model = GaussianVminModel(mean=0.3, sigma=0.01)
        memory = WeightMemorySystem.build(2, 32, 16, variation_model=model, seed=0)
        # with Vmin centred at 0.3 V, 0.5 V operation is essentially fault-free
        assert memory.fault_rate_at(0.5) < 0.001
