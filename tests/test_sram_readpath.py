"""Equivalence oracle + cache-invalidation tests for the operating-point-
resident SRAM read path.

The word-resident read path (`(words & and_mask) | or_mask` from cached
per-operating-point masks) must be bit-identical — words, persistence, and
counters — to the bit-domain reference path it replaced: unpack the
addressed words, compare every cell's effective V_min,read against the rail,
flip disturbed cells to their preferred state, pack.  The reference is
reimplemented here, against the bank's ground-truth cell state, and driven
over randomized banks and access sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sram import SramBank
from repro.sram.bitops import pack_bits, popcount, unpack_words


def write_all(bank, words):
    """Write the whole bank in address order."""
    bank.write(np.arange(bank.num_words), words)


def read_all(bank, **operating_point):
    """Read the whole bank in address order at an operating point."""
    return bank.read(np.arange(bank.num_words), **operating_point)


def bit_errors(bank, reference):
    """Number of stored bits that differ from ``reference``."""
    return popcount(bank.stored_words() ^ reference)


class ReferenceBitBank:
    """The pre-plan bit-domain read path, mirrored onto a live SramBank.

    Keeps its own ``(num_words, word_bits)`` bit-matrix storage and performs
    reads exactly as the historical implementation did.  ``cells`` (the
    sampled V_min / preferred-state population) are shared with the bank
    under test so both models see identical physics.
    """

    def __init__(self, bank: SramBank) -> None:
        self.bank = bank
        self.data_bits = np.zeros((bank.num_words, bank.word_bits), dtype=np.uint8)
        self.read_count = 0
        self.write_count = 0

    def write(self, addresses, words) -> None:
        addresses = np.atleast_1d(np.asarray(addresses, dtype=int))
        words = np.atleast_1d(np.asarray(words, dtype=np.uint64)) & np.uint64(
            self.bank.word_mask
        )
        if words.size == 1 and addresses.size != 1:
            words = np.full(addresses.shape, words[0], dtype=np.uint64)
        self.data_bits[addresses] = unpack_words(words, self.bank.word_bits)
        self.write_count += int(addresses.size)

    def read(self, addresses, voltage, temperature=25.0) -> np.ndarray:
        addresses = np.atleast_1d(np.asarray(addresses, dtype=int))
        vmin = self.bank.effective_vmin(temperature)[addresses]
        disturbed = vmin > float(voltage)
        bits = self.data_bits[addresses]
        preferred = self.bank.cells.preferred_state[addresses]
        new_bits = np.where(disturbed, preferred, bits)
        self.data_bits[addresses] = new_bits
        self.read_count += int(addresses.size)
        return pack_bits(new_bits)

    def stored_words(self) -> np.ndarray:
        return pack_bits(self.data_bits)


def _drive_pair(bank: ReferenceBitBank, rng: np.random.Generator, operations: int):
    """Run a random access sequence through both paths, asserting lockstep."""
    reference = bank
    live = reference.bank
    for _ in range(operations):
        size = int(rng.integers(1, live.num_words + 1))
        addresses = rng.choice(live.num_words, size=size, replace=False)
        if rng.random() < 0.4:
            words = rng.integers(0, 1 << live.word_bits, size=size, dtype=np.uint64)
            live.write(addresses, words)
            reference.write(addresses, words)
        else:
            voltage = float(rng.uniform(0.40, 0.95))
            temperature = float(rng.choice([-15.0, 25.0, 90.0]))
            observed = live.read(addresses, voltage=voltage, temperature=temperature)
            expected = reference.read(addresses, voltage=voltage, temperature=temperature)
            np.testing.assert_array_equal(observed, expected)
        np.testing.assert_array_equal(live.stored_words(), reference.stored_words())
        assert live.read_count == reference.read_count
        assert live.write_count == reference.write_count


class TestEquivalenceOracle:
    def test_randomized_access_sequence_is_bit_identical(self):
        rng = np.random.default_rng(7)
        bank = SramBank(48, 16, seed=3)
        _drive_pair(ReferenceBitBank(bank), rng, operations=60)

    @settings(max_examples=30, deadline=None)
    @given(
        num_words=st.integers(4, 40),
        word_bits=st.sampled_from([1, 8, 16, 22, 64]),
        seed=st.integers(0, 1000),
        drive_seed=st.integers(0, 1000),
    )
    def test_equivalence_property(self, num_words, word_bits, seed, drive_seed):
        """Property form of the oracle over random geometries and sequences."""
        bank = SramBank(num_words, word_bits, seed=seed)
        _drive_pair(ReferenceBitBank(bank), np.random.default_rng(drive_seed), 12)

    def test_fig10_voltage_grid_on_a_full_bank(self):
        """Every fig10 grid voltage on a 512x16 bank rewritten before each
        full-bank read: words and persistence match the reference exactly."""
        from repro.experiments.fig10_error_vs_voltage import DEFAULT_VOLTAGES

        bank = SramBank(512, 16, seed=11)
        reference = ReferenceBitBank(bank)
        addresses = np.arange(bank.num_words)
        contents = np.random.default_rng(0).integers(
            0, 1 << 16, size=bank.num_words, dtype=np.uint64
        )
        for voltage in DEFAULT_VOLTAGES:
            write_all(bank, contents)
            reference.write(addresses, contents)
            np.testing.assert_array_equal(
                read_all(bank, voltage=voltage), reference.read(addresses, voltage)
            )
            np.testing.assert_array_equal(bank.stored_words(), reference.stored_words())

    def test_single_address_and_scalar_forms(self):
        bank = SramBank(16, 16, seed=3)
        reference = ReferenceBitBank(bank)
        bank.write(5, 0xBEEF)
        reference.write(5, 0xBEEF)
        np.testing.assert_array_equal(
            bank.read(5, voltage=0.42), reference.read(5, voltage=0.42)
        )
        np.testing.assert_array_equal(bank.stored_words(), reference.stored_words())

    def test_read_count_includes_non_corrupting_reads(self):
        bank = SramBank(8, 16, seed=0)
        read_all(bank, voltage=0.9)
        read_all(bank, voltage=0.9)
        assert bank.read_count == 16


class TestCacheInvalidation:
    @pytest.fixture()
    def bank(self):
        return SramBank(64, 16, seed=7)

    def test_corruption_persists_across_reads_at_one_point(self, bank):
        reference = np.full(64, 0x0F0F, dtype=np.uint64)
        write_all(bank, reference)
        first = read_all(bank, voltage=0.45)
        assert bit_errors(bank, reference) > 0
        np.testing.assert_array_equal(read_all(bank, voltage=0.45), first)
        np.testing.assert_array_equal(read_all(bank, voltage=0.9), first)

    def test_write_refreshes_corrupted_words(self, bank):
        reference = np.full(64, 0x3333, dtype=np.uint64)
        write_all(bank, reference)
        read_all(bank, voltage=0.42)
        write_all(bank, reference)
        np.testing.assert_array_equal(read_all(bank, voltage=0.9), reference)

    def test_operating_point_change_builds_distinct_masks(self, bank):
        low_and, low_or = bank.corruption_masks(0.44)
        high_and, high_or = bank.corruption_masks(0.90)
        assert len(bank._point_masks) == 2
        assert not (
            np.array_equal(low_and, high_and) and np.array_equal(low_or, high_or)
        )
        # nominal voltage corrupts nothing: identity masks
        assert np.all(high_and == np.uint64(bank.word_mask))
        assert np.all(high_or == np.uint64(0))
        # temperature shifts V_min, so it keys the cache too
        bank.corruption_masks(0.44, temperature=90.0)
        assert len(bank._point_masks) == 3

    def test_masks_are_cached_and_read_only(self, bank):
        first = bank.corruption_masks(0.46)
        second = bank.corruption_masks(0.46)
        assert first[0] is second[0] and first[1] is second[1]
        with pytest.raises(ValueError):
            first[0][0] = np.uint64(0)

    def test_cell_reassignment_invalidates_masks(self, bank):
        stale_and, _ = bank.corruption_masks(0.46)
        population = bank.cells
        population.vmin_read[:] = 0.30  # every cell now safe at 0.46 V
        bank.cells = population  # reassignment invalidates
        fresh_and, fresh_or = bank.corruption_masks(0.46)
        assert np.all(fresh_and == np.uint64(bank.word_mask))
        assert np.all(fresh_or == np.uint64(0))
        assert np.any(stale_and != fresh_and) or bank.fault_map_at(0.46).num_faults == 0

    def test_explicit_invalidation_after_in_place_mutation(self, bank):
        bank.corruption_masks(0.46)
        bank.cells.vmin_read[:] = 0.30
        bank.invalidate_operating_point_cache()
        assert not bank._point_masks
        fresh_and, _ = bank.corruption_masks(0.46)
        assert np.all(fresh_and == np.uint64(bank.word_mask))

    def test_resample_cells_changes_physics_not_contents(self, bank):
        contents = np.arange(64, dtype=np.uint64)
        write_all(bank, contents)
        old_vmin = bank.cells.vmin_read.copy()
        epoch = bank.content_epoch
        bank.cells = SramBank(64, 16, seed=99).cells
        assert not np.array_equal(bank.cells.vmin_read, old_vmin)
        assert not bank._point_masks  # cache dropped
        np.testing.assert_array_equal(bank.stored_words(), contents)
        assert bank.content_epoch == epoch  # stored words untouched

    def test_masks_match_fault_map_at(self, bank):
        """The resident masks and the FaultMap view share one derivation."""
        for voltage in (0.40, 0.46, 0.52, 0.90):
            map_and, map_or = bank.fault_map_at(voltage).masks()
            bank_and, bank_or = bank.corruption_masks(voltage)
            np.testing.assert_array_equal(map_and, bank_and)
            np.testing.assert_array_equal(map_or, bank_or)

    def test_mask_digest_groups_equivalent_points(self, bank):
        # every cell fails well below 0.40 V and none near nominal, so the
        # two nominal points share a digest and the overscaled one differs
        assert bank.mask_digest(0.90) == bank.mask_digest(0.88)
        assert bank.mask_digest(0.90) != bank.mask_digest(0.40)


class TestContentEpoch:
    def test_epoch_tracks_actual_content_changes(self):
        bank = SramBank(32, 16, seed=5)
        epoch = bank.content_epoch
        words = np.arange(32, dtype=np.uint64)
        write_all(bank, words)
        assert bank.content_epoch == epoch + 1
        write_all(bank, words)  # identical content: no bump
        assert bank.content_epoch == epoch + 1
        read_all(bank, voltage=0.9)  # nothing corrupts at nominal
        assert bank.content_epoch == epoch + 1
        read_all(bank, voltage=0.42)  # corrupting read bumps
        assert bank.content_epoch > epoch + 1
        after_corruption = bank.content_epoch
        read_all(bank, voltage=0.42)  # already-corrupted: stable, no bump
        assert bank.content_epoch == after_corruption
