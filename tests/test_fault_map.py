"""Unit and property-based tests for repro.sram.fault_map."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fault_map import FaultMap as ReferenceFaultMap, masks_from_arrays
from repro.sram import BitFault, FaultMap, SramBank


class TestBitFault:
    def test_valid_construction(self):
        fault = BitFault(3, 7, 1)
        assert (fault.address, fault.bit, fault.stuck_value) == (3, 7, 1)

    @pytest.mark.parametrize("kwargs", [
        {"address": -1, "bit": 0, "stuck_value": 0},
        {"address": 0, "bit": -2, "stuck_value": 0},
        {"address": 0, "bit": 0, "stuck_value": 2},
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            BitFault(**kwargs)


class TestFaultMap:
    def test_empty_map(self):
        fm = FaultMap(8, 16)
        assert fm.num_faults == 0
        assert fm.fault_rate == 0.0
        and_masks, or_masks = fm.masks()
        assert np.all(and_masks == 0xFFFF)
        assert np.all(or_masks == 0)

    def test_add_and_query(self):
        fm = FaultMap(8, 16)
        fm.add(BitFault(2, 5, 1))
        fm.add(BitFault(2, 6, 0))
        assert fm.num_faults == 2
        assert (2, 5) in fm
        assert (2, 6) in fm
        assert (3, 5) not in fm
        assert fm.faults == [BitFault(2, 5, 1), BitFault(2, 6, 0)]

    def test_add_out_of_range(self):
        fm = FaultMap(8, 16)
        with pytest.raises(ValueError):
            fm.add(BitFault(8, 0, 1))
        with pytest.raises(ValueError):
            fm.add(BitFault(0, 16, 1))

    def test_duplicate_add_overwrites(self):
        fm = FaultMap(4, 8)
        fm.add(BitFault(1, 3, 0))
        fm.add(BitFault(1, 3, 1))
        assert fm.num_faults == 1
        assert fm.faults[0].stuck_value == 1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            FaultMap(0, 16)
        with pytest.raises(ValueError):
            FaultMap(8, 65)

    def test_masks_stuck_at_one(self):
        fm = FaultMap(2, 8, [BitFault(0, 3, 1)])
        and_masks, or_masks = fm.masks()
        assert or_masks[0] == 0b1000
        assert and_masks[0] == 0xFF

    def test_masks_stuck_at_zero(self):
        fm = FaultMap(2, 8, [BitFault(1, 2, 0)])
        and_masks, or_masks = fm.masks()
        assert and_masks[1] == 0xFF ^ 0b100
        assert or_masks[1] == 0

    def test_apply_corrupts_only_faulty_bits(self):
        fm = FaultMap(3, 8, [BitFault(0, 0, 1), BitFault(2, 7, 0)])
        words = np.array([0x00, 0x55, 0xFF], dtype=np.uint64)
        corrupted = fm.apply(words)
        assert corrupted[0] == 0x01
        assert corrupted[1] == 0x55  # untouched
        assert corrupted[2] == 0x7F

    def test_apply_wrong_length(self):
        fm = FaultMap(3, 8)
        with pytest.raises(ValueError):
            fm.apply(np.zeros(4, dtype=np.uint64))

    def test_equality(self):
        a = FaultMap(4, 8, [BitFault(0, 0, 1)])
        b = FaultMap(4, 8, [BitFault(0, 0, 1)])
        c = FaultMap(4, 8, [BitFault(0, 0, 0)])
        assert a == b
        assert a != c

    def test_from_arrays(self):
        stuck = np.zeros((4, 8), dtype=bool)
        values = np.zeros((4, 8), dtype=int)
        stuck[1, 2] = True
        values[1, 2] = 1
        fm = FaultMap.from_arrays(stuck, values)
        assert fm.num_faults == 1
        assert fm.faults[0] == BitFault(1, 2, 1)

    def test_random_rate(self):
        fm = FaultMap.random(256, 16, fault_rate=0.1, rng=0)
        assert fm.fault_rate == pytest.approx(0.1, abs=0.02)

    def test_random_zero_and_full(self):
        assert FaultMap.random(32, 8, 0.0, rng=0).num_faults == 0
        assert FaultMap.random(32, 8, 1.0, rng=0).num_faults == 32 * 8

    def test_random_polarity_bias(self):
        fm = FaultMap.random(256, 16, 0.2, rng=1, stuck_one_probability=1.0)
        assert all(fault.stuck_value == 1 for fault in fm.faults)

    def test_random_invalid_rate(self):
        with pytest.raises(ValueError):
            FaultMap.random(8, 8, 1.5)


class TestArrayBackedEquivalence:
    """The array-backed FaultMap must be indistinguishable from the original
    ``dict[(address, bit)] -> value`` implementation."""

    @staticmethod
    def _reference_masks(num_words, word_bits, fault_items):
        """The pre-vectorization per-fault mask loop, verbatim."""
        full = (1 << word_bits) - 1
        and_masks = np.full(num_words, full, dtype=np.uint64)
        or_masks = np.zeros(num_words, dtype=np.uint64)
        for (address, bit), value in fault_items.items():
            if value == 0:
                and_masks[address] &= np.uint64(~(1 << bit) & full)
            else:
                or_masks[address] |= np.uint64(1 << bit)
        return and_masks, or_masks

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 7), st.integers(0, 1)),
            max_size=40,
        ),
    )
    def test_add_matches_dict_semantics(self, entries):
        fm = FaultMap(16, 8)
        reference: dict[tuple[int, int], int] = {}
        for address, bit, value in entries:
            fm.add(BitFault(address, bit, value))
            reference[(address, bit)] = value
        assert fm.num_faults == len(reference)
        assert len(fm) == len(reference)
        assert [(f.address, f.bit, f.stuck_value) for f in fm.faults] == [
            (a, b, v) for (a, b), v in sorted(reference.items())
        ]
        got_and, got_or = fm.masks()
        ref_and, ref_or = self._reference_masks(16, 8, reference)
        np.testing.assert_array_equal(got_and, ref_and)
        np.testing.assert_array_equal(got_or, ref_or)
        for address in range(16):
            for bit in range(8):
                assert ((address, bit) in fm) == ((address, bit) in reference)

    def test_masks_refresh_after_add(self):
        fm = FaultMap(4, 8, [BitFault(0, 0, 1)])
        _, or_before = fm.masks()
        assert or_before[1] == 0
        fm.add(BitFault(1, 2, 1))  # must invalidate the cached masks
        and_after, or_after = fm.masks()
        assert or_after[1] == 0b100
        fm.add(BitFault(1, 2, 0))  # polarity override flips OR to AND
        and_final, or_final = fm.masks()
        assert or_final[1] == 0
        assert and_final[1] == 0xFF ^ 0b100

    def test_masks_returns_independent_copies(self):
        fm = FaultMap(4, 8, [BitFault(0, 0, 1)])
        and_masks, or_masks = fm.masks()
        and_masks[:] = 0
        or_masks[:] = 0xFF
        fresh_and, fresh_or = fm.masks()
        assert fresh_and[0] == 0xFF
        assert fresh_or[0] == 0b1

    def test_apply_tracks_mutation(self):
        fm = FaultMap(2, 8)
        words = np.array([0x00, 0x00], dtype=np.uint64)
        np.testing.assert_array_equal(fm.apply(words), words)
        fm.add(BitFault(1, 0, 1))
        assert fm.apply(words)[1] == 0x01

    def test_contains_out_of_range_is_false(self):
        fm = FaultMap(4, 8, [BitFault(0, 0, 1)])
        assert (0, 0) in fm
        assert (4, 0) not in fm
        assert (0, 8) not in fm
        assert (-1, 0) not in fm

    def test_contains_malformed_key_is_false(self):
        """The dict-backed core answered False for any wrong-shaped key."""
        fm = FaultMap(4, 8, [BitFault(0, 0, 1)])
        assert (1, 2, 3) not in fm
        assert "ab" not in fm
        assert (0,) not in fm
        assert ("x", "y") not in fm
        assert None not in fm
        # keys must be true integers: 0.7 must not truncate to a spurious hit,
        # and strings must not coerce (floats are rejected outright, which is
        # stricter than dict hash-equality but never answers True wrongly)
        assert (0.7, 0) not in fm
        assert (0.0, 0.0) not in fm
        assert ("0", "0") not in fm
        assert (np.int64(0), np.int64(0)) in fm  # numpy ints are real indices

    def test_from_arrays_rejects_non_binary_stuck_values(self):
        stuck = np.zeros((2, 4), dtype=bool)
        values = np.zeros((2, 4), dtype=int)
        stuck[0, 1] = True
        values[0, 1] = 2
        with pytest.raises(ValueError):
            FaultMap.from_arrays(stuck, values)
        # non-stuck cells may hold arbitrary values — they are ignored
        values[0, 1] = 1
        values[1, 3] = 9
        assert FaultMap.from_arrays(stuck, values).num_faults == 1

    def test_from_arrays_copies_input_arrays(self):
        stuck = np.zeros((2, 4), dtype=bool)
        stuck[1, 2] = True
        values = np.ones((2, 4), dtype=int)
        fm = FaultMap.from_arrays(stuck, values)
        stuck[0, 0] = True  # caller mutation must not leak into the map
        assert fm.num_faults == 1

    def test_dense_views_expose_state(self):
        fm = FaultMap(2, 4, [BitFault(1, 3, 1), BitFault(0, 0, 0)])
        expected_stuck = np.zeros((2, 4), dtype=bool)
        expected_stuck[1, 3] = True
        expected_stuck[0, 0] = True
        np.testing.assert_array_equal(fm.stuck_mask, expected_stuck)
        values = fm.stuck_values
        assert values[1, 3] == 1
        assert values[0, 0] == 0
        assert np.all(values[~expected_stuck] == 0)


#: word lengths the differential tests cover: the extremes, SNNAC's 8–22 bit
#: weight words, and 64 (every bit of the uint64 words)
DIFFERENTIAL_WORD_BITS = (1, 8, 16, 22, 64)


@st.composite
def edit_sequences(draw):
    """A geometry and a sequence of edits to replay on both implementations."""
    word_bits = draw(st.sampled_from(DIFFERENTIAL_WORD_BITS))
    num_words = draw(st.integers(1, 12))
    cell = st.tuples(
        st.integers(0, num_words - 1), st.integers(0, word_bits - 1), st.integers(0, 1)
    )
    edit = st.one_of(
        st.tuples(st.just("add"), cell),
        st.tuples(st.just("from_arrays"), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0)),
        st.tuples(
            st.just("random"),
            st.floats(0.0, 1.0),
            st.integers(0, 2**32 - 1),
            st.floats(0.0, 1.0),
        ),
    )
    return num_words, word_bits, draw(st.lists(edit, min_size=1, max_size=8))


def _replay(edit, maps, num_words, word_bits):
    """Apply one edit to a ``(word-domain, reference)`` pair of maps."""
    current, expected = maps
    kind = edit[0]
    if kind == "add":
        fault = BitFault(*edit[1])
        current.add(fault)
        expected.add(fault)
        return current, expected
    if kind == "from_arrays":
        rng = np.random.default_rng(edit[1])
        stuck = rng.random((num_words, word_bits)) < edit[2]
        # non-stuck cells carry arbitrary values, which both must ignore
        values = np.where(
            stuck,
            rng.integers(0, 2, stuck.shape),
            rng.integers(0, 9, stuck.shape),
        )
        return (
            FaultMap.from_arrays(stuck, values),
            ReferenceFaultMap.from_arrays(stuck, values),
        )
    _, rate, seed, stuck_one = edit
    return (
        FaultMap.random(num_words, word_bits, rate, rng=seed, stuck_one_probability=stuck_one),
        ReferenceFaultMap.random(
            num_words, word_bits, rate, rng=seed, stuck_one_probability=stuck_one
        ),
    )


def _assert_same_map(current, expected, words):
    """Every query of the word-domain map equals the bit-matrix reference."""
    arrays = [
        (current.stuck_mask, expected.stuck_mask),
        (current.stuck_values, expected.stuck_values),
        *zip(current.masks(), expected.masks()),
        (current.apply(words), expected.apply(words)),
    ]
    for got, want in arrays:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert current.faults == expected.faults
    assert current.num_faults == expected.num_faults
    assert len(current) == len(expected)
    for address in range(-1, current.num_words + 1):
        for bit in range(-1, current.word_bits + 1):
            assert ((address, bit) in current) == ((address, bit) in expected)
    assert current.clustering_summary() == expected.clustering_summary()


class TestMatchesBitMatrixReference:
    """The word-domain map against the bit-matrix map it replaced
    (``tests/reference_fault_map.py``), edit by edit."""

    @settings(max_examples=80, deadline=None)
    @given(sequence=edit_sequences(), words_seed=st.integers(0, 2**32 - 1))
    def test_edit_sequences_agree(self, sequence, words_seed):
        num_words, word_bits, edits = sequence
        words = np.random.default_rng(words_seed).integers(
            0, 2**64, num_words, dtype=np.uint64, endpoint=False
        )
        maps = (FaultMap(num_words, word_bits), ReferenceFaultMap(num_words, word_bits))
        _assert_same_map(*maps, words)
        for edit in edits:
            previous = maps
            maps = _replay(edit, maps, num_words, word_bits)
            _assert_same_map(*maps, words)
            assert (maps[0] == previous[0]) == (maps[1] == previous[1])
            assert maps[0] == FaultMap.from_arrays(maps[1].stuck_mask, maps[1].stuck_values)

    @settings(max_examples=40, deadline=None)
    @given(
        word_bits=st.sampled_from(DIFFERENTIAL_WORD_BITS),
        num_words=st.integers(1, 16),
        seed=st.integers(0, 2**16),
        voltage=st.floats(0.38, 0.60),
        temperature=st.sampled_from([-15.0, 25.0, 90.0]),
        edit=st.sampled_from(["assign", "resample", "in_place"]),
    )
    def test_bank_corruption_masks_agree(
        self, word_bits, num_words, seed, voltage, temperature, edit
    ):
        bank = SramBank(num_words, word_bits, seed=seed)
        words = np.random.default_rng(seed).integers(
            0, 2**64, num_words, dtype=np.uint64, endpoint=False
        )

        def assert_agrees():
            stuck = bank.effective_vmin(temperature) > voltage
            preferred = bank.cells.preferred_state
            expected = masks_from_arrays(stuck, preferred)
            for got, want in zip(bank.corruption_masks(voltage, temperature), expected):
                np.testing.assert_array_equal(got, want)
            _assert_same_map(
                bank.fault_map_at(voltage, temperature),
                ReferenceFaultMap.from_arrays(stuck, preferred),
                words,
            )

        assert_agrees()
        if edit == "assign":
            bank.cells = SramBank(num_words, word_bits, seed=seed + 1).cells
        elif edit == "resample":
            rng = np.random.default_rng(seed + 1)
            bank.cells = bank.variation_model.sample(num_words, word_bits, rng)
        else:
            bank.cells.preferred_state[...] ^= 1
            bank.cells.vmin_read[::2] += 0.05
            bank.invalidate_operating_point_cache()
        assert_agrees()


class TestFaultMapProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        num_words=st.integers(1, 32),
        word_bits=st.integers(1, 24),
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_random_map_is_within_geometry(self, num_words, word_bits, rate, seed):
        fm = FaultMap.random(num_words, word_bits, rate, rng=seed)
        for fault in fm.faults:
            assert 0 <= fault.address < num_words
            assert 0 <= fault.bit < word_bits
        assert 0.0 <= fm.fault_rate <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        words=st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=32),
        rate=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    def test_apply_is_idempotent(self, words, rate, seed):
        """Applying a fault map twice gives the same result as applying once —
        the defining property of stable read-disturb corruption."""
        word_array = np.array(words, dtype=np.uint64)
        fm = FaultMap.random(len(words), 16, rate, rng=seed)
        once = fm.apply(word_array)
        twice = fm.apply(once)
        np.testing.assert_array_equal(once, twice)

    @settings(max_examples=50, deadline=None)
    @given(
        words=st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=16),
        seed=st.integers(0, 200),
    )
    def test_apply_only_touches_mapped_bits(self, words, seed):
        word_array = np.array(words, dtype=np.uint64)
        fm = FaultMap.random(len(words), 12, 0.3, rng=seed)
        corrupted = fm.apply(word_array)
        flipped = word_array ^ corrupted
        mapped = np.zeros(len(words), dtype=np.uint64)
        for fault in fm.faults:
            mapped[fault.address] |= np.uint64(1 << fault.bit)
        assert np.all((flipped & ~mapped) == 0)


class TestClusteringDiagnostics:
    """Run-length and autocorrelation diagnostics on known fault patterns."""

    def test_empty_map_summary_is_zero(self):
        summary = FaultMap(8, 16).clustering_summary()
        assert summary["fault_rate"] == 0.0
        assert summary["mean_row_run"] == 0.0
        assert summary["max_row_run"] == 0
        assert summary["mean_column_run"] == 0.0
        assert summary["max_column_run"] == 0
        assert summary["row_autocorrelation"] == 0.0
        assert summary["column_autocorrelation"] == 0.0

    def test_run_lengths_on_known_pattern(self):
        fm = FaultMap(8, 16)
        for bit in (2, 3, 4):  # one horizontal run of 3 in word 0
            fm.add(BitFault(0, bit, 1))
        fm.add(BitFault(5, 0, 0))  # plus an isolated fault
        summary = fm.clustering_summary()
        # row runs of 1 and 3
        assert (summary["mean_row_run"], summary["max_row_run"]) == (2.0, 3)
        # vertically every fault is isolated: four runs of 1
        assert (summary["mean_column_run"], summary["max_column_run"]) == (1.0, 1)

    def test_runs_do_not_join_across_line_boundaries(self):
        fm = FaultMap(2, 4)
        for bit in (2, 3):  # run touching the end of word 0...
            fm.add(BitFault(0, bit, 1))
        for bit in (0, 1):  # ...and a run starting word 1
            fm.add(BitFault(1, bit, 1))
        summary = fm.clustering_summary()
        assert (summary["mean_row_run"], summary["max_row_run"]) == (2.0, 2)

    def test_full_row_has_perfect_row_autocorrelation(self):
        fm = FaultMap(8, 16)
        for bit in range(16):
            fm.add(BitFault(3, bit, 1))
        summary = fm.clustering_summary()
        assert summary["row_autocorrelation"] == pytest.approx(1.0)
        assert summary["column_autocorrelation"] < summary["row_autocorrelation"]
        assert summary["max_row_run"] == 16

    def test_full_column_has_perfect_column_autocorrelation(self):
        fm = FaultMap(8, 16)
        for address in range(8):
            fm.add(BitFault(address, 5, 1))
        summary = fm.clustering_summary()
        assert summary["column_autocorrelation"] == pytest.approx(1.0)
        assert summary["max_column_run"] == 8

    def test_degenerate_maps_report_zero_autocorrelation(self):
        full = FaultMap(4, 4)
        for address in range(4):
            for bit in range(4):
                full.add(BitFault(address, bit, 1))
        assert full.clustering_summary()["row_autocorrelation"] == 0.0  # zero variance
        single_word = FaultMap(1, 4)
        single_word.add(BitFault(0, 1, 1))
        assert single_word.clustering_summary()["column_autocorrelation"] == 0.0
