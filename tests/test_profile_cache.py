"""Memoized chip profiling: MaticFlow.profile_chip through the artifact cache."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.accelerator.soc import Snnac, SnnacConfig
from repro.experiments.cache import ArtifactCache, cache_digest
from repro.matic.flow import MaticFlow


def make_chip(seed: int = 5) -> Snnac:
    return Snnac(SnnacConfig(num_pes=2, words_per_bank=64, word_bits=16, seed=seed))


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(root=tmp_path / "cache")


VOLTAGE = 0.46


class TestProfileChipMemoization:
    def test_memoized_maps_bit_identical_to_fresh(self, cache):
        fresh = MaticFlow().profile_chip(make_chip(), VOLTAGE)
        flow = MaticFlow(training_cache=cache)
        cold = flow.profile_chip(make_chip(), VOLTAGE)
        warm = flow.profile_chip(make_chip(), VOLTAGE)
        assert len(fresh) == len(cold) == len(warm) == 2
        for reference, first, second in zip(fresh, cold, warm):
            assert reference == first
            assert first == second
            np.testing.assert_array_equal(first.stuck_mask, second.stuck_mask)
            np.testing.assert_array_equal(first.stuck_values, second.stuck_values)

    def test_repeat_profile_is_a_cache_hit(self, cache):
        flow = MaticFlow(training_cache=cache)
        flow.profile_chip(make_chip(), VOLTAGE)
        assert flow.profile_counters.chip_misses == 1
        assert flow.profile_counters.bank_misses == 2  # one per bank
        stores = cache.stats.stores
        hits = cache.stats.hits
        flow.profile_chip(make_chip(), VOLTAGE)
        assert cache.stats.stores == stores  # nothing re-profiled
        assert cache.stats.hits == hits + 1  # one chip-level hit, no bank trips
        assert flow.profile_counters.chip_hits == 1
        assert flow.profile_counters.bank_hits == 0
        # a fresh flow over the same store recalls the chip in one batched
        # chip-level round trip too: no bank-level miss, no re-profile
        recall = MaticFlow(training_cache=cache)
        recall.profile_chip(make_chip(), VOLTAGE)
        assert recall.profile_counters.chip_hits == 1
        assert recall.profile_counters.bank_misses == 0
        assert cache.stats.stores == stores

    def test_cache_hit_does_not_touch_the_bank(self, cache):
        flow = MaticFlow(training_cache=cache)
        flow.profile_chip(make_chip(), VOLTAGE)  # populate

        chip = make_chip()
        deployed = [
            (np.arange(bank.num_words, dtype=np.uint64) * 13) & np.uint64(0xFFFF)
            for bank in chip.memory
        ]
        for bank, words in zip(chip.memory, deployed):
            bank.write_all(words)
        reads_before = [bank.read_count for bank in chip.memory]
        flow.profile_chip(chip, VOLTAGE)
        for bank, words, reads in zip(chip.memory, deployed, reads_before):
            np.testing.assert_array_equal(bank.stored_words(), words)
            assert bank.read_count == reads  # the hit skipped profiling reads

    def test_hits_survive_a_fresh_cache_instance(self, cache):
        MaticFlow(training_cache=cache).profile_chip(make_chip(), VOLTAGE)
        reopened = ArtifactCache(root=cache.root)
        flow = MaticFlow(training_cache=reopened)
        flow.profile_chip(make_chip(), VOLTAGE)
        assert reopened.stats.hits == 1  # the single chip-level record
        assert reopened.stats.stores == 0

    def test_distinct_operating_points_do_not_collide(self, cache):
        flow = MaticFlow(training_cache=cache)
        chip = make_chip()
        low = flow.profile_chip(chip, 0.44)
        high = flow.profile_chip(chip, 0.50)
        warm_low = flow.profile_chip(make_chip(), 0.44)
        warm_high = flow.profile_chip(make_chip(), 0.50)
        assert low[0].num_faults > high[0].num_faults
        for a, b in zip(low + high, warm_low + warm_high):
            assert a == b
        cold_temp = flow.profile_chip(make_chip(), 0.44, temperature=-10.0)
        # 2 bank + 1 chip records per operating point, third point re-profiled
        assert cache.stats.stores == 9
        assert cold_temp[0].num_faults >= low[0].num_faults

    def test_distinct_chips_do_not_collide(self, cache):
        flow = MaticFlow(training_cache=cache)
        first = flow.profile_chip(make_chip(seed=5), VOLTAGE)
        second = flow.profile_chip(make_chip(seed=6), VOLTAGE)
        assert cache.stats.stores == 6  # both chips (2 bank + 1 chip records each)
        assert any(a != b for a, b in zip(first, second))

    def test_custom_profiler_class_gets_own_cache_entries(self, cache):
        """A subclass may change the measurement procedure, so it must never
        share artifacts with the default profiler."""
        from repro.sram import SramProfiler

        class CustomProfiler(SramProfiler):
            pass

        flow = MaticFlow(training_cache=cache)
        flow.profile_chip(make_chip(), VOLTAGE)
        stores = cache.stats.stores
        flow.profile_chip(make_chip(), VOLTAGE, profiler=CustomProfiler())
        assert cache.stats.stores == stores + 3  # re-profiled under its own key

    def test_profiler_configuration_participates_in_the_key(self, cache):
        """A subclass extending describe() with its own settings gets one
        artifact per configuration, not one per class."""
        from repro.sram import SramProfiler

        class RepeatProfiler(SramProfiler):
            def __init__(self, passes: int) -> None:
                super().__init__()
                self.passes = passes

            def describe(self) -> dict:
                return {**super().describe(), "passes": int(self.passes)}

        flow = MaticFlow(training_cache=cache)
        flow.profile_chip(make_chip(), VOLTAGE, profiler=RepeatProfiler(passes=1))
        stores = cache.stats.stores
        flow.profile_chip(make_chip(), VOLTAGE, profiler=RepeatProfiler(passes=3))
        assert cache.stats.stores == stores + 3  # separate keys per config
        flow.profile_chip(make_chip(), VOLTAGE, profiler=RepeatProfiler(passes=3))
        assert cache.stats.stores == stores + 3  # same config is a hit

    def test_patterns_for_is_public_and_keys_the_cache(self, cache):
        """A subclass overriding the public patterns_for() hook must get its
        own cache entries — the key resolves patterns through the public API,
        not a private helper a custom profiler could silently miss."""
        from repro.sram import SramProfiler

        class CheckerboardProfiler(SramProfiler):
            def patterns_for(self, bank):
                return {
                    "checker": 0xAAAA & bank.word_mask,
                    "rechecker": 0x5555 & bank.word_mask,
                }

        profiler = CheckerboardProfiler()
        assert set(profiler.patterns_for(make_chip().memory[0])) == {
            "checker",
            "rechecker",
        }

        flow = MaticFlow(training_cache=cache)
        flow.profile_chip(make_chip(), VOLTAGE)
        stores = cache.stats.stores
        flow.profile_chip(make_chip(), VOLTAGE, profiler=CheckerboardProfiler())
        assert cache.stats.stores == stores + 3  # re-profiled under its own key
        flow.profile_chip(make_chip(), VOLTAGE, profiler=CheckerboardProfiler())
        assert cache.stats.stores == stores + 3  # same patterns hit the cache

    def test_unrestored_profiler_bypasses_memoization(self, cache):
        """restore_contents=False profiling has a visible side effect (the
        bank keeps the test patterns), so a cache hit would not be
        equivalent — such profilers must never hit or populate the cache."""
        from repro.sram import SramProfiler

        flow = MaticFlow(training_cache=cache)
        profiler = SramProfiler(restore_contents=False)
        flow.profile_chip(make_chip(), VOLTAGE, profiler=profiler)
        flow.profile_chip(make_chip(), VOLTAGE, profiler=profiler)
        assert cache.stats.stores == 0
        assert cache.stats.hits == 0

    def test_uncached_flow_still_profiles(self):
        maps = MaticFlow().profile_chip(make_chip(), VOLTAGE)
        truth = [
            bank.fault_map_at(VOLTAGE) for bank in make_chip().memory
        ]
        for measured, expected in zip(maps, truth):
            assert measured == expected


def _array_records(value) -> list[tuple[str, tuple[int, ...], str]]:
    """``(dtype, shape, sha256 of the bytes)`` of every array in a stored value."""
    if isinstance(value, np.ndarray):
        return [(str(value.dtype), value.shape, hashlib.sha256(value.tobytes()).hexdigest())]
    return [record for item in value for record in _array_records(item)]


class _RecordingCache:
    """A cache that misses every lookup and records each store."""

    def __init__(self) -> None:
        self.stores: list[tuple[str, str, list]] = []

    def get(self, kind: str, key):
        return None

    def put(self, kind: str, key, value) -> None:
        self.stores.append((kind, cache_digest(key), _array_records(value)))


class TestPinnedMemoRecords:
    """The fault-map memo's keys and stored arrays, pinned to values computed
    while a fault map stored bit matrices as its state: an existing cache
    stays readable only while both are unchanged."""

    BANK_0 = [
        ("bool", (64, 16), "af6eff34260271d5bca715381aa24096399d34cde2eaacdffa7652a1a9e25534"),
        ("uint8", (64, 16), "6f8bd17a5f32005f1731f5f5e0f27dc2bc305dd799c389622620799ac997d432"),
    ]
    BANK_1 = [
        ("bool", (64, 16), "8475a524b0f92e0a8245be94c1e7614ea7fba2195ec920429158a5d82dcd2b8a"),
        ("uint8", (64, 16), "5a3eccdad036a0cf49f419c9bd8f0ec89268bb319f8b29ed8fc77235d78c7cf6"),
    ]

    def test_keys_and_stored_arrays(self):
        spy = _RecordingCache()
        MaticFlow(training_cache=spy).profile_chip(make_chip(), 0.44)
        assert spy.stores == [
            (
                "fault-map",
                "07ecb28919620d4bd16977f31b03367796ef50cec2560f57dfe72242a00af00a",
                self.BANK_0,
            ),
            (
                "fault-map",
                "f44a9088208a9b36fff86977666ff3400fba49cedf91a2961a787934553debfa",
                self.BANK_1,
            ),
            (
                "fault-map-chip",
                "f43cb837b712be1d7dcc0a1a035e081202026ad024f5b107d0eb901984b91434",
                self.BANK_0 + self.BANK_1,
            ),
        ]
