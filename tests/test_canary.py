"""Unit tests for in-situ canary selection and the runtime voltage controller."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import Snnac, SnnacConfig
from repro.matic import CanaryBit, CanaryController, CanarySelector
from repro.nn import Network
from repro.quant import WeightQuantizer
from repro.sram import EnvironmentalConditions, WeightMemorySystem
from repro.sram.variation import SLOW_CORNER, CorrelationSpec, VariationScenario


@pytest.fixture()
def deployed_chip():
    chip = Snnac(SnnacConfig(num_pes=4, words_per_bank=64, seed=31))
    network = Network("10-8-2", seed=1)
    program = chip.deploy(network, WeightQuantizer(16, 13))
    return chip, program


class TestCanaryBit:
    def test_validation(self):
        with pytest.raises(ValueError):
            CanaryBit(0, 0, 0, expected_value=2)


class TestCanarySelector:
    def test_selects_requested_count_per_bank(self, deployed_chip):
        chip, program = deployed_chip
        selector = CanarySelector(canaries_per_bank=4, strategy="oracle")
        canaries = selector.select(
            chip.memory, 0.50, used_words_per_bank=program.placement.words_used_per_pe
        )
        assert len(canaries) == 4 * len(chip.memory)
        per_bank = {}
        for canary in canaries:
            per_bank.setdefault(canary.bank, []).append(canary)
        assert all(len(v) == 4 for v in per_bank.values())

    def test_canaries_restricted_to_used_words(self, deployed_chip):
        chip, program = deployed_chip
        selector = CanarySelector(canaries_per_bank=4, strategy="oracle")
        canaries = selector.select(
            chip.memory, 0.50, used_words_per_bank=program.placement.words_used_per_pe
        )
        for canary in canaries:
            assert canary.address < program.placement.words_used_per_pe[canary.bank]

    def test_oracle_canaries_are_most_marginal_working_cells(self, deployed_chip):
        chip, _ = deployed_chip
        selector = CanarySelector(canaries_per_bank=3, strategy="oracle")
        canaries = selector.select(chip.memory, 0.50)
        for canary in canaries:
            vmin = chip.memory[canary.bank].cells.vmin_read[canary.address, canary.bit]
            assert vmin <= 0.50  # still working at the target voltage

    def test_profiled_selection_close_to_oracle(self, deployed_chip):
        """Profiled search finds cells whose V_min,read sits just below the
        target voltage (within the search resolution)."""
        chip, program = deployed_chip
        selector = CanarySelector(
            canaries_per_bank=3, strategy="profiled", search_step=0.005, search_depth=20
        )
        canaries = selector.select(
            chip.memory, 0.50, used_words_per_bank=program.placement.words_used_per_pe
        )
        assert canaries, "profiled selection found no canaries"
        for canary in canaries:
            vmin = chip.memory[canary.bank].cells.vmin_read[canary.address, canary.bit]
            assert 0.50 - 0.005 * 21 <= vmin <= 0.50

    def test_expected_values_match_deployed_words(self, deployed_chip):
        chip, program = deployed_chip
        selector = CanarySelector(canaries_per_bank=2, strategy="oracle")
        canaries = selector.select(
            chip.memory, 0.50, used_words_per_bank=program.placement.words_used_per_pe
        )
        for canary in canaries:
            word = int(chip.memory[canary.bank].stored_words()[canary.address])
            assert ((word >> canary.bit) & 1) == canary.expected_value

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CanarySelector(canaries_per_bank=0)
        with pytest.raises(ValueError):
            CanarySelector(strategy="random")
        with pytest.raises(ValueError):
            CanarySelector(search_step=0.0)

    def test_used_words_length_check(self, deployed_chip):
        chip, _ = deployed_chip
        with pytest.raises(ValueError):
            CanarySelector(strategy="oracle").select(chip.memory, 0.5, used_words_per_bank=[1])


class TestCanaryController:
    def _controller(self, chip, program, **kwargs):
        selector = CanarySelector(canaries_per_bank=4, strategy="oracle")
        canaries = selector.select(
            chip.memory, 0.50, used_words_per_bank=program.placement.words_used_per_pe
        )
        return CanaryController(chip, canaries, **kwargs)

    def test_requires_canaries(self, deployed_chip):
        chip, _ = deployed_chip
        with pytest.raises(ValueError):
            CanaryController(chip, [])

    def test_check_states_clean_at_high_voltage(self, deployed_chip):
        chip, program = deployed_chip
        controller = self._controller(chip, program)
        chip.sram_regulator.set_voltage(0.9)
        assert controller.check_states() is False

    def test_check_states_detects_failures_at_low_voltage(self, deployed_chip):
        chip, program = deployed_chip
        controller = self._controller(chip, program)
        chip.sram_regulator.set_voltage(0.42)
        assert controller.check_states() is True
        controller.restore_states()

    def test_regulate_converges_to_canary_boundary(self, deployed_chip):
        chip, program = deployed_chip
        controller = self._controller(chip, program, voltage_step=0.005)
        trace = controller.regulate(safe_voltage=0.60)
        # the boundary is the most marginal working cell at the 0.50 V target,
        # so the final voltage lands just above it (plus the one-step margin)
        assert 0.48 <= trace.final_voltage <= 0.56
        assert trace.canary_failure_voltage is not None
        assert trace.final_voltage > trace.canary_failure_voltage
        assert chip.sram_regulator.voltage == pytest.approx(trace.final_voltage)

    def test_regulate_restores_weight_state(self, deployed_chip):
        chip, program = deployed_chip
        x = np.random.default_rng(0).random((6, 10))
        chip.sram_regulator.set_voltage(0.9)
        reference = chip.predict(x)
        controller = self._controller(chip, program, voltage_step=0.01)
        controller.regulate(safe_voltage=0.60)
        chip.sram_regulator.set_voltage(0.9)
        chip.refresh_weights()
        np.testing.assert_allclose(chip.predict(x), reference)

    def test_regulate_respects_minimum_voltage(self, deployed_chip):
        chip, program = deployed_chip
        controller = self._controller(chip, program, minimum_voltage=0.55)
        trace = controller.regulate(safe_voltage=0.60)
        assert trace.final_voltage >= 0.55
        assert trace.canary_failure_voltage is None

    def test_regulation_tracks_temperature(self, deployed_chip):
        chip, program = deployed_chip
        controller = self._controller(chip, program, voltage_step=0.005)
        chip.set_environment(EnvironmentalConditions(temperature=-15.0))
        cold = controller.regulate(safe_voltage=0.60).final_voltage
        chip.set_environment(EnvironmentalConditions(temperature=90.0))
        hot = controller.regulate(safe_voltage=0.60).final_voltage
        assert cold >= hot
        chip.set_environment(EnvironmentalConditions())

    def test_traces_accumulate(self, deployed_chip):
        chip, program = deployed_chip
        controller = self._controller(chip, program)
        controller.regulate(safe_voltage=0.60)
        controller.regulate(safe_voltage=0.60)
        assert len(controller.traces) == 2

    def test_invalid_parameters(self, deployed_chip):
        chip, program = deployed_chip
        selector = CanarySelector(canaries_per_bank=1, strategy="oracle")
        canaries = selector.select(chip.memory, 0.5)
        with pytest.raises(ValueError):
            CanaryController(chip, canaries, voltage_step=0.0)


class TestStratifiedPlacement:
    """Spatially stratified canary placement under correlated variation."""

    @staticmethod
    def _strata(canaries, chip, num_regions=4, group_size=4):
        strata = set()
        for canary in canaries:
            span = chip.memory[canary.bank].num_words
            regions = max(min(num_regions, span), 1)
            region = min(canary.address * regions // span, regions - 1)
            strata.add((canary.bank, region, canary.bit // group_size))
        return strata

    def _select(self, chip, placement):
        selector = CanarySelector(
            canaries_per_bank=8, strategy="oracle", placement=placement
        )
        return selector.select(chip.memory, 0.50)

    def test_invalid_placement_rejected(self):
        with pytest.raises(ValueError):
            CanarySelector(placement="random")
        with pytest.raises(ValueError):
            CanarySelector(num_regions=0)
        with pytest.raises(ValueError):
            CanarySelector(column_group_size=0)

    def test_default_placement_is_margin(self, deployed_chip):
        chip, _ = deployed_chip
        implicit = CanarySelector(canaries_per_bank=4, strategy="oracle")
        explicit = CanarySelector(
            canaries_per_bank=4, strategy="oracle", placement="margin"
        )
        assert implicit.select(chip.memory, 0.50) == explicit.select(chip.memory, 0.50)

    def test_stratified_covers_at_least_as_many_strata(self, deployed_chip):
        chip, _ = deployed_chip
        margin = self._strata(self._select(chip, "margin"), chip)
        stratified = self._strata(self._select(chip, "stratified"), chip)
        assert len(stratified) >= len(margin)

    def test_stratified_spreads_under_regional_weakness(self):
        """With one artificially weak die region, pure-margin ordering piles
        every canary into that region; stratified placement still covers the
        other regions."""
        scenario = VariationScenario(
            name="region-heavy", correlation=CorrelationSpec(region=0.5)
        )
        chip = Snnac(
            SnnacConfig(num_pes=2, words_per_bank=64, seed=31), scenario=scenario
        )
        # make the first die region (addresses 0..15) uniformly the most
        # marginal cells of the bank by a wide gap
        for bank in chip.memory:
            bank.cells.vmin_read[:, :] = 0.30
            bank.cells.vmin_read[:16, :] = 0.499
        margin = self._select(chip, "margin")
        stratified = self._select(chip, "stratified")
        margin_regions = {r for _, r, _ in self._strata(margin, chip)}
        stratified_regions = {r for _, r, _ in self._strata(stratified, chip)}
        assert margin_regions == {0}
        assert len(stratified_regions) > 1

    def test_stratified_picks_are_still_marginal_cells(self, deployed_chip):
        chip, _ = deployed_chip
        for canary in self._select(chip, "stratified"):
            vmin = chip.memory[canary.bank].cells.vmin_read[canary.address, canary.bit]
            assert vmin <= 0.50

    def test_stratified_respects_count_and_used_words(self, deployed_chip):
        chip, program = deployed_chip
        selector = CanarySelector(
            canaries_per_bank=4, strategy="oracle", placement="stratified"
        )
        canaries = selector.select(
            chip.memory, 0.50, used_words_per_bank=program.placement.words_used_per_pe
        )
        per_bank = {}
        for canary in canaries:
            per_bank.setdefault(canary.bank, []).append(canary)
            assert canary.address < program.placement.words_used_per_pe[canary.bank]
        assert all(len(v) <= 4 for v in per_bank.values())

    def test_stratified_profiled_strategy_also_spreads(self, deployed_chip):
        chip, program = deployed_chip
        selector = CanarySelector(
            canaries_per_bank=6, strategy="profiled", placement="stratified"
        )
        canaries = selector.select(
            chip.memory, 0.50, used_words_per_bank=program.placement.words_used_per_pe
        )
        assert canaries
        for canary in canaries:
            vmin = chip.memory[canary.bank].cells.vmin_read[canary.address, canary.bit]
            assert 0.50 - 0.005 * 21 <= vmin <= 0.50


# --------------------------------------------------------------------------
# Differential oracle: the partial-order selection against the full sort.


def _reference_marginal_cells(bank, voltage, temperature, count):
    """Oracle copy of the full-bank ``marginal_cells``: lexsort every safe cell."""
    margin = bank.effective_vmin(temperature) - float(voltage)
    safe = margin <= 0.0
    candidates = np.argwhere(safe)
    if candidates.size == 0:
        return []
    flat_margin = -margin[safe.nonzero()]
    order = np.lexsort((candidates[:, 1], candidates[:, 0], flat_margin))
    return [
        (int(address), int(bit), int(bank.cells.preferred_state[address, bit]))
        for address, bit in candidates[order[:count]]
    ]


def _reference_stratify(selector, ordered, bank, limit):
    """Oracle copy of the bucket round-robin stratification."""
    if not ordered:
        return []
    scenario = bank.scenario
    if scenario is not None:
        num_regions = scenario.correlation.num_regions
        group_size = scenario.correlation.column_group_size
    else:
        num_regions = selector.num_regions
        group_size = selector.column_group_size
    span = max(int(limit), 1)
    regions = max(min(num_regions, span), 1)
    buckets = {}
    for address, bit in ordered:
        region = min(address * regions // span, regions - 1)
        buckets.setdefault((region, bit // group_size), []).append((address, bit))
    queues = list(buckets.values())
    selected = []
    while len(selected) < selector.canaries_per_bank and any(queues):
        for queue in queues:
            if queue and len(selected) < selector.canaries_per_bank:
                selected.append(queue.pop(0))
    return selected


def _reference_select(selector, memory, voltage, temperature, used_words_per_bank):
    """Oracle copy of the oracle-strategy ``CanarySelector.select``."""
    canaries = []
    for bank_index, bank in enumerate(memory):
        limit = (
            bank.num_words
            if used_words_per_bank is None
            else min(int(used_words_per_bank[bank_index]), bank.num_words)
        )
        marginal = _reference_marginal_cells(bank, voltage, temperature, bank.size_bits)
        ordered = [(address, bit) for address, bit, _ in marginal if address < limit]
        if selector.placement == "stratified":
            cells = _reference_stratify(selector, ordered, bank, limit)
        else:
            cells = ordered[: selector.canaries_per_bank]
        for address, bit in cells:
            expected = int((int(bank.stored_words()[address]) >> bit) & 1)
            canaries.append(CanaryBit(bank_index, address, bit, expected))
    return canaries


def _random_memory(data, num_banks, scenario, ties):
    num_words = data.draw(st.integers(1, 48), label="num_words")
    word_bits = data.draw(st.integers(1, 16), label="word_bits")
    memory = WeightMemorySystem.build(
        num_banks,
        num_words,
        word_bits,
        seed=data.draw(st.integers(0, 2**16), label="seed"),
        scenario=scenario,
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="words"))
    for bank in memory:
        bank.write(
            np.arange(num_words), rng.integers(0, 1 << word_bits, num_words, dtype=np.uint64)
        )
        if ties:
            # coarse V_min grid: many cells share one margin exactly
            bank.cells.vmin_read[:] = np.round(bank.cells.vmin_read, 2)
            bank.invalidate_operating_point_cache()
    return memory


_SCENARIOS = st.sampled_from(
    [
        None,
        VariationScenario(name="iid-ss", corner=SLOW_CORNER),
        VariationScenario(
            name="region",
            correlation=CorrelationSpec(region=0.6, num_regions=3, column_group_size=2),
        ),
        VariationScenario(
            name="mixed",
            correlation=CorrelationSpec(
                row=0.3, column_group=0.2, region=0.2, column_group_size=5
            ),
        ),
    ]
)


class TestSelectionMatchesFullSort:
    """The partial-order selection picks exactly the canaries the full-bank
    sort and bucket round-robin did, in the same order."""

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        scenario=_SCENARIOS,
        ties=st.booleans(),
        placement=st.sampled_from(["margin", "stratified"]),
        canaries_per_bank=st.integers(1, 40),
        # where the rail sits in the memory's V_min spread: below 0 every
        # cell fails, above 1 every cell is safe, at 0 and 1 a cell sits
        # exactly on the rail
        position=st.sampled_from([-0.1, 0.0, 1.0, 1.1]) | st.floats(0.0, 1.0),
        temperature=st.sampled_from([25.0, -15.0, 90.0]),
    )
    def test_canary_lists_identical(
        self, data, scenario, ties, placement, canaries_per_bank, position, temperature
    ):
        num_banks = data.draw(st.integers(1, 3), label="num_banks")
        memory = _random_memory(data, num_banks, scenario, ties)
        vmin = np.concatenate([bank.effective_vmin(temperature).ravel() for bank in memory])
        low, high = float(vmin.min()), float(vmin.max())
        voltage = {0.0: low, 1.0: high}.get(position, low + position * (high - low))
        num_words = memory[0].num_words
        limits = st.sampled_from([0, num_words, num_words + 8]) | st.integers(0, num_words)
        used = data.draw(
            st.none() | st.lists(limits, min_size=num_banks, max_size=num_banks),
            label="used_words_per_bank",
        )
        selector = CanarySelector(
            canaries_per_bank=canaries_per_bank,
            strategy="oracle",
            placement=placement,
            num_regions=data.draw(st.integers(1, 6), label="num_regions"),
            column_group_size=data.draw(st.integers(1, 6), label="column_group_size"),
        )
        expected = _reference_select(selector, memory, voltage, temperature, used)
        assert selector.select(memory, voltage, temperature, used) == expected
        # and the bank-level order itself, at every count and limit
        bank = memory[0]
        count = data.draw(st.integers(1, bank.size_bits + 4), label="count")
        limit = data.draw(st.none() | limits, label="limit")
        reference = [
            cell
            for cell in _reference_marginal_cells(bank, voltage, temperature, bank.size_bits)
            if limit is None or cell[0] < limit
        ][:count]
        marginal = bank.marginal_cells(voltage, temperature, count=count, limit=limit)
        assert [(f.address, f.bit, f.stuck_value) for f in marginal] == reference

    def test_profiled_stratification_matches_round_robin(self, deployed_chip):
        chip, program = deployed_chip
        used = program.placement.words_used_per_pe
        selector = CanarySelector(
            canaries_per_bank=6, strategy="profiled", placement="stratified"
        )
        canaries = selector.select(chip.memory, 0.50, used_words_per_bank=used)
        expected = []
        for bank_index, bank in enumerate(chip.memory):
            ordered = selector._select_profiled(bank, 0.50, 25.0, used[bank_index])
            words = bank.stored_words()
            for address, bit in _reference_stratify(
                selector, [tuple(cell) for cell in ordered.tolist()], bank, used[bank_index]
            ):
                expected.append(
                    CanaryBit(bank_index, address, bit, (int(words[address]) >> bit) & 1)
                )
        assert canaries == expected
