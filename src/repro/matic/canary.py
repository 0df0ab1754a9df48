"""In-situ synaptic canaries and the runtime voltage-control loop.

Instead of replica canary circuits plus static margin, MATIC selects a small
number of *marginal* bit-cells directly from the weight SRAMs — cells that
still read correctly at the target operating voltage but are the closest to
read failure.  The runtime controller (the on-chip µC in the test chip)
periodically polls those cells and walks the SRAM rail down until a canary
fails, then backs off one step and restores the canary states (Algorithm 1 in
the paper).  Because the canaries are the most marginal cells, they fail
before the cells the deployed model actually depends on, and because DNNs
tolerate a handful of uncompensated errors, accuracy does not depend on the
canary bits themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accelerator.soc import Snnac
from ..sram import calibration
from ..sram.array import SramBank, WeightMemorySystem
from ..sram.profiler import SramProfiler

__all__ = ["CanaryBit", "CanarySelector", "CanaryController", "RegulationTrace"]


@dataclass(frozen=True)
class CanaryBit:
    """One in-situ canary: a marginal weight bit-cell and its expected value."""

    bank: int
    address: int
    bit: int
    expected_value: int

    def __post_init__(self) -> None:
        if self.expected_value not in (0, 1):
            raise ValueError("expected_value must be 0 or 1")


class CanarySelector:
    """Select marginal weight bit-cells to serve as in-situ canaries.

    Parameters
    ----------
    canaries_per_bank:
        Number of canary cells per weight SRAM (the paper conservatively
        uses eight distributed cells per bank).
    strategy:
        ``"profiled"`` (default) discovers marginal cells by profiling each
        bank at a descending sequence of voltages below the target operating
        point — the post-silicon procedure.  ``"oracle"`` reads the
        behavioural model's ground-truth margins directly (useful in tests).
    search_step:
        Voltage step of the profiled search, volts.
    search_depth:
        Number of steps below the target voltage to search.
    placement:
        ``"margin"`` (default) takes the most marginal cells outright — the
        paper's pure-margin ordering.  ``"stratified"`` spreads the picks
        across die regions and column groups, taking the most marginal cell
        of each spatial stratum round-robin: under correlated (clustered)
        variation, pure-margin ordering can land every canary in one weak
        region and leave the rest of the bank unguarded.  The stratification
        grid follows the bank's :class:`~repro.sram.variation.VariationScenario`
        when one is attached, else ``num_regions`` / ``column_group_size``.
    num_regions / column_group_size:
        Default stratification grid for ``"stratified"`` placement on banks
        without a scenario.
    """

    def __init__(
        self,
        canaries_per_bank: int = 8,
        strategy: str = "profiled",
        search_step: float = 0.005,
        search_depth: int = 20,
        placement: str = "margin",
        num_regions: int = 4,
        column_group_size: int = 4,
    ) -> None:
        if canaries_per_bank <= 0:
            raise ValueError("canaries_per_bank must be positive")
        if strategy not in ("profiled", "oracle"):
            raise ValueError("strategy must be 'profiled' or 'oracle'")
        if search_step <= 0 or search_depth <= 0:
            raise ValueError("search_step and search_depth must be positive")
        if placement not in ("margin", "stratified"):
            raise ValueError("placement must be 'margin' or 'stratified'")
        if num_regions <= 0 or column_group_size <= 0:
            raise ValueError("num_regions and column_group_size must be positive")
        self.canaries_per_bank = int(canaries_per_bank)
        self.strategy = strategy
        self.search_step = float(search_step)
        self.search_depth = int(search_depth)
        self.placement = placement
        self.num_regions = int(num_regions)
        self.column_group_size = int(column_group_size)

    # ------------------------------------------------------------------

    def select(
        self,
        memory: WeightMemorySystem,
        target_voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
        used_words_per_bank: list[int] | None = None,
    ) -> list[CanaryBit]:
        """Select canaries from every bank for a target operating voltage.

        ``used_words_per_bank`` restricts candidates to the address range the
        deployed model actually occupies in each bank — the canaries must be
        *synaptic* bit-cells so that the runtime controller's restore step
        (which rewrites the deployed weight image) also restores them.
        """
        if used_words_per_bank is not None and len(used_words_per_bank) < len(memory):
            raise ValueError("used_words_per_bank must cover every bank")
        canaries: list[CanaryBit] = []
        for bank_index, bank in enumerate(memory):
            limit = (
                bank.num_words
                if used_words_per_bank is None
                else min(int(used_words_per_bank[bank_index]), bank.num_words)
            )
            if self.strategy == "oracle":
                ordered = self._select_oracle(bank, target_voltage, temperature, limit)
            else:
                ordered = self._select_profiled(bank, target_voltage, temperature, limit)
            if self.placement == "stratified":
                ordered = self._stratify(ordered, bank, limit)
            words = bank.stored_words()
            for address, bit in ordered[: self.canaries_per_bank].tolist():
                expected = (int(words[address]) >> bit) & 1
                canaries.append(CanaryBit(bank_index, address, bit, expected))
        return canaries

    def _select_oracle(
        self, bank: SramBank, target_voltage: float, temperature: float, limit: int
    ) -> np.ndarray:
        """Usable candidate cells as ``(address, bit)`` rows, most marginal first.

        Margin placement can only pick the first ``canaries_per_bank`` cells,
        so only those are ordered; stratified placement ranks every usable
        cell inside its stratum, so it takes the whole order.
        """
        if self.placement == "margin":
            marginal = bank.marginal_cells(
                target_voltage,
                temperature=temperature,
                count=self.canaries_per_bank,
                limit=limit,
            )
            return _rows([(fault.address, fault.bit) for fault in marginal])
        return bank.marginal_order(target_voltage, temperature, limit=limit)

    def _select_profiled(
        self, bank: SramBank, target_voltage: float, temperature: float, limit: int
    ) -> np.ndarray:
        """Find the cells that fail at the highest voltage below the target.

        The profiler is run at ``target − k·step`` for increasing ``k``; cells
        that first appear at small ``k`` are the most marginal still-working
        cells at the target voltage.  Cells already failing *at* the target
        are excluded (they are covered by the fault map, not usable as
        canaries).
        """
        already_failed = {
            (fault.address, fault.bit)
            for fault in SramProfiler()
            .profile_bank(bank, target_voltage, temperature)
            .fault_map.faults
        }
        # margin placement needs only the first canaries_per_bank discoveries;
        # stratified placement keeps searching the full depth so every spatial
        # stratum gets a chance to contribute a candidate
        enough = (
            self.canaries_per_bank if self.placement == "margin" else float("inf")
        )
        selected: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set(already_failed)
        profiler = SramProfiler()
        for step_index in range(1, self.search_depth + 1):
            voltage = target_voltage - step_index * self.search_step
            if voltage <= 0:
                break
            report = profiler.profile_bank(bank, voltage, temperature)
            for fault in report.fault_map.faults:
                key = (fault.address, fault.bit)
                if key in seen or fault.address >= limit:
                    continue
                seen.add(key)
                selected.append(key)
                if len(selected) >= enough:
                    return _rows(selected)
        return _rows(selected)

    def _stratify(self, ordered: np.ndarray, bank: SramBank, limit: int) -> np.ndarray:
        """Round-robin the most marginal cell of each spatial stratum.

        Strata are (die region, column group) buckets of the candidates,
        which arrive most-marginal-first.  Taking the head of each bucket in
        turn, buckets ordered by their most marginal candidate, picks every
        covered stratum's most marginal cell before any stratum contributes
        a second.  That round-robin order is the candidates sorted by (rank
        inside their stratum, position of their stratum's head), and only
        ranks below ``canaries_per_bank`` can ever be picked.
        """
        scenario = getattr(bank, "scenario", None)
        if scenario is not None:
            num_regions = scenario.correlation.num_regions
            group_size = scenario.correlation.column_group_size
        else:
            num_regions = self.num_regions
            group_size = self.column_group_size
        span = max(int(limit), 1)
        regions = max(min(num_regions, span), 1)
        addresses, bits = ordered[:, 0], ordered[:, 1]
        region = np.minimum(addresses * regions // span, regions - 1)
        stratum = region * bank.word_bits + bits // group_size
        # group by stratum, margin order kept inside each group; `first` is
        # the grouped position of each candidate's stratum head
        grouped = np.argsort(stratum, kind="stable")
        heads = np.diff(stratum[grouped], prepend=-1) != 0
        first = np.maximum.accumulate(np.where(heads, np.arange(heads.size), 0))
        rank = np.arange(heads.size) - first
        pickable = rank < self.canaries_per_bank
        turns = np.lexsort((grouped[first][pickable], rank[pickable]))
        return ordered[grouped[pickable][turns]]


def _rows(cells: list[tuple[int, int]]) -> np.ndarray:
    """``(address, bit)`` pairs as an ``(n, 2)`` integer array."""
    return np.array(cells, dtype=np.int64).reshape(-1, 2)


@dataclass
class RegulationTrace:
    """Record of one execution of the canary control routine."""

    start_voltage: float
    final_voltage: float
    steps_taken: int
    canary_failure_voltage: float | None
    voltages_visited: list[float] = field(default_factory=list)


class CanaryController:
    """Runtime SRAM-voltage controller driven by in-situ canaries (Algorithm 1).

    Parameters
    ----------
    chip:
        The accelerator SoC whose SRAM rail is being controlled.
    canaries:
        Selected canary bits with their expected storage values.
    voltage_step:
        ``Δv`` of Algorithm 1, volts.
    minimum_voltage:
        Hard floor below which the controller will not push the rail.
    """

    def __init__(
        self,
        chip: Snnac,
        canaries: list[CanaryBit],
        voltage_step: float = 0.01,
        minimum_voltage: float = 0.35,
    ) -> None:
        if not canaries:
            raise ValueError("at least one canary bit is required")
        if voltage_step <= 0:
            raise ValueError("voltage_step must be positive")
        self.chip = chip
        self.canaries = list(canaries)
        self.voltage_step = float(voltage_step)
        self.minimum_voltage = float(minimum_voltage)
        self.traces: list[RegulationTrace] = []

    # ------------------------------------------------------------------

    def check_states(self) -> bool:
        """Poll every canary; return True if *any* canary has flipped.

        Polling is performed by reading the canary words through the normal
        SRAM access path at the current (possibly overscaled) rail voltage,
        exactly as the runtime firmware would.
        """
        voltage = self.chip.effective_sram_voltage
        temperature = self.chip.temperature
        any_failed = False
        for canary in self.canaries:
            bank = self.chip.memory[canary.bank]
            word = int(bank.read(canary.address, voltage=voltage, temperature=temperature)[0])
            if ((word >> canary.bit) & 1) != canary.expected_value:
                any_failed = True
        return any_failed

    def restore_states(self) -> None:
        """Rewrite the words containing canary bits to their deployed values.

        The deployed values are recovered from the NPU's stored weight image
        (the µC keeps the compiled model in its address space), so restoring
        also repairs any sibling bits in the same word that were disturbed
        while the rail was below their failure voltage.
        """
        self.chip.refresh_weights()

    def regulate(
        self,
        safe_voltage: float | None = None,
    ) -> RegulationTrace:
        """Run Algorithm 1 once and leave the rail at the canary boundary.

        Starting from ``safe_voltage`` (default: the current rail setting),
        the controller repeatedly lowers the rail by ``Δv`` and polls the
        canaries.  On the first canary failure it raises the rail by ``Δv``
        above the last-known-good setting (the paper's conservative one-step
        margin), restores the canary storage states, and returns.
        """
        self.chip.mcu.wake()
        regulator = self.chip.sram_regulator
        if safe_voltage is not None:
            regulator.set_voltage(safe_voltage)
        start_voltage = regulator.voltage
        visited = [start_voltage]

        last_good = regulator.voltage
        failure_voltage = None
        steps = 0
        while True:
            candidate = last_good - self.voltage_step
            if candidate < self.minimum_voltage:
                break
            regulator.set_voltage(candidate)
            visited.append(regulator.voltage)
            steps += 1
            if self.check_states():
                failure_voltage = regulator.voltage
                regulator.set_voltage(last_good + self.voltage_step)
                visited.append(regulator.voltage)
                self.restore_states()
                break
            last_good = regulator.voltage

        trace = RegulationTrace(
            start_voltage=start_voltage,
            final_voltage=regulator.voltage,
            steps_taken=steps,
            canary_failure_voltage=failure_voltage,
            voltages_visited=visited,
        )
        self.traces.append(trace)
        self.chip.mcu.record_control_run()
        self.chip.mcu.sleep()
        return trace
