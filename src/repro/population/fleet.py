"""Chip-population fleet simulation: N sampled dies serving one request stream.

The paper evaluates MATIC on one fabricated die, and every driver in this
repo likewise measures one sampled chip instance per grid point.  This
subsystem scales that to a *population*: :class:`ChipPopulation` names ``N``
die instances of one chip design — each sampled from its own
:meth:`numpy.random.SeedSequence.spawn` child, so dies are statistically
independent and any die can be re-materialized in isolation — and serves a
seeded synthetic request stream across the fleet at mixed operating points.

Per-die marginal cost stays small because the simulation leans on two
existing memoization layers rather than adding its own:

* per-bank fault maps are profiled through
  :meth:`~repro.matic.flow.MaticFlow.profile_chip`, whose artifact-cache
  memoization (kind ``"fault-map"``) turns a warm re-run of the same die
  into a pure cache recall; and
* within one die's request batch,
  :meth:`~repro.accelerator.npu.Npu.run_sweep` groups operating points by
  corruption-mask digest and aliases exact-duplicate voltages, so a stream
  that routes many requests to the same operating point decodes each
  corrupted weight image once.

Sharding composes for free: a die is one unit of work, so a driver that
expands ``{"die": i}`` tasks through the sweep engine gets ``--shard i/n``
fleet splits whose merge is bit-identical to an unsharded run
(``test_two_shards_and_warm_rerun_match_unsharded`` in
``tests/test_population.py`` checks it).

The module is deliberately below the ``repro.experiments`` layer: it knows
chips, flows, and canaries, but nothing about argument parsing, caches-by-
default, or prepared benchmarks.  ``repro.experiments.fleet_population``
wires it into the sweep engine and the standard CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ..accelerator.energy import NOMINAL_OPERATING_POINT
from ..accelerator.soc import Snnac, SnnacConfig
from ..matic.canary import CanarySelector
from ..matic.flow import MaticFlow
from ..sram import calibration
from ..sram.variation import VariationScenario

__all__ = [
    "ChipPopulation",
    "FleetRequest",
    "DieReport",
    "FleetSummary",
    "simulate_die",
    "summarize_fleet",
]

#: Spawn-key prefix reserving the request-stream generator its own branch of
#: the population's SeedSequence tree, disjoint from every die key ``(i,)``
#: (die keys are length-1; stream keys are length-2).
_STREAM_BRANCH = 0x5EED


@dataclass(frozen=True)
class FleetRequest:
    """One synthetic inference request: a batch routed to a die at a voltage."""

    index: int
    die: int
    voltage: float


@dataclass(frozen=True)
class ChipPopulation:
    """A seeded population of ``num_dies`` instances of one chip design.

    Each die's variation sample comes from the spawn child
    ``SeedSequence(entropy, spawn_key=(die,))`` — the documented identity
    for ``SeedSequence(entropy).spawn(die + 1)[die]`` — so a sharded fleet
    materializes only its own dies, in O(1) per die, and still samples the
    exact population an unsharded run would.  ``scenario`` threads a
    :class:`~repro.sram.variation.VariationScenario` (correlated sampling,
    process corner) into every die.
    """

    num_dies: int
    num_pes: int = 8
    words_per_bank: int = 512
    entropy: int = 11
    scenario: VariationScenario | None = None

    def __post_init__(self) -> None:
        if self.num_dies <= 0:
            raise ValueError("num_dies must be positive")

    def die_sequence(self, die: int) -> np.random.SeedSequence:
        """The spawn child that seeds one die's variation sample."""
        if not 0 <= die < self.num_dies:
            raise ValueError(f"die {die} outside population of {self.num_dies}")
        return np.random.SeedSequence(self.entropy, spawn_key=(die,))

    def die_seed(self, die: int) -> int:
        """Integer projection of the die's spawn child, for chip configs."""
        return int(self.die_sequence(die).generate_state(1, np.uint64)[0])

    def sample_chip(self, die: int) -> Snnac:
        """Materialize one die: a fresh chip with its own variation sample."""
        config = SnnacConfig(
            seed=self.die_seed(die),
            num_pes=self.num_pes,
            words_per_bank=self.words_per_bank,
        )
        return Snnac(config, scenario=self.scenario)

    def request_stream(
        self,
        num_requests: int,
        voltages: Sequence[float],
        seed: int = 0,
    ) -> list[FleetRequest]:
        """A seeded synthetic request stream routed across the fleet.

        Every request is an inference batch assigned a die (uniform load
        balancing) and an SRAM operating voltage (uniform over ``voltages``
        — the mixed-operating-point serving mix).  The stream derives from
        its own branch of the population's seed tree, so it is identical
        for every shard of a fleet sweep and never perturbs die sampling.
        """
        if num_requests < 0:
            raise ValueError("num_requests must be non-negative")
        if not voltages:
            raise ValueError("at least one operating voltage is required")
        rng = np.random.default_rng(
            np.random.SeedSequence(self.entropy, spawn_key=(_STREAM_BRANCH, seed))
        )
        dies = rng.integers(0, self.num_dies, size=num_requests)
        points = rng.integers(0, len(voltages), size=num_requests)
        return [
            FleetRequest(index=i, die=int(dies[i]), voltage=float(voltages[points[i]]))
            for i in range(num_requests)
        ]


@dataclass
class DieReport:
    """Everything one die contributes to the fleet picture.

    Unmeasured fields are ``None`` rather than NaN: reports round-trip
    through the shard store's pickle channel, and NaN's self-inequality
    would make bit-identical merge comparisons spuriously fail.
    """

    die: int
    seed: int
    #: voltage at which this die's aggregate bit-fault rate reaches target
    vmin: float
    #: aggregate bit-fault rate at the target voltage (from profiled maps)
    fault_rate: float
    #: headroom between the rail and the most marginal canary, volts
    #: (negative: that canary already fails at the target voltage)
    canary_margin: float | None
    requests_served: int = 0
    cycles: int = 0
    busy_seconds: float = 0.0
    #: requests routed here, bucketed by operating voltage
    requests_by_voltage: dict[float, int] = field(default_factory=dict)
    #: application error measured at each operating voltage served
    errors_by_voltage: dict[float, float] = field(default_factory=dict)

    def error_samples(self) -> list[float]:
        """Per-request error samples (one entry per request served)."""
        return [
            self.errors_by_voltage[voltage]
            for voltage, count in sorted(self.requests_by_voltage.items())
            for _ in range(count)
        ]


@dataclass
class FleetSummary:
    """Population-level aggregation of per-die reports."""

    num_dies: int
    target_voltage: float
    vmin_mean: float
    vmin_std: float
    vmin_min: float
    vmin_max: float
    #: fraction of dies whose Vmin is at or below the target voltage
    yield_fraction: float
    canary_margin_min: float | None
    canary_margin_mean: float | None
    total_requests: int
    #: wall-clock of the busiest die — dies serve concurrently, so this is
    #: the fleet's makespan for the stream
    makespan_seconds: float
    throughput_requests_per_second: float
    #: per operating voltage: error percentiles over the request samples
    error_percentiles: dict[float, dict[str, float]] = field(default_factory=dict)


def simulate_die(
    population: ChipPopulation,
    die: int,
    flow: MaticFlow,
    *,
    topology,
    train,
    loss: str,
    baseline,
    test_inputs: np.ndarray,
    error_fn: Callable[[np.ndarray], float],
    requests: Sequence[FleetRequest] = (),
    target_voltage: float = 0.50,
    target_fault_rate: float = 0.01,
    canaries_per_bank: int = 8,
    temperature: float = calibration.NOMINAL_TEMPERATURE,
    frequency: float = NOMINAL_OPERATING_POINT.frequency,
) -> DieReport:
    """Materialize one die, characterize it, and serve its request slice.

    The die deploys ``baseline`` naively (no retraining — the fleet question
    is die-to-die spread under one shipped model), is profiled through the
    flow's memoized fault-map path, gets margin-placed oracle canaries, and
    then serves every request routed to it as one batched
    :meth:`~repro.accelerator.soc.Snnac.run_voltage_sweep` whose duplicate
    operating points alias a single decoded weight image.

    ``error_fn`` maps a batch's output activations to the application error;
    ``frequency`` converts served cycles into busy time for throughput
    accounting.  Cycles are charged per request even when the simulator
    aliases duplicate voltages — on silicon every request still executes.
    """
    chip = population.sample_chip(die)
    deployment = flow.deploy_naive(
        chip,
        topology,
        train,
        target_voltage=target_voltage,
        loss=loss,
        initial_network=baseline,
    )

    vmin = np.concatenate(
        [bank.effective_vmin(temperature).ravel() for bank in chip.memory]
    )
    # the die's Vmin at the target fault rate: fault_rate(v) <= target
    # exactly when v >= this quantile of the effective V_min population
    die_vmin = float(np.quantile(vmin, 1.0 - target_fault_rate))

    # memoized per-bank profiling: warm re-runs of the same die recall the
    # fault maps from the artifact cache instead of re-measuring the banks
    fault_maps = flow.profile_chip(chip, target_voltage, temperature)
    total_bits = sum(fault_map.stuck_mask.size for fault_map in fault_maps)
    faulty_bits = sum(int(fault_map.stuck_mask.sum()) for fault_map in fault_maps)
    fault_rate = float(faulty_bits / total_bits) if total_bits else 0.0

    selector = CanarySelector(
        canaries_per_bank=canaries_per_bank, strategy="oracle", placement="margin"
    )
    canaries = selector.select(
        chip.memory,
        target_voltage,
        temperature=temperature,
        used_words_per_bank=deployment.program.placement.words_used_per_pe,
    )
    margins = [
        target_voltage
        - float(chip.memory[c.bank].effective_vmin(temperature)[c.address, c.bit])
        for c in canaries
    ]
    canary_margin = float(min(margins)) if margins else None

    die_requests = [request for request in requests if request.die == die]
    requests_by_voltage: dict[float, int] = {}
    errors_by_voltage: dict[float, float] = {}
    cycles = 0
    if die_requests:
        runs = chip.run_voltage_sweep(
            test_inputs, [request.voltage for request in die_requests]
        )
        for request, (outputs, stats) in zip(die_requests, runs):
            requests_by_voltage[request.voltage] = (
                requests_by_voltage.get(request.voltage, 0) + 1
            )
            if request.voltage not in errors_by_voltage:
                errors_by_voltage[request.voltage] = float(error_fn(outputs))
            cycles += int(stats.cycles)

    return DieReport(
        die=die,
        seed=population.die_seed(die),
        vmin=die_vmin,
        fault_rate=fault_rate,
        canary_margin=canary_margin,
        requests_served=len(die_requests),
        cycles=cycles,
        busy_seconds=cycles / float(frequency),
        requests_by_voltage=requests_by_voltage,
        errors_by_voltage=errors_by_voltage,
    )


def summarize_fleet(
    reports: Iterable[DieReport], target_voltage: float
) -> FleetSummary:
    """Aggregate die reports into the population-level distributions."""
    reports = sorted(reports, key=lambda report: report.die)
    if not reports:
        raise ValueError("summarize_fleet needs at least one die report")

    vmins = np.asarray([report.vmin for report in reports])
    margins = [
        report.canary_margin
        for report in reports
        if report.canary_margin is not None
    ]

    samples: dict[float, list[float]] = {}
    for report in reports:
        for voltage, count in report.requests_by_voltage.items():
            samples.setdefault(voltage, []).extend(
                [report.errors_by_voltage[voltage]] * count
            )
    percentiles = {
        voltage: {
            "p50": float(np.quantile(errors, 0.50)),
            "p90": float(np.quantile(errors, 0.90)),
            "p99": float(np.quantile(errors, 0.99)),
            "max": float(np.max(errors)),
        }
        for voltage, errors in sorted(samples.items())
    }

    total_requests = sum(report.requests_served for report in reports)
    makespan = max((report.busy_seconds for report in reports), default=0.0)
    throughput = total_requests / makespan if makespan > 0.0 else 0.0

    return FleetSummary(
        num_dies=len(reports),
        target_voltage=float(target_voltage),
        vmin_mean=float(vmins.mean()),
        vmin_std=float(vmins.std()),
        vmin_min=float(vmins.min()),
        vmin_max=float(vmins.max()),
        yield_fraction=float(np.mean(vmins <= target_voltage)),
        canary_margin_min=float(min(margins)) if margins else None,
        canary_margin_mean=float(np.mean(margins)) if margins else None,
        total_requests=total_requests,
        makespan_seconds=float(makespan),
        throughput_requests_per_second=float(throughput),
        error_percentiles=percentiles,
    )
