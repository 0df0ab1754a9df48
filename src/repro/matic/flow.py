"""End-to-end MATIC compile/deploy flow (Fig. 3 of the paper).

The flow stitches the subsystems together in the order the paper describes:

1. **Memory profiling** — run the read-after-write / read-after-read
   procedure on every weight SRAM bank at the target operating voltage to
   obtain the chip-specific fault maps.
2. **Memory-adaptive training** — convert the fault maps into injection
   masks through the compiled weight placement and train the model with the
   MAT update rule so it learns around the profiled errors.
3. **Deploy** — load the quantized model into the weight SRAMs.
4. **Canary selection** — pick the most marginal still-working bit-cells of
   each bank as in-situ canaries and hand a runtime
   :class:`~repro.matic.canary.CanaryController` to the caller.

The flow also provides the *naive* deployment path (train at full precision,
quantize, deploy, no fault awareness), which is the baseline every
application-error experiment compares against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..accelerator.microcode import MicrocodeCompiler, NpuProgram
from ..accelerator.soc import Snnac
from ..nn.data import Dataset
from ..nn.network import Network, Topology
from ..nn.trainer import Trainer, TrainingHistory
from ..quant.quantizer import WeightQuantizer
from ..sram import calibration
from ..sram.fault_map import FaultMap
from ..sram.profiler import SramProfiler
from .canary import CanaryBit, CanaryController, CanarySelector
from .masking import FaultMaskSet
from .training import MemoryAdaptiveTrainer

__all__ = [
    "TrainingConfig",
    "MaticDeployment",
    "AdaptiveSweepPoint",
    "ProfileCacheCounters",
    "MaticFlow",
]


@dataclass
class TrainingConfig:
    """Hyper-parameters shared by the baseline and memory-adaptive trainers."""

    optimizer: str = "momentum"
    learning_rate: float = 0.15
    batch_size: int = 32
    epochs: int = 50
    patience: int | None = None
    #: per-epoch multiplicative learning-rate decay (stabilizes MAT at high
    #: fault rates)
    lr_decay: float = 0.95
    #: L2 regularization; keeping weights small keeps the fixed-point format
    #: tight, which bounds the damage a single stuck bit can do
    weight_decay: float = 2.0e-4
    seed: int | None = 0


@dataclass
class ProfileCacheCounters:
    """Cache-traffic accounting for :meth:`MaticFlow.profile_chip`.

    One counter pair per memoization granularity: whole-chip records
    (``fault-map-chip``) and per-bank records (``fault-map``).  Counters are
    per-process — parallel sweep workers each count their own flow copy —
    and exist so the tests and the fault-map benchmark can assert *how* a
    warm run was served (one chip-level round trip, zero bank re-profiles)
    instead of inferring it from wall time.
    """

    chip_hits: int = 0
    chip_misses: int = 0
    bank_hits: int = 0
    bank_misses: int = 0

    def reset(self) -> None:
        self.chip_hits = self.chip_misses = 0
        self.bank_hits = self.bank_misses = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class MaticDeployment:
    """Everything produced by one run of the MATIC flow on one chip."""

    chip: Snnac
    network: Network
    program: NpuProgram
    quantizer: WeightQuantizer
    fault_maps: list[FaultMap]
    mask_set: FaultMaskSet
    target_voltage: float
    canaries: list[CanaryBit] = field(default_factory=list)
    controller: CanaryController | None = None
    history: TrainingHistory | None = None

    def run_at(
        self, inputs: np.ndarray, sram_voltage: float | None = None
    ) -> np.ndarray:
        """Run inference on the chip at a given SRAM voltage (default: target).

        The deployed weights are refreshed first so that corruption from a
        previous operating point does not leak into the measurement.
        """
        voltage = self.target_voltage if sram_voltage is None else float(sram_voltage)
        return self.run_sweep(inputs, [voltage])[0]

    def run_sweep(
        self, inputs: np.ndarray, sram_voltages=None
    ) -> list[np.ndarray]:
        """Measure the deployed model at each SRAM voltage (default: target).

        Each point is an independent measurement — weights are refreshed
        before every run, exactly as a sequence of :meth:`run_at` calls — but
        executed through the chip's batched sweep primitive
        (:meth:`~repro.accelerator.soc.Snnac.run_voltage_sweep`), which
        shares decoded weight images between operating points whose
        corruption masks are identical.  Returns the output batches in
        ``sram_voltages`` order.
        """
        if sram_voltages is None:
            sram_voltages = [self.target_voltage]
        results = self.chip.run_voltage_sweep(inputs, sram_voltages)
        return [outputs for outputs, _ in results]


@dataclass
class AdaptiveSweepPoint:
    """One operating point of a batched adaptive deployment walk.

    Produced by :meth:`MaticFlow.deploy_adaptive_sweep`.  All points of a
    walk share one chip, so ``deployment.chip`` carries the *most recently*
    deployed model — per-point on-chip measurements must happen through the
    walk's ``measure`` callback (captured here as ``measurement``) while the
    point's weights are resident, not retroactively through stale
    deployment handles.
    """

    voltage: float
    deployment: MaticDeployment
    history: TrainingHistory | None
    measurement: Any = None
    #: whether this point's fine-tuning started from the neighboring
    #: (next-higher) voltage's converged weights instead of the baseline
    warm_started: bool = False


class MaticFlow:
    """Compile-time flow: profile, train around errors, deploy, select canaries.

    Parameters
    ----------
    word_bits / frac_bits:
        Fixed-point weight format used for training *and* deployment (they
        must match for the injection masks to describe the deployed words).
        ``frac_bits=None`` (the default) fits the fraction width per layer to
        the pre-trained model's weight range and then freezes it, which keeps
        quantization loss negligible while bounding the magnitude of any
        single stuck bit.
    training:
        Hyper-parameters for the trainers.
    canaries_per_bank:
        Number of in-situ canary cells per weight SRAM bank.
    canary_strategy:
        Selection strategy (``"profiled"`` or ``"oracle"``).
    canary_placement:
        Placement policy (``"margin"`` or ``"stratified"``): pure-margin
        ordering versus spatially stratified spreading across die regions
        and column groups (robust to clustered faults; see
        ``docs/variation.md``).
    training_cache:
        Optional artifact cache (duck-typed ``get(kind, key)`` /
        ``put(kind, key, value)``, e.g.
        :class:`repro.experiments.cache.ArtifactCache`).  When set,
        memory-adaptive fine-tuning results are memoized on the *content* of
        the run — initial weights, injection masks, training data, and every
        hyper-parameter — so repeated deployments across a sweep grid train
        each distinct combination once.  The same cache also memoizes
        :meth:`profile_chip`'s per-bank fault maps (see that method for the
        key and the soundness caveat).
    """

    def __init__(
        self,
        word_bits: int = 16,
        frac_bits: int | None = None,
        training: TrainingConfig | None = None,
        canaries_per_bank: int = 8,
        canary_strategy: str = "profiled",
        canary_placement: str = "margin",
        training_cache=None,
    ) -> None:
        self.word_bits = int(word_bits)
        self.frac_bits = None if frac_bits is None else int(frac_bits)
        self.training = training or TrainingConfig()
        self.canaries_per_bank = int(canaries_per_bank)
        self.canary_strategy = canary_strategy
        self.canary_placement = canary_placement
        self.training_cache = training_cache
        #: per-process cache-traffic accounting for the profiling memoization
        self.profile_counters = ProfileCacheCounters()
        # in-process memo for compiled NPU programs: placement/schedule are a
        # pure function of (topology, activations, formats, geometry), so one
        # compile serves every voltage of a sweep and every repeat deployment
        self._program_memo: dict = {}

    def __getstate__(self) -> dict:
        # compiled programs are cheap to rebuild and per-process anyway; keep
        # the shared payload shipped to sweep workers lean
        state = self.__dict__.copy()
        state["_program_memo"] = {}
        return state

    # ------------------------------------------------------------ pieces

    def quantizer_for(self, network: Network) -> WeightQuantizer:
        """The weight format shared by training and deployment for one model.

        Formats are chosen from ``network``'s current (pre-trained) weights
        and frozen, so the same word layout is used when building injection
        masks, during memory-adaptive training, and when loading the weights
        into the accelerator's SRAM banks.
        """
        base = WeightQuantizer(total_bits=self.word_bits, frac_bits=self.frac_bits)
        return base.freeze(base.layer_formats(network))

    def train_baseline(
        self, network: Network, train: Dataset, validation: Dataset | None = None
    ) -> TrainingHistory:
        """Train the naive (fault-unaware, full-precision) baseline model."""
        trainer = Trainer(
            network,
            optimizer=self.training.optimizer,
            learning_rate=self.training.learning_rate,
            batch_size=self.training.batch_size,
            epochs=self.training.epochs,
            patience=self.training.patience,
            lr_decay=self.training.lr_decay,
            weight_decay=self.training.weight_decay,
            seed=self.training.seed,
        )
        return trainer.fit(train, validation=validation)

    @staticmethod
    def _profile_cache_key(
        bank, voltage: float, temperature: float, profiler: SramProfiler
    ) -> dict:
        """Content key addressing one bank's profiled fault map.

        The profiled map is a deterministic function of the bank's sampled
        bit-cell population (``vmin_read`` + ``preferred_state``, which fold
        in the chip seed, the variation model, and the bank geometry), its
        temperature coefficient, the operating point, and the profiler's
        measurement procedure (:meth:`~repro.sram.profiler.SramProfiler.describe`:
        class, test patterns, restore flag, plus whatever subclasses add) —
        so the key hashes exactly those.  Hashing the sampled population
        *content* rather than the (seed, model) pair that produced it keeps
        the key sound even for hand-constructed or mutated banks.

        The bank's variation provenance
        (:meth:`~repro.sram.array.SramBank.scenario_key`: scenario spec,
        model spec, and the corner/aging ``vmin_offset``) also participates:
        the offset changes which cells fail at a given voltage, and folding
        the scenario spec in guarantees i.i.d. and correlated populations
        can never collide in the artifact cache.
        """
        return {
            "vmin_read": bank.cells.vmin_read,
            "preferred_state": bank.cells.preferred_state,
            "temperature_coefficient": float(bank.temperature_coefficient),
            "word_bits": int(bank.word_bits),
            "voltage": float(voltage),
            "temperature": float(temperature),
            "patterns": profiler.patterns_for(bank),
            "profiler": profiler.describe(),
            "provenance": bank.scenario_key(),
        }

    def profile_chip(
        self,
        chip: Snnac,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
        profiler: SramProfiler | None = None,
    ) -> list[FaultMap]:
        """Profile every weight bank of ``chip`` at the target voltage.

        When a ``training_cache`` is attached, the profile is memoized at two
        granularities.  The warm path is **one** round trip: a whole-chip
        record (kind ``"fault-map-chip"``, keyed on the tuple of every bank's
        :meth:`_profile_cache_key`) returns all banks' maps from a single
        ``get``.  On a chip-record miss the per-bank records (kind
        ``"fault-map"``, one key per bank) are consulted and populated as
        before — so partially warmed caches still skip every bank they can —
        and the chip record is stored for the next run.  Hit/miss traffic at
        both granularities is reported through :attr:`profile_counters`.

        Soundness caveat: profiling overwrites bank contents with test
        patterns, and the measurement is only side-effect-free because
        ``restore_contents=True`` (the default) rewrites the saved contents
        afterwards.  A cache hit skips the whole procedure, which is
        equivalent *only* under that flag — passing a custom ``profiler``
        with ``restore_contents=False`` therefore bypasses memoization and
        always profiles for real.
        """
        profiler = profiler if profiler is not None else SramProfiler()
        cache = self.training_cache
        if cache is None or not profiler.restore_contents:
            reports = profiler.profile_memory_system(chip.memory, voltage, temperature)
            return [report.fault_map for report in reports]
        counters = self.profile_counters
        bank_keys = [
            self._profile_cache_key(bank, voltage, temperature, profiler)
            for bank in chip.memory
        ]
        chip_key = {"banks": tuple(bank_keys)}
        cached_chip = cache.get("fault-map-chip", chip_key)
        if cached_chip is not None:
            counters.chip_hits += 1
            return [
                FaultMap.from_arrays(stuck_mask, stuck_values)
                for stuck_mask, stuck_values in cached_chip
            ]
        counters.chip_misses += 1
        fault_maps: list[FaultMap] = []
        records = []  # each bank's (stuck_mask, stuck_values), for the chip record
        for bank, key in zip(chip.memory, bank_keys):
            record = cache.get("fault-map", key)
            if record is not None:
                counters.bank_hits += 1
                fault_maps.append(FaultMap.from_arrays(*record))
            else:
                counters.bank_misses += 1
                fault_map = profiler.profile_bank(bank, voltage, temperature).fault_map
                record = (fault_map.stuck_mask, fault_map.stuck_values)
                cache.put("fault-map", key, record)
                fault_maps.append(fault_map)
            records.append(record)
        cache.put("fault-map-chip", chip_key, tuple(records))
        return fault_maps

    def profile_chip_sweep(
        self,
        chip: Snnac,
        voltages,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
        profiler: SramProfiler | None = None,
    ) -> list[list[FaultMap]]:
        """Profile every weight bank of ``chip`` at every voltage of an axis.

        Returns ``maps[i][b]`` — the fault map of bank ``b`` at
        ``voltages[i]`` — derived from **one** pass over each bank's sampled
        cell population (:meth:`~repro.sram.profiler.SramProfiler.profile_bank_sweep`:
        a cell fails iff the voltage is below its effective V_min, so the
        whole axis is a single vectorized comparison).  The derivation is
        asserted bit-identical to per-voltage :meth:`profile_chip` /
        ``profile_bank`` by the equivalence oracle in
        ``tests/test_adaptive_sweep.py``; profilers whose procedure the
        analytic path cannot reproduce fall back to measured per-voltage
        profiling inside ``profile_bank_sweep`` itself.

        Nothing is memoized: deriving the axis costs less than hashing its
        key and reading the maps back from the artifact cache.
        """
        profiler = profiler if profiler is not None else SramProfiler()
        per_bank = [
            profiler.profile_bank_sweep(bank, voltages, temperature)
            for bank in chip.memory
        ]
        return [[report.fault_map for report in point] for point in zip(*per_bank)]

    def compile_program(
        self,
        network: Network,
        chip: Snnac,
        quantizer: WeightQuantizer | None = None,
    ) -> NpuProgram:
        """Compile (or recall) the NPU program for (network, chip geometry).

        The compiled placement and execution schedule are a pure function of
        the network's topology/activations, the per-layer fixed-point
        formats, and the chip geometry — none of which depend on the SRAM
        voltage — so the program is memoized in-process on exactly that
        content and one compile serves every operating point of a sweep
        (and every repeat deployment of the same model shape).
        """
        quantizer = quantizer if quantizer is not None else self.quantizer_for(network)
        formats = quantizer.layer_formats(network)
        key = (
            tuple(network.widths),
            tuple(layer.activation.name for layer in network.layers),
            tuple(
                (
                    fmt.weight_format.total_bits,
                    fmt.weight_format.frac_bits,
                    fmt.bias_format.total_bits,
                    fmt.bias_format.frac_bits,
                )
                for fmt in formats
            ),
            len(chip.memory),
            min(bank.num_words for bank in chip.memory),
            int(chip.config.pipeline_overhead),
        )
        program = self._program_memo.get(key)
        if program is None:
            compiler = MicrocodeCompiler(
                num_pes=len(chip.memory),
                words_per_bank=min(bank.num_words for bank in chip.memory),
                pipeline_overhead=chip.config.pipeline_overhead,
            )
            program = compiler.compile(network, quantizer)
            self._program_memo[key] = program
        return program

    def build_mask_set(
        self,
        network: Network,
        chip: Snnac,
        fault_maps: list[FaultMap],
        quantizer: WeightQuantizer | None = None,
        program: NpuProgram | None = None,
    ) -> FaultMaskSet:
        """Convert per-bank fault maps into per-layer injection masks.

        ``quantizer`` and ``program`` let the deploy walk hoist the format
        choice and the compile out of its per-voltage loop: the placement is
        voltage-invariant, so one compiled program translates every operating
        point's fault maps.  When omitted they are derived from ``network``
        (formats fitted from its *current* weights, then frozen).
        """
        if quantizer is None:
            quantizer = self.quantizer_for(network)
        if program is None:
            program = self.compile_program(network, chip, quantizer)
        return FaultMaskSet.from_fault_maps(
            network,
            quantizer,
            program.placement,
            fault_maps,
            description=f"profiled masks for {network.name}",
        )

    def _adaptive_cache_key(
        self,
        network: Network,
        mask_set: FaultMaskSet,
        train: Dataset,
        validation: Dataset | None,
        config: TrainingConfig | None = None,
    ) -> dict:
        """Content key addressing one memory-adaptive fine-tuning run.

        The validation split participates in the key because early stopping
        (``patience``) makes the trained weights depend on it; the network's
        structure/loss and the per-layer quantization formats participate
        because identically initialized networks trained under different
        objectives or word layouts must never share an artifact.

        ``config`` is the hyper-parameter set that will actually train
        (default: the flow's).  Warm-started sweep points pass their reduced
        config here, and their lineage — which voltage's converged weights
        they started from — is already folded in through ``initial`` (the
        network's master weights *are* the lineage), so warm and cold
        artifacts can never collide: they differ in initial weights, epochs,
        or both.
        """
        config = config if config is not None else self.training
        return {
            "network": network.structure_key(),
            "formats": tuple(
                (
                    fmt.weight_format.total_bits,
                    fmt.weight_format.frac_bits,
                    fmt.bias_format.total_bits,
                    fmt.bias_format.frac_bits,
                )
                for fmt in mask_set.layer_formats
            ),
            "validation": (
                {"inputs": validation.inputs, "targets": validation.targets}
                if validation is not None
                else "none"
            ),
            "initial": network.get_weights(),
            "masks": [
                (
                    masks.weight_and,
                    masks.weight_or,
                    masks.bias_and,
                    masks.bias_or,
                    int(masks.word_bits),
                )
                for masks in mask_set.layer_masks
            ],
            "word_bits": int(mask_set.word_bits),
            "train_inputs": train.inputs,
            "train_targets": train.targets,
            "optimizer": config.optimizer,
            "learning_rate": float(config.learning_rate),
            "batch_size": int(config.batch_size),
            "epochs": int(config.epochs),
            "patience": config.patience if config.patience is not None else "none",
            "lr_decay": float(config.lr_decay),
            "weight_decay": float(config.weight_decay),
            "seed": config.seed if config.seed is not None else "none",
        }

    def fit_adaptive(
        self,
        network: Network,
        mask_set: FaultMaskSet,
        train: Dataset,
        validation: Dataset | None,
        config: TrainingConfig | None = None,
    ) -> TrainingHistory | None:
        """Run (or recall) memory-adaptive fine-tuning; mutates ``network``.

        ``config`` overrides the flow's training hyper-parameters for this
        fit (warm-started sweep points train fewer epochs); it participates
        in the memoization key, so differently configured fits never share
        artifacts.  Returns the training history, or ``None`` when the
        trained weights came from the training cache (histories are not
        cached).
        """
        config = config if config is not None else self.training
        key = None
        if self.training_cache is not None:
            key = self._adaptive_cache_key(network, mask_set, train, validation, config)
            cached = self.training_cache.get("trained-weights", key)
            if cached is not None:
                # restore the master weights, then reinstall the masked
                # effective view exactly as MemoryAdaptiveTrainer.fit leaves
                # it, so the recalled network is indistinguishable from a
                # freshly trained one (predictions included)
                network.set_weights(cached)
                mask_set.install(network)
                return None
        trainer = MemoryAdaptiveTrainer.from_config(network, mask_set, config)
        history = trainer.fit(train, validation=validation)
        if self.training_cache is not None and key is not None:
            self.training_cache.put("trained-weights", key, network.get_weights())
        return history

    # ----------------------------------------------------------- the flow

    def _starting_network(
        self, topology: str | Topology, loss: str, initial_network: Network | None
    ) -> Network:
        """The pristine network a deployment starts from."""
        if initial_network is not None:
            return initial_network.copy()
        return Network(topology, loss=loss, seed=self.training.seed)

    def _deploy_walk(
        self,
        chip: Snnac,
        start: Network,
        train: Dataset,
        validation: Dataset | None,
        voltages: tuple[float, ...],
        maps_per_voltage: list[list[FaultMap]],
        select_canaries: bool,
        warm_start: bool = False,
        measure: Callable[[MaticDeployment], Any] | None = None,
    ) -> list[AdaptiveSweepPoint]:
        """Fine-tune, deploy and (optionally) pick canaries at every voltage.

        Formats are frozen and the program compiled once, from the pristine
        ``start``: warm-started weights must not shift the word layout
        mid-walk, or the per-voltage masks would describe different deployed
        words.  The walk goes high→low so each point's faults are a superset
        of its warm-start parent's (ties keep input order); a warm point
        starts from the previous point's converged weights and trains
        ``max(1, epochs // 6)`` epochs.  Points return in ``voltages`` order.
        """
        quantizer = self.quantizer_for(start)
        program = self.compile_program(start, chip, quantizer)
        warm_config = replace(self.training, epochs=max(1, self.training.epochs // 6))
        order = sorted(range(len(voltages)), key=lambda i: (-voltages[i], i))
        points: dict[int, AdaptiveSweepPoint] = {}
        previous: Network | None = None
        for index in order:
            voltage, fault_maps = voltages[index], maps_per_voltage[index]
            warm = warm_start and previous is not None
            network = (previous if warm else start).copy()
            mask_set = self.build_mask_set(
                network, chip, fault_maps, quantizer=quantizer, program=program
            )
            history = self.fit_adaptive(
                network, mask_set, train, validation, config=warm_config if warm else None
            )
            chip.deploy_quantized(program, quantizer.quantize_network(network))
            canaries: list[CanaryBit] = []
            if select_canaries:
                selector = CanarySelector(
                    canaries_per_bank=self.canaries_per_bank,
                    strategy=self.canary_strategy,
                    placement=self.canary_placement,
                )
                canaries = selector.select(
                    chip.memory,
                    voltage,
                    used_words_per_bank=program.placement.words_used_per_pe,
                )
            chip.sram_regulator.set_voltage(voltage)
            deployment = MaticDeployment(
                chip=chip,
                network=network,
                program=program,
                quantizer=quantizer,
                fault_maps=fault_maps,
                mask_set=mask_set,
                target_voltage=voltage,
                canaries=canaries,
                controller=CanaryController(chip, canaries) if canaries else None,
                history=history,
            )
            points[index] = AdaptiveSweepPoint(
                voltage=voltage,
                deployment=deployment,
                history=history,
                measurement=measure(deployment) if measure is not None else None,
                warm_started=warm,
            )
            previous = network
        return [points[index] for index in range(len(voltages))]

    def deploy_adaptive(
        self,
        chip: Snnac,
        topology: str | Topology,
        train: Dataset,
        validation: Dataset | None = None,
        target_voltage: float = 0.5,
        loss: str = "mse",
        initial_network: Network | None = None,
        select_canaries: bool = True,
    ) -> MaticDeployment:
        """Run the full MATIC flow and return the deployment handle.

        The chip is profiled at ``target_voltage`` through :meth:`profile_chip`
        (measured, and memoized when a ``training_cache`` is attached), then
        deployed as a one-point walk.  ``initial_network`` lets callers start
        adaptive training from a pre-trained baseline (the usual practice:
        fine-tune around the profiled faults rather than training from
        scratch).
        """
        voltage = float(target_voltage)
        (point,) = self._deploy_walk(
            chip,
            self._starting_network(topology, loss, initial_network),
            train,
            validation,
            (voltage,),
            [self.profile_chip(chip, voltage)],
            select_canaries,
        )
        return point.deployment

    def deploy_adaptive_sweep(
        self,
        chip: Snnac,
        topology: str | Topology,
        train: Dataset,
        validation: Dataset | None = None,
        voltages=(0.53, 0.50, 0.46),
        loss: str = "mse",
        initial_network: Network | None = None,
        select_canaries: bool = False,
        warm_start: bool = True,
        measure: Callable[[MaticDeployment], Any] | None = None,
    ) -> list[AdaptiveSweepPoint]:
        """Run the MATIC flow across a whole voltage axis on one chip.

        The batched equivalent of calling :meth:`deploy_adaptive` once per
        voltage, with three wins:

        1. **Sweep profiling** — every operating point's fault maps come from
           one :meth:`profile_chip_sweep` pass (one vectorized V_min
           comparison per bank) instead of a full measured profile per
           voltage.
        2. **Shared compile** — the placement/program is voltage-invariant,
           so the model is compiled once and every point translates its fault
           maps and deploys against the cached program.
        3. **Warm-started MAT** — with ``warm_start=True`` the walk proceeds
           high→low and fine-tunes each point starting from the neighboring
           (next-higher) voltage's converged weights under a reduced budget
           (``max(1, epochs // 6)`` epochs, the flow's own patience) instead
           of retraining from the pristine baseline; neighboring fault maps
           are nested, so the previous point's weights are already nearly
           adapted.  The trained-weights cache key folds the lineage in
           naturally — the warm initial weights *are* the previous point's
           converged masters — so warm and cold artifacts can never collide.

        With ``warm_start=False`` every point trains from the pristine
        baseline under the flow's full config: bit-identical to the
        historical per-voltage :meth:`deploy_adaptive` loop (same initial
        weights, same maps, same masks, same hyper-parameters — the same
        trained-weights cache keys, so the two spellings even share
        artifacts).

        All points share ``chip``, which is serially re-deployed as the walk
        advances; per-point on-chip measurements must therefore happen
        through ``measure(deployment)``, invoked while that point's weights
        are resident (its return value lands in the point's ``measurement``
        field).  Results are returned in ``voltages`` order regardless of
        walk order.
        """
        voltage_axis = tuple(float(v) for v in voltages)
        if not voltage_axis:
            raise ValueError("deploy_adaptive_sweep needs at least one voltage")
        return self._deploy_walk(
            chip,
            self._starting_network(topology, loss, initial_network),
            train,
            validation,
            voltage_axis,
            self.profile_chip_sweep(chip, voltage_axis),
            select_canaries,
            warm_start=warm_start,
            measure=measure,
        )

    def deploy_naive(
        self,
        chip: Snnac,
        topology: str | Topology,
        train: Dataset,
        validation: Dataset | None = None,
        target_voltage: float = 0.5,
        loss: str = "mse",
        initial_network: Network | None = None,
    ) -> MaticDeployment:
        """Deploy the naive baseline: same topology, no fault awareness.

        Without ``initial_network`` the model is trained at full precision
        first.  The chip is never profiled — the naive deployment does not
        use fault maps (that is the point of the baseline) — so
        ``fault_maps`` is empty.
        """
        network = self._starting_network(topology, loss, initial_network)
        history = None
        if initial_network is None:
            history = self.train_baseline(network, train, validation)
        quantizer = self.quantizer_for(network)
        program = chip.deploy(network, quantizer)
        chip.sram_regulator.set_voltage(target_voltage)
        return MaticDeployment(
            chip=chip,
            network=network,
            program=program,
            quantizer=quantizer,
            fault_maps=[],
            mask_set=FaultMaskSet.identity(network, quantizer),
            target_voltage=float(target_voltage),
            history=history,
        )
