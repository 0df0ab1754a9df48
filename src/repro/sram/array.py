"""Behavioural model of a voltage-scalable 6T SRAM bank.

The model captures the read-stability failure mechanism MATIC is built
around:

* every bit-cell has a sampled V_min,read and a preferred state,
* a read performed below a cell's (temperature-shifted) V_min,read
  flips the cell to its preferred state — the read returns the corrupted
  value and the corruption *persists* for subsequent reads, and
* a write refreshes the cell contents (until the next low-voltage read).

Access-time failures are out of scope, exactly as in the paper ("read
failures ... are distinct from bit-line access-time failures, which can be
corrected with ample timing margin").

Operating-point-resident read path
----------------------------------
Storage is word-resident: the bank keeps its contents as a ``uint64`` word
vector, and for every distinct ``(voltage, temperature)`` operating point it
caches the word-level AND/OR corruption masks derived from the sampled cell
population: the failing cells packed into words once per point, and the
preferred states once per population (the words :meth:`SramBank.fault_map_at`
returns as a :class:`~repro.sram.fault_map.FaultMap`).  A read is then a
single ``(words & and_mask) | or_mask`` over the addressed words, with the
persistent corruption written back in the same operation — no per-read bit
unpack/compare/repack round-trip.  The cache is invalidated when the cell
population changes (:attr:`SramBank.cells` assignment or
:meth:`SramBank.resample_cells`); writes never invalidate it because the
masks depend only on cell physics, not on stored contents.  Content changes
are tracked by :attr:`SramBank.content_epoch`, which bumps on every write or
corrupting read that actually changes stored words — consumers (the NPU's
decoded-weight memoization) use it to skip re-decoding unchanged words.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import calibration
from .bitcell import BitcellPopulation, BitcellVariationModel, EmpiricalVminModel
from .bitops import pack_bits, popcount
from .fault_map import BitFault, FaultMap, masks_from_words
from .variation import VariationScenario

__all__ = ["SramBank", "WeightMemorySystem"]

#: Retain masks for at most this many distinct operating points per bank
#: (a temperature-chamber walk visits many points; old ones age out FIFO).
_POINT_CACHE_LIMIT = 64


class SramBank:
    """A single voltage-scalable SRAM bank (one per SNNAC processing element).

    Parameters
    ----------
    num_words:
        Number of addressable words.
    word_bits:
        Word length in bits (8–22 for SNNAC weight memories).
    variation_model:
        Bit-cell variation model used to sample per-cell parameters
        (defaults to the empirical model calibrated to the paper's measured
        failure curve, Fig. 9a).
    rng / seed:
        Randomness for the variation sampling.
    name:
        Identifier used in profiling reports (e.g. ``"pe0.weights"``).
    cells:
        A population already sampled for this geometry, used as is instead
        of drawing one: nothing is drawn from ``seed``, and a population of
        another shape is rejected.  Banks built around one population share
        its arrays, so a sweep samples a die once (Fig. 9a's tasks do).
    """

    def __init__(
        self,
        num_words: int,
        word_bits: int,
        variation_model: BitcellVariationModel | None = None,
        seed: int | np.random.Generator | None = None,
        name: str = "sram",
        temperature_coefficient: float = calibration.TEMPERATURE_COEFFICIENT,
        scenario: VariationScenario | None = None,
        cells: BitcellPopulation | None = None,
    ) -> None:
        if num_words <= 0 or word_bits <= 0:
            raise ValueError("num_words and word_bits must be positive")
        if word_bits > 64:
            raise ValueError("word_bits must be at most 64")
        self.num_words = int(num_words)
        self.word_bits = int(word_bits)
        self.name = name
        self.temperature_coefficient = float(temperature_coefficient)
        #: the variation scenario this bank was built under (None = legacy
        #: i.i.d./typical-corner behaviour); folded into cache keys
        self.scenario = scenario
        if variation_model is not None:
            model = variation_model
        elif scenario is not None:
            model = scenario.variation_model()
        else:
            model = EmpiricalVminModel()
        self.variation_model = model
        #: additive V_min,read shift applied by :meth:`effective_vmin` —
        #: process-corner skew plus environment/aging drift.  Part of the
        #: operating-point mask cache key, so it may be reassigned freely
        #: (a trajectory walk) without invalidating cached points.
        self.vmin_offset = (
            float(scenario.corner.vmin_shift) if scenario is not None else 0.0
        )
        if cells is None:
            rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
            cells = model.sample(self.num_words, self.word_bits, rng)
        elif cells.shape != (self.num_words, self.word_bits):
            raise ValueError(
                f"cells has shape {cells.shape}, expected "
                f"{(self.num_words, self.word_bits)}"
            )
        self._cells: BitcellPopulation = cells
        #: stored contents, one uint64 word per address (word-resident storage)
        self._words = np.zeros(self.num_words, dtype=np.uint64)
        #: counters useful for energy accounting and tests
        self.read_count = 0
        self.write_count = 0
        #: bumped whenever stored words actually change (write or corrupting
        #: read); lets consumers cheaply detect "contents unchanged"
        self.content_epoch = 0
        # per-(voltage, temperature, vmin_offset) corruption masks + digests
        self._point_masks: dict[
            tuple[float, float, float], tuple[np.ndarray, np.ndarray, bool]
        ] = {}
        self._point_digests: dict[tuple[float, float, float], bytes] = {}
        self._preferred_words: np.ndarray | None = None

    # ---------------------------------------------------------- population

    @property
    def cells(self) -> BitcellPopulation:
        """The sampled per-cell parameters (V_min,read, preferred state).

        Assigning a new population invalidates the cached operating-point
        masks.  Mutating the arrays *in place* does not — call
        :meth:`invalidate_operating_point_cache` afterwards (or simply mutate
        before the first read, as the test fixtures do).
        """
        return self._cells

    @cells.setter
    def cells(self, population: BitcellPopulation) -> None:
        self._cells = population
        self.invalidate_operating_point_cache()

    def resample_cells(self, seed: int | np.random.Generator | None = None) -> None:
        """Draw a fresh cell population (a new die) and drop cached masks.

        Stored contents are untouched — resampling changes the physics, not
        the data — but every cached ``(voltage, temperature)`` mask pair is
        invalidated because the new cells fail at different voltages.
        """
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.cells = self.variation_model.sample(self.num_words, self.word_bits, rng)

    def invalidate_operating_point_cache(self) -> None:
        """Drop every cached corruption mask and the packed preferred states."""
        self._point_masks.clear()
        self._point_digests.clear()
        self._preferred_words = None

    def preferred_words(self) -> np.ndarray:
        """The cells' preferred states packed into words (once per population)."""
        if self._preferred_words is None:
            self._preferred_words = pack_bits(self._cells.preferred_state)
            self._preferred_words.flags.writeable = False
        return self._preferred_words

    # ----------------------------------------------------------- geometry

    @property
    def size_bits(self) -> int:
        return self.num_words * self.word_bits

    @property
    def size_bytes(self) -> float:
        return self.size_bits / 8.0

    @property
    def word_mask(self) -> int:
        return (1 << self.word_bits) - 1

    # ------------------------------------------------------------ helpers

    def _check_addresses(self, addresses: np.ndarray) -> np.ndarray:
        addresses = np.atleast_1d(np.asarray(addresses, dtype=int))
        if addresses.size and (addresses.min() < 0 or addresses.max() >= self.num_words):
            raise IndexError("address out of range")
        return addresses

    def effective_vmin(self, temperature: float) -> np.ndarray:
        """Per-cell V_min,read shifted for temperature, corner, and drift."""
        shifted = BitcellVariationModel.effective_vmin(
            self.cells.vmin_read,
            temperature,
            temperature_coefficient=self.temperature_coefficient,
        )
        if self.vmin_offset:
            shifted = shifted + self.vmin_offset
        return shifted

    def scenario_key(self) -> dict:
        """Content key describing the bank's variation provenance.

        Folded into fault-map / profile cache keys so populations sampled
        under different scenarios (i.i.d. vs correlated, different corners)
        can never collide in the :class:`ArtifactCache` even if their
        sampled arrays happened to coincide.
        """
        try:
            model_key = self.variation_model.spec_key()
        except (NotImplementedError, AttributeError):
            model_key = repr(self.variation_model)
        return {
            "scenario": None if self.scenario is None else self.scenario.spec_key(),
            "model": model_key,
            "vmin_offset": float(self.vmin_offset),
        }

    # ----------------------------------------------- operating-point masks

    def corruption_masks(
        self,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cached word-level ``(and_mask, or_mask)`` at an operating point.

        The masks encode exactly the corruption a read at ``voltage`` /
        ``temperature`` inflicts (cells whose effective V_min,read exceeds
        the voltage read as their preferred state):
        ``corrupted = (word & and_mask) | or_mask``.  Derived once per
        distinct operating point from the sampled cell population and reused
        by every subsequent read; the returned arrays are read-only views of
        the cache.
        """
        return self._point_entry(voltage, temperature)[:2]

    def _point_entry(
        self, voltage: float, temperature: float
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Cached ``(and_mask, or_mask, identity)`` for an operating point.

        ``identity`` flags a fault-free point (masks corrupt nothing), which
        lets the read hot path skip the corruption/compare/write-back work
        entirely — the overwhelmingly common case at nominal voltage.
        """
        if voltage <= 0:
            raise ValueError("voltage must be positive")
        key = (float(voltage), float(temperature), float(self.vmin_offset))
        cached = self._point_masks.get(key)
        if cached is None:
            stuck = pack_bits(self.effective_vmin(temperature) > float(voltage))
            and_masks, or_masks = masks_from_words(
                stuck, self.preferred_words(), self.word_mask
            )
            and_masks.flags.writeable = False
            or_masks.flags.writeable = False
            identity = not bool(stuck.any())
            cached = (and_masks, or_masks, identity)
            self._point_masks[key] = cached
            while len(self._point_masks) > _POINT_CACHE_LIMIT:
                evicted = next(iter(self._point_masks))
                del self._point_masks[evicted]
                self._point_digests.pop(evicted, None)
        return cached

    def mask_digest(
        self,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> bytes:
        """Content digest of the corruption masks at an operating point.

        Two operating points with equal digests corrupt reads identically,
        so batched sweeps (:meth:`repro.accelerator.npu.Npu.run_sweep`) can
        share decoded weight images between them.
        """
        key = (float(voltage), float(temperature), float(self.vmin_offset))
        digest = self._point_digests.get(key)
        if digest is None:
            and_masks, or_masks = self.corruption_masks(voltage, temperature)
            digest = hashlib.blake2b(
                and_masks.tobytes() + or_masks.tobytes(), digest_size=16
            ).digest()
            self._point_digests[key] = digest
        return digest

    # ------------------------------------------------------------- access

    def write(self, addresses: int | np.ndarray, words: int | np.ndarray) -> None:
        """Write words at the given addresses (refreshes any disturbed cells).

        Writes are modelled as always succeeding: the paper scales only the
        read path into failure and profiles read-after-write behaviour, with
        write-assist assumed at the margins considered.
        """
        addresses = self._check_addresses(addresses)
        words = np.atleast_1d(np.asarray(words, dtype=np.uint64)) & np.uint64(self.word_mask)
        if words.shape != addresses.shape:
            if words.size == 1:
                words = np.full(addresses.shape, words[0], dtype=np.uint64)
            else:
                raise ValueError("addresses and words must have matching lengths")
        self.write_planned(addresses, words)

    def write_planned(self, addresses: np.ndarray, words: np.ndarray) -> None:
        """:meth:`write` minus validation/broadcast (compiled write plans).

        ``addresses`` and ``words`` must be equal-length arrays with the
        words already masked to the word length — exactly what a compiled
        refresh plan stores.  Semantics are identical to :meth:`write`:
        content-identical writes refresh cells without bumping
        :attr:`content_epoch`.
        """
        if (self._words[addresses] != words).any():
            self._words[addresses] = words
            self.content_epoch += 1
        self.write_count += int(addresses.size)

    def read(
        self,
        addresses: int | np.ndarray,
        voltage: float = calibration.NOMINAL_VOLTAGE,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> np.ndarray:
        """Read words at the given addresses under a supply voltage.

        Cells whose effective V_min,read exceeds ``voltage`` are
        flipped to their preferred state *in storage* (destructive read) and
        the returned words reflect the corruption.  The corruption is applied
        word-at-a-time through the cached operating-point masks
        (:meth:`corruption_masks`); the result is bit-identical to the
        bit-domain reference path (per-cell V_min compare + flip).
        """
        addresses = self._check_addresses(addresses)
        if voltage <= 0:
            raise ValueError("voltage must be positive")
        return self.read_planned(addresses, voltage, temperature)

    def read_planned(
        self,
        addresses: np.ndarray,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> np.ndarray:
        """:meth:`read` minus per-call address validation (compiled plans).

        For the inference hot loop: callers pass integer index arrays built
        once by a compiled access plan (already bounded by the bank
        geometry), so re-validating them on every fetch is pure overhead.
        Out-of-range indices from a stale plan still raise ``IndexError``
        from NumPy itself.  Semantics are identical to :meth:`read`.
        """
        and_masks, or_masks, identity = self._point_entry(voltage, temperature)
        words = self._words[addresses]
        if not identity:
            corrupted = (words & and_masks[addresses]) | or_masks[addresses]
            if (corrupted != words).any():
                self._words[addresses] = corrupted
                self.content_epoch += 1
            words = corrupted
        self.read_count += int(addresses.size)
        return words

    def read_all(
        self,
        voltage: float = calibration.NOMINAL_VOLTAGE,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> np.ndarray:
        """Read every word in address order."""
        return self.read(np.arange(self.num_words), voltage, temperature)

    def write_all(self, words: np.ndarray) -> None:
        """Write the full bank contents in address order."""
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (self.num_words,):
            raise ValueError(f"expected {self.num_words} words, got {words.shape}")
        self.write(np.arange(self.num_words), words)

    # ---------------------------------------------------------- analysis

    def stored_words(self) -> np.ndarray:
        """Current storage contents without performing (destructive) reads."""
        return self._words.copy()

    def fault_map_at(
        self,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> FaultMap:
        """Ground-truth fault map at an operating point.

        A cell appears in the map when a read at ``voltage`` would disturb it,
        regardless of what it currently stores; the stuck value is its
        preferred state.  The profiler (:mod:`repro.sram.profiler`) recovers
        the same map through read-after-write/read-after-read measurements.
        """
        stuck = pack_bits(self.effective_vmin(temperature) > float(voltage))
        return FaultMap.from_words(stuck, self.preferred_words(), self.word_bits)

    def marginal_order(
        self,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
        count: int | None = None,
        limit: int | None = None,
    ) -> np.ndarray:
        """Safe cells in order of increasing margin, as ``(address, bit)`` rows.

        A safe cell still reads correctly at ``voltage``; its margin is how
        far the rail may drop before it fails.  Ties resolve by address, then
        bit, so the order never depends on the platform's sort internals.
        Only addresses below ``limit`` take part, and only the first
        ``count`` rows are returned (every safe cell when ``None``).

        Only what can be returned is sorted: ``np.partition`` finds the
        ``count``-th smallest margin, and the lexsort sees just the cells at
        or below it — ties at that margin included, so the rows equal the
        head of the full order.
        """
        if count is not None and count <= 0:
            raise ValueError("count must be positive")
        margin = self.effective_vmin(temperature) - float(voltage)
        if limit is not None:
            margin = margin[: max(int(limit), 0)]
        # row-major flat indices: their order is (address, bit) order
        cells = np.flatnonzero(margin <= 0.0)
        slack = -margin.ravel()[cells]  # positive margins, smaller = more marginal
        if count is not None and count < cells.size:
            keep = slack <= np.partition(slack, count - 1)[count - 1]
            cells, slack = cells[keep], slack[keep]
        selected = cells[np.lexsort((cells, slack))[:count]]
        return np.column_stack(np.divmod(selected, self.word_bits))

    def marginal_cells(
        self,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
        count: int = 8,
        limit: int | None = None,
    ) -> list[BitFault]:
        """The ``count`` cells closest to failure *above* the operating voltage.

        These are the candidates for in-situ canaries: they still read
        correctly at ``voltage`` but will be the first to fail if the voltage
        drops further.  Returned in :meth:`marginal_order` (increasing
        margin, then address, then bit; addresses below ``limit`` only),
        encoded as :class:`BitFault` records whose ``stuck_value`` is the
        preferred state the cell would flip to.
        """
        cells = self.marginal_order(voltage, temperature, count=count, limit=limit)
        states = self.cells.preferred_state[cells[:, 0], cells[:, 1]]
        return [
            BitFault(address, bit, state)
            for (address, bit), state in zip(cells.tolist(), states.tolist())
        ]

    def bit_error_count(self, reference_words: np.ndarray) -> int:
        """Number of stored bits that differ from ``reference_words``."""
        reference_words = np.asarray(reference_words, dtype=np.uint64)
        if reference_words.shape != (self.num_words,):
            raise ValueError(f"expected {self.num_words} words, got {reference_words.shape}")
        mask = np.uint64(self.word_mask)
        return popcount((reference_words & mask) ^ self._words)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SramBank({self.name!r}, {self.num_words}x{self.word_bits} bits, "
            f"{self.size_bytes:.0f} B)"
        )


class WeightMemorySystem:
    """The set of per-PE weight SRAM banks of an accelerator.

    SNNAC has eight processing elements, each with a dedicated
    voltage-scalable weight bank; all banks share one SRAM supply rail, so
    the memory system exposes bank-level access plus system-level operations
    (profiling every bank, total capacity, aggregate fault statistics).
    """

    def __init__(self, banks: list[SramBank]) -> None:
        if not banks:
            raise ValueError("at least one bank is required")
        word_bits = {bank.word_bits for bank in banks}
        if len(word_bits) != 1:
            raise ValueError("all banks must share the same word length")
        self.banks = list(banks)

    @classmethod
    def build(
        cls,
        num_banks: int,
        words_per_bank: int,
        word_bits: int,
        variation_model: BitcellVariationModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        name_prefix: str = "pe",
        scenario: VariationScenario | None = None,
    ) -> "WeightMemorySystem":
        """Construct ``num_banks`` banks with independent variation samples.

        Per-bank generators are derived with :meth:`numpy.random.SeedSequence.spawn`,
        which guarantees statistically independent streams (drawing integer
        seeds from a root generator does not, and ``integers(0, 2**63 - 1)``
        silently excluded one seed value).  ``scenario`` threads a
        :class:`VariationScenario` into every bank (correlated sampling +
        corner V_min shift); an explicit ``variation_model`` still wins.
        """
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if variation_model is None and scenario is not None:
            variation_model = scenario.variation_model()
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        banks = [
            SramBank(
                words_per_bank,
                word_bits,
                variation_model=variation_model,
                seed=np.random.default_rng(child),
                name=f"{name_prefix}{index}.weights",
                scenario=scenario,
            )
            for index, child in enumerate(root.spawn(num_banks))
        ]
        return cls(banks)

    def __len__(self) -> int:
        return len(self.banks)

    def __getitem__(self, index: int) -> SramBank:
        return self.banks[index]

    def __iter__(self):
        return iter(self.banks)

    @property
    def word_bits(self) -> int:
        return self.banks[0].word_bits

    @property
    def total_words(self) -> int:
        return sum(bank.num_words for bank in self.banks)

    @property
    def total_bits(self) -> int:
        return sum(bank.size_bits for bank in self.banks)

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8.0

    def fault_maps_at(
        self,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> list[FaultMap]:
        """Ground-truth fault maps for every bank at an operating point."""
        return [bank.fault_map_at(voltage, temperature) for bank in self.banks]

    def fault_rate_at(
        self,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> float:
        """Aggregate bit-level fault rate across all banks."""
        faults = sum(m.num_faults for m in self.fault_maps_at(voltage, temperature))
        return faults / float(self.total_bits)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"WeightMemorySystem({len(self.banks)} banks, "
            f"{self.total_bytes / 1024:.1f} KiB total)"
        )
