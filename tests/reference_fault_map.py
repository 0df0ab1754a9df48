"""Reference fault map: the bit-matrix ``FaultMap`` the word domain replaced.

A verbatim copy of :class:`repro.sram.fault_map.FaultMap` and
``masks_from_arrays`` as they were while a map's state was two dense
``(num_words, word_bits)`` matrices, the stuck cells and their stuck values,
with the per-word AND/OR masks packed from them and cached until the next
mutation.  The differential tests in ``tests/test_fault_map.py`` drive it and
the word-domain map through the same edits and compare every query.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.sram.bitops import pack_bits
from repro.sram.fault_map import BitFault


def masks_from_arrays(
    stuck: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Word-level ``(and_mask, or_mask)`` uint64 arrays from dense bit matrices.

    ``stuck`` is a boolean ``(num_words, word_bits)`` matrix of failing cells
    and ``values`` holds each cell's stuck state; entries of non-stuck cells
    are ignored.  Applying ``(word & and_mask) | or_mask`` reproduces exactly
    the corruption those cells inflict (bits stuck at 0 are cleared by the
    AND mask, bits stuck at 1 are set by the OR mask).  This is the single
    derivation shared by :meth:`FaultMap.masks` and the SRAM array model's
    operating-point-resident read path
    (:meth:`repro.sram.array.SramBank.corruption_masks`), so the two can
    never disagree on the mask semantics.
    """
    stuck = np.asarray(stuck, dtype=bool)
    values = np.asarray(values)
    if stuck.ndim != 2 or stuck.shape != values.shape:
        raise ValueError("stuck and values must be equal 2-D shapes")
    num_words, word_bits = stuck.shape
    if word_bits > 64:
        raise ValueError("word_bits must be at most 64")
    full = np.uint64((1 << word_bits) - 1)
    clear_bits = pack_bits(stuck & (values == 0))
    set_bits = pack_bits(stuck & (values != 0))
    and_masks = np.full(num_words, full, dtype=np.uint64) ^ clear_bits
    return and_masks, set_bits



class FaultMap:
    """The set of stuck bit-cells of one SRAM bank at one operating point.

    Parameters
    ----------
    num_words:
        Number of words in the bank.
    word_bits:
        Word length in bits.
    faults:
        Iterable of :class:`BitFault`; later entries for the same (address,
        bit) override earlier ones.
    """

    def __init__(
        self,
        num_words: int,
        word_bits: int,
        faults: list[BitFault] | None = None,
    ) -> None:
        if num_words <= 0 or word_bits <= 0:
            raise ValueError("num_words and word_bits must be positive")
        if word_bits > 64:
            raise ValueError("word_bits must be at most 64")
        self.num_words = int(num_words)
        self.word_bits = int(word_bits)
        self._stuck = np.zeros((self.num_words, self.word_bits), dtype=bool)
        self._values = np.zeros((self.num_words, self.word_bits), dtype=np.uint8)
        self._invalidate()
        for fault in faults or []:
            self.add(fault)

    def _invalidate(self) -> None:
        """Drop every lazily materialized view after a mutation."""
        self._masks_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._num_faults_cache: int | None = None
        self._faulty_addresses_cache: np.ndarray | None = None

    # --------------------------------------------------------------- edit

    def add(self, fault: BitFault) -> None:
        """Add (or overwrite) a stuck bit."""
        if fault.address >= self.num_words:
            raise ValueError(
                f"address {fault.address} out of range (num_words={self.num_words})"
            )
        if fault.bit >= self.word_bits:
            raise ValueError(
                f"bit {fault.bit} out of range (word_bits={self.word_bits})"
            )
        self._stuck[fault.address, fault.bit] = True
        self._values[fault.address, fault.bit] = fault.stuck_value
        self._invalidate()

    def merge(self, other: "FaultMap") -> "FaultMap":
        """Union of two fault maps over the same geometry (other wins ties)."""
        if (other.num_words, other.word_bits) != (self.num_words, self.word_bits):
            raise ValueError("fault maps cover different SRAM geometries")
        merged = FaultMap(self.num_words, self.word_bits)
        merged._stuck = self._stuck | other._stuck
        merged._values = np.where(other._stuck, other._values, self._values)
        return merged

    # ------------------------------------------------------------ queries

    @property
    def stuck_mask(self) -> np.ndarray:
        """Dense ``(num_words, word_bits)`` boolean matrix of stuck cells."""
        return self._stuck.copy()

    @property
    def stuck_values(self) -> np.ndarray:
        """Dense stuck-value matrix (entries of non-stuck cells are 0)."""
        return np.where(self._stuck, self._values, 0).astype(np.uint8)

    @property
    def faults(self) -> list[BitFault]:
        """All stuck bits, sorted by (address, bit)."""
        addresses, bits = np.nonzero(self._stuck)  # row-major: (address, bit) order
        values = self._values[addresses, bits]
        return [
            BitFault(int(address), int(bit), int(value))
            for address, bit, value in zip(addresses, bits, values)
        ]

    @property
    def num_faults(self) -> int:
        if self._num_faults_cache is None:
            self._num_faults_cache = int(np.count_nonzero(self._stuck))
        return self._num_faults_cache

    @property
    def fault_rate(self) -> float:
        """Fraction of bit-cells in the bank that are stuck."""
        return self.num_faults / float(self.num_words * self.word_bits)

    @property
    def faulty_addresses(self) -> np.ndarray:
        """Sorted unique word addresses containing at least one stuck bit."""
        if self._faulty_addresses_cache is None:
            self._faulty_addresses_cache = np.flatnonzero(self._stuck.any(axis=1))
        return self._faulty_addresses_cache.copy()

    def faults_at(self, address: int) -> list[BitFault]:
        """Stuck bits within one word (O(word_bits), not O(num_faults))."""
        if not 0 <= address < self.num_words:
            return []
        bits = np.flatnonzero(self._stuck[address])
        return [
            BitFault(int(address), int(bit), int(self._values[address, bit]))
            for bit in bits
        ]

    def __contains__(self, key: tuple[int, int]) -> bool:
        try:
            address, bit = key
            address = operator.index(address)  # ints only: 0.7 must not round to 0
            bit = operator.index(bit)
        except (TypeError, ValueError):
            # malformed keys test False; intentionally stricter than the old
            # dict core for floats ((0.0, 0) matched (0, 0) by hash-equality
            # there) — a non-index key never answers True here
            return False
        if not (0 <= address < self.num_words and 0 <= bit < self.word_bits):
            return False
        return bool(self._stuck[address, bit])

    def __len__(self) -> int:
        return self.num_faults

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return (
            self.num_words == other.num_words
            and self.word_bits == other.word_bits
            and bool(np.array_equal(self._stuck, other._stuck))
            and bool(np.all(self._values[self._stuck] == other._values[other._stuck]))
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FaultMap({self.num_faults} faults / "
            f"{self.num_words}x{self.word_bits} bits, "
            f"rate={self.fault_rate:.4f})"
        )

    # ------------------------------------------- clustering diagnostics

    def fault_run_lengths(self, axis: str = "row") -> np.ndarray:
        """Lengths of contiguous stuck-cell runs along words or bit columns.

        ``axis="row"`` scans each word left to right (runs of adjacent stuck
        bits within a word); ``axis="column"`` scans each bit position down
        the address space.  Under i.i.d. faults runs are geometrically short;
        shared-peripheral (correlated) failures produce long runs, which is
        what the scenario sweeps and tests use as a clustering signal.
        """
        if axis == "row":
            grid = self._stuck
        elif axis == "column":
            grid = self._stuck.T
        else:
            raise ValueError("axis must be 'row' or 'column'")
        # pad each line with False so runs never join across line boundaries,
        # then diff the flattened sequence: +1 marks run starts, -1 run ends
        padded = np.zeros((grid.shape[0], grid.shape[1] + 1), dtype=np.int8)
        padded[:, :-1] = grid
        flat = np.concatenate([[0], padded.ravel()])
        edges = np.diff(flat)
        starts = np.flatnonzero(edges == 1)
        ends = np.flatnonzero(edges == -1)
        return ends - starts

    def spatial_autocorrelation(self, axis: str = "row") -> float:
        """Pearson correlation of adjacent-cell stuck indicators.

        ``axis="row"`` correlates horizontally adjacent cells (within a
        word), ``axis="column"`` vertically adjacent ones (same bit, next
        address).  Returns 0.0 for degenerate maps (no faults, all faults,
        or a single-line geometry along the chosen axis).
        """
        if axis == "row":
            a = self._stuck[:, :-1].ravel()
            b = self._stuck[:, 1:].ravel()
        elif axis == "column":
            a = self._stuck[:-1, :].ravel()
            b = self._stuck[1:, :].ravel()
        else:
            raise ValueError("axis must be 'row' or 'column'")
        if a.size == 0:
            return 0.0
        a = a.astype(float)
        b = b.astype(float)
        var_a = a.var()
        var_b = b.var()
        if var_a == 0.0 or var_b == 0.0:
            return 0.0
        covariance = ((a - a.mean()) * (b - b.mean())).mean()
        return float(covariance / np.sqrt(var_a * var_b))

    def clustering_summary(self) -> dict:
        """Compact clustering diagnostics for reporting and sweep rows."""
        row_runs = self.fault_run_lengths("row")
        column_runs = self.fault_run_lengths("column")
        return {
            "fault_rate": self.fault_rate,
            "mean_row_run": float(row_runs.mean()) if row_runs.size else 0.0,
            "max_row_run": int(row_runs.max()) if row_runs.size else 0,
            "mean_column_run": float(column_runs.mean()) if column_runs.size else 0.0,
            "max_column_run": int(column_runs.max()) if column_runs.size else 0,
            "row_autocorrelation": self.spatial_autocorrelation("row"),
            "column_autocorrelation": self.spatial_autocorrelation("column"),
        }

    # -------------------------------------------------------------- masks

    def _mask_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The cached, read-only (and_mask, or_mask) pair."""
        if self._masks_cache is None:
            and_masks, or_masks = masks_from_arrays(self._stuck, self._values)
            and_masks.flags.writeable = False
            or_masks.flags.writeable = False
            self._masks_cache = (and_masks, or_masks)
        return self._masks_cache

    def mask_views(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the cached masks — :meth:`masks` without the copy."""
        return self._mask_arrays()

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Return per-word ``(and_mask, or_mask)`` arrays (uint64).

        Applying a fault map to a stored word ``w`` is
        ``(w & and_mask) | or_mask``:

        * bits stuck at 0 are cleared by a 0 in the AND mask, and
        * bits stuck at 1 are set by a 1 in the OR mask,

        exactly the injection-masking operation of Fig. 4.  The arrays are
        materialized once per mutation and cached; each call hands back
        fresh copies the caller may freely modify.
        """
        and_masks, or_masks = self._mask_arrays()
        return and_masks.copy(), or_masks.copy()

    def apply(self, words: np.ndarray) -> np.ndarray:
        """Corrupt an array of stored words according to the fault map.

        ``words`` must have length ``num_words`` (element ``i`` is the word
        at address ``i``); a corrupted copy is returned.
        """
        words = np.asarray(words, dtype=np.uint64)
        if words.shape != (self.num_words,):
            raise ValueError(
                f"expected {self.num_words} words, got shape {words.shape}"
            )
        and_masks, or_masks = self._mask_arrays()
        return (words & and_masks) | or_masks

    # ------------------------------------------------------- constructors

    @classmethod
    def from_arrays(
        cls,
        stuck_mask: np.ndarray,
        stuck_values: np.ndarray,
    ) -> "FaultMap":
        """Build a fault map from boolean/value bit matrices.

        ``stuck_mask`` is a boolean array of shape ``(num_words, word_bits)``
        marking stuck cells; ``stuck_values`` holds the stuck value for every
        cell (values of non-stuck cells are ignored).
        """
        stuck_mask = np.asarray(stuck_mask, dtype=bool)
        stuck_values = np.asarray(stuck_values)
        if stuck_mask.ndim != 2 or stuck_mask.shape != stuck_values.shape:
            raise ValueError("stuck_mask and stuck_values must be equal 2-D shapes")
        num_words, word_bits = stuck_mask.shape
        invalid = stuck_mask & (stuck_values != 0) & (stuck_values != 1)
        if np.any(invalid):
            raise ValueError("stuck_value must be 0 or 1")
        fault_map = cls(num_words, word_bits)
        fault_map._stuck = stuck_mask.copy()
        fault_map._values = np.where(stuck_mask, stuck_values, 0).astype(np.uint8)
        return fault_map

    @classmethod
    def random(
        cls,
        num_words: int,
        word_bits: int,
        fault_rate: float,
        rng: np.random.Generator | int | None = None,
        stuck_one_probability: float = 0.5,
    ) -> "FaultMap":
        """Generate a random fault map with the given bit-level fault rate.

        This is the model used for the paper's simulated-fault study (Fig. 5)
        where "a proportion of randomly selected weight bits are statically
        flipped", with the stuck polarity drawn uniformly by default.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if not 0.0 <= stuck_one_probability <= 1.0:
            raise ValueError("stuck_one_probability must be in [0, 1]")
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        stuck = rng.random((num_words, word_bits)) < fault_rate
        values = (rng.random((num_words, word_bits)) < stuck_one_probability).astype(int)
        return cls.from_arrays(stuck, values)
