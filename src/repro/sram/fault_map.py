"""Fault maps: the profiled description of SRAM read-stability failures.

A fault map records, for one SRAM bank, every bit-cell that fails reads at a
given operating point: its word address, bit index, and *polarity* (the value
the cell is stuck at — its preferred state).  The map is the single artifact
shared between:

* the memory-adaptive trainer, which converts it to AND/OR injection masks
  (Fig. 4 of the paper),
* the SRAM array model, which uses it to corrupt reads, and
* canary selection, which needs to know which cells are marginal.

Representation
--------------
The map is word-native, like the profiler's measurement and Fig. 4's masks:
its whole state is two ``uint64`` words per address, the *stuck* bits and the
values those bits are stuck at (a value bit is set only under a stuck bit).
:func:`masks_from_words` derives the per-word AND/OR injection masks from the
two words, for fault maps and the SRAM array model alike.  The
``(num_words, word_bits)`` bit matrices (:attr:`FaultMap.stuck_mask`,
:attr:`FaultMap.stuck_values`), :class:`BitFault` records and the clustering
diagnostics are views unpacked on demand; nothing is cached.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .bitops import pack_bits, popcount, unpack_words

__all__ = ["BitFault", "FaultMap", "masks_from_words"]


def masks_from_words(
    stuck: np.ndarray, values: np.ndarray, word_mask: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-word ``(and_mask, or_mask)`` uint64 arrays from stuck and value words.

    ``stuck`` marks each word's failing cells and ``values`` the states they
    are stuck at; value bits outside ``stuck`` are ignored, and ``stuck`` must
    lie within ``word_mask``, the all-ones word of the word length.  Applying
    ``(word & and_mask) | or_mask`` reproduces exactly the corruption those
    cells inflict (bits stuck at 0 are cleared by the AND mask, bits stuck at
    1 are set by the OR mask).  This is the one derivation shared by
    :meth:`FaultMap.masks`, the SRAM array model's read path
    (:meth:`repro.sram.array.SramBank.corruption_masks`) and random mask sets
    (:meth:`repro.matic.masking.FaultMaskSet.random`), so they can never
    disagree on the mask semantics.  Words may have any shape.
    """
    return np.uint64(word_mask) ^ (stuck & ~values), stuck & values


@dataclass(frozen=True)
class BitFault:
    """A single stuck bit-cell.

    Attributes
    ----------
    address:
        Word address within the SRAM bank.
    bit:
        Bit index within the word; 0 is the least-significant bit.
    stuck_value:
        The value the cell reads as once disturbed (its preferred state).
    """

    address: int
    bit: int
    stuck_value: int

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.bit < 0:
            raise ValueError("bit index must be non-negative")
        if self.stuck_value not in (0, 1):
            raise ValueError("stuck_value must be 0 or 1")


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
        #: per-address stuck bits, and the values they are stuck at (a value
        #: bit is set only under a stuck bit)
        self._stuck = np.zeros(self.num_words, dtype=np.uint64)
        self._values = np.zeros(self.num_words, dtype=np.uint64)
        for fault in faults or []:
            self.add(fault)

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
        bit = np.uint64(1 << fault.bit)
        self._stuck[fault.address] |= bit
        if fault.stuck_value:
            self._values[fault.address] |= bit
        else:
            self._values[fault.address] &= ~bit

    # ------------------------------------------------------------ queries

    @property
    def stuck_mask(self) -> np.ndarray:
        """Dense ``(num_words, word_bits)`` boolean matrix of stuck cells."""
        return unpack_words(self._stuck, self.word_bits).astype(bool)

    @property
    def stuck_values(self) -> np.ndarray:
        """Dense stuck-value matrix (entries of non-stuck cells are 0)."""
        return unpack_words(self._values, self.word_bits)

    @property
    def faults(self) -> list[BitFault]:
        """All stuck bits, sorted by (address, bit)."""
        addresses, bits = np.nonzero(self.stuck_mask)  # row-major: (address, bit) order
        values = self.stuck_values[addresses, bits]
        return [
            BitFault(int(address), int(bit), int(value))
            for address, bit, value in zip(addresses, bits, values)
        ]

    @property
    def num_faults(self) -> int:
        return popcount(self._stuck)

    @property
    def fault_rate(self) -> float:
        """Fraction of bit-cells in the bank that are stuck."""
        return self.num_faults / float(self.num_words * self.word_bits)

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
        return bool((int(self._stuck[address]) >> bit) & 1)

    def __len__(self) -> int:
        return self.num_faults

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return (
            self.num_words == other.num_words
            and self.word_bits == other.word_bits
            and bool(np.array_equal(self._stuck, other._stuck))
            and bool(np.array_equal(self._values, other._values))
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FaultMap({self.num_faults} faults / "
            f"{self.num_words}x{self.word_bits} bits, "
            f"rate={self.fault_rate:.4f})"
        )

    # ------------------------------------------- clustering diagnostics

    def clustering_summary(self) -> dict:
        """Compact clustering diagnostics for reporting and sweep rows.

        Runs are contiguous stuck cells along a word (``row``) or down a bit
        column (``column``); under i.i.d. faults they are geometrically short,
        while shared-peripheral (correlated) failures produce long ones.  The
        autocorrelations are the Pearson correlation of adjacent cells' stuck
        indicators along each axis, 0.0 for degenerate maps (no faults, all
        faults, or a single line along the axis).
        """
        stuck = self.stuck_mask
        row_runs = _run_lengths(stuck, "row")
        column_runs = _run_lengths(stuck, "column")
        return {
            "fault_rate": self.fault_rate,
            "mean_row_run": float(row_runs.mean()) if row_runs.size else 0.0,
            "max_row_run": int(row_runs.max()) if row_runs.size else 0,
            "mean_column_run": float(column_runs.mean()) if column_runs.size else 0.0,
            "max_column_run": int(column_runs.max()) if column_runs.size else 0,
            "row_autocorrelation": _autocorrelation(stuck, "row"),
            "column_autocorrelation": _autocorrelation(stuck, "column"),
        }

    # -------------------------------------------------------------- masks

    def masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Return per-word ``(and_mask, or_mask)`` arrays (uint64).

        Applying a fault map to a stored word ``w`` is
        ``(w & and_mask) | or_mask``:

        * bits stuck at 0 are cleared by a 0 in the AND mask, and
        * bits stuck at 1 are set by a 1 in the OR mask,

        exactly the injection-masking operation of Fig. 4.  Each call derives
        fresh arrays the caller may freely modify.
        """
        return masks_from_words(self._stuck, self._values, (1 << self.word_bits) - 1)

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
        and_masks, or_masks = self.masks()
        return (words & and_masks) | or_masks

    # ------------------------------------------------------- constructors

    @classmethod
    def from_words(
        cls, stuck: np.ndarray, values: np.ndarray, word_bits: int
    ) -> "FaultMap":
        """Build a fault map from per-address stuck and stuck-value words.

        Bit ``b`` of ``stuck[a]`` marks cell ``(a, b)`` stuck, and the same
        bit of ``values[a]`` holds its stuck value.  Bits at or above
        ``word_bits``, and value bits of cells that are not stuck, are
        ignored.
        """
        stuck = np.asarray(stuck, dtype=np.uint64)
        fault_map = cls(stuck.size, word_bits)
        fault_map._stuck = stuck & np.uint64((1 << fault_map.word_bits) - 1)
        fault_map._values = np.asarray(values, dtype=np.uint64) & fault_map._stuck
        return fault_map

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
        invalid = stuck_mask & (stuck_values != 0) & (stuck_values != 1)
        if np.any(invalid):
            raise ValueError("stuck_value must be 0 or 1")
        return cls.from_words(
            pack_bits(stuck_mask), pack_bits(stuck_values != 0), stuck_mask.shape[1]
        )

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


def _run_lengths(stuck: np.ndarray, axis: str) -> np.ndarray:
    """Lengths of the stuck-cell runs along each ``row`` or ``column``."""
    grid = stuck if axis == "row" else stuck.T
    # pad each line with False so runs never join across line boundaries,
    # then diff the flattened sequence: +1 marks run starts, -1 run ends
    padded = np.zeros((grid.shape[0], grid.shape[1] + 1), dtype=np.int8)
    padded[:, :-1] = grid
    flat = np.concatenate([[0], padded.ravel()])
    edges = np.diff(flat)
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    return ends - starts


def _autocorrelation(stuck: np.ndarray, axis: str) -> float:
    """Correlation of adjacent cells' stuck indicators along ``row`` or ``column``."""
    if axis == "row":
        a = stuck[:, :-1].ravel()
        b = stuck[:, 1:].ravel()
    else:
        a = stuck[:-1, :].ravel()
        b = stuck[1:, :].ravel()
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
