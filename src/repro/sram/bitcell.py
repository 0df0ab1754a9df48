"""6T SRAM bit-cell variation models.

Each 6T bit-cell has a mismatch-induced static offset that gives it a
"preferred state"; when the supply voltage drops below the cell's
V_min,read, a read flips the cell to that preferred state and the
(now incorrect) value persists across subsequent reads.  MATIC exploits
exactly this behaviour: the failures are random in space but *stable* in
value, so they can be profiled once and trained around.

Two interchangeable models are provided:

:class:`GaussianVminModel`
    V_min,read is Gaussian across cells — the standard outcome of a
    SPICE Monte-Carlo with Gaussian threshold-voltage mismatch, and the model used
    by the paper's simulated-fault study (Fig. 5).

:class:`EmpiricalVminModel`
    V_min,read is drawn by inverse-transform sampling from a
    measured/bench-marked failure-rate-vs-voltage curve (the Fig. 9a anchor
    points by default), so the population statistics reproduce the measured
    curve by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calibration

__all__ = [
    "BitcellVariationModel",
    "GaussianVminModel",
    "EmpiricalVminModel",
    "CorrelatedVminModel",
    "BitcellPopulation",
]


@dataclass
class BitcellPopulation:
    """Sampled per-cell parameters for an array of bit-cells.

    Attributes
    ----------
    vmin_read:
        Per-cell read-stability failure voltage at the reference temperature,
        shape ``(num_words, word_bits)``.
    preferred_state:
        Per-cell preferred storage state (0 or 1), the value the cell flips
        to when disturbed, same shape.
    """

    vmin_read: np.ndarray
    preferred_state: np.ndarray

    def __post_init__(self) -> None:
        self.vmin_read = np.asarray(self.vmin_read, dtype=float)
        self.preferred_state = np.asarray(self.preferred_state, dtype=np.uint8)
        if self.vmin_read.shape != self.preferred_state.shape:
            raise ValueError("vmin_read and preferred_state shapes must match")
        if np.any((self.preferred_state != 0) & (self.preferred_state != 1)):
            raise ValueError("preferred_state must contain only 0/1")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.vmin_read.shape


class BitcellVariationModel:
    """Base class for bit-cell V_min,read variation models."""

    def sample(
        self, num_words: int, word_bits: int, rng: np.random.Generator
    ) -> BitcellPopulation:
        """Sample per-cell parameters for an array of the given geometry."""
        raise NotImplementedError

    def failure_probability(self, voltage: float | np.ndarray) -> np.ndarray:
        """Probability that a random cell fails a read at ``voltage`` (25 °C)."""
        raise NotImplementedError

    def vmin_from_normal_scores(self, scores: np.ndarray) -> np.ndarray:
        """Map standard-normal scores to V_min,read with this model's marginal.

        This is the Gaussian-copula hook used by :class:`CorrelatedVminModel`:
        the copula builds a correlated standard-normal field and each model
        maps it through its own marginal distribution, so correlation
        redistributes variance across shared components without changing any
        cell's marginal law.
        """
        raise NotImplementedError

    def spec_key(self) -> dict:
        """Content key describing the model's parameters, for cache digests."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    @staticmethod
    def effective_vmin(
        vmin_read: np.ndarray,
        temperature: float,
        temperature_coefficient: float = calibration.TEMPERATURE_COEFFICIENT,
        reference_temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> np.ndarray:
        """Shift V_min,read for ambient temperature.

        Below the temperature-inversion point of the 65 nm process, higher
        temperature improves transistor drive and *lowers* the failure
        voltage; the coefficient is negative so the shift follows the inverse
        voltage/temperature relationship seen in Fig. 12.
        """
        delta = temperature_coefficient * (float(temperature) - reference_temperature)
        return np.asarray(vmin_read, dtype=float) + delta


class GaussianVminModel(BitcellVariationModel):
    """Gaussian V_min,read across the cell population.

    Parameters default to the calibration in :mod:`repro.sram.calibration`,
    which reproduces the qualitative shape of the paper's measured failure
    curve (first failures ≈0.53 V, ~half the cells failed at 0.46 V, nearly
    all failed at 0.40 V).
    """

    def __init__(
        self,
        mean: float = calibration.VMIN_READ_MEAN,
        sigma: float = calibration.VMIN_READ_SIGMA,
        preferred_one_probability: float = 0.5,
    ) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0.0 <= preferred_one_probability <= 1.0:
            raise ValueError("preferred_one_probability must be in [0, 1]")
        self.mean = float(mean)
        self.sigma = float(sigma)
        self.preferred_one_probability = float(preferred_one_probability)

    def sample(
        self, num_words: int, word_bits: int, rng: np.random.Generator
    ) -> BitcellPopulation:
        if num_words <= 0 or word_bits <= 0:
            raise ValueError("array geometry must be positive")
        vmin = rng.normal(self.mean, self.sigma, size=(num_words, word_bits))
        preferred = (
            rng.random(size=(num_words, word_bits)) < self.preferred_one_probability
        ).astype(np.uint8)
        return BitcellPopulation(vmin_read=vmin, preferred_state=preferred)

    def failure_probability(self, voltage: float | np.ndarray) -> np.ndarray:
        voltage = np.asarray(voltage, dtype=float)
        z = (self.mean - voltage) / (self.sigma * np.sqrt(2.0))
        return 0.5 * (1.0 + _erf(z))

    def vmin_from_normal_scores(self, scores: np.ndarray) -> np.ndarray:
        return self.mean + self.sigma * np.asarray(scores, dtype=float)

    def spec_key(self) -> dict:
        return {
            "model": "gaussian",
            "mean": self.mean,
            "sigma": self.sigma,
            "preferred_one_probability": self.preferred_one_probability,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"GaussianVminModel(mean={self.mean}, sigma={self.sigma})"


class EmpiricalVminModel(BitcellVariationModel):
    """V_min,read sampled to match an empirical failure-rate curve.

    ``anchors`` is a sequence of ``(voltage, failure_rate)`` pairs; the
    failure rate must decrease with voltage.  Cells are sampled by
    inverse-transform sampling of that curve (log-linear interpolation in the
    rate axis), so the population's failure-rate-vs-voltage statistics match
    the anchors by construction.
    """

    def __init__(
        self,
        anchors: tuple[tuple[float, float], ...] = calibration.FIG9A_ANCHORS,
        preferred_one_probability: float = 0.5,
    ) -> None:
        pairs = sorted((float(v), float(r)) for v, r in anchors)
        if len(pairs) < 2:
            raise ValueError("at least two anchor points are required")
        voltages = np.array([p[0] for p in pairs])
        rates = np.array([p[1] for p in pairs])
        if np.any(rates <= 0.0) or np.any(rates > 1.0):
            raise ValueError("failure rates must be in (0, 1]")
        if np.any(np.diff(rates) >= 0):
            raise ValueError("failure rate must strictly decrease with voltage")
        self.voltages = voltages
        self.rates = rates
        self.preferred_one_probability = float(preferred_one_probability)

    def failure_probability(self, voltage: float | np.ndarray) -> np.ndarray:
        voltage = np.asarray(voltage, dtype=float)
        log_rates = np.log10(self.rates)
        interp = np.interp(voltage, self.voltages, log_rates)
        result = 10.0**interp
        # outside the anchored range, clamp to the extreme anchor rates
        result = np.where(voltage <= self.voltages[0], self.rates[0], result)
        result = np.where(voltage >= self.voltages[-1], self.rates[-1], result)
        return result

    def sample(
        self, num_words: int, word_bits: int, rng: np.random.Generator
    ) -> BitcellPopulation:
        if num_words <= 0 or word_bits <= 0:
            raise ValueError("array geometry must be positive")
        # Inverse-transform sampling: failure_probability(V) is the CDF of
        # Vmin evaluated "from above" (a cell fails at V when Vmin > V), i.e.
        # P(Vmin > V) = rate(V).  So Vmin = rate^{-1}(u) for u ~ U(0, 1].
        u = rng.random(size=(num_words, word_bits))
        u = np.clip(u, self.rates[-1], self.rates[0])
        # interpolate voltage as a function of log-rate (monotone decreasing)
        log_rates = np.log10(self.rates)
        vmin = np.interp(np.log10(u), log_rates[::-1], self.voltages[::-1])
        preferred = (
            rng.random(size=(num_words, word_bits)) < self.preferred_one_probability
        ).astype(np.uint8)
        return BitcellPopulation(vmin_read=vmin, preferred_state=preferred)

    def vmin_from_normal_scores(self, scores: np.ndarray) -> np.ndarray:
        # A cell fails at V when Vmin > V, so the survival transform
        # u = P(Z > z) = Φ(−z) maps a standard-normal score to the uniform
        # that the i.i.d. sampler would have drawn, then the same clipped
        # log-rate inverse transform recovers Vmin with identical marginals.
        scores = np.asarray(scores, dtype=float)
        u = 0.5 * (1.0 + _erf(-scores / np.sqrt(2.0)))
        u = np.clip(u, self.rates[-1], self.rates[0])
        log_rates = np.log10(self.rates)
        return np.interp(np.log10(u), log_rates[::-1], self.voltages[::-1])

    def spec_key(self) -> dict:
        return {
            "model": "empirical",
            "anchors": tuple(
                (float(v), float(r)) for v, r in zip(self.voltages, self.rates)
            ),
            "preferred_one_probability": self.preferred_one_probability,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"EmpiricalVminModel({len(self.voltages)} anchors)"


class CorrelatedVminModel(BitcellVariationModel):
    """Spatially correlated V_min,read via a Gaussian-copula decomposition.

    Real banks share peripherals — wordline drivers per row, sense amps and
    write drivers per column group, and die-level gradients — so cell
    failures cluster.  This model decomposes each cell's standard-normal
    score into shared components plus an i.i.d. residual:

        z = √row·Z_row + √column_group·Z_group + √region·Z_region
            + √(1 − row − column_group − region)·Z_cell

    Each component is standard normal and independent, so ``z`` is exactly
    standard normal and the marginal V_min distribution (mapped through
    ``base.vmin_from_normal_scores``) matches the i.i.d. ``base`` model for
    any strengths — correlation redistributes variance, it never inflates it.

    With all strengths zero, :meth:`sample` delegates verbatim to
    ``base.sample`` so the output is bit-identical to the legacy models.
    Components draw from independent child generators obtained via
    ``rng.spawn``, so samples are reproducible and geometry-stable per
    component.
    """

    def __init__(
        self,
        base: BitcellVariationModel | None = None,
        row: float = 0.0,
        column_group: float = 0.0,
        region: float = 0.0,
        column_group_size: int = 4,
        num_regions: int = 4,
    ) -> None:
        self.base = base if base is not None else EmpiricalVminModel()
        for name, value in (
            ("row", row), ("column_group", column_group), ("region", region)
        ):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} strength must be in [0, 1)")
        if row + column_group + region >= 1.0:
            raise ValueError("correlation strengths must sum to less than 1")
        if column_group_size <= 0:
            raise ValueError("column_group_size must be positive")
        if num_regions <= 0:
            raise ValueError("num_regions must be positive")
        self.row = float(row)
        self.column_group = float(column_group)
        self.region = float(region)
        self.column_group_size = int(column_group_size)
        self.num_regions = int(num_regions)

    @property
    def is_iid(self) -> bool:
        return self.row == 0.0 and self.column_group == 0.0 and self.region == 0.0

    def sample(
        self, num_words: int, word_bits: int, rng: np.random.Generator
    ) -> BitcellPopulation:
        if num_words <= 0 or word_bits <= 0:
            raise ValueError("array geometry must be positive")
        if self.is_iid:
            # bit-identical to the legacy i.i.d. path: same generator, same
            # draw order, no spawned children
            return self.base.sample(num_words, word_bits, rng)
        row_rng, group_rng, region_rng, cell_rng, preferred_rng = rng.spawn(5)
        num_groups = -(-word_bits // self.column_group_size)
        regions = min(self.num_regions, num_words)
        residual = 1.0 - self.row - self.column_group - self.region
        scores = np.sqrt(residual) * cell_rng.standard_normal(
            size=(num_words, word_bits)
        )
        if self.row > 0.0:
            scores += np.sqrt(self.row) * row_rng.standard_normal(
                size=(num_words, 1)
            )
        if self.column_group > 0.0:
            group_scores = group_rng.standard_normal(size=num_groups)
            group_of_bit = np.arange(word_bits) // self.column_group_size
            scores += np.sqrt(self.column_group) * group_scores[group_of_bit]
        if self.region > 0.0:
            region_scores = region_rng.standard_normal(size=regions)
            # contiguous word-address blocks
            region_of_word = np.minimum(
                np.arange(num_words) * regions // num_words, regions - 1
            )
            scores += np.sqrt(self.region) * region_scores[region_of_word][:, None]
        vmin = self.base.vmin_from_normal_scores(scores)
        preferred_p = getattr(self.base, "preferred_one_probability", 0.5)
        preferred = (
            preferred_rng.random(size=(num_words, word_bits)) < preferred_p
        ).astype(np.uint8)
        return BitcellPopulation(vmin_read=vmin, preferred_state=preferred)

    def failure_probability(self, voltage: float | np.ndarray) -> np.ndarray:
        # the copula preserves marginals exactly, so the population failure
        # rate at any voltage is the base model's
        return self.base.failure_probability(voltage)

    def spec_key(self) -> dict:
        return {
            "model": "correlated",
            "base": self.base.spec_key(),
            "row": self.row,
            "column_group": self.column_group,
            "region": self.region,
            "column_group_size": self.column_group_size,
            "num_regions": self.num_regions,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CorrelatedVminModel(row={self.row}, column_group={self.column_group}, "
            f"region={self.region}, base={self.base!r})"
        )


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorized error function (Abramowitz & Stegun 7.1.26 approximation).

    Avoids a scipy dependency in the core library; max absolute error is
    below 1.5e-7, far tighter than the calibration accuracy of the model.
    """
    x = np.asarray(x, dtype=float)
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-ax * ax))
