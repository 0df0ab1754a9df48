"""Benchmark catalog: the paper's Table I applications plus procedural specs.

Each :class:`BenchmarkSpec` bundles everything an experiment needs to train
and evaluate one workload: the dataset generator, the DNN topology, the loss,
the activation configuration, the error metric, and the train/test split
ratio.  The catalog has two sources:

* the four **paper benchmarks** of Table I (``mnist``, ``facedet``,
  ``inversek2j``, ``bscholes``), registered eagerly in :data:`BENCHMARKS`;
* **procedural specs** (:class:`ProceduralSpec`), resolved on demand from a
  parametric name grammar under the ``synth/`` prefix — e.g.
  ``synth/mlp-d8-w256`` is an MLP with 8 hidden layers of width 256.  Their
  datasets come from the seeded generators in
  :mod:`repro.datasets.procedural`.

Procedural name grammar
-----------------------
``synth/<family>-<token>...`` where each token is a letter followed by a
positive integer.  Families and tokens (defaults in parentheses):

=========  =====================================  =============================
family     tokens                                 topology
=========  =====================================  =============================
``mlp``    ``d`` depth*, ``w`` width*,            ``i-(w × d)-o`` deep stack
           ``i`` inputs (32), ``o`` outputs (8)
``wide``   ``f`` fan-in*, ``h`` hidden (16),      ``f-h-o`` wide fan-in
           ``o`` outputs (4)
``ae``     ``i`` width*, ``b`` bottleneck*        ``i-b-i`` autoencoder
=========  =====================================  =============================

(* = required.)  Every spec exposes :meth:`BenchmarkSpec.spec_key`, a full
content parameterization that :func:`repro.experiments.common.prepare_benchmark`
folds into its artifact-cache keys, so procedural workloads memoize exactly
like the paper ones.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..nn.data import Dataset, train_test_split
from ..nn.metrics import classification_error, mean_squared_error
from ..nn.network import Network, parse_topology
from .blackscholes import generate_blackscholes
from .digits import generate_digits
from .faces import generate_faces
from .inversek2j import generate_inversek2j
from .procedural import generate_lowrank, generate_teacher

__all__ = [
    "BenchmarkSpec",
    "ProceduralSpec",
    "BENCHMARKS",
    "PROCEDURAL_PREFIX",
    "PROCEDURAL_FAMILIES",
    "get_benchmark",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Description of one application benchmark."""

    name: str
    description: str
    topology: str
    loss: str
    hidden_activation: str
    output_activation: str
    error_metric: str  # "classification" or "mse"
    generator: Callable[..., Dataset]
    train_test_ratio: int
    default_samples: int
    #: nominal-voltage error reported by the paper (NaN for workloads the
    #: paper does not evaluate, i.e. everything procedural)
    paper_nominal_error: float

    def generate(self, num_samples: int | None = None, seed: int | None = 0) -> Dataset:
        """Generate the benchmark dataset."""
        return self.generator(
            num_samples=num_samples or self.default_samples, seed=seed
        )

    def split(
        self, dataset: Dataset, seed: int | None = 0
    ) -> tuple[Dataset, Dataset]:
        """Train/test split using the paper's ratio for this benchmark."""
        return train_test_split(dataset, ratio=self.train_test_ratio, rng=seed)

    def build_network(self, seed: int | None = 0) -> Network:
        """Construct the benchmark's model topology."""
        return Network(
            self.topology,
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
            loss=self.loss,
            seed=seed,
        )

    def error(self, predictions: np.ndarray, test: Dataset) -> float:
        """Application error with the benchmark's metric."""
        if self.error_metric == "classification":
            if test.labels is None:
                raise ValueError("classification benchmarks need integer labels")
            return classification_error(predictions, test.labels)
        return mean_squared_error(predictions, test.targets)

    def spec_key(self) -> dict[str, Any]:
        """Full content parameterization of this spec (for artifact caching).

        Everything that changes the generated data or the model built from
        the spec must appear here: two specs with equal keys must be
        interchangeable, and any parameter change must change the key.
        """
        return {
            "name": self.name,
            "topology": self.topology,
            "loss": self.loss,
            "hidden_activation": self.hidden_activation,
            "output_activation": self.output_activation,
            "error_metric": self.error_metric,
            "generator": f"{self.generator.__module__}.{self.generator.__qualname__}",
            "train_test_ratio": int(self.train_test_ratio),
            "default_samples": int(self.default_samples),
        }


@dataclass(frozen=True)
class ProceduralSpec(BenchmarkSpec):
    """A parametric workload resolved from the ``synth/`` name grammar.

    ``generator_params`` is the sorted tuple of keyword arguments forwarded
    to the generator on top of ``num_samples``/``seed`` — it participates in
    :meth:`spec_key`, so two specs differing only in a generator parameter
    never share cached artifacts.
    """

    family: str = ""
    generator_params: tuple[tuple[str, Any], ...] = ()

    def generate(self, num_samples: int | None = None, seed: int | None = 0) -> Dataset:
        return self.generator(
            num_samples=num_samples or self.default_samples,
            seed=seed,
            name=self.name,
            **dict(self.generator_params),
        )

    def spec_key(self) -> dict[str, Any]:
        key = super().spec_key()
        key["family"] = self.family
        key["generator_params"] = self.generator_params
        return key


BENCHMARKS: dict[str, BenchmarkSpec] = {
    "mnist": BenchmarkSpec(
        name="mnist",
        description="Digit recognition (procedural MNIST substitute)",
        topology="100-32-10",
        # FANN-style classifier: independent sigmoid outputs (one per class),
        # argmax readout — keeps every datapath value inside the fixed-point
        # range of the accelerator, unlike a softmax-logit head.
        loss="binary_cross_entropy",
        hidden_activation="sigmoid",
        output_activation="sigmoid",
        error_metric="classification",
        generator=generate_digits,
        train_test_ratio=7,
        default_samples=2000,
        paper_nominal_error=0.094,
    ),
    "facedet": BenchmarkSpec(
        name="facedet",
        description="Face detection (procedural CBCL substitute)",
        topology="400-8-1",
        loss="binary_cross_entropy",
        hidden_activation="sigmoid",
        output_activation="sigmoid",
        error_metric="classification",
        generator=generate_faces,
        train_test_ratio=7,
        default_samples=1600,
        paper_nominal_error=0.125,
    ),
    "inversek2j": BenchmarkSpec(
        name="inversek2j",
        description="2-joint inverse kinematics (AxBench)",
        topology="2-16-2",
        loss="mse",
        hidden_activation="sigmoid",
        output_activation="sigmoid",
        error_metric="mse",
        generator=generate_inversek2j,
        train_test_ratio=10,
        default_samples=2000,
        paper_nominal_error=0.032,
    ),
    "bscholes": BenchmarkSpec(
        name="bscholes",
        description="Option pricing (AxBench/PARSEC blackscholes)",
        topology="6-16-1",
        loss="mse",
        hidden_activation="sigmoid",
        output_activation="sigmoid",
        error_metric="mse",
        generator=generate_blackscholes,
        train_test_ratio=10,
        default_samples=2000,
        paper_nominal_error=0.021,
    ),
}


# ------------------------------------------------------------- procedural

#: Names under this prefix resolve through the procedural grammar.
PROCEDURAL_PREFIX = "synth/"

#: family -> (required tokens, {token: default}) — the grammar table.
PROCEDURAL_FAMILIES: dict[str, tuple[tuple[str, ...], dict[str, int]]] = {
    "mlp": (("d", "w"), {"i": 32, "o": 8}),
    "wide": (("f",), {"h": 16, "o": 4}),
    "ae": (("i", "b"), {}),
}

#: Resolved procedural specs, memoized by canonical name.
_PROCEDURAL_CACHE: dict[str, ProceduralSpec] = {}


def _parse_procedural_tokens(name: str) -> tuple[str, dict[str, int]]:
    """Parse ``synth/<family>-<token>...`` into (family, token values)."""
    body = name[len(PROCEDURAL_PREFIX) :]
    parts = body.split("-")
    family = parts[0]
    if family not in PROCEDURAL_FAMILIES:
        raise KeyError(
            f"unknown procedural family {family!r} in {name!r}; "
            f"available: {sorted(PROCEDURAL_FAMILIES)}"
        )
    required, defaults = PROCEDURAL_FAMILIES[family]
    allowed = set(required) | set(defaults)
    values: dict[str, int] = dict(defaults)
    seen: set[str] = set()
    for token in parts[1:]:
        letter, digits = token[:1], token[1:]
        if letter not in allowed:
            raise ValueError(
                f"invalid token {token!r} in {name!r}; family {family!r} "
                f"accepts {sorted(allowed)}"
            )
        if letter in seen:
            raise ValueError(f"duplicate token {letter!r} in {name!r}")
        if not digits.isdigit() or int(digits) <= 0:
            raise ValueError(f"token {token!r} in {name!r} needs a positive integer")
        seen.add(letter)
        values[letter] = int(digits)
    missing = [letter for letter in required if letter not in values]
    if missing:
        raise ValueError(f"{name!r} is missing required token(s) {missing}")
    return family, values


def _build_procedural(name: str) -> ProceduralSpec:
    family, values = _parse_procedural_tokens(name)
    if family == "mlp":
        widths = (values["i"], *([values["w"]] * values["d"]), values["o"])
        description = f"Procedural deep MLP ({values['d']}x{values['w']} hidden)"
        generator = generate_teacher
        params = {"in_features": values["i"], "out_features": values["o"]}
    elif family == "wide":
        widths = (values["f"], values["h"], values["o"])
        description = f"Procedural wide fan-in MLP (fan-in {values['f']})"
        generator = generate_teacher
        params = {"in_features": values["f"], "out_features": values["o"]}
    else:  # ae
        if values["b"] > values["i"]:
            raise ValueError(f"{name!r}: bottleneck b cannot exceed width i")
        widths = (values["i"], values["b"], values["i"])
        description = f"Procedural autoencoder ({values['i']}-{values['b']}-{values['i']})"
        generator = generate_lowrank
        params = {"width": values["i"], "rank": min(values["b"], values["i"])}
    topology = "-".join(str(w) for w in parse_topology(widths))
    return ProceduralSpec(
        name=name,
        description=description,
        topology=topology,
        loss="mse",
        hidden_activation="sigmoid",
        output_activation="sigmoid",
        error_metric="mse",
        generator=generator,
        train_test_ratio=10,
        default_samples=512,
        paper_nominal_error=float("nan"),
        family=family,
        generator_params=tuple(sorted(params.items())),
    )


# ------------------------------------------------------------------ lookup


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark spec by name.

    Registered names resolve from :data:`BENCHMARKS`; ``synth/...`` names
    resolve through the procedural grammar (and are memoized, so repeated
    lookups return the same spec object).
    """
    key = str(name).lower()
    if key in BENCHMARKS:
        return BENCHMARKS[key]
    if key.startswith(PROCEDURAL_PREFIX):
        spec = _PROCEDURAL_CACHE.get(key)
        if spec is None:
            spec = _build_procedural(key)
            _PROCEDURAL_CACHE[key] = spec
        return spec
    raise KeyError(
        f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)} "
        f"plus procedural '{PROCEDURAL_PREFIX}' names (families: "
        f"{sorted(PROCEDURAL_FAMILIES)})"
    )
