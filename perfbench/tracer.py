"""Span tracing from outside the program: wrap public entry points, time calls.

Nothing under ``src/`` is edited.  A :class:`Tracer` replaces class attributes
and module functions with timing wrappers for the duration of a traced op and
puts the originals back afterwards.  Every call appends one span to an
in-memory list -- ``(name, start_ns, end_ns, parent, op, note)`` -- and
nothing is written until the run ends, when :func:`aggregate` folds the spans
into per-name call counts, busy time and self time.

Busy time counts only the *outermost* span of a name (a wrapped method that
calls another wrapped method of the same layer is one call into the layer).
Self time is a span's duration minus its direct children's durations; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Iterable, Sequence

#: A span note derived from a call that returned: ``note(self_or_first_arg, result)``.
Note = Callable[[Any, Any], Any]


def _hit(_owner: Any, result: Any) -> int:
    return int(result is not None)


def _recalled(_owner: Any, result: Any) -> int:
    # MaticFlow.fit_adaptive returns the history after training, None on recall
    return int(result is None)


def _points(_owner: Any, result: Any) -> int:
    return len(result)


def _instance(owner: Any, _result: Any) -> Any:
    return owner


_FIXED_POINT_METHODS = (
    "quantize_to_code",
    "dequantize_code",
    "quantize",
    "quantization_error",
    "code_to_word",
    "word_to_code",
    "float_to_word",
    "word_to_float",
    "word_to_bits",
    "bits_to_word",
)

#: ``(span name, module, qualified attribute, note)`` for every wrapped entry
#: point.  Several attributes may share a span name: they are one layer.
TARGETS: tuple[tuple[str, str, str, Note | None], ...] = (
    ("datasets.generate", "repro.datasets.registry", "BenchmarkSpec.generate", None),
    ("datasets.generate", "repro.datasets.registry", "ProceduralSpec.generate", None),
    ("nn.trainer.fit", "repro.nn.trainer", "Trainer.fit", None),
    ("nn.network.forward", "repro.nn.network", "Network.forward", None),
    ("nn.network.backward", "repro.nn.network", "Network.backward", None),
    *(
        ("nn.optimizer", "repro.nn.optimizers", f"{cls}.{method}", None)
        for cls in ("SGD", "MomentumSGD", "Adam")
        for method in ("step", "parameter_delta")
    ),
    *(
        ("quant.fixed_point", "repro.quant.fixed_point", f"FixedPointFormat.{method}", None)
        for method in _FIXED_POINT_METHODS
    ),
    ("matic.training.fit", "repro.matic.training", "MemoryAdaptiveTrainer.fit", None),
    (
        "matic.training.train_step",
        "repro.matic.training",
        "MemoryAdaptiveTrainer.train_step",
        None,
    ),
    ("matic.masking.install", "repro.matic.masking", "FaultMaskSet.install", None),
    (
        "matic.masking.from_fault_maps",
        "repro.matic.masking",
        "FaultMaskSet.from_fault_maps",
        None,
    ),
    ("matic.flow.fit_adaptive", "repro.matic.flow", "MaticFlow.fit_adaptive", _recalled),
    ("matic.flow.profile_chip", "repro.matic.flow", "MaticFlow.profile_chip", None),
    (
        "matic.flow.profile_chip_sweep",
        "repro.matic.flow",
        "MaticFlow.profile_chip_sweep",
        None,
    ),
    ("matic.canary.select", "repro.matic.canary", "CanarySelector.select", None),
    ("sram.chip_build", "repro.accelerator.soc", "Snnac.__init__", None),
    ("sram.marginal_cells", "repro.sram.array", "SramBank.marginal_cells", None),
    ("sram.profile_bank", "repro.sram.profiler", "SramProfiler.profile_bank", None),
    ("accelerator.run_sweep", "repro.accelerator.npu", "Npu.run_sweep", _points),
    ("accelerator.deploy", "repro.accelerator.npu", "Npu.deploy", None),
    ("accelerator.deploy", "repro.accelerator.npu", "Npu.deploy_quantized", None),
    ("accelerator.compile", "repro.accelerator.microcode", "MicrocodeCompiler.compile", None),
    ("experiments.cache.get", "repro.experiments.cache", "ArtifactCache.get", _hit),
    ("experiments.cache.put", "repro.experiments.cache", "ArtifactCache.put", None),
    ("experiments.cache.digest", "repro.experiments.cache", "cache_digest", None),
    ("experiments.engine.map", "repro.experiments.engine", "SweepRunner.map", None),
    ("experiments.queue.submit", "repro.experiments.queue", "QueueBackend.submit", _instance),
)

#: Spans of a name that are not calls into that layer from outside: the
#: ``super().fit`` inside memory-adaptive training is MAT's own loop, not a
#: float baseline fit.
EXCLUDE_UNDER = {"nn.trainer.fit": "matic.training.fit"}


def resolve(module: str, qualname: str) -> tuple[Any, str]:
    """The ``(owner, attribute)`` pair a dotted target names."""
    owner: Any = import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        #: one tuple per call; ``None`` only while that call is in progress
        self.spans: list[tuple | None] = []
        self.op = -1
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._missing: set[str] = set()

    def wrap(self, fn: Callable, name: str, note: Note | None = None) -> Callable:
        """``fn`` with a span recorded around every call."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result, returned = None, False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                # a call that raised has no result to take a note from
                value = note(args[0] if args else None, result) if note and returned else None
                spans[index] = (name, start, end, parent, self.op, value)

        return traced

    def patch(self, owner: Any, attr: str, name: str, note: Note | None = None) -> None:
        """Replace ``owner.attr`` with a traced version (where it is defined)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(raw.__func__, name, note))
        else:
            wrapped = self.wrap(raw, name, note)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def install(
        self, targets: Iterable[tuple[str, str, str, Note | None]] = TARGETS
    ) -> None:
        """Patch every target; one the program no longer defines is reported and skipped."""
        for name, module, qualname, note in targets:
            try:
                owner, attr = resolve(module, qualname)
                self.patch(owner, attr, name, note)
            except (ImportError, AttributeError, KeyError):
                if qualname not in self._missing:
                    self._missing.add(qualname)
                    print(f"trace: no {module}.{qualname}; {name} misses it", file=sys.stderr)

    def remove(self) -> None:
        """Put every original attribute back, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @property
    def installed(self) -> int:
        return len(self._patches)


@dataclass
class LayerTotals:
    """Aggregated spans of one name (times in seconds)."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    notes: list[Any] = field(default_factory=list)


def _children_ns(spans: Sequence[tuple]) -> list[int]:
    children_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            children_ns[span[3]] += span[2] - span[1]
    return children_ns


def aggregate(spans: Sequence[tuple]) -> dict[str, LayerTotals]:
    """Fold spans into per-name totals.

    ``calls``, ``busy_s`` and ``notes`` cover the outermost span of each name
    (none of its ancestors has the same name); ``self_s`` sums every span's
    duration minus its direct children.  Spans named in :data:`EXCLUDE_UNDER`
    that sit below their excluding ancestor are left out of all three.
    """
    children_ns = _children_ns(spans)
    totals: dict[str, LayerTotals] = {}
    for index, (name, start, end, parent, _op, note) in enumerate(spans):
        excluded_by = EXCLUDE_UNDER.get(name)
        nested = excluded = False
        ancestor = parent
        while ancestor >= 0:
            ancestor_name, ancestor = spans[ancestor][0], spans[ancestor][3]
            nested = nested or ancestor_name == name
            excluded = excluded or ancestor_name == excluded_by
        if excluded:
            continue
        entry = totals.setdefault(name, LayerTotals())
        entry.self_s += (end - start - children_ns[index]) * 1e-9
        if not nested:
            entry.calls += 1
            entry.busy_s += (end - start) * 1e-9
            if note is not None:
                entry.notes.append(note)
    return totals


def stage_tree(spans: Sequence[tuple]) -> dict[tuple[str, ...], LayerTotals]:
    """Totals per call path (the stage tree).

    A span whose parent has the same name folds into its parent's node: it
    adds self time but no call or busy time.  The top-level nodes (paths of
    one name) cover all of the traced time that any span attributes.
    """
    children_ns = _children_ns(spans)
    paths: list[tuple[str, ...]] = []
    tree: dict[tuple[str, ...], LayerTotals] = {}
    for index, (name, start, end, parent, _op, _note) in enumerate(spans):
        parent_path = paths[parent] if parent >= 0 else ()
        folded = bool(parent_path) and parent_path[-1] == name
        path = parent_path if folded else parent_path + (name,)
        paths.append(path)
        entry = tree.setdefault(path, LayerTotals())
        entry.self_s += (end - start - children_ns[index]) * 1e-9
        if not folded:
            entry.calls += 1
            entry.busy_s += (end - start) * 1e-9
    return tree
