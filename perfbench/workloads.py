"""The benchmark's workloads: set-up, one closed-loop op, and its output check.

Every workload is driven by one client that starts the next op when the
previous one returns.  The benchmark seed ``s`` maps onto the program's own
seeds so that ``s = 1`` reproduces the driver CLIs' defaults (fig10
``--seed 1 --chip-seed 11``, fig9a ``--seed 3``, fleet ``seed=1,
chip_seed=11``); :data:`REFERENCE_SEED` outputs are checked against digests
recorded at the commit that defined the benchmark (``reference.json``),
and every seed is also checked against outputs recomputed inside the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: The benchmark seed whose outputs ``reference.json`` records.
REFERENCE_SEED = 1

#: fig10 grid shared by both fig10 workloads; voltages, adaptive epochs and
#: warm start stay at the CLI defaults.
FIG10_ARGV = (
    "--backend", "serial", "--workers", "1",
    "--cache-dir", "{cache_dir}",
    "--benchmarks", "mnist", "bscholes", "--num-samples", "400",
    "--seed", "{seed}", "--chip-seed", "{chip_seed}",
)  # fmt: skip

#: fig9a grid: 17 profiling tasks on one queue worker.
FIG9A_ARGV = (
    "--figure", "a", "--backend", "{backend}", "--workers", "1",
    "--cache-dir", "{cache_dir}", "--seed", "{seed}",
)  # fmt: skip

#: fleet-serve population: more dies than any run reaches, so no die repeats
#: (a repeated die would recall its fault maps from the cache).
FLEET = {
    "benchmark": "inversek2j",
    "dies": 1024,
    "requests_per_die": 6,
    "voltages": (0.90, 0.55, 0.50),
}


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_report(report: Any) -> str:
    """Digest of every field of a ``DieReport`` (floats by exact repr)."""
    fields = dataclasses.asdict(report)
    fields = {
        key: sorted(value.items()) if isinstance(value, dict) else value
        for key, value in fields.items()
    }
    return hashlib.sha256(repr(sorted(fields.items())).encode()).hexdigest()[:16]


def run_cli(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str]:
    """Call a driver CLI in-process; returns its exit code and printed table."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def fill(template: tuple[str, ...], **values: Any) -> list[str]:
    return [part.format(**values) for part in template]


class Workload:
    """One benchmark workload.

    ``setup`` runs before timing (several times; the last state is used),
    ``op`` is the timed unit, ``check`` validates one op's output and
    ``after_op`` cleans up outside the timed region.  ``finish`` runs the
    end-of-run checks and returns the indices of ops they prove wrong.
    """

    name = ""
    why = ""
    #: serialisable definition; with the argv it forms the fingerprint
    definition: dict[str, Any] = {}
    setup_reps = 3
    max_ops: int | None = None

    def __init__(self, tmp: Path, seed: int, reference: dict[str, Any] | None):
        self.tmp = tmp
        self.seed = seed
        self.reference = reference

    def load(self) -> None:
        """Import the program modules the workload calls."""

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, index: int, output: Any) -> bool:
        raise NotImplementedError

    def after_op(self, index: int) -> None:
        pass

    def finish(self, outputs: dict[int, Any]) -> set[int]:
        return set()

    def fingerprint(self) -> str:
        body = json.dumps({"name": self.name, **self.definition}, sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()[:16]


class _Fig10(Workload):
    definition = {
        "op": "fig10_error_vs_voltage.main(argv)",
        "argv": list(FIG10_ARGV),
    }

    def load(self) -> None:
        from repro.experiments import fig10_error_vs_voltage

        self._main = fig10_error_vs_voltage.main

    def run(self, cache_dir: Path) -> tuple[int, str]:
        argv = fill(
            FIG10_ARGV, cache_dir=cache_dir, seed=self.seed, chip_seed=self.seed + 10
        )
        return run_cli(self._main, argv)

    def table_ok(self, code: int, table: str) -> bool:
        if code != 0:
            return False
        if self.reference is not None:
            return digest_text(table) == self.reference["fig10"]
        return True


class Fig10Cold(_Fig10):
    name = "fig10-cold"
    why = (
        "fig10 CLI on an empty cache: float baseline and MAT fine-tuning dominate "
        "(mask install ~30% of an op)"
    )
    # nothing to repeat: set-up is the imports alone
    setup_reps = 1

    def setup(self, rep: int) -> None:
        self.first: str | None = None

    def op(self, index: int) -> tuple[int, str]:
        return self.run(self.tmp / f"cold-{index}")

    def check(self, index: int, output: tuple[int, str]) -> bool:
        code, table = output
        if self.first is None and code == 0:
            self.first = table
        return self.table_ok(code, table) and table == self.first

    def after_op(self, index: int) -> None:
        shutil.rmtree(self.tmp / f"cold-{index}", ignore_errors=True)


class Fig10Warm(_Fig10):
    name = "fig10-warm"
    why = (
        "fig10 CLI against a cache one cold run filled: cache reads, chip builds "
        "and NPU inference, no training"
    )

    def setup(self, rep: int) -> None:
        cache_dir = self.tmp / f"warm-{rep}"
        code, table = self.run(cache_dir)
        if not self.table_ok(code, table):
            raise RuntimeError(f"cold fill {rep} failed (exit {code})")
        if rep and table != self.cold:
            raise RuntimeError("cold fills of one seed rendered different tables")
        self.cold, self.cache_dir = table, cache_dir

    def op(self, index: int) -> tuple[int, str]:
        return self.run(self.cache_dir)

    def check(self, index: int, output: tuple[int, str]) -> bool:
        code, table = output
        return code == 0 and table == self.cold


class FleetServe(Workload):
    name = "fleet-serve"
    why = (
        "simulate_die on distinct dies of a seeded population: oracle canary "
        "selection dominates, no training, no cache recall"
    )
    definition = {"op": "repro.population.simulate_die(population, die, ...)", **FLEET}
    max_ops = FLEET["dies"]

    def load(self) -> None:
        import repro.experiments.common  # noqa: F401
        from repro.population import simulate_die

        self._simulate = simulate_die

    def setup(self, rep: int) -> None:
        from repro.experiments.cache import ArtifactCache
        from repro.experiments.common import default_flow, prepare_benchmark
        from repro.population import ChipPopulation

        cache = ArtifactCache(root=self.tmp / f"fleet-{rep}")
        self.prepared = prepare_benchmark(FLEET["benchmark"], seed=self.seed, cache=cache)
        self.flow = default_flow(seed=self.seed, cache=cache)
        self.population = ChipPopulation(num_dies=FLEET["dies"], entropy=self.seed + 10)
        self.requests = self.population.request_stream(
            FLEET["dies"] * FLEET["requests_per_die"], FLEET["voltages"], seed=self.seed
        )
        self.served = Counter(request.die for request in self.requests)

    def op(self, index: int) -> Any:
        prepared = self.prepared
        return self._simulate(
            self.population,
            index,
            self.flow,
            topology=prepared.spec.topology,
            train=prepared.train,
            loss=prepared.spec.loss,
            baseline=prepared.baseline,
            test_inputs=prepared.test.inputs,
            error_fn=lambda outputs: float(prepared.spec.error(outputs, prepared.test)),
            requests=self.requests,
        )

    def check(self, index: int, report: Any) -> bool:
        if report.die != index or report.requests_served != self.served[index]:
            return False
        recorded = self.reference["fleet"] if self.reference is not None else []
        return index >= len(recorded) or digest_report(report) == recorded[index]

    def finish(self, outputs: dict[int, Any]) -> set[int]:
        # die 0 again: its fault maps now come from the cache, and the
        # report must not change
        if 0 not in outputs:
            return set()
        return set() if self.op(0) == outputs[0] else {0}


class SweepQueue(Workload):
    name = "sweep-queue"
    why = (
        "fig9a CLI on the queue backend with one worker process: engine, leases, "
        "result publish and merge do most of the work"
    )
    definition = {"op": "fig09_sram.main(argv)", "argv": list(FIG9A_ARGV)}

    def load(self) -> None:
        from repro.experiments import fig09_sram

        self._main = fig09_sram.main
        #: seconds per serial run of the grid, one per set-up
        self.serial_op_s: list[float] = []

    def run(self, backend: str, cache_dir: Path) -> tuple[int, str]:
        argv = fill(FIG9A_ARGV, backend=backend, cache_dir=cache_dir, seed=self.seed + 2)
        return run_cli(self._main, argv)

    def setup(self, rep: int) -> None:
        start = time.perf_counter()
        code, table = self.run("serial", self.tmp / f"serial-{rep}")
        self.serial_op_s.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"serial reference run failed (exit {code})")
        if self.reference is not None and digest_text(table) != self.reference["fig9a"]:
            raise RuntimeError("serial fig9a table differs from the recorded reference")
        if rep and table != self.serial:
            raise RuntimeError("serial fig9a runs of one seed rendered different tables")
        self.serial = table

    def op(self, index: int) -> tuple[int, str]:
        return self.run("queue", self.tmp / f"queue-{index}")

    def check(self, index: int, output: tuple[int, str]) -> bool:
        code, table = output
        return code == 0 and table == self.serial

    def after_op(self, index: int) -> None:
        shutil.rmtree(self.tmp / f"queue-{index}", ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig10Cold, Fig10Warm, FleetServe, SweepQueue)
}
