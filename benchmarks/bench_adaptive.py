"""Batched adaptive-deployment benchmark (BENCH_adaptive.json).

Times fig10's adaptive column for one benchmark both ways:

1. **Cold per-voltage** — the historical flow: one full
   :meth:`MaticFlow.deploy_adaptive` per overscaled operating point (profile
   the chip, compile, retrain from the pristine baseline, deploy, measure).
2. **Batched warm-start** — one :meth:`MaticFlow.deploy_adaptive_sweep`
   chained walk: fault maps for the whole axis from one sweep-profiling
   pass, one shared compile, and every point after the first fine-tuned from
   the neighboring voltage's converged weights under the reduced budget.

Both arms run against their own fresh artifact cache (no cross-arm recall)
and measure each point's on-chip error on the same held-out test split.
The session asserts, and the "Adaptive-column benchmark" step of the CI job
enforces:

- end-to-end speedup >= the 3x floor,
- every warm-started adaptive error within ``ERROR_TOLERANCE`` of its cold
  counterpart,
- ``deploy_adaptive_sweep(warm_start=False)`` *bit-identical* to the cold
  per-voltage loop (trained weights and measured errors, exact equality),
- sweep-profiled fault maps bit-identical to per-voltage
  :meth:`SramProfiler.profile_bank` (the equivalence oracle).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_adaptive.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _bench_records import append_record  # noqa: E402
from repro.experiments.cache import ArtifactCache  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    default_flow,
    make_chip,
    prepare_benchmark,
)
from repro.experiments.fig10_error_vs_voltage import (  # noqa: E402
    DEFAULT_VOLTAGES,
    NOMINAL_THRESHOLD,
)
from repro.sram import SramProfiler  # noqa: E402

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"

BENCHMARK = "inversek2j"
#: fig10's overscaled operating points — the adaptive column's whole axis
VOLTAGES = tuple(v for v in DEFAULT_VOLTAGES if v < NOMINAL_THRESHOLD)
NUM_SAMPLES = 400
EPOCHS = 30
SEED = 1
CHIP_SEED = 11
SPEEDUP_FLOOR = 3.0
ERROR_TOLERANCE = 0.05


def _measure(prepared, deployment) -> float:
    return float(
        prepared.spec.error(deployment.run_at(prepared.test.inputs), prepared.test)
    )


def _network_state(network) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(layer.weights.copy(), layer.bias.copy()) for layer in network.layers]


def _states_identical(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(a, b)
    )


def bench_adaptive_column(prepared, work_dir: Path) -> dict:
    common = dict(
        loss=prepared.spec.loss,
        initial_network=prepared.baseline,
        select_canaries=False,
    )

    # -------------------------------------------------- cold per-voltage arm
    cold_flow = default_flow(
        epochs=EPOCHS, seed=SEED, cache=ArtifactCache(root=work_dir / "cold")
    )
    cold_states, cold_errors = [], []
    start = time.perf_counter()
    for voltage in VOLTAGES:
        deployment = cold_flow.deploy_adaptive(
            make_chip(seed=CHIP_SEED),
            prepared.spec.topology,
            prepared.train,
            target_voltage=voltage,
            **common,
        )
        cold_states.append(_network_state(deployment.network))
        cold_errors.append(_measure(prepared, deployment))
    cold_seconds = time.perf_counter() - start

    # ------------------------------------------------ batched warm-start arm
    warm_flow = default_flow(
        epochs=EPOCHS, seed=SEED, cache=ArtifactCache(root=work_dir / "warm")
    )
    start = time.perf_counter()
    warm_points = warm_flow.deploy_adaptive_sweep(
        make_chip(seed=CHIP_SEED),
        prepared.spec.topology,
        prepared.train,
        voltages=VOLTAGES,
        warm_start=True,
        measure=lambda deployment: _measure(prepared, deployment),
        **common,
    )
    warm_seconds = time.perf_counter() - start
    warm_errors = [point.measurement for point in warm_points]

    # ------------------------------------- batched cold identity (untimed)
    identity_flow = default_flow(
        epochs=EPOCHS, seed=SEED, cache=ArtifactCache(root=work_dir / "identity")
    )
    identity_points = identity_flow.deploy_adaptive_sweep(
        make_chip(seed=CHIP_SEED),
        prepared.spec.topology,
        prepared.train,
        voltages=VOLTAGES,
        warm_start=False,
        measure=lambda deployment: _measure(prepared, deployment),
        **common,
    )
    cold_identity = all(
        _states_identical(state, _network_state(point.deployment.network))
        and error == point.measurement
        for state, error, point in zip(cold_states, cold_errors, identity_points)
    )

    error_deltas = [
        abs(warm - cold) for warm, cold in zip(warm_errors, cold_errors)
    ]
    return {
        "benchmark": BENCHMARK,
        "voltages": list(VOLTAGES),
        "epochs": EPOCHS,
        "num_samples": NUM_SAMPLES,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup": round(cold_seconds / warm_seconds, 2),
        "cold_errors": [round(e, 6) for e in cold_errors],
        "warm_errors": [round(e, 6) for e in warm_errors],
        "max_error_delta": round(max(error_deltas), 6),
        "cold_identity_bit_identical": cold_identity,
        "warm_points_warm_started": [point.warm_started for point in warm_points],
    }


def bench_sweep_profiling_oracle() -> dict:
    """Sweep-profiled fault maps must equal measured per-voltage profiling."""
    profiler = SramProfiler()
    chip = make_chip(seed=CHIP_SEED)
    identical = True
    for bank in chip.memory:
        derived = profiler.profile_bank_sweep(bank, VOLTAGES)
        for voltage, report in zip(VOLTAGES, derived):
            reference = profiler.profile_bank(bank, voltage)
            if (
                reference.fault_map != report.fault_map
                or reference.pattern_errors != report.pattern_errors
                or reference.read_after_read_errors
                != report.read_after_read_errors
            ):
                identical = False
    return {
        "banks": len(chip.memory),
        "voltages": list(VOLTAGES),
        "sweep_maps_bit_identical": identical,
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-bench-adaptive-") as tmp:
        work_dir = Path(tmp)
        prepared = prepare_benchmark(
            BENCHMARK,
            num_samples=NUM_SAMPLES,
            seed=SEED,
            cache=ArtifactCache(root=work_dir / "prepare"),
        )
        column = bench_adaptive_column(prepared, work_dir)
    oracle = bench_sweep_profiling_oracle()

    session = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "adaptive_column": column,
        "profiling_oracle": oracle,
        "speedup_floor": SPEEDUP_FLOOR,
        "error_tolerance": ERROR_TOLERANCE,
    }
    append_record(
        RECORD_PATH,
        session,
        suite="adaptive-sweep",
        headline={
            "latest_speedup": column["speedup"],
            "speedup_floor": SPEEDUP_FLOOR,
            "latest_max_error_delta": column["max_error_delta"],
            "error_tolerance": ERROR_TOLERANCE,
            "latest_cold_identity": column["cold_identity_bit_identical"],
            "latest_sweep_maps_bit_identical": oracle["sweep_maps_bit_identical"],
        },
    )
    print(json.dumps(session, indent=2))

    failures = []
    if column["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"adaptive-column speedup {column['speedup']}x below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
    if column["max_error_delta"] > ERROR_TOLERANCE:
        failures.append(
            f"warm-start error drifted {column['max_error_delta']} from cold "
            f"(tolerance {ERROR_TOLERANCE})"
        )
    if not column["cold_identity_bit_identical"]:
        failures.append(
            "deploy_adaptive_sweep(warm_start=False) diverged from the "
            "historical per-voltage flow"
        )
    if not oracle["sweep_maps_bit_identical"]:
        failures.append("sweep-profiled fault maps diverged from profile_bank")
    if column["warm_points_warm_started"] != [False] + [True] * (
        len(VOLTAGES) - 1
    ):
        failures.append(
            "warm sweep did not warm-start every point after the first"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
