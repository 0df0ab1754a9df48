"""Tests for the sweep engine and the content-addressed artifact cache."""

from __future__ import annotations

import importlib
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import cache as cache_module
from repro.experiments import run_fig5, run_fig9a, run_fig10
from repro.experiments.cache import ArtifactCache, cache_digest
from repro.experiments.engine import (
    SerialBackend,
    SweepRunner,
    expand_grid,
    resolve_backend,
    store_label,
    task_digest,
    worker_identity,
)
from repro.experiments.queue import QueueBackend


def _square_worker(shared, task):
    rng = np.random.default_rng(task.seed)
    return {
        "index": task.index,
        "value": task.param("value") ** 2 + shared["offset"],
        "draw": float(rng.uniform()),
    }


def _failing_worker(shared, task):
    if task.param("value") == shared["bad"]:
        raise RuntimeError("boom")
    time.sleep(shared.get("delay", 0.0))
    return task.param("value")


def _attempts(counts_dir, task):
    """Attempts at ``task`` so far, kept on disk: a retry may run in another
    worker process."""
    path = os.path.join(counts_dir, f"{task.index}.attempts")
    return os.path.getsize(path) if os.path.exists(path) else 0


def _flaky_then_ok_worker(shared, task):
    with open(os.path.join(shared["counts"], f"{task.index}.attempts"), "a") as handle:
        handle.write("x")  # one byte per attempt
    if _attempts(shared["counts"], task) <= shared["fail_times"]:
        raise RuntimeError("transient glitch")
    return task.param("value") * 10


class TestExpandGrid:
    def test_cartesian_order_and_fields(self):
        tasks = expand_grid(
            benchmarks=("a", "b"), voltages=(0.9, 0.5), modes=("naive", "adaptive")
        )
        assert len(tasks) == 8
        assert [t.index for t in tasks] == list(range(8))
        # benchmarks outermost, modes innermost
        assert tasks[0].benchmark == "a" and tasks[0].voltage == 0.9
        assert tasks[0].mode == "naive" and tasks[1].mode == "adaptive"
        assert tasks[4].benchmark == "b"

    def test_params_grid(self):
        tasks = expand_grid(params=[{"fault_rate": 0.1}, {"fault_rate": 0.2}], seed=5)
        assert [t.param("fault_rate") for t in tasks] == [0.1, 0.2]
        assert tasks[0].benchmark is None

    def test_seeds_deterministic_and_distinct(self):
        a = expand_grid(voltages=(0.5, 0.4, 0.3), seed=7)
        b = expand_grid(voltages=(0.5, 0.4, 0.3), seed=7)
        c = expand_grid(voltages=(0.5, 0.4, 0.3), seed=8)
        assert [t.seed for t in a] == [t.seed for t in b]
        assert len({t.seed for t in a}) == 3
        assert [t.seed for t in a] != [t.seed for t in c]

    def test_empty_grid(self):
        assert expand_grid(params=[]) == []

    def test_with_params_merges(self):
        # expand_grid merges the swept params into each task's sorted params
        (task,) = expand_grid(params=[{"y": 2, "x": 1}])
        assert task.params == (("x", 1), ("y", 2))
        assert task.param("x") == 1 and task.param("y") == 2
        assert task.param("z", "missing") == "missing"


class TestTaskDigest:
    """Queue task files are named by the digest, so every host must agree on it."""

    def test_digest_ignores_index_but_not_seed(self):
        from dataclasses import replace

        task = expand_grid(params=[{"value": 1}], seed=9)[0]
        assert task_digest(replace(task, index=99)) == task_digest(task)
        assert task_digest(replace(task, seed=task.seed + 1)) != task_digest(task)

    def test_digest_canonicalizes_sets_and_rejects_opaque_objects(self):
        # set iteration order is hash-randomized, so the digest must sort it;
        # objects with address-bearing reprs have no stable encoding at all
        # and must fail loudly rather than silently name tasks differently
        a = expand_grid(params=[{"tags": {"x", "y", "z"}}], seed=2)[0]
        b = expand_grid(params=[{"tags": frozenset(["z", "y", "x"])}], seed=2)[0]
        assert task_digest(a) == task_digest(b)
        opaque = expand_grid(params=[{"obj": object()}], seed=2)[0]
        with pytest.raises(TypeError, match="canonical digest"):
            task_digest(opaque)
        # object-dtype arrays hash element addresses — equally unstable
        boxed = expand_grid(
            params=[{"arr": np.array([{"a": 1}, {"b": 2}], dtype=object)}], seed=2
        )[0]
        with pytest.raises(TypeError, match="canonical digest"):
            task_digest(boxed)

    def test_digest_equal_across_processes(self):
        # content-addressed (sha256), not Python-hash based: another process
        # with another PYTHONHASHSEED names every task the same
        import subprocess
        import sys

        grid = "expand_grid(voltages=(0.5, 0.46, 0.44), params=None, seed=3) + " \
            "expand_grid(params=[{'tags': {'x', 'y', 'z'}}], seed=3)"
        script = (
            "from repro.experiments.engine import expand_grid, task_digest\n"
            f"print(' '.join(task_digest(task) for task in {grid}))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"},
            check=True,
        )
        tasks = eval(grid, {"expand_grid": expand_grid})
        assert result.stdout.split() == [task_digest(task) for task in tasks]


class TestSweepRunner:
    def test_serial_matches_parallel(self):
        tasks = expand_grid(params=[{"value": v} for v in range(6)], seed=3)
        shared = {"offset": 10}
        serial = SweepRunner(workers=1).map(_square_worker, tasks, shared=shared)
        parallel = SweepRunner(workers=3).map(_square_worker, tasks, shared=shared)
        assert serial == parallel
        assert [r["value"] for r in serial] == [v**2 + 10 for v in range(6)]

    def test_parallel_false_forces_serial(self):
        runner = SweepRunner(workers=8, parallel=False)
        assert runner.effective_workers(100) == 1

    def test_single_task_runs_in_process(self):
        runner = SweepRunner(workers=8)
        assert runner.effective_workers(1) == 1

    def test_tasks_run_counter(self):
        runner = SweepRunner(workers=1)
        runner.map(_square_worker, expand_grid(params=[{"value": 1}]), {"offset": 0})
        runner.map(_square_worker, expand_grid(params=[{"value": 2}]), {"offset": 0})
        assert runner.tasks_run == 2

    def test_empty_task_list(self):
        assert SweepRunner().map(_square_worker, [], shared=None) == []


class TestBackends:
    """The pluggable execution layer must be invisible in the results."""

    def _mini_sweep(self, runner):
        tasks = expand_grid(params=[{"value": v} for v in range(9)], seed=13)
        return runner.map(_square_worker, tasks, shared={"offset": 4})

    def test_all_backends_bit_identical(self, tmp_path):
        serial = self._mini_sweep(SweepRunner(workers=1, backend="serial"))
        queue = self._mini_sweep(
            SweepRunner(workers=3, backend="queue", store=ArtifactCache(root=tmp_path))
        )
        unchosen = self._mini_sweep(SweepRunner(workers=3))  # a private store
        assert serial == queue == unchosen
        assert [r["value"] for r in serial] == [v**2 + 4 for v in range(9)]

    def test_backend_instances_accepted(self, tmp_path):
        runner = SweepRunner(workers=3, backend=QueueBackend(store=ArtifactCache(root=tmp_path)))
        assert self._mini_sweep(runner) == self._mini_sweep(SweepRunner(workers=1))

    def test_env_override_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        assert isinstance(resolve_backend(None), SerialBackend)
        monkeypatch.delenv("REPRO_SWEEP_BACKEND")
        assert isinstance(resolve_backend(None), QueueBackend)
        # an explicit argument beats the environment
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "serial")
        assert isinstance(resolve_backend("queue"), QueueBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend("quantum")
        with pytest.raises(ValueError):
            SweepRunner(workers=2, backend="quantum").map(
                _square_worker, expand_grid(params=[{"value": 1}, {"value": 2}])
            )
        # a typo must fail even when the single-worker path would make the
        # backend choice irrelevant — otherwise the error is CPU-count-dependent
        with pytest.raises(ValueError, match="unknown sweep backend"):
            SweepRunner(workers=1, backend="quantum").map(
                _square_worker, expand_grid(params=[{"value": 1}]), shared={"offset": 0}
            )

    def test_tasks_run_counts_consumed_results_only(self):
        tasks = expand_grid(params=[{"value": v} for v in range(5)], seed=1)
        runner = SweepRunner(workers=1)
        stream = runner.submit(_square_worker, tasks, shared={"offset": 0}).as_completed()
        assert runner.tasks_run == 0  # nothing executed at submission time
        next(stream)
        assert runner.tasks_run == 1
        list(stream)
        assert runner.tasks_run == 5

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("queue", 3),
    ])
    def test_as_completed_streams_every_backend(self, backend, workers, tmp_path):
        tasks = expand_grid(params=[{"value": v} for v in range(7)], seed=2)
        runner = SweepRunner(
            workers=workers, backend=backend, store=ArtifactCache(root=tmp_path)
        )
        execution = runner.submit(_square_worker, tasks, shared={"offset": 0})
        pairs = list(execution.as_completed())
        assert len(pairs) == len(tasks)
        # every yielded pair couples a task with its own result
        for task, result in pairs:
            assert result["index"] == task.index
            assert result["value"] == task.param("value") ** 2
        # all tasks land exactly once, in some completion order, and put back
        # in grid order they are the serial backend's results
        pairs.sort(key=lambda pair: pair[0].index)
        assert [task.index for task, _ in pairs] == [t.index for t in tasks]
        assert [result for _, result in pairs] == SweepRunner(workers=1).map(
            _square_worker, tasks, shared={"offset": 0}
        )

    def test_serial_streaming_is_lazy(self):
        executed = []

        def recording_worker(shared, task):
            executed.append(task.index)
            return task.index

        tasks = expand_grid(params=[{"value": v} for v in range(5)], seed=1)
        stream = SweepRunner(workers=1).submit(recording_worker, tasks).as_completed()
        assert executed == []  # nothing runs until the consumer pulls
        first = next(stream)
        assert executed == [0] and first[1] == 0
        rest = list(stream)
        assert executed == [0, 1, 2, 3, 4]
        assert [value for _, value in rest] == [1, 2, 3, 4]

    def test_map_is_ordered_on_unordered_backends(self, tmp_path):
        tasks = expand_grid(params=[{"value": v} for v in range(16)], seed=9)
        runner = SweepRunner(workers=4, backend="queue", store=ArtifactCache(root=tmp_path))
        results = runner.map(_square_worker, tasks, shared={"offset": 0})
        assert [r["index"] for r in results] == list(range(16))

    def test_progress_callback_sees_every_completion(self):
        seen = []
        runner = SweepRunner(
            workers=1, progress=lambda task, result, done, total: seen.append((done, total))
        )
        runner.map(_square_worker, expand_grid(params=[{"value": v} for v in range(4)]), {"offset": 0})
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1),
    ])
    def test_worker_errors_propagate(self, backend, workers):
        tasks = expand_grid(params=[{"value": v} for v in range(8)], seed=4)
        runner = SweepRunner(workers=workers, backend=backend)
        with pytest.raises(RuntimeError, match="boom"):
            runner.map(_failing_worker, tasks, shared={"bad": 3})

    def test_submit_results_matches_map(self, tmp_path):
        tasks = expand_grid(params=[{"value": v} for v in range(6)], seed=3)
        runner = SweepRunner(workers=2, backend="queue", store=ArtifactCache(root=tmp_path))
        execution = runner.submit(_square_worker, tasks, shared={"offset": 1})
        assert len(execution) == 6
        assert execution.results() == SweepRunner(workers=1).map(
            _square_worker, tasks, shared={"offset": 1}
        )


class TestRobustness:
    """The retry budget is the queue's; a serial run attempts each task once."""

    def test_retries_recover_transient_failures(self, tmp_path):
        tasks = expand_grid(params=[{"value": v} for v in range(6)], seed=9)
        runner = SweepRunner(
            workers=3,
            backend="queue",
            store=ArtifactCache(root=tmp_path / "store"),
            retries=1,
            backoff=0.01,
        )
        results = runner.map(
            _flaky_then_ok_worker, tasks, shared={"fail_times": 1, "counts": str(tmp_path)}
        )
        assert results == [v * 10 for v in range(6)]
        # each task failed once, then its retry (on any worker) succeeded
        assert [_attempts(tmp_path, task) for task in tasks] == [2] * 6

    def test_zero_retries_by_default(self, tmp_path):
        """A serial run attempts each task once, whatever the retry budget."""
        tasks = expand_grid(params=[{"value": 1}, {"value": 2}], seed=9)
        for retries in (None, 2):
            counts = tmp_path / f"retries-{retries}"
            counts.mkdir()
            with pytest.raises(RuntimeError, match="transient glitch"):
                SweepRunner(workers=1, retries=retries).map(
                    _flaky_then_ok_worker, tasks, shared={"fail_times": 1, "counts": str(counts)}
                )
            assert _attempts(counts, tasks[0]) == 1

    def test_worker_identity_unwraps_retry_wrapper(self):
        assert worker_identity(_square_worker).endswith("._square_worker")

    def test_store_label_covers_shared_payload(self):
        a = store_label("fig9a", {"num_words": 256})
        b = store_label("fig9a", {"num_words": 512})
        assert a != b and a.startswith("fig9a#")
        # an undigestable payload needs the label to vouch for the config
        assert store_label("fig9a", {"live": object()}) == "fig9a"
        with pytest.raises(ValueError, match="sweep_label"):
            store_label("", {"live": object()})


class TestArtifactCache:
    def test_memory_layer_thread_safe(self, tmp_path):
        # one cache object may serve several threads: hammer the
        # check-then-evict bookkeeping from many threads at a tiny capacity
        import concurrent.futures

        cache = ArtifactCache(root=tmp_path, memory_items=2)

        def worker(thread_index):
            for step in range(200):
                key = {"k": (thread_index * 200 + step) % 7}
                cache.get_or_create("sweep-result", key, lambda: step)
            return True

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            assert all(pool.map(worker, range(8)))

    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        key = {"benchmark": "mnist", "seed": 1}
        assert cache.get("prepared-benchmark", key) is None
        cache.put("prepared-benchmark", key, {"payload": 42})
        assert cache.get("prepared-benchmark", key) == {"payload": 42}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_get_or_create_runs_factory_once(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        calls = []

        def factory():
            calls.append(1)
            return "artifact"

        assert cache.get_or_create("kind", {"k": 1}, factory) == "artifact"
        assert cache.get_or_create("kind", {"k": 1}, factory) == "artifact"
        assert len(calls) == 1

    def test_persistence_across_instances(self, tmp_path):
        ArtifactCache(root=tmp_path).put("kind", {"k": 1}, [1, 2, 3])
        fresh = ArtifactCache(root=tmp_path)
        assert fresh.get("kind", {"k": 1}) == [1, 2, 3]

    def test_disabled_cache_never_hits(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=False)
        cache.put("kind", {"k": 1}, "value")
        assert cache.get("kind", {"k": 1}) is None
        assert not list(tmp_path.rglob("*.pkl"))

    def test_array_content_addressing(self):
        base = {"weights": np.arange(10.0), "seed": 1}
        same = {"weights": np.arange(10.0), "seed": 1}
        different = {"weights": np.arange(10.0) + 1e-12, "seed": 1}
        assert cache_digest(base) == cache_digest(same)
        assert cache_digest(base) != cache_digest(different)

    def test_key_order_is_canonical(self):
        assert cache_digest({"a": 1, "b": 2}) == cache_digest({"b": 2, "a": 1})

    def test_encoding_is_length_delimited(self):
        """Regression: adjacent variable-length components must not re-split
        into a colliding key."""
        assert cache_digest({"k": ["xstr:y"]}) != cache_digest({"k": ["x", "y"]})
        assert cache_digest({"k": ["ab", "c"]}) != cache_digest({"k": ["a", "bc"]})
        assert cache_digest({"k": [["a"], []]}) != cache_digest({"k": [[], ["a"]]})
        assert cache_digest({"k": "int:1"}) != cache_digest({"k": 1})

    def test_distinct_kinds_do_not_collide(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.put("kind-a", {"k": 1}, "a")
        cache.put("kind-b", {"k": 1}, "b")
        assert cache.get("kind-a", {"k": 1}) == "a"
        assert cache.get("kind-b", {"k": 1}) == "b"

    def test_unhashable_key_component_rejected(self):
        with pytest.raises(TypeError):
            cache_digest({"bad": object()})

    def test_nested_keys_and_scalars(self):
        key = {
            "nested": {"list": [1, 2.5, "s", None], "flag": True},
            "tuple": (np.float64(1.0), np.int32(2)),
        }
        assert cache_digest(key) == cache_digest(key)

    def test_pickled_cache_drops_memory_layer(self, tmp_path):
        import pickle

        cache = ArtifactCache(root=tmp_path)
        cache.put("kind", {"k": 1}, "value")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone._memory == {}
        # but the disk layer is shared, so the clone still hits
        assert clone.get("kind", {"k": 1}) == "value"


class TestDriverEquivalence:
    """Parallel and serial sweeps must produce identical tables."""

    def test_fig9a_parallel_matches_serial(self):
        voltages = np.array([0.44, 0.50, 0.54])
        serial = run_fig9a(voltages=voltages, num_words=128, runner=SweepRunner(workers=1))
        parallel = run_fig9a(voltages=voltages, num_words=128, runner=SweepRunner(workers=2))
        for a, b in zip(serial.points, parallel.points):
            assert (a.voltage, a.measured_rate, a.predicted_rate, a.word_rate) == (
                b.voltage,
                b.measured_rate,
                b.predicted_rate,
                b.word_rate,
            )

    def test_fig9a_three_backends_identical(self, tmp_path):
        """Seeded mini-sweep through the serial backend, a queue chosen by
        name, and the queue a runner that chose no backend gets."""
        voltages = np.array([0.46, 0.52])
        rows = []
        for backend, workers in (("serial", 1), ("queue", 2), (None, 2)):
            result = run_fig9a(
                voltages=voltages,
                num_words=96,
                runner=SweepRunner(
                    workers=workers,
                    backend=backend,
                    store=ArtifactCache(root=tmp_path / str(backend)),
                ),
            )
            rows.append(
                [
                    (p.voltage, p.measured_rate, p.predicted_rate, p.word_rate)
                    for p in result.points
                ]
            )
        assert rows[0] == rows[1] == rows[2]

    def test_fig5_cold_and_warm_cache_identical(self, tmp_path):
        # serial runner: cache stats are per-process, so the stores/hits
        # assertions are only meaningful when the tasks run in this process
        kwargs = dict(
            fault_rates=(0.01, 0.05),
            num_samples=400,
            adaptive_epochs=4,
            seed=2,
            runner=SweepRunner(workers=1),
        )
        cache = ArtifactCache(root=tmp_path)
        cold = run_fig5(cache=cache, **kwargs)
        stores_after_cold = cache.stats.stores
        warm = run_fig5(cache=cache, **kwargs)
        assert cache.stats.stores == stores_after_cold  # nothing retrained
        assert cache.stats.hits > 0
        for a, b in zip(cold.points, warm.points):
            assert (a.fault_rate, a.naive_error, a.adaptive_error) == (
                b.fault_rate,
                b.naive_error,
                b.adaptive_error,
            )

    def test_fig10_cold_and_warm_cache_identical(self, tmp_path):
        kwargs = dict(
            benchmarks=("inversek2j",),
            voltages=(0.90, 0.50, 0.48),
            num_samples=400,
            adaptive_epochs=10,
            seed=3,
            runner=SweepRunner(workers=1),
        )
        cache = ArtifactCache(root=tmp_path)
        cold = run_fig10(cache=cache, **kwargs)
        stores_after_cold = cache.stats.stores
        assert stores_after_cold > 0
        warm = run_fig10(cache=cache, **kwargs)
        assert cache.stats.stores == stores_after_cold  # nothing retrained
        assert cache.stats.hits > 0
        disabled = run_fig10(
            cache=ArtifactCache(root=tmp_path / "disabled", enabled=False), **kwargs
        )

        def points(result):
            return [
                (p.voltage, p.bit_fault_rate, p.naive_error, p.adaptive_error)
                for p in result.sweep_for("inversek2j").points
            ]

        assert points(warm) == points(cold) == points(disabled)
        tables = [r.to_experiment_result().to_text() for r in (cold, warm, disabled)]
        assert tables[1] == tables[0] and tables[2] == tables[0]
        # the adaptive walk derives its sweep maps; it stores none
        assert not (tmp_path / "fault-map-sweep").exists()

    def test_fig5_cache_disabled_matches_cached(self, tmp_path):
        kwargs = dict(
            fault_rates=(0.02,), num_samples=400, adaptive_epochs=3, seed=4
        )
        cached = run_fig5(cache=ArtifactCache(root=tmp_path), **kwargs)
        uncached = run_fig5(cache=ArtifactCache(root=tmp_path / "x", enabled=False), **kwargs)
        for a, b in zip(cached.points, uncached.points):
            assert (a.naive_error, a.adaptive_error) == (b.naive_error, b.adaptive_error)

    def test_fig5_warm_hit_restores_masked_view(self, tmp_path):
        """Regression: a cache hit must reinstall the quantized+masked
        effective view the trainer leaves behind, not just master weights.
        Uses an MSE benchmark so even a tiny prediction drift is caught."""
        kwargs = dict(
            benchmark="inversek2j",
            fault_rates=(0.05,),
            num_samples=300,
            adaptive_epochs=3,
            seed=6,
            runner=SweepRunner(workers=1),
        )
        cache = ArtifactCache(root=tmp_path)
        cold = run_fig5(cache=cache, **kwargs)
        assert cache.stats.stores > 0
        warm = run_fig5(cache=cache, **kwargs)
        assert warm.points[0].adaptive_error == cold.points[0].adaptive_error
        assert warm.points[0].naive_error == cold.points[0].naive_error

    def test_fig10_parallel_matches_serial(self, tmp_path, private_dirs):
        """An unnamed two-worker run is bit-identical to the serial one, and
        its queue publishes to a private store it deletes: nothing lands in
        the runner's store (the default cache) or the driver's cache."""
        serial = run_fig10(
            runner=SweepRunner(workers=1), cache=ArtifactCache(root=tmp_path / "a"), **_FIG10
        )
        parallel = run_fig10(
            runner=SweepRunner(workers=2), cache=ArtifactCache(root=tmp_path / "b"), **_FIG10
        )
        assert _fig10_points(parallel) == _fig10_points(serial)
        assert len(private_dirs) == 1 and not private_dirs[0].exists()
        assert not (tmp_path / "default").exists()
        assert not {"queue", "sweep-shard"} & {path.name for path in (tmp_path / "b").iterdir()}

    def test_cache_disabled_parallel_matches_serial(self, tmp_path, private_dirs, monkeypatch):
        """With ``$REPRO_CACHE_DISABLE`` a named two-worker run still runs on
        a private store and matches the cache-disabled serial reference."""
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        serial = run_fig10(runner=SweepRunner(workers=1), **_FIG10)
        parallel = run_fig10(runner=SweepRunner(workers=2, sweep_label="fig10"), **_FIG10)
        assert _fig10_points(parallel) == _fig10_points(serial)
        assert len(private_dirs) == 1 and not private_dirs[0].exists()
        assert not (tmp_path / "default").exists()

    def test_private_store_removed_after_close_mid_stream(self, private_dirs):
        tasks = expand_grid(params=[{"value": v} for v in range(6)], seed=3)
        execution = SweepRunner(workers=2).submit(_square_worker, tasks, shared={"offset": 0})
        stream = execution.as_completed()  # held: dropping it would close the sweep
        next(stream)
        assert len(private_dirs) == 1 and private_dirs[0].exists()
        execution.close()
        assert not private_dirs[0].exists()
        # a submission closed before its first result makes no store at all
        SweepRunner(workers=2).submit(_square_worker, tasks, shared={"offset": 0}).close()
        assert len(private_dirs) == 1


#: A two-task fig10 grid (one naive, one adaptive task).
_FIG10 = dict(
    benchmarks=("inversek2j",), voltages=(0.90, 0.50), num_samples=300, adaptive_epochs=4, seed=5
)


def _fig10_points(result):
    return [
        (p.voltage, p.bit_fault_rate, p.naive_error, p.adaptive_error)
        for p in result.sweep_for("inversek2j").points
    ]


@pytest.fixture
def private_dirs(tmp_path, monkeypatch):
    """Every directory ``tempfile.mkdtemp`` makes (the private stores), made
    under ``tmp_path``; the default cache is ``tmp_path/default``."""
    made = []
    mkdtemp = tempfile.mkdtemp

    def recording(*args, **kwargs):
        made.append(Path(mkdtemp(*args, **{**kwargs, "dir": tmp_path})))
        return str(made[-1])

    monkeypatch.setattr(tempfile, "mkdtemp", recording)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
    monkeypatch.setattr(cache_module, "_DEFAULT_CACHE", None)
    return made


class TestDriverCLIs:
    """Every driver CLI must build its parser with the shared sweep flags."""

    @pytest.mark.parametrize("module_name", [
        "fig05_mat_sweep",
        "fig09_sram",
        "fig10_error_vs_voltage",
        "fig11_energy",
        "fig12_temperature",
        "table1_application_error",
        "table2_energy_scenarios",
        "table3_comparison",
        "scaling_geometry",
        "variation_scenarios",
        "fleet_population",
    ])
    def test_help_exits_cleanly_with_shared_flags(self, module_name, capsys):
        module = importlib.import_module(f"repro.experiments.{module_name}")
        with pytest.raises(SystemExit) as info:
            module.main(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for flag in (
            "--workers", "--backend", "--stream",
            "--retries", "--task-timeout", "--backoff",
        ):
            assert flag in out, f"{module_name} --help is missing {flag}"
        assert "--shard" not in out, "the queue backend is the one way to split a grid"
        if module_name in ("fig10_error_vs_voltage", "table1_application_error"):
            # the adaptive column's warm-start toggle (and its cold-path
            # spelling) must be advertised by both drivers that run it
            for flag in ("--warm-start", "--no-warm-start"):
                assert flag in out, f"{module_name} --help is missing {flag}"

    def test_queue_backend_refuses_a_disabled_cache(self, monkeypatch, tmp_path):
        """``$REPRO_CACHE_DISABLE`` turns off the store a CLI builds; the
        queue publishes through that store, so it refuses to run rather than
        run a sweep whose results nobody could recall."""
        from repro.experiments import cache, fig09_sram

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        monkeypatch.setattr(cache, "_DEFAULT_CACHE", None)
        with pytest.raises(ValueError, match="REPRO_CACHE_DISABLE"):
            fig09_sram.main(["--figure", "a", "--num-words", "256", "--voltages", "0.42",
                             "0.46", "--backend", "queue", "--workers", "1"])
        assert not any(tmp_path.iterdir())  # nothing queued, nothing published

    def test_shard_label_is_pinned_across_execution_flags(self, monkeypatch, tmp_path):
        """The result-store label digests only what a sweep computes, so
        execution flags never move it, and results published by earlier
        versions are still recalled."""
        from repro.experiments import fig09_sram
        from repro.experiments.common import runner_from_args

        labels = []
        monkeypatch.setattr(
            fig09_sram,
            "run_experiment_cli",
            lambda args, sweep, invoke: labels.append(
                runner_from_args(args, sweep)[0].sweep_label
            ),
        )
        grid = ["--figure", "a", "--num-words", "256", "--cache-dir", str(tmp_path),
                "--voltages", "0.42", "0.46", "0.50", "0.54"]
        fig09_sram.main(grid)
        fig09_sram.main([*grid, "--backend", "queue", "--workers", "2"])
        # the smallest accepted value of every range-checked flag parses
        fig09_sram.main([*grid, "--workers", "1", "--retries", "0",
                         "--backoff", "0", "--task-timeout", "0.5"])
        assert labels == ["fig9a:753e1b9647859de2"] * 3

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"),
        ("--workers", "-2"),
        ("--workers", "nan"),
        ("--retries", "-3"),
        ("--retries", "nan"),
        ("--backoff", "-1"),
        ("--backoff", "nan"),
        ("--backoff", "inf"),
        ("--task-timeout", "0"),
        ("--task-timeout", "-1"),
        ("--task-timeout", "nan"),
        ("--task-timeout", "inf"),
    ])
    def test_out_of_range_execution_flags_rejected(self, flag, value, capsys):
        from repro.experiments import fig09_sram

        with pytest.raises(SystemExit) as info:
            fig09_sram.main(["--figure", "a", flag, value])
        assert info.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err

    def test_queue_and_fault_modules_load_lazily(self, tmp_path):
        """A serial driver run never imports the queue machinery, nor
        ``multiprocessing`` or ``concurrent.futures``; importing the queue,
        and a queue run without a fault plan, never import the chaos
        harness; yet the package still exports every name."""
        import subprocess
        import sys

        from repro.experiments.faults import ENV_FAULT_PLAN

        script = (
            "import sys\n"
            "def loaded(names):\n"
            "    return sorted(m for m in names if f'repro.experiments.{m}' in sys.modules)\n"
            "import repro.experiments.fig10_error_vs_voltage\n"
            "print(loaded(('faults', 'leases', 'queue')))\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')\n"
            "             if m in sys.modules))\n"
            "import repro.experiments.queue\n"
            "print(loaded(('faults', 'queue')))\n"
            "from repro.experiments.fig09_sram import main\n"
            "main(['--figure', 'a', '--voltages', '0.5', '0.54', '--num-words', '32',\n"
            f"      '--backend', 'queue', '--workers', '1', '--cache-dir', {str(tmp_path)!r}])\n"
            "print(loaded(('faults',)))\n"
            "from repro.experiments import FaultPlan, QueueBackend\n"
            "print(FaultPlan.__module__, QueueBackend.__module__)\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop(ENV_FAULT_PLAN, None)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        lines = result.stdout.splitlines()
        assert lines[:3] == ["[]", "[]", "['queue']"]
        assert "Fig. 9a" in result.stdout
        assert lines[-2:] == ["[]", "repro.experiments.faults repro.experiments.queue"]

    @pytest.mark.parametrize("flags, message", [
        (["--backend", "broker"], "invalid choice: 'broker'"),
        (["--broker", "127.0.0.1:7464"], "unrecognized arguments: --broker"),
        (["--backend", "process"], "invalid choice: 'process'"),
    ])
    def test_removed_backend_flags_rejected(self, flags, message, capsys, monkeypatch):
        from repro.experiments import fig09_sram

        with pytest.raises(SystemExit) as info:
            fig09_sram.main(["--figure", "a", *flags])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        if flags[0] == "--backend":
            # nor can the environment select it, whatever the worker count
            monkeypatch.setenv("REPRO_SWEEP_BACKEND", flags[1])
            for workers in ("1", "2"):
                with pytest.raises(ValueError, match=f"unknown sweep backend '{flags[1]}'"):
                    fig09_sram.main(["--figure", "a", "--num-words", "64",
                                     "--voltages", "0.5", "0.6", "--workers", workers])


#: Per-driver (cheap grid args, poison match) for the quarantine-rendering
#: sweep below.  Matches address one task's ``describe()`` string, so the
#: queue workers' fault plan quarantines that task while the rest of the
#: grid completes and the CLI must still print a merged table.
_QUARANTINE_CASES = [
    (
        "fig05_mat_sweep",
        ["--fault-rates", "0.02", "0.05", "--num-samples", "200",
         "--adaptive-epochs", "2"],
        "fault_rate=0.05",
    ),
    (
        "fig09_sram",
        ["--figure", "a", "--voltages", "0.45", "0.50"],
        "voltage=0.45",
    ),
    (
        "fig10_error_vs_voltage",
        ["--benchmarks", "inversek2j", "--voltages", "0.9", "0.5",
         "--num-samples", "200", "--adaptive-epochs", "2"],
        "mode=adaptive",
    ),
    ("fig11_energy", [], "point=optimized"),
    (
        "table1_application_error",
        ["--benchmarks", "inversek2j", "--voltages", "0.9", "0.5", "0.46",
         "--num-samples", "200", "--adaptive-epochs", "2"],
        "mode=adaptive",
    ),
    ("table2_energy_scenarios", [], "mode=EnOpt_joint"),
    ("table3_comparison", ["--num-samples", "200"], "mode=matic"),
    (
        "scaling_geometry",
        ["--workloads", "inversek2j", "--num-pes", "4", "8",
         "--words-per-bank", "128", "--num-samples", "200"],
        "num_pes=8",
    ),
    (
        "variation_scenarios",
        ["--shapes", "iid", "region", "--strengths", "0.5", "--num-dies", "2",
         "--num-pes", "4", "--words-per-bank", "128", "--num-samples", "200",
         "--skip-error"],
        "shape=region",
    ),
    (
        "fleet_population",
        ["--dies", "2", "--requests", "4", "--num-pes", "4",
         "--words-per-bank", "128", "--num-samples", "200"],
        "die=1",
    ),
]


class TestQuarantineRendering:
    """A poisoned task must degrade a driver CLI, never crash it.

    Every driver runs its cheapest grid on the queue backend with a fault
    plan that poisons one task (``PoisonTask`` via ``$REPRO_FAULT_PLAN``,
    ``--retries 0`` so the first failed attempt quarantines).  The CLI must
    still print the merged table — healthy rows plus a ``QUARANTINED`` row
    per sentinel — and exit nonzero so scripted callers notice.
    """

    @pytest.fixture(scope="class")
    def shared_cache_dir(self, tmp_path_factory):
        # one artifact cache across all drivers: prepared benchmarks and
        # adaptive trainings recall across parametrized cases
        return str(tmp_path_factory.mktemp("quarantine-cli-cache"))

    @pytest.mark.parametrize(
        "module_name, args, match",
        _QUARANTINE_CASES,
        ids=[case[0] for case in _QUARANTINE_CASES],
    )
    def test_poisoned_task_renders_quarantined_row(
        self, module_name, args, match, shared_cache_dir, monkeypatch, capsys
    ):
        from repro.experiments.faults import ENV_FAULT_PLAN, FaultPlan, PoisonTask

        plan = FaultPlan(rules=(PoisonTask(match=match),))
        monkeypatch.setenv(ENV_FAULT_PLAN, plan.to_json())
        module = importlib.import_module(f"repro.experiments.{module_name}")
        code = module.main(
            args
            + [
                "--backend", "queue", "--workers", "1", "--retries", "0",
                "--backoff", "0.05", "--cache-dir", shared_cache_dir,
            ]
        )
        out = capsys.readouterr().out
        assert code == 1, f"{module_name} must exit nonzero when degraded"
        rows = [
            line for line in out.splitlines() if line.lstrip().startswith("QUARANTINED")
        ]
        assert len(rows) == 1, "one poisoned task renders exactly one row"
        assert match in out, "the quarantined row must describe the lost task"
        assert "quarantined task(s); exiting nonzero" in out
        # the table itself still rendered (headers plus separator rule)
        assert "---" in out

    def test_quarantined_adaptive_point_blanks_the_fault_rate(self, tmp_path):
        """A quarantined adaptive task must blank its bit-fault-rate cells.

        The fault rate rides on the adaptive task's profiling pass, so when
        that task is lost the rate was never measured — rendering ``0.00%``
        would claim a fault-free SRAM at an overscaled voltage.  The cell
        must render "-" like the error cells (the regression this pins down:
        ``adaptive["fault_rate"] if adaptive else 0.0``)."""
        from repro.experiments.cache import ArtifactCache
        from repro.experiments.engine import QuarantinedTask, SweepRunner
        from repro.experiments.fig10_error_vs_voltage import run_fig10

        class AdaptivePoisonedRunner(SweepRunner):
            """Serial runner that quarantines every adaptive task."""

            def map(self, worker, tasks, shared=None):
                for task in tasks:
                    if task.mode == "adaptive":
                        yield QuarantinedTask(
                            task=task, digest="poisoned", attempts=1
                        )
                    else:
                        yield worker(shared, task)

        result = run_fig10(
            benchmarks=("inversek2j",),
            voltages=(0.9, 0.5),
            num_samples=200,
            adaptive_epochs=2,
            runner=AdaptivePoisonedRunner(),
            cache=ArtifactCache(root=tmp_path / "cache"),
        )
        sweep = result.sweep_for("inversek2j")
        nominal = sweep.point_at(0.9)
        overscaled = sweep.point_at(0.5)
        assert nominal.bit_fault_rate == 0.0  # fault-free by construction
        assert nominal.naive_error is not None
        assert overscaled.bit_fault_rate is None  # never measured
        assert overscaled.adaptive_error is None
        text = result.to_experiment_result().to_text()
        assert "QUARANTINED" in text
        row = next(
            line for line in text.splitlines() if line.lstrip().startswith("inversek2j") and "0.50" in line
        )
        assert "0.00%" not in row, "a lost measurement must not render as 0.00%"
        assert "-" in row

    def test_serial_walk_driver_renders_recalled_sentinels(self):
        """Fig. 12's forced-serial walk cannot be poisoned through the queue,
        but a result may still carry recalled sentinels — rendering must
        tolerate them like every grid driver."""
        from repro.experiments.fig12_temperature import Fig12Result

        result = Fig12Result(
            benchmark="inversek2j",
            target_voltage=0.50,
            nominal_error=0.01,
            steps=[],
            quarantined=["quarantined after 1 attempt(s) — temperature=85.0"],
        )
        text = result.to_experiment_result().to_text()
        assert "QUARANTINED" in text
        assert "temperature=85.0" in text


def _table(out: str) -> list[str]:
    """A CLI's printed lines minus the ``--stream`` ``[i/n]`` progress lines."""
    return [line for line in out.splitlines() if not line.startswith("[")]


def _blank_column(lines: list[str], header: str) -> list[str]:
    """``lines`` with the cells of one fixed-width table column blanked."""
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    start = lines[rule - 1].index(header)
    end = lines[rule].find(" ", start)
    end = len(lines[rule]) if end < 0 else end
    table_end = lines.index("", rule)
    return [
        line[:start] + " " * (end - start) + line[end:]
        if rule - 1 <= i < table_end
        else line
        for i, line in enumerate(lines)
    ]


#: Small grids the CLI table diffs below run on two queue coordinators.
_TWO_COORDINATOR_CASES = [
    (
        "fig09_sram",
        ["--figure", "a", "--num-words", "256",
         "--voltages", "0.42", "0.46", "0.50", "0.54"],
    ),
    (
        "fleet_population",
        ["--dies", "4", "--requests", "12", "--voltages", "0.9", "0.5",
         "--num-pes", "4", "--words-per-bank", "128", "--num-samples", "300"],
    ),
]


class TestCliTableDiffs:
    """A driver CLI's table must not depend on how its sweep executed.

    Each case runs ``main(argv)`` of one driver under different execution
    flags (two coordinators, backends, a fault plan, the warm-start toggle) and
    compares the printed tables line for line, with the ``--stream``
    progress lines dropped.
    """

    @pytest.mark.parametrize(
        "module_name, args",
        _TWO_COORDINATOR_CASES,
        ids=[case[0] for case in _TWO_COORDINATOR_CASES],
    )
    def test_two_coordinators_match_default_backend(
        self, module_name, args, tmp_path, monkeypatch, capsys
    ):
        """Two queue coordinators share one ``--cache-dir``: one runs as
        ``python -m`` in a subprocess, the other in this process with a
        delay rule slowing its worker, so the two overlap.  Both print the
        serial backend's table, and each task is published once.  The
        serial reference runs on the same ``--cache-dir`` but recalls no
        published result, so the comparison is not with the queue's own.

        The subprocess pins ``common.dispatch_canonical_main``: without it,
        its workers live in ``__main__`` and publish where this process's
        coordinator cannot recall them — every task would publish twice."""
        import subprocess
        import sys

        from repro.experiments.faults import ENV_FAULT_PLAN

        args = [*args, "--cache-dir", str(tmp_path)]
        queue = [*args, "--backend", "queue", "--workers", "1", "--stream"]
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop(ENV_FAULT_PLAN, None)
        other = subprocess.Popen(
            [sys.executable, "-m", f"repro.experiments.{module_name}", *queue],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            monkeypatch.setenv(ENV_FAULT_PLAN, '[{"kind": "delay", "worker": 0, "seconds": 0.1}]')
            module = importlib.import_module(f"repro.experiments.{module_name}")
            assert module.main(queue) == 0
            out = capsys.readouterr().out
            other_out, other_err = other.communicate(timeout=60)
        finally:
            if other.poll() is None:
                other.kill()
                other.wait()
        assert other.returncode == 0, other_err
        monkeypatch.delenv(ENV_FAULT_PLAN)
        assert module.main([*args, "--backend", "serial"]) == 0
        serial = _table(capsys.readouterr().out)
        assert _table(out) == serial
        assert _table(other_out) == serial
        total = int(out.splitlines()[0].split("/")[1].split("]")[0])  # "[i/N] ..."
        assert len(list((tmp_path / "sweep-shard").glob("*.pkl"))) == total

    def test_queue_kill_and_resume_match_default_backend(
        self, tmp_path, monkeypatch, capsys
    ):
        """fig9a on the queue backend while a fault plan SIGKILLs worker 0
        after its first publish, then a fresh resume: the resumed table is
        the serial backend's, and the store the chaos run published
        through verifies clean."""
        from repro.experiments import cache as cache_cli
        from repro.experiments import fig09_sram
        from repro.experiments.faults import ENV_FAULT_PLAN

        args = ["--figure", "a", "--num-words", "256",
                "--voltages", "0.42", "0.46", "0.50", "0.54",
                "--cache-dir", str(tmp_path)]
        queue = [*args, "--backend", "queue", "--workers", "2", "--stream"]
        monkeypatch.setenv(
            ENV_FAULT_PLAN,
            '[{"kind": "kill", "worker": 0, "after_tasks": 1, "phase": "publish"}]',
        )
        assert fig09_sram.main(queue) == 0
        monkeypatch.delenv(ENV_FAULT_PLAN)
        capsys.readouterr()
        assert fig09_sram.main(queue) == 0
        resumed = _table(capsys.readouterr().out)
        assert fig09_sram.main([*args, "--backend", "serial"]) == 0
        assert resumed == _table(capsys.readouterr().out)
        assert cache_cli.main(["--root", str(tmp_path), "verify", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 0, report["corrupt"]

    def test_fig10_cold_path_differs_only_in_adaptive_cells(self, tmp_path, capsys):
        """``--no-warm-start`` retrains each voltage from the baseline, so
        only the adaptive error column may differ from the warm-start table."""
        from repro.experiments import fig10_error_vs_voltage

        args = ["--benchmarks", "inversek2j", "--voltages", "0.9", "0.5", "0.48",
                "--num-samples", "400", "--adaptive-epochs", "10",
                "--cache-dir", str(tmp_path)]
        tables = []
        for flag in ("--no-warm-start", "--warm-start"):
            assert fig10_error_vs_voltage.main([*args, flag]) == 0
            tables.append(capsys.readouterr().out.splitlines())
        for table in tables:
            assert not any("QUARANTINED" in line for line in table)
        cold, warm = (_blank_column(table, "adaptive") for table in tables)
        assert cold == warm
