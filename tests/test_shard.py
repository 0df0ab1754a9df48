"""Shard-partition invariants and the cache-backed shard merge.

The contract that lets a fleet split one grid: for any shard count the
shards must be *disjoint* and *cover* the grid, the assignment must be
*stable under task-list reordering* (it hashes task content, never list
position), and a split run merged through the artifact cache must be
bit-identical to the unsharded run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.cache import (
    ArtifactCache,
    SHARD_RESULT_KIND,
    collect_shard_results,
    shard_result_key,
)
from repro.experiments.engine import (
    ShardIncompleteError,
    ShardSpec,
    SweepRunner,
    expand_grid,
    task_digest,
)


def _worker(shared, task):
    rng = np.random.default_rng(task.seed)
    return {
        "index": task.index,
        "value": task.param("value", 0) * 3 + (shared or {}).get("offset", 0),
        "draw": float(rng.uniform()),
    }


def _random_grid(rng: np.random.Generator):
    """A random mixed grid exercising both axis-style and params-style tasks."""
    if rng.uniform() < 0.5:
        return expand_grid(
            benchmarks=[f"bench{i}" for i in range(rng.integers(1, 4))],
            voltages=[round(float(v), 3) for v in rng.uniform(0.4, 0.9, rng.integers(1, 5))],
            modes=["naive", "adaptive"][: rng.integers(1, 3)],
            seed=int(rng.integers(0, 2**31)),
        )
    return expand_grid(
        params=[{"value": int(v)} for v in rng.integers(0, 100, rng.integers(1, 25))],
        seed=int(rng.integers(0, 2**31)),
    )


class TestShardSpec:
    def test_parse(self):
        spec = ShardSpec.parse("1/4")
        assert (spec.index, spec.count) == (1, 4)
        assert str(spec) == "1/4"

    @pytest.mark.parametrize("text", ["", "1", "1/", "/2", "a/b", "1/2/3", "2/2", "-1/2", "0/0"])
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_single_shard_owns_everything(self):
        tasks = expand_grid(params=[{"value": v} for v in range(10)], seed=1)
        assert ShardSpec(0, 1).partition(tasks) == tasks


class TestPartitionInvariants:
    """For random grids and all n in 1..8: disjoint, covering, order-stable."""

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(20260729)
        for _ in range(12):
            tasks = _random_grid(rng)
            digests = {task_digest(task) for task in tasks}
            assert len(digests) == len(tasks), "grid tasks must have unique digests"
            for count in range(1, 9):
                shards = [ShardSpec(i, count).partition(tasks) for i in range(count)]
                merged = [task for shard in shards for task in shard]
                # covering: every task lands in exactly one shard
                assert sorted(t.index for t in merged) == sorted(t.index for t in tasks)
                # disjoint: no task in two shards
                seen = [task_digest(t) for t in merged]
                assert len(seen) == len(set(seen))

    def test_stable_under_reordering(self):
        import random

        rng = np.random.default_rng(42)
        shuffler = random.Random(42)
        for _ in range(8):
            tasks = _random_grid(rng)
            shuffled = list(tasks)
            shuffler.shuffle(shuffled)
            for count in range(1, 9):
                for index in range(count):
                    spec = ShardSpec(index, count)
                    original = {task_digest(t) for t in spec.partition(tasks)}
                    reordered = {task_digest(t) for t in spec.partition(shuffled)}
                    assert original == reordered

    def test_digest_ignores_index_but_not_seed(self):
        task = expand_grid(params=[{"value": 1}], seed=9)[0]
        from dataclasses import replace

        assert task_digest(replace(task, index=99)) == task_digest(task)
        assert task_digest(replace(task, seed=task.seed + 1)) != task_digest(task)

    def test_digest_canonicalizes_sets_and_rejects_opaque_objects(self):
        # set iteration order is hash-randomized, so the digest must sort it;
        # objects with address-bearing reprs have no stable encoding at all
        # and must fail loudly rather than silently destabilize sharding
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

    def test_assignment_deterministic_across_processes(self):
        # the digest is content-addressed (sha256), not Python-hash based, so
        # PYTHONHASHSEED / process boundaries cannot reshuffle shards
        tasks = expand_grid(voltages=(0.5, 0.46, 0.44), seed=3)
        assignments = [
            [ShardSpec(i, 3).owns(task) for i in range(3)] for task in tasks
        ]
        assert all(sum(row) == 1 for row in assignments)
        again = [[ShardSpec(i, 3).owns(task) for i in range(3)] for task in tasks]
        assert assignments == again


class TestShardedMerge:
    def _runner(self, store, spec, label="mini"):
        return SweepRunner(
            workers=1, shard=spec, shard_store=store, sweep_label=label
        )

    def test_two_shard_split_merges_bit_identical(self, tmp_path):
        tasks = expand_grid(params=[{"value": v} for v in range(12)], seed=5)
        shared = {"offset": 7}
        reference = SweepRunner(workers=1).map(_worker, tasks, shared=shared)

        store = ArtifactCache(root=tmp_path)
        first = self._runner(store, ShardSpec(0, 2))
        second = self._runner(store, ShardSpec(1, 2))
        sizes = [len(ShardSpec(i, 2).partition(tasks)) for i in range(2)]
        assert sum(sizes) == len(tasks)

        if sizes[1] == 0:  # degenerate split: shard 0 owns the whole grid
            assert first.map(_worker, tasks, shared=shared) == reference
        else:
            with pytest.raises(ShardIncompleteError) as info:
                first.map(_worker, tasks, shared=shared)
            assert info.value.completed == sizes[0]
            assert len(info.value.missing) == sizes[1]
        merged = second.map(_worker, tasks, shared=shared)
        assert merged == reference

    def test_rerun_merges_from_cache_without_recompute(self, tmp_path):
        tasks = expand_grid(params=[{"value": v} for v in range(10)], seed=6)
        store = ArtifactCache(root=tmp_path)
        reference = SweepRunner(workers=1).map(_worker, tasks, shared=None)
        for index in range(2):
            try:
                self._runner(store, ShardSpec(index, 2)).map(_worker, tasks, shared=None)
            except ShardIncompleteError:
                pass
        rerun = self._runner(store, ShardSpec(0, 2))
        assert rerun.map(_worker, tasks, shared=None) == reference
        assert rerun.tasks_run == 0  # pure merge: everything recalled

    def test_labels_namespace_merges(self, tmp_path):
        """Slices published under one sweep label must not leak into another."""
        tasks = expand_grid(params=[{"value": v} for v in range(6)], seed=7)
        store = ArtifactCache(root=tmp_path)
        for index in range(2):
            try:
                self._runner(store, ShardSpec(index, 2), label="config-a").map(
                    _worker, tasks, shared=None
                )
            except ShardIncompleteError:
                pass
        other = self._runner(store, ShardSpec(0, 2), label="config-b")
        sizes = [len(ShardSpec(i, 2).partition(tasks)) for i in range(2)]
        if sizes[1] > 0:
            with pytest.raises(ShardIncompleteError):
                other.map(_worker, tasks, shared=None)
        assert other.tasks_run == sizes[0]  # recomputed, not recalled from config-a

    def test_disabled_store_rejected(self, tmp_path):
        tasks = expand_grid(params=[{"value": 1}, {"value": 2}], seed=8)
        runner = SweepRunner(
            workers=1,
            shard=ShardSpec(0, 2),
            shard_store=ArtifactCache(root=tmp_path, enabled=False),
        )
        with pytest.raises(ValueError, match="artifact cache"):
            runner.map(_worker, tasks, shared=None)

    def test_collect_shard_results_reports_missing(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.put(SHARD_RESULT_KIND, shard_result_key("s", "w", "d1"), {"result": 1})
        found, missing = collect_shard_results(cache, "s", "w", ["d1", "d2", "d1"])
        assert found == {"d1": {"result": 1}}
        assert missing == ["d2"]

    def test_worker_identity_keeps_sweeps_apart(self, tmp_path):
        """Two different workers over the same grid must not share results."""
        cache = ArtifactCache(root=tmp_path)
        key_a = shard_result_key("s", "module._worker", "d")
        key_b = shard_result_key("s", "module.other_worker", "d")
        cache.put(SHARD_RESULT_KIND, key_a, {"result": "a"})
        assert cache.get(SHARD_RESULT_KIND, key_b) is None

    def test_shared_payload_namespaces_the_store(self, tmp_path):
        """Same worker + grid with different shared payloads must not collide."""
        tasks = expand_grid(params=[{"value": v} for v in range(6)], seed=5)
        store = ArtifactCache(root=tmp_path)
        first = self._runner(store, ShardSpec(0, 1))
        a = first.map(_worker, tasks, shared={"offset": 10})
        second = self._runner(store, ShardSpec(0, 1))
        b = second.map(_worker, tasks, shared={"offset": 100})
        assert second.tasks_run == len(tasks)  # recomputed, not recalled
        assert [r["value"] for r in b] != [r["value"] for r in a]
        assert [r["value"] for r in b] == [v * 3 + 100 for v in range(6)]

    def test_undigestable_shared_requires_label(self, tmp_path):
        tasks = expand_grid(params=[{"value": 1}], seed=5)
        store = ArtifactCache(root=tmp_path)
        opaque = {"model": object()}
        runner = SweepRunner(workers=1, shard=ShardSpec(0, 1), shard_store=store)
        with pytest.raises(ValueError, match="sweep_label"):
            runner.map(_worker, tasks, shared=opaque)
        # an explicit label restores the contract: the caller vouches that
        # the label uniquely identifies this configuration
        labelled = self._runner(store, ShardSpec(0, 1), label="opaque-config")
        assert labelled.map(_worker, tasks, shared=opaque) is not None

    def test_stream_progress_counts_whole_slice_on_resume(self, tmp_path):
        """A resumed shard's progress spans the slice, recalled tasks included."""
        tasks = expand_grid(params=[{"value": v} for v in range(10)], seed=6)
        store = ArtifactCache(root=tmp_path)
        spec = ShardSpec(0, 2)
        mine = len(spec.partition(tasks))
        try:
            self._runner(store, spec).map(_worker, tasks, shared=None)
        except ShardIncompleteError:
            pass
        events = []
        resumed = SweepRunner(
            workers=1,
            shard=spec,
            shard_store=store,
            sweep_label="mini",
            progress=lambda task, result, done, total: events.append((done, total)),
        )
        try:
            resumed.map(_worker, tasks, shared=None)
        except ShardIncompleteError:
            pass
        # nothing was recomputed, yet every recalled task reported progress,
        # counting up over the shard's slice — not a [1/1]-style pending view
        assert resumed.tasks_run == 0
        assert events == [(i + 1, mine) for i in range(mine)]


class TestShardedDriver:
    """A real driver, split two ways, must reproduce the unsharded table."""

    def test_fig9a_two_shards_match_unsharded(self, tmp_path):
        from repro.experiments import run_fig9a

        voltages = np.arange(0.40, 0.561, 0.02)
        kwargs = dict(voltages=voltages, num_words=1024)
        reference = run_fig9a(runner=SweepRunner(workers=1), **kwargs)
        tasks = expand_grid(voltages=[float(v) for v in voltages], seed=3)
        sizes = [len(ShardSpec(i, 2).partition(tasks)) for i in range(2)]
        assert min(sizes) > 0  # a real split: each shard owns part of the grid

        def rows(result):
            return [
                (p.voltage, p.measured_rate, p.predicted_rate, p.word_rate)
                for p in result.points
            ]

        store = ArtifactCache(root=tmp_path)

        def shard_runner(index):
            return SweepRunner(
                workers=1,
                shard=ShardSpec(index, 2),
                shard_store=store,
                sweep_label="fig9a-test",
            )

        with pytest.raises(ShardIncompleteError) as info:
            run_fig9a(runner=shard_runner(0), **kwargs)
        assert info.value.completed == sizes[0]
        assert rows(run_fig9a(runner=shard_runner(1), **kwargs)) == rows(reference)
        # re-running shard 0 is now a pure merge out of the store
        rerun = shard_runner(0)
        assert rows(run_fig9a(runner=rerun, **kwargs)) == rows(reference)
        assert rerun.tasks_run == 0

    def test_fig12_rejects_sharding(self):
        from repro.experiments.fig12_temperature import run_fig12

        runner = SweepRunner(shard=ShardSpec(0, 2))
        with pytest.raises(ValueError, match="cannot be sharded"):
            run_fig12(runner=runner)
