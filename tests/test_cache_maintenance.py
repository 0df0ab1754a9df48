"""Size accounting, clear/prune, the repro.experiments.cache CLI, and the
encoding of array key components."""

from __future__ import annotations

import hashlib
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.experiments.cache import (
    SCHEMA_VERSION,
    ArtifactCache,
    cache_digest,
    main,
    parse_age,
    parse_size,
)


@pytest.fixture(autouse=True)
def _no_ambient_budget(monkeypatch):
    """Host environments may export a cache budget; these tests must not
    inherit it (several assert the *absence* of eviction)."""
    monkeypatch.delenv("REPRO_CACHE_BUDGET", raising=False)


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(root=tmp_path / "cache")


def populate(cache: ArtifactCache) -> None:
    cache.put("trained-weights", {"run": 1}, [1, 2, 3])
    cache.put("trained-weights", {"run": 2}, [4, 5, 6])
    cache.put("fault-map", {"bank": 0}, {"stuck": True})


class TestDiskStats:
    def test_empty_cache(self, cache):
        stats = cache.disk_stats()
        assert stats["total_entries"] == 0
        assert stats["total_bytes"] == 0
        assert stats["kinds"] == {}

    def test_counts_entries_and_bytes_per_kind(self, cache):
        populate(cache)
        stats = cache.disk_stats()
        assert stats["kinds"]["trained-weights"]["entries"] == 2
        assert stats["kinds"]["fault-map"]["entries"] == 1
        assert stats["total_entries"] == 3
        assert stats["total_bytes"] == sum(
            entry["bytes"] for entry in stats["kinds"].values()
        )
        assert stats["total_bytes"] > 0

    def test_idempotent_store_keeps_one_entry(self, cache):
        cache.put("trained-weights", {"run": 1}, [1])
        cache.put("trained-weights", {"run": 1}, [1])
        assert cache.disk_stats()["total_entries"] == 1


class TestClearAndPrune:
    def test_clear_all(self, cache):
        populate(cache)
        removed, freed = cache.clear()
        assert removed == 3
        assert freed > 0
        assert cache.disk_stats()["total_entries"] == 0
        assert cache.get("trained-weights", {"run": 1}) is None

    def test_clear_one_kind(self, cache):
        populate(cache)
        removed, _ = cache.clear(kind="fault-map")
        assert removed == 1
        assert cache.get("fault-map", {"bank": 0}) is None
        assert cache.get("trained-weights", {"run": 1}) == [1, 2, 3]

    def test_prune_by_age(self, cache):
        populate(cache)
        old = time.time() - 3600
        target = cache._path("trained-weights", next(
            path.stem for _, path in cache._artifact_files("trained-weights")
        ))
        os.utime(target, (old, old))
        removed, freed = cache.prune(older_than_seconds=600)
        assert removed == 1
        assert freed > 0
        assert cache.disk_stats()["total_entries"] == 2

    def test_prune_keeps_recent(self, cache):
        populate(cache)
        removed, _ = cache.prune(older_than_seconds=3600)
        assert removed == 0
        assert cache.disk_stats()["total_entries"] == 3

    @pytest.mark.parametrize("kind", ["..", "../../etc", "/tmp", "a/b", ""])
    def test_kind_must_be_a_bare_name(self, cache, kind):
        """A kind with path separators must never escape the cache root."""
        populate(cache)
        with pytest.raises(ValueError):
            cache.clear(kind=kind)
        with pytest.raises(ValueError):
            cache.prune(older_than_seconds=0, kind=kind)
        assert cache.disk_stats()["total_entries"] == 3

    def test_kind_scoped_maintenance_keeps_other_kinds_in_memory(self, cache):
        """Evicting one kind must not flush unrelated kinds from the
        in-process layer."""
        populate(cache)
        cache.clear(kind="fault-map")
        # delete the trained-weights files behind the memory layer's back:
        # a memory hit is then the only way get() can still answer
        for _, path in list(cache._artifact_files("trained-weights")):
            path.unlink()
        assert cache.get("trained-weights", {"run": 1}) == [1, 2, 3]
        assert cache.get("fault-map", {"bank": 0}) is None  # evicted everywhere

    def test_disk_hit_refreshes_mtime_protecting_from_prune(self, cache):
        """An artifact recalled from disk counts as recently used."""
        cache.put("trained-weights", {"run": 1}, [1])
        for _, path in cache._artifact_files("trained-weights"):
            old = time.time() - 7200
            os.utime(path, (old, old))
        reopened = ArtifactCache(root=cache.root)  # cold memory layer
        assert reopened.get("trained-weights", {"run": 1}) == [1]
        removed, _ = reopened.prune(older_than_seconds=3600)
        assert removed == 0

    def test_prune_rejects_negative_age(self, cache):
        with pytest.raises(ValueError):
            cache.prune(older_than_seconds=-1)

    def test_prune_rejects_non_finite_age(self, cache):
        """NaN must error, not compare False against every mtime and wipe
        the whole store."""
        populate(cache)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cache.prune(older_than_seconds=bad)
        assert cache.disk_stats()["total_entries"] == 3


class TestOrphanedTempFiles:
    """Writers killed mid-put leave *.tmp files; maintenance must see them."""

    @staticmethod
    def orphan(cache, age_seconds=0.0):
        kind_dir = cache.root / "trained-weights"
        kind_dir.mkdir(parents=True, exist_ok=True)
        path = kind_dir / "deadbeef.tmp"
        path.write_bytes(b"x" * 100)
        if age_seconds:
            old = time.time() - age_seconds
            os.utime(path, (old, old))
        return path

    def test_disk_stats_reports_temp_bytes(self, cache):
        populate(cache)
        self.orphan(cache)
        stats = cache.disk_stats()
        assert stats["temp_files"] == {"entries": 1, "bytes": 100}
        # the totals reconcile: per-kind + temp files = totals
        assert stats["total_entries"] == 4
        assert stats["total_bytes"] == 100 + sum(
            entry["bytes"] for entry in stats["kinds"].values()
        )

    def test_clear_sweeps_temp_files(self, cache):
        populate(cache)
        path = self.orphan(cache)
        removed, _ = cache.clear()
        assert removed == 4
        assert not path.exists()

    def test_prune_sweeps_old_temp_files_only(self, cache):
        stale = self.orphan(cache, age_seconds=7200)
        fresh = stale.with_name("inflight.tmp")
        fresh.write_bytes(b"y" * 10)  # a writer still in flight
        removed, freed = cache.prune(older_than_seconds=3600)
        assert (removed, freed) == (1, 100)
        assert not stale.exists() and fresh.exists()


class TestVerifyCorruption:
    """Torn or truncated artifacts must degrade to misses, never crash —
    and ``verify``/``prune --corrupt`` must find and evict them."""

    @staticmethod
    def corrupt_kind(cache, kind="trained-weights"):
        paths = [path for _, path in cache._artifact_files(kind)]
        for path in paths:
            path.write_bytes(b"\x80\x05truncated mid-write")
        return paths

    def test_corrupt_artifact_degrades_to_miss(self, cache):
        populate(cache)
        self.corrupt_kind(cache)
        reopened = ArtifactCache(root=cache.root)  # cold memory layer
        assert reopened.get("trained-weights", {"run": 1}) is None
        assert reopened.get("fault-map", {"bank": 0}) == {"stuck": True}

    def test_verify_reports_without_removing(self, cache):
        populate(cache)
        paths = self.corrupt_kind(cache)
        report = cache.verify()
        assert len(report) == 2
        assert {entry["kind"] for entry in report} == {"trained-weights"}
        assert all(entry["error"] for entry in report)
        assert all(path.exists() for path in paths)

    def test_verify_remove_evicts_disk_and_memory(self, cache):
        populate(cache)
        paths = self.corrupt_kind(cache)
        removed = cache.verify(remove=True)
        assert len(removed) == 2
        assert not any(path.exists() for path in paths)
        # the memory layer must not keep answering for the evicted entries
        assert cache.get("trained-weights", {"run": 1}) is None
        assert cache.disk_stats()["total_entries"] == 1

    def test_verify_kind_scoped(self, cache):
        populate(cache)
        self.corrupt_kind(cache, "trained-weights")
        assert cache.verify(kind="fault-map") == []
        assert len(cache.verify(kind="trained-weights")) == 2

    def test_cli_verify_command(self, cache, capsys):
        populate(cache)
        self.corrupt_kind(cache)
        assert main(["--root", str(cache.root), "verify"]) == 0
        out = capsys.readouterr().out
        assert "corrupt [trained-weights]" in out
        assert "found 2 corrupt entries" in out
        assert cache.disk_stats()["total_entries"] == 3  # report only

    def test_cli_verify_remove(self, cache, capsys):
        populate(cache)
        self.corrupt_kind(cache)
        assert main(["--root", str(cache.root), "verify", "--remove"]) == 0
        assert "removed 2 corrupt entries" in capsys.readouterr().out
        assert cache.disk_stats()["total_entries"] == 1

    def test_cli_verify_json(self, cache, capsys):
        """--json emits one machine-readable object (what CI asserts on)."""
        populate(cache)
        self.corrupt_kind(cache)
        assert main(["--root", str(cache.root), "verify", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["root"] == str(cache.root)
        assert report["count"] == 2
        assert report["removed"] is False
        assert {entry["kind"] for entry in report["corrupt"]} == {"trained-weights"}
        assert all(entry["path"] and entry["error"] for entry in report["corrupt"])

    def test_cli_verify_json_clean_cache(self, cache, capsys):
        populate(cache)
        assert main(["--root", str(cache.root), "verify", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 0 and report["corrupt"] == []

    def test_cli_verify_json_remove(self, cache, capsys):
        populate(cache)
        self.corrupt_kind(cache)
        assert main(["--root", str(cache.root), "verify", "--json", "--remove"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 2 and report["removed"] is True
        assert cache.disk_stats()["total_entries"] == 1

    def test_cli_prune_corrupt_ignores_age(self, cache, capsys):
        """A fresh-but-corrupt entry survives the age pass; --corrupt gets it."""
        populate(cache)
        self.corrupt_kind(cache)
        assert main(
            ["--root", str(cache.root), "prune", "--older-than", "1h", "--corrupt"]
        ) == 0
        out = capsys.readouterr().out
        assert "pruned 0 entries" in out
        assert "removed 2 corrupt entries" in out
        assert cache.disk_stats()["total_entries"] == 1


class TestParseAge:
    @pytest.mark.parametrize(
        "text, seconds",
        [("3600", 3600.0), ("45s", 45.0), ("30m", 1800.0), ("12h", 43200.0),
         ("7d", 604800.0), ("2w", 1209600.0), ("1.5h", 5400.0)],
    )
    def test_valid(self, text, seconds):
        assert parse_age(text) == seconds

    @pytest.mark.parametrize("text", ["", "abc", "-5s", "5y", "nan", "inf", "nand"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_age(text)


class TestCli:
    def test_stats_command(self, cache, capsys):
        populate(cache)
        assert main(["--root", str(cache.root), "stats"]) == 0
        out = capsys.readouterr().out
        assert "trained-weights: 2 entries" in out
        assert "total: 3 entries" in out

    def test_clear_command(self, cache, capsys):
        populate(cache)
        assert main(["--root", str(cache.root), "clear"]) == 0
        assert "removed 3 entries" in capsys.readouterr().out
        assert cache.disk_stats()["total_entries"] == 0

    def test_prune_command(self, cache, capsys):
        populate(cache)
        for _, path in cache._artifact_files("fault-map"):
            old = time.time() - 7200
            os.utime(path, (old, old))
        assert main(["--root", str(cache.root), "prune", "--older-than", "1h"]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        assert cache.disk_stats()["total_entries"] == 2

    def test_runs_as_module(self, cache):
        import subprocess
        import sys

        populate(cache)
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cache",
             "--root", str(cache.root), "stats"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.join(os.path.dirname(__file__), ".."),
        )
        assert result.returncode == 0
        assert "total: 3 entries" in result.stdout


class TestSizeBudgetEviction:
    """LRU size-budget eviction (opportunistic on put + explicit sweep)."""

    def _sizes(self, cache):
        return cache.disk_stats()["total_bytes"]

    def test_evict_to_budget_removes_oldest_first(self, cache):
        for run in range(6):
            cache.put("trained-weights", {"run": run}, list(range(50)))
            path = cache._path("trained-weights", cache_digest({"run": run}))
            os.utime(path, (time.time() - 1000 + run,) * 2)
        total = self._sizes(cache)
        per_entry = total // 6
        removed, freed = cache.evict_to_budget(total - per_entry)
        assert removed >= 1 and freed > 0
        assert self._sizes(cache) <= total - per_entry
        # the oldest entries went; the newest survives
        assert cache.get("trained-weights", {"run": 0}) is None
        assert cache.get("trained-weights", {"run": 5}) is not None

    def test_evict_noop_within_budget(self, cache):
        populate(cache)
        assert cache.evict_to_budget(10**9) == (0, 0)
        assert cache.get("trained-weights", {"run": 1}) is not None

    def test_evict_requires_a_budget(self, cache):
        with pytest.raises(ValueError, match="budget"):
            cache.evict_to_budget()

    def test_evict_rejects_negative_budget(self, cache):
        with pytest.raises(ValueError):
            cache.evict_to_budget(-1)

    def test_evict_sweeps_orphaned_temp_files(self, cache):
        populate(cache)
        orphan = cache.root / "trained-weights" / "orphan.tmp"
        orphan.write_bytes(b"x" * 4096)
        os.utime(orphan, (time.time() - 1000, time.time() - 1000))
        cache.evict_to_budget(self._sizes(cache) - 4096)
        assert not orphan.exists()

    def test_opportunistic_eviction_on_put(self, tmp_path):
        # each artifact pickles to ~1 KiB, so the 2000-byte budget is blown
        # after the second store and every sweep must actually evict
        cache = ArtifactCache(
            root=tmp_path / "budgeted",
            size_budget_bytes=2000,
            eviction_check_interval=1,
        )
        for run in range(12):
            assert cache.put("trained-weights", {"run": run}, b"x" * 1024)
            time.sleep(0.01)
        stats = cache.disk_stats()
        # the store stays near the budget instead of the ~12 KiB it wrote,
        # and the most recent artifact always survives its own sweep
        assert stats["total_entries"] < 12
        assert stats["total_bytes"] <= 2000 + 1100  # budget + the protected put
        assert cache.get("trained-weights", {"run": 0}) is None
        assert cache.get("trained-weights", {"run": 11}) is not None

    def test_eviction_interval_batches_the_sweeps(self, tmp_path):
        cache = ArtifactCache(
            root=tmp_path / "batched",
            size_budget_bytes=2000,
            eviction_check_interval=4,
        )
        for run in range(3):
            cache.put("trained-weights", {"run": run}, b"x" * 1024)
        # three stores exceed the budget but the 4th-store sweep hasn't run
        assert cache.disk_stats()["total_entries"] == 3
        cache.put("trained-weights", {"run": 3}, b"x" * 1024)
        assert cache.disk_stats()["total_entries"] < 4

    def test_no_budget_means_no_eviction(self, cache):
        for run in range(20):
            cache.put("trained-weights", {"run": run}, b"x" * 1024)
        assert cache.disk_stats()["total_entries"] == 20

    def test_env_budget_is_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "2K")
        cache = ArtifactCache(root=tmp_path / "envbudget", eviction_check_interval=1)
        for run in range(8):
            cache.put("trained-weights", {"run": run}, b"x" * 1024)
            time.sleep(0.01)
        stats = cache.disk_stats()
        assert stats["total_entries"] < 8  # eviction really ran
        assert stats["total_bytes"] <= 2048 + 1100

    def test_malformed_env_budget_warns_and_disables_eviction(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.cache as cache_module

        monkeypatch.setenv("REPRO_CACHE_BUDGET", "512 megs")
        monkeypatch.setattr(cache_module, "_WARNED_BAD_BUDGET", None)
        cache = ArtifactCache(root=tmp_path / "badbudget", eviction_check_interval=1)
        with pytest.warns(RuntimeWarning, match="REPRO_CACHE_BUDGET"):
            for run in range(4):
                cache.put("trained-weights", {"run": run}, b"x" * 1024)
        assert cache.disk_stats()["total_entries"] == 4  # nothing evicted

    def test_memory_layer_hits_keep_artifacts_hot(self, tmp_path):
        # an artifact recalled only through the in-process memory layer must
        # still look recently-used to the LRU sweep (mtime refresh on hit)
        cache = ArtifactCache(root=tmp_path / "hot")
        cache.put("trained-weights", {"run": "hot"}, b"h" * 512)
        hot_path = cache._path("trained-weights", cache_digest({"run": "hot"}))
        os.utime(hot_path, (time.time() - 5000,) * 2)  # stale on disk...
        assert cache.get("trained-weights", {"run": "hot"}) is not None  # ...hot hit
        cache.put("trained-weights", {"run": "cold"}, b"c" * 512)
        cold_path = cache._path("trained-weights", cache_digest({"run": "cold"}))
        os.utime(cold_path, (time.time() - 1000,) * 2)
        # a fresh instance has no memory layer: eviction sees the disk alone
        cache = ArtifactCache(root=tmp_path / "hot")
        cache.evict_to_budget(cache.disk_stats()["total_bytes"] - 256)
        assert hot_path.exists()  # the memory-hit refresh saved it
        assert not cold_path.exists()

    def test_kind_scoped_eviction(self, cache):
        populate(cache)
        old = time.time() - 1000
        for _, path in cache._artifact_files("fault-map"):
            os.utime(path, (old, old))
        cache.evict_to_budget(0, kind="fault-map")
        assert cache.get("fault-map", {"bank": 0}) is None
        assert cache.get("trained-weights", {"run": 1}) is not None


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [("100", 100), ("1k", 1024), ("512K", 512 * 1024), ("2MB", 2 * 1024**2),
         ("1.5g", int(1.5 * 1024**3))],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "-5", "1q", "nan"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_size(text)


class TestEvictCli:
    def test_evict_command(self, cache, capsys):
        populate(cache)
        old = time.time() - 1000
        for _, path in cache._artifact_files():
            os.utime(path, (old, old))
        assert main(["--root", str(cache.root), "evict", "--budget", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert cache.disk_stats()["total_entries"] == 0

    def test_evict_requires_budget_or_env(self, cache, capsys):
        with pytest.raises(SystemExit):
            main(["--root", str(cache.root), "evict"])

    def test_evict_rejects_bad_budget(self, cache):
        with pytest.raises(SystemExit):
            main(["--root", str(cache.root), "evict", "--budget", "wat"])


def _reference_digest(array: np.ndarray) -> str:
    """``cache_digest({"array": array})`` encoded through ``tobytes()``."""
    contiguous = np.ascontiguousarray(array)
    hasher = hashlib.sha256()
    hasher.update(f"schema:{SCHEMA_VERSION};".encode())
    hasher.update(b"map{")
    for tag, payload in (
        (b"key:", b"array"),
        (b"dtype:", str(contiguous.dtype).encode()),
        (b"shape:", str(contiguous.shape).encode()),
        (b"ndarray:", contiguous.tobytes()),
    ):
        hasher.update(tag + str(len(payload)).encode() + b":" + payload)
    hasher.update(b"}")
    return hasher.hexdigest()


_MATRIX = np.arange(24.0).reshape(4, 6)


class TestArrayDigest:
    """Arrays are hashed in place, to the digests their copied bytes gave."""

    @pytest.mark.parametrize(
        "array",
        [
            _MATRIX,
            np.array(2.5),
            np.zeros((0, 3)),
            np.zeros((3, 0)),
            _MATRIX[::2, 1::2],
            np.asfortranarray(_MATRIX),
            np.array([True, False, True]),
            np.arange(7, dtype=np.uint8),
            np.arange(5, dtype=np.uint64) << np.uint64(40),
            np.arange(6, dtype=">i4").reshape(2, 3),
            np.array(["ab", "xyz"]),
            np.array(["2020-01-01", "2021-06-30"], dtype="datetime64[D]"),
        ],
        ids=[
            "float64", "0-d", "empty-rows", "empty-columns", "strided", "fortran", "bool",
            "uint8", "uint64", "big-endian", "str", "datetime64",
        ],
    )
    def test_matches_the_copying_encoder(self, array):
        assert cache_digest({"array": array}) == _reference_digest(array)

    def test_hashing_does_not_copy_the_array(self):
        array = np.random.default_rng(0).random((4608, 16))
        tracemalloc.start()
        try:
            cache_digest({"array": array})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < array.nbytes // 16
