"""Content-addressed artifact cache for the experiment suite.

The experiment drivers repeat a lot of identical heavyweight work:
training the float baseline of a benchmark, fine-tuning a model around a
profiled fault mask, profiling a chip's banks at an operating point.  All
of those computations are deterministic functions of their inputs, so the
suite memoizes them on disk.

Cache layout
------------
Artifacts live under a root directory (``$REPRO_CACHE_DIR``, default
``~/.cache/repro-matic``), one subdirectory per artifact *kind*::

    <root>/
        prepared-benchmark/<digest>.pkl   pickled PreparedBenchmark
        trained-weights/<digest>.pkl      list[(weights, bias)] per layer
        fault-map/<digest>.pkl            one bank's (stuck_mask, stuck_values)
        fault-map-chip/<digest>.pkl       every bank's maps of one chip
        fault-map-sweep/<digest>.pkl      one bank's maps along a voltage axis
        sweep-*/<digest>.pkl              queue-sweep task results and
                                          quarantined tasks

The ``fault-map*`` kinds are written by
:meth:`repro.matic.flow.MaticFlow.profile_chip` and
:meth:`~repro.matic.flow.MaticFlow.profile_chip_sweep`.  The queue backend
(:mod:`repro.experiments.queue`) publishes per-task results and quarantines
as ordinary artifacts under the two ``sweep-*`` kinds that
:mod:`repro.experiments.leases` keys, so resume, dedup, ``stats``, and
``prune`` treat them like any other artifact; it keeps its pending-task
directory under ``<root>/queue/`` by default.

``<digest>`` is a SHA-256 over a canonical encoding of the key: a flat
mapping of strings to scalars, strings, tuples, nested mappings, or numpy
arrays (arrays are hashed by dtype, shape, and raw bytes).  Keys therefore
address *content* — e.g. the trained-weights key hashes the initial weights,
the injection masks, the dataset, and every training hyper-parameter — so a
change to any input produces a different digest and a cache miss, never a
stale hit.  ``SCHEMA_VERSION`` is mixed into every digest and must be bumped
whenever the *algorithms* behind an artifact change semantically.

Writes are atomic (temp file + ``os.replace``) so a cache shared by the
parallel sweep workers of :mod:`repro.experiments.engine` never exposes a
partially written artifact; concurrent writers of the same digest are
idempotent.  A small in-process memory layer fronts the disk so repeated
hits inside one session skip the unpickling.

Maintenance
-----------
:meth:`ArtifactCache.disk_stats` reports per-kind entry counts and byte
sizes, :meth:`ArtifactCache.clear` empties the store,
:meth:`ArtifactCache.prune` evicts artifacts by age, and
:meth:`ArtifactCache.verify` scans for corrupt (truncated/unreadable)
entries — reads already degrade those to a miss, ``verify`` makes the
damage visible and optionally reclaims it.  With a byte budget
configured (the ``size_budget_bytes`` field or ``$REPRO_CACHE_BUDGET``,
e.g. ``512M``), :meth:`ArtifactCache.put` opportunistically runs an LRU
eviction sweep (:meth:`ArtifactCache.evict_to_budget`) every
``eviction_check_interval`` stores, deleting least-recently-used artifacts
(mtime order — refreshed on every store and disk hit) until the store fits
the budget again.  The same operations are exposed on the command line::

    python -m repro.experiments.cache stats
    python -m repro.experiments.cache clear
    python -m repro.experiments.cache prune --older-than 7d [--corrupt]
    python -m repro.experiments.cache evict --budget 512M
    python -m repro.experiments.cache verify [--remove]
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import threading
import tempfile
import time
import warnings
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "cache_digest",
    "default_cache",
    "set_default_cache",
    "parse_age",
    "parse_size",
    "main",
]

#: Bump when a cached computation changes semantically (training update rule,
#: quantization rounding, dataset generators, ...) so old artifacts miss.
SCHEMA_VERSION = 1

#: Sentinel distinguishing "not in the memory layer" from a cached None.
_MISS = object()

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_CACHE_DISABLE"
_ENV_BUDGET = "REPRO_CACHE_BUDGET"


def _hash_bytes(hasher: "hashlib._Hash", tag: bytes, payload: bytes) -> None:
    """Feed one length-delimited, type-tagged component into the hash.

    Length prefixes make the encoding injective: without them adjacent
    variable-length components could be re-split into a colliding key
    (e.g. ``["xstr:y"]`` versus ``["x", "y"]``).
    """
    hasher.update(tag)
    hasher.update(str(len(payload)).encode() + b":")
    hasher.update(payload)


def _hash_update(hasher: "hashlib._Hash", value: Any) -> None:
    """Feed one key component into the hash, canonically and type-tagged."""
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        _hash_bytes(hasher, b"dtype:", str(array.dtype).encode())
        _hash_bytes(hasher, b"shape:", str(array.shape).encode())
        _hash_bytes(hasher, b"ndarray:", array.tobytes())
    elif isinstance(value, (bool, np.bool_)):
        _hash_bytes(hasher, b"bool:", str(bool(value)).encode())
    elif isinstance(value, (int, np.integer)):
        _hash_bytes(hasher, b"int:", str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        _hash_bytes(hasher, b"float:", np.float64(value).tobytes())
    elif isinstance(value, str):
        _hash_bytes(hasher, b"str:", value.encode())
    elif value is None:
        hasher.update(b"none;")
    elif isinstance(value, Mapping):
        hasher.update(b"map{")
        for key in sorted(value):
            _hash_bytes(hasher, b"key:", str(key).encode())
            _hash_update(hasher, value[key])
        hasher.update(b"}")
    elif isinstance(value, (list, tuple)):
        hasher.update(b"seq[" + str(len(value)).encode() + b":")
        for item in value:
            _hash_update(hasher, item)
        hasher.update(b"]")
    else:
        raise TypeError(f"unhashable cache-key component of type {type(value)!r}")


def cache_digest(key: Mapping[str, Any]) -> str:
    """SHA-256 digest of a canonicalized key mapping."""
    hasher = hashlib.sha256()
    hasher.update(f"schema:{SCHEMA_VERSION};".encode())
    _hash_update(hasher, key)
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters (per-process; parallel workers count separately)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


@dataclass
class ArtifactCache:
    """Disk-backed, content-addressed artifact store with a memory front.

    Parameters
    ----------
    root:
        Cache directory.  ``None`` resolves ``$REPRO_CACHE_DIR`` and falls
        back to ``~/.cache/repro-matic``.
    enabled:
        When False (or when ``$REPRO_CACHE_DISABLE`` is set for the default
        cache) every lookup misses and nothing is stored — the factory always
        runs, which is the reference behaviour for equivalence tests.
    memory_items:
        Maximum number of artifacts kept in the in-process layer.
    size_budget_bytes:
        Optional on-disk byte budget.  ``None`` resolves
        ``$REPRO_CACHE_BUDGET`` (a size like ``512M``; unset means no
        budget).  With a budget, :meth:`put` opportunistically runs an LRU
        eviction sweep every :attr:`eviction_check_interval` stores.
    eviction_check_interval:
        Stores between opportunistic eviction sweeps (each sweep walks the
        store's directory tree, so sweeping on every put would make bulk
        stores quadratic in the entry count).
    """

    root: Path | str | None = None
    enabled: bool = True
    memory_items: int = 64
    size_budget_bytes: int | None = None
    eviction_check_interval: int = 16
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.root is None:
            env = os.environ.get(_ENV_DIR, "").strip()
            self.root = Path(env) if env else Path.home() / ".cache" / "repro-matic"
        self.root = Path(self.root)
        self._stores_since_sweep = 0
        self._memory: dict[str, Any] = {}
        # one cache object may be used from several threads of a process
        # (a caller driving sweeps from a thread pool), so the in-process
        # layer's check-then-evict bookkeeping needs a lock; disk I/O stays
        # lock-free (atomic replace)
        self._memory_lock = threading.Lock()

    # ----------------------------------------------------------- plumbing

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / kind / f"{digest}.pkl"

    def get(self, kind: str, key: Mapping[str, Any]) -> Any | None:
        """Return the cached artifact or None (counts a hit/miss)."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        digest = cache_digest(key)
        memory_key = f"{kind}/{digest}"
        path = self._path(kind, digest)
        with self._memory_lock:
            memory_value = self._memory.get(memory_key, _MISS)
        if memory_value is not _MISS:
            # refresh the disk mtime on memory hits too: mtime is the LRU
            # signal for prune/evict_to_budget, and an artifact served from
            # the memory layer is every bit as hot as one read from disk
            try:
                os.utime(path)
            except OSError:
                pass
            self.stats.hits += 1
            return memory_value
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except Exception:
            # a stale or corrupt artifact (including pickles referencing
            # classes that later moved/renamed) must degrade to a miss, not
            # crash every caller until the cache dir is deleted by hand
            self.stats.misses += 1
            return None
        try:
            os.utime(path)  # refresh mtime so age-based prune spares hot artifacts
        except OSError:
            pass
        self._remember(memory_key, value)
        self.stats.hits += 1
        return value

    def put(self, kind: str, key: Mapping[str, Any], value: Any) -> bool:
        """Store an artifact atomically (concurrent writers are idempotent).

        Returns ``True`` once the artifact is durably on disk.  Failures
        degrade silently to ``False`` — for memoization that is the right
        policy (an unpicklable artifact or a full disk must not crash the
        driver after the computation already succeeded), but callers for
        whom storage is correctness-critical (the queue backend's publish
        channel) must check the return value and escalate themselves.
        """
        if not self.enabled:
            return False
        digest = cache_digest(key)
        path = self._path(kind, digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            return False
        try:
            with os.fdopen(handle, "wb") as temp_file:
                pickle.dump(value, temp_file, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except Exception:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            return False
        self._remember(f"{kind}/{digest}", value)
        self.stats.stores += 1
        self._maybe_evict(just_written=path)
        return True

    def get_or_create(self, kind: str, key: Mapping[str, Any], factory: Callable[[], Any]) -> Any:
        """Memoize ``factory()`` under ``(kind, key)``."""
        value = self.get(kind, key)
        if value is None:
            value = factory()
            self.put(kind, key, value)
        return value

    def _remember(self, memory_key: str, value: Any) -> None:
        with self._memory_lock:
            while len(self._memory) >= self.memory_items:
                self._memory.pop(next(iter(self._memory)))
            self._memory[memory_key] = value

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk artifacts stay)."""
        with self._memory_lock:
            self._memory.clear()

    # -------------------------------------------------------- maintenance

    def _artifact_files(self, kind: str | None = None, pattern: str = "*.pkl"):
        """Yield ``(kind, Path)`` for every stored artifact.

        ``pattern="*.tmp"`` instead selects orphaned temp files left behind by
        writers killed mid-:meth:`put`; maintenance must see those too or the
        space they hold could never be reclaimed.

        ``kind`` must be a bare directory name: anything containing a path
        separator (or ``..``) would escape the cache root and let maintenance
        delete files it does not own.
        """
        if kind is not None and (
            kind in ("", ".", "..") or "/" in kind or os.sep in kind or os.path.isabs(kind)
        ):
            raise ValueError(f"invalid artifact kind {kind!r}")
        root = Path(self.root)
        if not root.is_dir():
            return
        kinds = [kind] if kind is not None else sorted(
            entry.name for entry in root.iterdir() if entry.is_dir()
        )
        for kind_name in kinds:
            kind_dir = root / kind_name
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob(pattern)):
                yield kind_name, path

    def disk_stats(self) -> dict[str, Any]:
        """Size accounting: per-kind and total entry counts and bytes.

        Orphaned ``.tmp`` files (writers killed mid-store) are reported under
        ``temp_files`` so the totals match what the directory really holds.
        """
        kinds: dict[str, dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        for kind, path in self._artifact_files():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entry = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            entry["entries"] += 1
            entry["bytes"] += size
            total_entries += 1
            total_bytes += size
        temp_entries = 0
        temp_bytes = 0
        for _, path in self._artifact_files(pattern="*.tmp"):
            try:
                temp_bytes += path.stat().st_size
            except OSError:
                continue
            temp_entries += 1
        return {
            "root": str(self.root),
            "kinds": kinds,
            "temp_files": {"entries": temp_entries, "bytes": temp_bytes},
            "total_entries": total_entries + temp_entries,
            "total_bytes": total_bytes + temp_bytes,
        }

    def _remove_files(self, files, cutoff: float | None) -> tuple[int, int]:
        removed = 0
        freed = 0
        for kind, path in files:
            try:
                stat = path.stat()
                if cutoff is not None and stat.st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue
            # evict exactly the deleted artifact from the in-process layer
            # (a no-op for .tmp files, whose names are not memory keys)
            with self._memory_lock:
                self._memory.pop(f"{kind}/{path.stem}", None)
            removed += 1
            freed += stat.st_size
        return removed, freed

    def clear(self, kind: str | None = None) -> tuple[int, int]:
        """Delete stored artifacts (all kinds, or one); returns (entries, bytes).

        Orphaned ``.tmp`` files are deleted too (a concurrent writer whose
        temp file is swept simply degrades to a skipped store).
        """
        removed, freed = self._remove_files(self._artifact_files(kind), cutoff=None)
        tmp_removed, tmp_freed = self._remove_files(
            self._artifact_files(kind, pattern="*.tmp"), cutoff=None
        )
        return removed + tmp_removed, freed + tmp_freed

    def _resolve_budget(self) -> int | None:
        """The effective byte budget: the field, else ``$REPRO_CACHE_BUDGET``.

        A malformed environment value warns (once per value) instead of
        silently disabling eviction — an operator who set a budget expects
        the store to stay bounded, not to fill the disk without a trace.
        """
        if self.size_budget_bytes is not None:
            return int(self.size_budget_bytes)
        env = os.environ.get(_ENV_BUDGET, "").strip()
        if not env:
            return None
        try:
            return parse_size(env)
        except ValueError:
            global _WARNED_BAD_BUDGET
            if _WARNED_BAD_BUDGET != env:
                _WARNED_BAD_BUDGET = env
                warnings.warn(
                    f"ignoring invalid ${_ENV_BUDGET}={env!r} (expected a size "
                    f"like 1048576, 512K, or 2G); cache eviction is disabled",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None

    def _maybe_evict(self, just_written: Path) -> None:
        """Opportunistic LRU sweep after a store (when a budget is set).

        Runs every :attr:`eviction_check_interval`-th store so bulk stores
        stay linear; the artifact just written is protected even if a slow
        filesystem gives it a stale mtime.
        """
        if self._resolve_budget() is None:
            return
        self._stores_since_sweep += 1
        if self._stores_since_sweep < max(1, int(self.eviction_check_interval)):
            return
        self._stores_since_sweep = 0
        try:
            self.evict_to_budget(protect=(just_written,))
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass

    def evict_to_budget(
        self,
        budget_bytes: int | None = None,
        kind: str | None = None,
        protect: tuple[Path, ...] = (),
    ) -> tuple[int, int]:
        """LRU eviction: delete oldest artifacts until the store fits a budget.

        Recency is file mtime, which :meth:`put` sets and every hit —
        memory-layer hits included — refreshes, so artifacts that sweeps
        keep recalling survive and cold ones (including orphaned ``.tmp``
        files) go first.  Returns ``(entries_removed, bytes_freed)``; a
        store already within budget removes nothing.  ``kind`` restricts
        both the accounting and the eviction to one artifact kind.
        """
        budget = budget_bytes if budget_bytes is not None else self._resolve_budget()
        if budget is None:
            raise ValueError("no byte budget configured (size_budget_bytes "
                             f"or ${_ENV_BUDGET})")
        if budget < 0:
            raise ValueError("budget must be non-negative")
        entries: list[tuple[float, int, str, Path]] = []
        for pattern in ("*.pkl", "*.tmp"):
            for kind_name, path in self._artifact_files(kind, pattern=pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, kind_name, path))
        total = sum(size for _, size, _, _ in entries)
        if total <= budget:
            return 0, 0
        protected = {Path(p) for p in protect}
        # oldest first; path as tie-break for deterministic eviction order
        entries.sort(key=lambda entry: (entry[0], str(entry[3])))
        removed = 0
        freed = 0
        for _, size, kind_name, path in entries:
            if total <= budget:
                break
            if path in protected:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            with self._memory_lock:
                self._memory.pop(f"{kind_name}/{path.stem}", None)
            total -= size
            removed += 1
            freed += size
        return removed, freed

    def prune(self, older_than_seconds: float, kind: str | None = None) -> tuple[int, int]:
        """Evict artifacts not modified within the window; returns (entries, bytes).

        Age is judged by file mtime, which is refreshed on every store and
        on every hit (memory-layer hits refresh it too, so a hot artifact's
        file always looks recent).  Orphaned ``.tmp`` files past the cutoff
        are swept as well (in-flight writers are protected by their recent
        mtime).
        """
        if not math.isfinite(older_than_seconds) or older_than_seconds < 0:
            raise ValueError("older_than_seconds must be a non-negative finite number")
        cutoff = time.time() - float(older_than_seconds)
        removed, freed = self._remove_files(self._artifact_files(kind), cutoff)
        tmp_removed, tmp_freed = self._remove_files(
            self._artifact_files(kind, pattern="*.tmp"), cutoff
        )
        return removed + tmp_removed, freed + tmp_freed

    def verify(
        self, kind: str | None = None, remove: bool = False
    ) -> list[dict[str, str]]:
        """Scan stored artifacts for corruption; optionally delete the damage.

        Reads already degrade a truncated or otherwise unreadable pickle to a
        cache miss, so corruption never crashes a driver — but it silently
        costs a recomputation every time the entry is touched, and the dead
        bytes count against the size budget forever.  ``verify`` loads every
        entry (of one ``kind``, or all) and reports the ones that fail as
        ``{"kind", "path", "error"}`` records; with ``remove=True`` they are
        unlinked (and dropped from the memory layer) so the next ``put``
        rewrites them cleanly.
        """
        corrupt: list[dict[str, str]] = []
        for kind_name, path in self._artifact_files(kind):
            try:
                with open(path, "rb") as handle:
                    pickle.load(handle)
            except Exception as error:
                corrupt.append(
                    {
                        "kind": kind_name,
                        "path": str(path),
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
                if remove:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                    with self._memory_lock:
                        self._memory.pop(f"{kind_name}/{path.stem}", None)
        return corrupt

    def __getstate__(self) -> dict:
        # keep pickles small when a cache rides inside a worker payload: the
        # in-process layer is a per-process optimization, not shared state
        state = self.__dict__.copy()
        state["_memory"] = {}
        state["stats"] = CacheStats()
        del state["_memory_lock"]  # locks don't pickle; recreated on unpickle
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memory_lock = threading.Lock()
        self._stores_since_sweep = 0


#: Last invalid $REPRO_CACHE_BUDGET value warned about (warn once per value).
_WARNED_BAD_BUDGET: str | None = None

_DEFAULT_CACHE: ArtifactCache | None = None


def default_cache() -> ArtifactCache:
    """The process-wide cache used when a driver is not handed one explicitly."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        disabled = os.environ.get(_ENV_DISABLE, "").strip() not in ("", "0", "false")
        _DEFAULT_CACHE = ArtifactCache(enabled=not disabled)
    return _DEFAULT_CACHE


def set_default_cache(cache: ArtifactCache | None) -> None:
    """Replace the process-wide default cache (None resets to lazy init)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = cache


# --------------------------------------------------------------------- CLI

_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_age(text: str) -> float:
    """Parse an age like ``"3600"``, ``"45s"``, ``"12h"``, or ``"7d"`` to seconds."""
    text = str(text).strip().lower()
    if not text:
        raise ValueError("empty age")
    unit = 1.0
    if text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    seconds = float(text) * unit
    if not math.isfinite(seconds) or seconds < 0:
        raise ValueError("age must be a non-negative finite number")
    return seconds


_SIZE_UNITS = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_size(text: str) -> int:
    """Parse a byte size like ``"1048576"``, ``"512K"``, ``"1.5g"``, or ``"2GB"``."""
    text = str(text).strip().lower()
    if text.endswith("b"):
        text = text[:-1]
    if not text:
        raise ValueError("empty size")
    unit = 1
    if text[-1] in _SIZE_UNITS:
        unit = _SIZE_UNITS[text[-1]]
        text = text[:-1]
    try:
        size = float(text) * unit
    except ValueError as error:
        raise ValueError(f"invalid size {text!r}") from error
    if not math.isfinite(size) or size < 0:
        raise ValueError("size must be a non-negative finite number")
    return int(size)


def _format_bytes(count: int) -> str:
    size = float(count)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if size < 1024.0 or suffix == "GiB":
            return f"{size:.1f} {suffix}" if suffix != "B" else f"{int(size)} B"
        size /= 1024.0
    return f"{int(count)} B"  # pragma: no cover - unreachable


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.cache`` — inspect and maintain the cache."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cache",
        description="Inspect and maintain the content-addressed artifact cache.",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-matic)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("stats", help="report per-kind entry counts and bytes")
    clear_parser = commands.add_parser("clear", help="delete stored artifacts")
    clear_parser.add_argument("--kind", default=None, help="only this artifact kind")
    prune_parser = commands.add_parser("prune", help="evict artifacts by age")
    prune_parser.add_argument(
        "--older-than",
        required=True,
        metavar="AGE",
        help="evict artifacts older than AGE (e.g. 3600, 45s, 12h, 7d)",
    )
    prune_parser.add_argument("--kind", default=None, help="only this artifact kind")
    prune_parser.add_argument(
        "--corrupt",
        action="store_true",
        help="also delete corrupt (truncated/unreadable) artifacts of any age",
    )
    verify_parser = commands.add_parser(
        "verify", help="scan stored artifacts for corrupt (unreadable) entries"
    )
    verify_parser.add_argument("--kind", default=None, help="only this artifact kind")
    verify_parser.add_argument(
        "--remove", action="store_true", help="delete the corrupt entries found"
    )
    verify_parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of text "
        "({root, count, removed, corrupt: [{kind, path, error}]})",
    )
    evict_parser = commands.add_parser(
        "evict", help="LRU-evict oldest artifacts down to a byte budget"
    )
    evict_parser.add_argument(
        "--budget",
        default=None,
        metavar="SIZE",
        help="byte budget to evict down to (e.g. 1048576, 512K, 2G; "
        f"default: ${_ENV_BUDGET})",
    )
    evict_parser.add_argument("--kind", default=None, help="only this artifact kind")
    args = parser.parse_args(argv)

    cache = ArtifactCache(root=args.root)
    if args.command == "stats":
        stats = cache.disk_stats()
        print(f"cache root: {stats['root']}")
        for kind, entry in stats["kinds"].items():
            print(f"  {kind}: {entry['entries']} entries, {_format_bytes(entry['bytes'])}")
        temp = stats["temp_files"]
        if temp["entries"]:
            print(
                f"  (orphaned temp files: {temp['entries']} entries, "
                f"{_format_bytes(temp['bytes'])})"
            )
        print(
            f"total: {stats['total_entries']} entries, "
            f"{_format_bytes(stats['total_bytes'])}"
        )
    elif args.command == "clear":
        try:
            removed, freed = cache.clear(kind=args.kind)
        except ValueError as error:
            parser.error(str(error))
        print(f"removed {removed} entries, freed {_format_bytes(freed)}")
    elif args.command == "evict":
        budget = None
        if args.budget is not None:
            try:
                budget = parse_size(args.budget)
            except ValueError as error:
                parser.error(f"invalid --budget value: {error}")
        try:
            removed, freed = cache.evict_to_budget(budget, kind=args.kind)
        except ValueError as error:
            parser.error(str(error))
        print(f"evicted {removed} entries, freed {_format_bytes(freed)}")
    elif args.command == "verify":
        try:
            corrupt = cache.verify(kind=args.kind, remove=args.remove)
        except ValueError as error:
            parser.error(str(error))
        if args.json:
            # stable machine-readable shape for CI zero-corruption gates
            print(
                json.dumps(
                    {
                        "root": str(cache.root),
                        "count": len(corrupt),
                        "removed": bool(args.remove),
                        "corrupt": [
                            {
                                "kind": entry["kind"],
                                "path": str(entry["path"]),
                                "error": entry["error"],
                            }
                            for entry in corrupt
                        ],
                    }
                )
            )
        else:
            for entry in corrupt:
                print(f"corrupt [{entry['kind']}] {entry['path']}: {entry['error']}")
            verb = "removed" if args.remove else "found"
            print(f"{verb} {len(corrupt)} corrupt entries")
    else:
        try:
            age = parse_age(args.older_than)
        except ValueError as error:
            parser.error(f"invalid --older-than value: {error}")
        try:
            removed, freed = cache.prune(age, kind=args.kind)
        except ValueError as error:
            parser.error(str(error))
        print(f"pruned {removed} entries, freed {_format_bytes(freed)}")
        if args.corrupt:
            corrupt = cache.verify(kind=args.kind, remove=True)
            for entry in corrupt:
                print(f"corrupt [{entry['kind']}] {entry['path']}: {entry['error']}")
            print(f"removed {len(corrupt)} corrupt entries")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
