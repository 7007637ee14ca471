"""Content-addressed on-disk cache for experiment results.

A cache entry is keyed by a stable digest of everything that determines
a simulation's outcome: the :class:`WorkloadSpec`, the
:class:`MachineConfig`, the mechanism name, any crash-campaign
parameters, and a *code version* (digest over every ``repro`` source
file). Simulations are deterministic, so key equality implies result
equality; editing any simulator source invalidates every entry at once
(coarse, but never stale).

Keys are built from a canonical JSON rendering of the dataclasses —
no ``hash()`` involved — so they are stable across processes and
machines (Python's per-process hash randomization never leaks in).

Every entry is published with an atomic temp+rename, so a reader —
or a run resumed after a SIGKILL — never observes a torn entry.

**Hygiene.** A long-lived cache grows without bound; the
``python -m repro.exp cache`` CLI layers ``stats`` (entries, bytes,
hit-rate since the last ``stats`` call, accumulated from the
:meth:`ResultCache.flush_stats` sidecar) and ``prune`` (``--older-
than`` / ``--max-bytes``, dry-run by default) on the helpers here.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


def _canonical(obj: Any) -> Any:
    """Reduce dataclasses/enums/collections to JSON-stable primitives."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: _canonical(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(key): _canonical(value)
                for key, value in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for "
                    "a cache key")


def stable_digest(obj: Any) -> str:
    """Hex digest of the canonical JSON form of ``obj``."""
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_code_version: Optional[str] = None


def code_version() -> str:
    """Digest over every ``repro`` source file (cached per process)."""
    global _code_version
    if _code_version is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode("utf-8"))
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _code_version = hasher.hexdigest()
    return _code_version


def default_cache_dir() -> Path:
    """``$REPRO_EXP_CACHE_DIR``, else ``~/.cache/repro-exp``."""
    env = os.environ.get("REPRO_EXP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-exp"


def _atomic_pickle(path: Path, value: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Pickle-per-key store of :class:`~repro.exp.runner.RunSummary`."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        # Two-level fanout keeps directories small under big sweeps.
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or None (a corrupt entry reads as a miss)."""
        try:
            with open(self._path(key), "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return None

    def put(self, key: str, value: Any) -> None:
        """Store atomically (concurrent writers never corrupt entries)."""
        _atomic_pickle(self._path(key), value)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.rglob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def entry_count(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def total_bytes(self) -> int:
        """Sum of entry sizes (for the stats / prune budget)."""
        total = 0
        if self.root.exists():
            for path in self.root.rglob("*.pkl"):
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    # -- usage-stats sidecar (python -m repro.exp cache stats) ----------

    @property
    def stats_path(self) -> Path:
        return self.root / "cache-stats.jsonl"

    def flush_stats(self, hits: int, misses: int) -> bool:
        """Append one runner batch's hit and miss counts to the sidecar.

        Called at the end of a runner batch with that batch's own
        lookups (never per lookup — the hot path stays
        file-system-quiet), so each lookup is counted once. The
        ``cache stats`` CLI folds the lines since its last marker into
        a hit-rate "since last stats". Returns False when there was
        nothing to record or the sidecar is unwritable.
        """
        if not (hits or misses):
            return False
        record = {"hits": hits, "misses": misses, "at": time.time()}
        return _append_stats_line(self.stats_path, record)


def _append_stats_line(path: Path, record: Dict[str, object]) -> bool:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True) + "\n"
        fd = os.open(str(path),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
    except OSError:
        return False
    return True


def read_stats_since_marker(path: Path) -> Dict[str, object]:
    """Fold sidecar lines recorded after the last ``stats`` marker."""
    hits = misses = sessions = 0
    try:
        with open(path) as handle:
            for raw in handle:
                try:
                    record = json.loads(raw)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                if record.get("marker"):
                    hits = misses = sessions = 0
                    continue
                hits += int(record.get("hits", 0))
                misses += int(record.get("misses", 0))
                sessions += 1
    except OSError:
        pass
    lookups = hits + misses
    return {
        "sessions": sessions,
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / lookups) if lookups else None,
    }


def write_stats_marker(path: Path) -> bool:
    """Reset the "since last stats" window (appends a marker line)."""
    return _append_stats_line(path, {"marker": True, "at": time.time()})


def plan_prune(cache: ResultCache,
               older_than_seconds: Optional[float] = None,
               max_bytes: Optional[int] = None,
               now: Optional[float] = None) -> List[Tuple[Path, int]]:
    """Entries that a prune with these limits would delete.

    ``older_than_seconds`` drops entries whose mtime is older;
    ``max_bytes`` then evicts oldest-first until the cache fits the
    budget. Pure planning — nothing is unlinked here, which is what
    makes the CLI's dry-run default trustworthy.
    """
    now = time.time() if now is None else now
    entries: List[Tuple[float, Path, int]] = []
    if cache.root.exists():
        for path in cache.root.rglob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
    entries.sort()  # oldest first
    victims: List[Tuple[Path, int]] = []
    chosen = set()
    if older_than_seconds is not None:
        cutoff = now - older_than_seconds
        for mtime, path, size in entries:
            if mtime < cutoff:
                victims.append((path, size))
                chosen.add(path)
    if max_bytes is not None:
        remaining = sum(size for _mtime, path, size in entries
                        if path not in chosen)
        for _mtime, path, size in entries:
            if remaining <= max_bytes:
                break
            if path in chosen:
                continue
            victims.append((path, size))
            chosen.add(path)
            remaining -= size
    return victims


def execute_prune(victims: List[Tuple[Path, int]]) -> Tuple[int, int]:
    """Unlink planned victims; returns (entries_removed, bytes_freed)."""
    removed = freed = 0
    for path, size in victims:
        try:
            path.unlink()
        except OSError:
            continue
        removed += 1
        freed += size
    return removed, freed
