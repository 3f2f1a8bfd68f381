"""Content-addressed on-disk result cache for scenario points.

Every record is keyed by the SHA-256 of the point's canonical JSON payload
**plus a code-version fingerprint** (a hash over every ``.py`` file of the
installed ``repro`` package), so a repeated sweep is served from disk while
any source change — a kernel tweak, a policy fix — transparently invalidates
everything it could have affected.

Records are single JSON files sharded by key prefix under the cache root
(``$REPRO_LAB_CACHE`` or ``~/.cache/repro-lab``).  Writes are atomic
(tempfile + ``os.replace``) so concurrent sweeps can share a cache; reads
treat any unreadable or non-JSON file as a miss.  A cache that cannot
create its root degrades to a no-op rather than failing the sweep.

With a run trace active (:mod:`repro.lab.telemetry`) every lookup emits
a ``cache.hit`` / ``cache.miss`` counter — misses tagged with their
reason (``absent`` / ``stale-fingerprint`` / ``unreadable`` /
``disabled``) — and every store a ``cache.write``.  Stale-fingerprint
classification distinguishes "never computed" from "invalidated by a
code change": the first absent lookup of a traced run builds a lazy
index of code-version-independent point identities present under
*other* fingerprints, which is exactly the set a gc would drop.
Untraced lookups skip all of this.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import (Any, Dict, Iterator, Mapping, Optional, Set, Union,
                    cast)

import repro
from repro.lab import telemetry
from repro.util import json_number_default

__all__ = ["ResultCache", "code_fingerprint", "default_cache_root",
           "point_key"]


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the repro package sources (the cache's code-version axis)."""
    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def default_cache_root() -> Path:
    env = os.environ.get("REPRO_LAB_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-lab"


def point_key(payload: Mapping[str, Any], code_version: str) -> str:
    """Deterministic content address of one scenario point.

    Numpy scalars in the payload (``np.int64`` grid axes) key
    identically to their python twins — a numpy-built scenario must
    neither crash the key derivation nor split cache entries from an
    equivalent plain-int sweep.
    """
    blob = json.dumps({"point": payload, "code": code_version},
                      sort_keys=True, separators=(",", ":"),
                      default=json_number_default)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Persistent point-record store with hit/miss accounting.

    Parameters
    ----------
    root:
        Cache directory (created on demand).  Defaults to
        ``$REPRO_LAB_CACHE`` or ``~/.cache/repro-lab``.
    code_version:
        Override the automatic source fingerprint (tests use this to model
        "the code changed").
    """

    def __init__(self,
                 root: Optional[Union[str, Path]] = None,
                 code_version: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.code_version = code_version or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disabled = False
        #: unreadable records dropped by the last :meth:`gc` call.
        self.quarantined = 0
        #: lazy stale-fingerprint index (see :meth:`_is_stale`).
        self._stale_index: Optional[Set[str]] = None
        #: unreadable paths already warned about (once per run).
        self._warned_unreadable: Set[str] = set()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.disabled = True

    # ------------------------------------------------------------------ #
    def key_for(self, payload: Mapping[str, Any]) -> str:
        return point_key(payload, self.code_version)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _is_stale(self, payload: Mapping[str, Any]) -> bool:
        """Whether an absent *payload* exists under another code
        fingerprint — i.e. the miss is a code-change invalidation, not
        a never-computed point.  Keys fold payload and code version
        into one hash, so this is answered through a one-time scan of
        the store building version-independent point identities for
        every other-fingerprint document.  Only telemetry consults
        this; plain lookups never pay the scan."""
        if self._stale_index is None:
            index: Set[str] = set()
            for doc in self.entries():
                if doc.get("code_version") == self.code_version:
                    continue
                point = doc.get("point")
                if isinstance(point, dict):
                    index.add(point_key(point, ""))
            self._stale_index = index
        return point_key(payload, "") in self._stale_index

    def _count_miss(self, payload: Mapping[str, Any], reason: str) -> None:
        self.misses += 1
        trace = telemetry.active_trace()
        if trace is not None:
            if reason == "absent" and self._is_stale(payload):
                reason = "stale-fingerprint"
            trace.counter("cache.miss", reason=reason)

    def _warn_unreadable(self, path: Path) -> None:
        """Name the corrupt entry behind an ``unreadable`` miss — once
        per file per run, so a 10^4-point sweep over one bad record
        prints one line, not 10^4."""
        key = str(path)
        if key in self._warned_unreadable:
            return
        self._warned_unreadable.add(key)
        print(f"[repro.lab] unreadable cache entry {path} — serving as "
              f"a miss; `repro-lab cache gc` quarantines it",
              file=sys.stderr)

    def get(self, payload: Mapping[str, Any]
            ) -> Optional[Dict[str, Any]]:
        """Return the cached record for *payload*, or ``None`` on a miss."""
        if self.disabled:
            self._count_miss(payload, "disabled")
            return None
        path = self._path(self.key_for(payload))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            record = doc["record"]
        except FileNotFoundError:
            self._count_miss(payload, "absent")
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._warn_unreadable(path)
            self._count_miss(payload, "unreadable")
            return None
        self.hits += 1
        trace = telemetry.active_trace()
        if trace is not None:
            trace.counter("cache.hit")
        return cast(Dict[str, Any], record)

    def put(self, payload: Mapping[str, Any],
            record: Mapping[str, Any]) -> bool:
        """Store *record*; returns False (and stores nothing) if the record
        is not JSON-serializable or the filesystem refuses."""
        if self.disabled:
            return False
        key = self.key_for(payload)
        doc = {"key": key, "code_version": self.code_version,
               "point": dict(payload), "record": dict(record)}
        try:
            # numpy scalars store in canonical python form, matching how
            # point_key hashed them.
            blob = json.dumps(doc, sort_keys=True,
                              default=json_number_default)
        except (TypeError, ValueError):
            return False
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self.stores += 1
        trace = telemetry.active_trace()
        if trace is not None:
            trace.counter("cache.write")
        return True

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self.disabled or not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def entries(self) -> Iterator[Dict[str, Any]]:
        """Yield every stored document (any code version)."""
        if self.disabled or not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    yield json.load(fh)
            except (OSError, ValueError):
                continue

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        if self.disabled or not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def versions(self) -> Dict[str, int]:
        """Record counts by code version (``repro-lab cache stats``)."""
        counts: Dict[str, int] = {}
        for doc in self.entries():
            version = doc.get("code_version", "<unknown>")
            counts[version] = counts.get(version, 0) + 1
        return counts

    def total_bytes(self) -> int:
        if self.disabled or not self.root.exists():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*/*.json"))

    def cleanup_tmp(self) -> int:
        """Delete stale ``*.tmp`` write temporaries (left behind by an
        interrupted sweep — ``os.replace`` never ran) anywhere under the
        cache root.  Returns how many were removed.  Safe against
        concurrent writers: an in-flight temporary that vanishes under a
        writer just fails that single ``put`` as it already could."""
        removed = 0
        if self.disabled or not self.root.exists():
            return removed
        for path in self.root.rglob("*.tmp"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def gc(self, keep_version: Optional[str] = None) -> int:
        """Drop records from superseded code versions (default: keep only
        the current fingerprint); pass ``keep_version=""`` to drop
        everything.  Returns the number of records removed; unreadable
        (corrupt) records are deleted too and counted in
        :attr:`quarantined`, and stale ``*.tmp`` write temporaries are
        swept as a side effect."""
        if keep_version is None:
            keep_version = self.code_version
        self.quarantined = 0
        if not keep_version:
            removed = self.clear()  # nothing can match: skip the parsing
            self.cleanup_tmp()
            return removed
        removed = 0
        if self.disabled or not self.root.exists():
            return removed
        for path in sorted(self.root.glob("*/*.json")):
            quarantine = False
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                keep = doc.get("code_version") == keep_version
            except (OSError, ValueError):
                keep = False  # unreadable records are dead weight
                quarantine = True
            if not keep:
                try:
                    path.unlink()
                    removed += 1
                    if quarantine:
                        self.quarantined += 1
                except OSError:
                    continue
        self.cleanup_tmp()
        return removed

    def describe(self) -> str:
        state = "disabled" if self.disabled else str(self.root)
        return (f"cache at {state}: {len(self)} records, "
                f"{self.total_bytes() / 1e6:.1f} MB, "
                f"code version {self.code_version}")
