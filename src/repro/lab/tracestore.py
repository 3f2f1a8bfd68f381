"""Content-addressed on-disk store for generated address traces.

Building a trace (a Python loop over the kernel's task order) costs far
more than simulating it, and a capacity/policy sweep re-generates the
*same* trace for every point — per worker process, per run.  This store
memoizes finalized ``(lines, writes)`` arrays on disk, keyed exactly like
the result cache: the SHA-256 of the canonical JSON of the
trace-generating parameters plus the repro source fingerprint, so any
code change transparently invalidates every trace it could have shaped.

Each entry is a pair of raw ``.npy`` files (loaded back memory-mapped, so
concurrent workers share pages instead of each materializing a copy), an
optional ``.chunks.npy`` sidecar holding the tile-chunk lengths (so the
fastsim super-symbol fold survives the store round-trip), plus a small
JSON sidecar recording the payload for `repro-lab cache stats`.  Writes
are atomic (tempfile + ``os.replace``); a store whose root cannot be
created degrades to a no-op, like :class:`repro.lab.cache.ResultCache`.

The store is also the executor's **zero-copy worker handoff**: the
parent stages a batch task's traces here at dispatch and ships only the
content-addressed *keys* in the task payload; workers resolve them with
:func:`TraceStore.get_by_key` inside a :func:`staged_keys` context and
mmap the shared files read-only instead of unpickling event arrays.

Without a store (``--no-cache``, ``--no-trace-store``) an in-process
run still builds each trace once: :func:`~repro.lab.executor.execute`
scopes an in-memory memo (:func:`run_memo`) with the number of tasks
that fetch each trace, and :func:`memo_trace` keeps a built trace only
while another of those fetches is due (within :data:`MEMO_BUDGET_BYTES`).

The store is **opt-in**: :func:`active_store` returns one only when
``$REPRO_LAB_TRACES`` names a directory or the CLI/executor installed one
via :func:`set_active_store` (``repro-lab run/sweep`` do so by default;
``--no-trace-store`` opts back out).  Plain library calls never touch the
filesystem behind your back.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, Mapping, Optional,
                    Tuple, Union)

import numpy as np

from repro.lab import telemetry
from repro.lab.cache import code_fingerprint, default_cache_root, point_key
from repro.machine.fastsim.profile import phase as fs_phase
from repro.machine.trace import Trace

__all__ = ["TraceStore", "active_store", "set_active_store",
           "default_trace_root", "store_from_env",
           "staged_keys", "is_staged", "run_memo", "memo_trace",
           "payload_key", "MEMO_BUDGET_BYTES"]

#: env var: a directory enables the store there; "off"/"0"/"none" keeps it
#: disabled even when the CLI would install the default one.
TRACES_ENV = "REPRO_LAB_TRACES"
_OFF_VALUES = ("off", "0", "none", "disabled", "no")
#: internal worker-propagation channel for :func:`set_active_store`;
#: never read as user intent (that is what :data:`TRACES_ENV` is for).
_ACTIVE_ENV = "_REPRO_LAB_TRACES_ACTIVE"


def default_trace_root() -> Path:
    return default_cache_root() / "traces"


class TraceStore:
    """Persistent ``(lines, writes)`` store with hit/miss accounting."""

    def __init__(self,
                 root: Optional[Union[str, Path]] = None,
                 code_version: Optional[str] = None):
        self.root = Path(root) if root is not None else default_trace_root()
        self.code_version = code_version or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disabled = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.disabled = True

    # ------------------------------------------------------------------ #
    def key_for(self, payload: Dict) -> str:
        return point_key({"trace": dict(payload)}, self.code_version)

    def _paths(self, key: str) -> Tuple[Path, Path, Path, Path]:
        shard = self.root / key[:2]
        return (shard / f"{key}.lines.npy",
                shard / f"{key}.writes.npy",
                shard / f"{key}.chunks.npy",
                shard / f"{key}.json")

    def get(self, payload: Dict) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Memory-mapped arrays for *payload*, or ``None`` on a miss.

        Entries are validated structurally before they are served: a
        finalized trace is a 1-D ``int64`` line array and a matching 1-D
        ``bool`` write mask, and anything else on disk (a truncated
        write, a foreign file under the right name, a stale format) is
        treated as a miss — :meth:`get_or_build` then rebuilds and
        overwrites it — rather than fed into the simulation kernels.
        """
        tr = self.get_by_key(self.key_for(payload))
        return None if tr is None else (tr.lines, tr.writes)

    def get_trace(self, payload: Dict) -> Optional[Trace]:
        """Like :meth:`get`, but as a :class:`Trace` with the tile-chunk
        sidecar attached when one round-trips validation."""
        return self.get_by_key(self.key_for(payload))

    def get_by_key(self, key: str) -> Optional[Trace]:
        """Memory-mapped :class:`Trace` for a content-addressed *key*.

        This is the zero-copy worker handoff: the executor ships keys
        (strings) across the pool boundary and each worker maps the
        shared ``.npy`` files read-only here.  The ``.chunks.npy``
        sidecar is optional — a missing or inconsistent one degrades to
        ``chunk_lens=None`` (event-granular simulation), never to an
        error.
        """
        if self.disabled:
            self._count_miss("disabled")
            return None
        lines_p, writes_p, chunks_p, _ = self._paths(key)
        try:
            lines = np.load(lines_p, mmap_mode="r")
            writes = np.load(writes_p, mmap_mode="r")
        except (OSError, ValueError):
            self._count_miss("absent")
            return None
        if (lines.ndim != 1 or writes.ndim != 1
                or lines.shape != writes.shape
                or lines.dtype != np.int64 or writes.dtype != np.bool_):
            self._count_miss("invalid")
            return None
        chunk_lens: Optional[np.ndarray] = None
        try:
            chunks = np.load(chunks_p, mmap_mode="r")
            if (chunks.ndim == 1 and chunks.dtype == np.int64
                    and (len(chunks) == 0 or int(chunks.min()) > 0)
                    and int(chunks.sum()) == len(lines)):
                chunk_lens = chunks
        except (OSError, ValueError):
            pass
        self.hits += 1
        trace = telemetry.active_trace()
        if trace is not None:
            # build-vs-reuse attribution: a hit is a mmap reuse.
            trace.counter("tracestore.hit")
        return Trace(lines, writes, chunk_lens)

    def _count_miss(self, reason: str) -> None:
        self.misses += 1
        trace = telemetry.active_trace()
        if trace is not None:
            trace.counter("tracestore.miss", reason=reason)

    def put(self, payload: Dict, lines: np.ndarray,
            writes: np.ndarray,
            chunk_lens: Optional[np.ndarray] = None) -> bool:
        if self.disabled:
            return False
        key = self.key_for(payload)
        lines_p, writes_p, chunks_p, meta_p = self._paths(key)
        if chunk_lens is not None:
            chunk_lens = np.ascontiguousarray(chunk_lens, dtype=np.int64)
            if (chunk_lens.ndim != 1
                    or (len(chunk_lens)
                        and int(chunk_lens.min()) <= 0)
                    or int(chunk_lens.sum()) != len(lines)):
                chunk_lens = None  # malformed sidecar: store chunkless
        meta = {"key": key, "code_version": self.code_version,
                "trace": dict(payload), "events": int(len(lines)),
                "chunks": None if chunk_lens is None else len(chunk_lens)}
        try:
            blob = json.dumps(meta, sort_keys=True)
        except (TypeError, ValueError):
            return False
        # Store the canonical trace form get() validates (1-D int64 /
        # bool): other integer widths widen and non-bool write masks
        # coerce exactly as the simulation kernels would; anything else
        # (float lines, wrong ndim) is refused outright — a blob get()
        # permanently rejects would only force a rebuild on every run.
        lines = np.ascontiguousarray(lines)
        if lines.dtype != np.int64 and np.issubdtype(lines.dtype,
                                                     np.integer):
            lines = lines.astype(np.int64)
        writes = np.ascontiguousarray(writes, dtype=bool)
        if (lines.dtype != np.int64 or lines.ndim != 1
                or writes.ndim != 1 or lines.shape != writes.shape):
            return False
        try:
            lines_p.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_npy(lines_p, lines)
            self._atomic_npy(writes_p, writes)
            if chunk_lens is not None:
                self._atomic_npy(chunks_p, chunk_lens)
            elif chunks_p.exists():
                chunks_p.unlink()  # don't pair a stale sidecar with new data
            fd, tmp = tempfile.mkstemp(dir=str(meta_p.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(blob)
                os.replace(tmp, meta_p)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self.stores += 1
        return True

    @staticmethod
    def _atomic_npy(path: Path, arr: np.ndarray) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".npy.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, arr)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_or_build(
        self,
        payload: Dict,
        builder: Callable[[], Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Serve *payload* from disk, or build, store and return it."""
        cached = self.get(payload)
        if cached is not None:
            return cached
        with fs_phase("trace_build"):
            lines, writes = builder()
        self.put(payload, lines, writes)
        return lines, writes

    def get_or_build_trace(self, payload: Dict,
                           builder: Callable[[], Trace]) -> Trace:
        """Serve *payload* as a :class:`Trace` from disk, or build,
        store (with the tile-chunk sidecar) and return it."""
        cached = self.get_trace(payload)
        if cached is not None:
            return cached
        with fs_phase("trace_build"):
            built = builder()
        self.put(payload, built.lines, built.writes, built.chunk_lens)
        return built

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        if self.disabled or not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def entries(self) -> Iterator[Dict]:
        """Yield every sidecar document (any code version)."""
        if self.disabled or not self.root.exists():
            return
        for path in sorted(self.root.glob("*/*.json")):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    yield json.load(fh)
            except (OSError, ValueError):
                continue

    def total_bytes(self) -> int:
        if self.disabled or not self.root.exists():
            return 0
        return sum(p.stat().st_size
                   for p in self.root.glob("*/*")
                   if p.is_file())

    def gc(self, keep_version: Optional[str] = None) -> int:
        """Drop traces not matching *keep_version* (default: current code
        fingerprint); pass ``keep_version=""`` to drop everything.

        Sweeps every file under the root — not just entries with valid
        sidecars — so blobs orphaned by a crashed ``put()`` (payload
        written, sidecar not) are reclaimed too.  Returns the number of
        distinct trace keys removed.
        """
        if keep_version is None:
            keep_version = self.code_version
        if self.disabled or not self.root.exists():
            return 0
        keep_keys = set()
        if keep_version:
            for doc in self.entries():
                if doc.get("code_version") == keep_version and doc.get("key"):
                    keep_keys.add(doc["key"])
        removed_keys = set()
        for path in list(self.root.glob("*/*")):
            if not path.is_file():
                continue
            name = path.name
            key = None
            for suffix in (".lines.npy", ".writes.npy", ".chunks.npy",
                           ".json"):
                if name.endswith(suffix):
                    key = name[:-len(suffix)]
                    break
            if key in keep_keys:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            if key is not None:  # junk (e.g. crashed tmp files) swept
                removed_keys.add(key)  # but not counted as traces
        return len(removed_keys)

    def describe(self) -> str:
        state = "disabled" if self.disabled else str(self.root)
        return (f"trace store at {state}: {len(self)} traces, "
                f"{self.total_bytes() / 1e6:.1f} MB, "
                f"code version {self.code_version}")


# --------------------------------------------------------------------- #
# process-wide active store (inherited by executor worker processes)
# --------------------------------------------------------------------- #
_active: Union[TraceStore, None, str] = "unset"


def store_from_env() -> Optional[TraceStore]:
    """A store as ``$REPRO_LAB_TRACES`` dictates: a path enables it there,
    off-values (or an unset variable) leave it disabled."""
    env = os.environ.get(TRACES_ENV, "").strip()
    if not env or env.lower() in _OFF_VALUES:
        return None
    store = TraceStore(env)
    return None if store.disabled else store


def active_store() -> Optional[TraceStore]:
    """The store trace-generating kernels should consult (or ``None``).

    Resolution order: a store installed via :func:`set_active_store`
    (including one an executor parent exported for its workers), then
    whatever ``$REPRO_LAB_TRACES`` dictates.
    """
    global _active
    if _active == "unset":
        exported = os.environ.get(_ACTIVE_ENV)
        if exported is not None:
            if exported.lower() in _OFF_VALUES:
                _active = None
            else:
                store = TraceStore(exported)
                _active = None if store.disabled else store
        else:
            _active = store_from_env()
    return _active  # type: ignore[return-value]


# --------------------------------------------------------------------- #
# staged-key context: the executor's zero-copy trace handoff
# --------------------------------------------------------------------- #
_staged: frozenset = frozenset()


@contextmanager
def staged_keys(keys: Iterable[str]) -> Iterator[None]:
    """Mark trace-store *keys* as staged for the current task.

    The executor parent builds (or verifies) each batch task's traces in
    the store at dispatch and ships their keys in the task payload; the
    worker wraps the task body in this context so
    :meth:`repro.lab.registry.TraceKernel.trace` resolves the trace with
    a read-only mmap (:meth:`TraceStore.get_by_key`) instead of
    rebuilding — or worse, the parent pickling event arrays across the
    pool boundary."""
    global _staged
    prev = _staged
    _staged = prev | frozenset(keys)
    try:
        yield
    finally:
        _staged = prev


def is_staged(key: str) -> bool:
    """Whether the executor staged *key* for the current task."""
    return key in _staged


def set_active_store(store: Optional[TraceStore]) -> Optional[TraceStore]:
    """Install *store* process-wide and export it on the *internal*
    worker-propagation variable (so executor worker processes resolve the
    same one); ``$REPRO_LAB_TRACES`` itself — the user's intent — is
    never touched.  Returns the previous store."""
    global _active
    previous = None if _active == "unset" else _active
    _active = store
    if store is None or store.disabled:
        os.environ[_ACTIVE_ENV] = "off"
    else:
        os.environ[_ACTIVE_ENV] = str(store.root)
    return previous  # type: ignore[return-value]


# --------------------------------------------------------------------- #
# in-run memo: the store's in-memory stand-in when none is installed
# --------------------------------------------------------------------- #
#: bytes of finalized traces one run keeps in memory when no store is
#: installed; a trace that would overflow it is built and not kept.
MEMO_BUDGET_BYTES = 128 << 20


def payload_key(payload: Dict) -> str:
    """The in-run memo's key for the trace identity *payload*."""
    return json.dumps(payload, sort_keys=True)


class _Memo:
    __slots__ = ("uses", "traces", "nbytes")

    def __init__(self, uses: Mapping[str, int]) -> None:
        self.uses = dict(uses)
        self.traces: Dict[str, Trace] = {}
        self.nbytes = 0


# A context variable, not a module global: the serve daemon runs sweeps
# on its own thread, and each run must see only the memo it scoped.
_memo: ContextVar[Optional[_Memo]] = ContextVar("repro_trace_memo",
                                                default=None)


def _nbytes(trace: Trace) -> int:
    return sum(arr.nbytes for arr in trace if arr is not None)


@contextmanager
def run_memo(uses: Mapping[str, int]) -> Iterator[None]:
    """Scope an in-run trace memo for the ``with`` body.  *uses* counts
    the fetches the run will make of each trace (by
    :func:`payload_key`); a built trace is kept only while another
    fetch of it is due, and whatever is left is dropped on exit."""
    token = _memo.set(_Memo(uses))
    try:
        yield
    finally:
        _memo.reset(token)


def memo_trace(payload: Dict, builder: Callable[[], Trace]) -> Trace:
    """The trace *payload* names: from the active :func:`run_memo`, or
    built (and kept while a later fetch is due and the byte budget
    allows).  Outside a memo scope every call builds."""
    memo = _memo.get()
    if memo is None:
        with fs_phase("trace_build"):
            return builder()
    key = payload_key(payload)
    left = memo.uses.get(key, 1) - 1
    memo.uses[key] = left
    built = memo.traces.get(key)
    if built is not None:
        if left <= 0:
            del memo.traces[key]
            memo.nbytes -= _nbytes(built)
        return built
    with fs_phase("trace_build"):
        built = builder()
    size = _nbytes(built)
    if left > 0 and memo.nbytes + size <= MEMO_BUDGET_BYTES:
        # Shared from now on, so read-only like a store-mapped trace.
        for arr in built:
            if arr is not None:
                arr.flags.writeable = False
        memo.traces[key] = built
        memo.nbytes += size
    return built
