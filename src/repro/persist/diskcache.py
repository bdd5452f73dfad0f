"""The persistent, fleet-shareable tier of the specialization cache.

A :class:`DiskCodeCache` maps a closure shape's stable digest to a JSON
entry file holding that shape's Tier-2 templates (see
:mod:`repro.persist.format` for the payload).  A fresh process — or a
fleet of serving workers pointed at one shared directory — therefore
starts *warm*: a shape any worker ever compiled cold is served by Tier-2
clone+patch on first sight, and the always-on template audit
(:func:`repro.verify.codeaudit.run_template`) still gates every clone
before it is published.

Layout::

    <root>/<program-namespace>/<digest[:2]>/<shape-digest>.json

``program-namespace`` is a hash of the program source (templates embed
that program's static symbol addresses); the two-hex-char shard level
keeps directories small and is also the file-locking granularity.

Concurrency & durability:

* **write-behind** — ``offer()`` only queues the already-encoded payload
  (encoding eagerly snapshots the body, so later in-memory tampering
  can never reach disk with a valid digest); ``flush()`` — triggered
  every :data:`DEFAULT_FLUSH_EVERY` offers, on session close, and at
  interpreter exit — does the IO.
* **atomic publication** — entries are written to a temp file and
  ``os.replace``d, so readers never observe a torn write.
* **per-shard advisory locking** — writers hold ``fcntl.flock`` on the
  shard's ``.lock`` during read-merge-write, so N workers appending
  templates to one shape lose nothing.  (Degrades to lock-free atomic
  replace where ``fcntl`` is unavailable; last writer wins then.)
* **LRU eviction** — successful loads ``os.utime``-touch their entry
  (the hit counter the eviction policy reads); when the namespace
  exceeds ``max_entries`` files, the oldest-touched are removed.

Every filesystem error is swallowed: the disk tier is an accelerator,
and a broken/read-only/ENOSPC cache directory must degrade to cold
compiles, never to a crash.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from contextlib import contextmanager

from repro.persist.format import (
    FORMAT_VERSION,
    CorruptEntry,
    UnserializableTemplate,
    canonical_json,
    decode_template,
    encode_template,
    isa_fingerprint,
)
from repro.telemetry.metrics import REGISTRY, Counter

#: Entry files kept per program namespace before LRU eviction kicks in.
DEFAULT_MAX_ENTRIES = 4096
#: Queued offers that trigger an automatic write-behind flush.
DEFAULT_FLUSH_EVERY = 8
#: Host-microsecond boundaries for the entry-load latency histogram.
LOAD_LATENCY_BOUNDS = (50, 100, 250, 500, 1_000, 2_500, 5_000,
                       10_000, 25_000, 100_000)

#: Process-wide disk-tier counters; every handle also keeps its own.
_COUNTERS = {key: REGISTRY.counter(f"cache.disk.{key}") for key in
             ("hits", "misses", "loads", "evictions", "rejects")}
_LOAD_LATENCY = REGISTRY.histogram("cache.disk.load_us", LOAD_LATENCY_BOUNDS)

#: Live caches flushed by one process-exit hook (weak: a cache dropped
#: by its process must not be kept alive just for the exit flush).
_LIVE: "weakref.WeakSet[DiskCodeCache]" = weakref.WeakSet()
_EXIT_HOOKED = False


def _flush_all_at_exit() -> None:
    for cache in list(_LIVE):
        try:
            cache.flush()
        except Exception:
            pass


class DiskCodeCache:
    """One process's handle on a shared on-disk template cache."""

    def __init__(self, root: str, program_key: str = "default", *,
                 max_entries: int = DEFAULT_MAX_ENTRIES,
                 templates_per_entry: int = 8,
                 flush_every: int = DEFAULT_FLUSH_EVERY):
        self.root = str(root)
        self.dir = os.path.join(self.root, program_key)
        self.max_entries = max_entries
        self.templates_per_entry = templates_per_entry
        self.flush_every = max(1, flush_every)
        self._fingerprint = isa_fingerprint()
        self._lock = threading.Lock()
        self._pending: list = []          # (shape_digest, encoded payload)
        self._pending_digests: set = set()
        # shape digest -> template digests already handed to this process
        # (so repeated misses on one shape don't re-read and re-admit)
        self._probed: dict = {}
        self._counts = {key: Counter(key) for key in _COUNTERS}
        global _EXIT_HOOKED
        _LIVE.add(self)
        if not _EXIT_HOOKED:
            import atexit

            atexit.register(_flush_all_at_exit)
            _EXIT_HOOKED = True

    def _count(self, key: str, n: int = 1) -> None:
        _COUNTERS[key].inc(n)
        self._counts[key].inc(n)

    # -- paths -------------------------------------------------------------

    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.dir, digest[:2], digest + ".json")

    @contextmanager
    def _shard_lock(self, shard_dir: str):
        """Advisory inter-process lock for one shard's read-merge-write."""
        handle = None
        try:
            import fcntl

            handle = open(os.path.join(shard_dir, ".lock"), "a")
            fcntl.flock(handle, fcntl.LOCK_EX)
        except (ImportError, OSError):
            handle = None
        try:
            yield
        finally:
            if handle is not None:
                try:
                    import fcntl

                    fcntl.flock(handle, fcntl.LOCK_UN)
                except (ImportError, OSError):
                    pass
                handle.close()

    # -- load --------------------------------------------------------------

    def load(self, signature, segment=None) -> list:
        """Deserialize every not-yet-seen, digest-valid, link-compatible
        template for ``signature``'s shape.  Version or fingerprint
        mismatches are silent misses (the file is left for other
        workers); corruption rejects the template and deletes the file
        (self-healing).  Returns ``[]`` on any miss — never raises."""
        if not signature.persistable:
            return []
        digest = signature.shape_digest
        path = self._entry_path(digest)
        t0 = time.perf_counter()
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError:
            self._count("misses")
            return []
        out, corrupt = [], False
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("entry is not an object")
        except ValueError:
            payload, corrupt = None, True
            self._count("rejects")
        if payload is not None:
            if (payload.get("format") != FORMAT_VERSION
                    or payload.get("fingerprint") != self._fingerprint):
                # a different world's entry: silently skip
                self._count("misses")
                return []
            seen = self._probed.setdefault(digest, set())
            for raw in payload.get("templates", ()):
                tdigest = raw.get("digest") if isinstance(raw, dict) else None
                if tdigest is not None and tdigest in seen:
                    continue
                try:
                    template = decode_template(raw)
                except CorruptEntry:
                    self._count("rejects")
                    corrupt = True
                    continue
                if (segment is not None
                        and not template.links_into(segment)):
                    continue  # foreign symbol layout: miss, not corruption
                if tdigest is not None:
                    seen.add(tdigest)
                out.append(template)
        if corrupt:
            self._discard(path)
        _LOAD_LATENCY.record((time.perf_counter() - t0) * 1e6)
        if out:
            self._count("loads", len(out))
            self._count("hits")
            try:
                os.utime(path)  # LRU touch: loads are the hit counter
            except OSError:
                pass
        else:
            self._count("misses")
        return out

    def _discard(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    # -- store (write-behind) ----------------------------------------------

    def offer(self, signature, template) -> None:
        """Queue one template for persistence; encodes eagerly (snapshot
        semantics) and flushes once the batch threshold is reached."""
        if not signature.persistable:
            return
        try:
            payload = encode_template(template)
        except UnserializableTemplate:
            return
        with self._lock:
            if payload["digest"] in self._pending_digests:
                return
            # Don't reload our own writes later: mark them probed now.
            self._probed.setdefault(signature.shape_digest,
                                    set()).add(payload["digest"])
            self._pending.append((signature.shape_digest, payload))
            self._pending_digests.add(payload["digest"])
            do_flush = len(self._pending) >= self.flush_every
        if do_flush:
            self.flush()

    def flush(self) -> None:
        """Drain the write-behind queue to disk, then apply LRU eviction.
        Filesystem failures are swallowed (the affected templates simply
        stay unpersisted)."""
        with self._lock:
            pending, self._pending = self._pending, []
            self._pending_digests = set()
        if not pending:
            return
        groups: dict = {}
        for digest, payload in pending:
            groups.setdefault(digest, []).append(payload)
        for digest, payloads in groups.items():
            try:
                self._write_entry(digest, payloads)
            except OSError:
                pass
        self._maybe_evict()

    def _write_entry(self, digest: str, payloads: list) -> None:
        """Read-merge-write one entry file under the shard lock."""
        shard_dir = os.path.join(self.dir, digest[:2])
        os.makedirs(shard_dir, exist_ok=True)
        path = self._entry_path(digest)
        with self._shard_lock(shard_dir):
            merged: list = []
            try:
                with open(path, "r") as fh:
                    current = json.load(fh)
                if (isinstance(current, dict)
                        and current.get("format") == FORMAT_VERSION
                        and current.get("fingerprint") == self._fingerprint):
                    merged = [t for t in current.get("templates", ())
                              if isinstance(t, dict)]
            except (OSError, ValueError):
                merged = []
            have = {t.get("digest") for t in merged}
            for payload in payloads:
                if payload["digest"] not in have:
                    merged.append(payload)
                    have.add(payload["digest"])
            merged = merged[-self.templates_per_entry:]
            body = {
                "format": FORMAT_VERSION,
                "fingerprint": self._fingerprint,
                "shape": digest,
                "templates": merged,
            }
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write(canonical_json(body))
            os.replace(tmp, path)

    # -- eviction ----------------------------------------------------------

    def _scan(self) -> list:
        """Every entry file in this namespace as (mtime, size, path)."""
        entries = []
        try:
            shards = os.listdir(self.dir)
        except OSError:
            return entries
        for shard in shards:
            shard_dir = os.path.join(self.dir, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, path))
        return entries

    def _maybe_evict(self) -> None:
        entries = self._scan()
        extra = len(entries) - self.max_entries
        if extra <= 0:
            return
        for _mtime, _size, path in sorted(entries)[:extra]:
            try:
                os.remove(path)
                self._count("evictions")
            except OSError:
                pass

    # -- chaos / invalidation ----------------------------------------------

    def corrupt_first(self) -> bool:
        """Chaos hook (``corrupt_disk``): tamper with one operand of one
        persisted template *without* re-sealing its digest — the load
        path must reject it.  Returns True when an entry was found."""
        self.flush()
        for _mtime, _size, path in sorted(self._scan()):
            try:
                with open(path, "r") as fh:
                    payload = json.load(fh)
                templates = payload.get("templates")
                instrs = templates[0]["instructions"]
                operand = instrs[0][1]
                instrs[0][1] = (operand + 1 if isinstance(operand, int)
                                and not isinstance(operand, bool) else 1)
                tmp = f"{path}.tmp.{os.getpid()}"
                with open(tmp, "w") as fh:
                    fh.write(canonical_json(payload))
                os.replace(tmp, path)
                # Forget the probe memory so the tampered entry is
                # actually re-read (and rejected) on the next miss.
                self._probed.pop(payload.get("shape"), None)
                return True
            except (OSError, ValueError, KeyError, IndexError, TypeError):
                continue
        return False

    def reset_probes(self) -> None:
        """Forget which templates were already handed out (used when the
        in-memory tiers are cleared, so disk can re-warm them)."""
        with self._lock:
            self._probed = {}

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """This handle's directory contents and its own probe counters
        (the process-wide totals are the ``cache.disk.*`` metrics)."""
        entries = self._scan()
        return {
            "dir": self.dir,
            "entries": len(entries),
            "bytes": sum(size for _m, size, _p in entries),
            "pending": len(self._pending),
            **{key: c.value for key, c in self._counts.items()},
        }

    def __repr__(self) -> str:
        return f"<DiskCodeCache {self.dir!r} pending={len(self._pending)}>"


def scan_dir(root: str) -> tuple:
    """(entry files, total bytes) across *every* program namespace under
    ``root`` — the ``report cache`` CLI's directory summary."""
    entries = 0
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if not name.endswith(".json"):
                continue
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
                entries += 1
            except OSError:
                continue
    return entries, total
