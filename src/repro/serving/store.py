"""The engine-shared Tier-2 template store.

Tier-1 memo entries are absolute addresses in one machine's code segment,
so they can never leave their session.  Tier-2 :class:`~repro.core
.codecache.CodeTemplate` objects are the opposite: post-link instruction
*copies* with positional hole/relocation records, referencing no session
state at all.  A :class:`TemplateStore` exploits that — one store per
:class:`~repro.serving.engine.Engine` lets every session clone templates
any *other* session paid the cold-compile price for (cross-session warm
starts), while each session still installs the clone into its own
segment.

The store may also carry a :class:`~repro.persist.diskcache
.DiskCodeCache` tier: templates added here are offered to disk
(write-behind), and an in-memory miss probes disk before giving up, so a
fresh *engine* — not just a fresh session — starts warm.

Concurrency: the store is lock-striped.  Shape keys hash onto
:data:`STRIPES` independent buckets, each with its own lock, so sessions
compiling unrelated closures never contend.  ``match`` snapshots the
candidate list under the stripe lock but evaluates matches, integrity
checksums, and guards *outside* it: guard evaluation reads the probing
session's data memory, and a slow (or adversarial) memory must never
stall every other session hashing onto the same stripe.  Templates are
immutable by convention — tampering is exactly what the integrity
checksum catches — so the lock-free scan is safe.  A match returns a
private, checksum-verified copy of the template's body, so a tamper
that lands after the check cannot reach the installed clone.
"""

from __future__ import annotations

import threading

from repro.telemetry.metrics import REGISTRY

#: Number of independent lock stripes.
STRIPES = 16

_POISONED = REGISTRY.counter("cache.poisoned_evictions")
_SHARED_HITS = REGISTRY.counter("store.shared_matches")


class TemplateStore:
    """A thread-safe, lock-striped map ``shape_key -> [CodeTemplate]``,
    optionally backed by a persistent on-disk tier."""

    def __init__(self, templates_per_shape: int = 8, stripes: int = STRIPES,
                 disk=None):
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.templates_per_shape = templates_per_shape
        self.disk = disk
        self._stripes = tuple(
            (threading.RLock(), {}) for _ in range(stripes)
        )

    def _stripe(self, shape_key):
        lock, shapes = self._stripes[hash(shape_key) % len(self._stripes)]
        return lock, shapes

    def add(self, shape_key, template, signature=None) -> None:
        lock, shapes = self._stripe(shape_key)
        with lock:
            bucket = shapes.setdefault(shape_key, [])
            bucket.append(template)
            if len(bucket) > self.templates_per_shape:
                bucket.pop(0)
        # Write-behind persistence happens outside the stripe lock: disk
        # encoding must never serialize other sessions' matches.
        if self.disk is not None and signature is not None:
            self.disk.offer(signature, template)

    def match(self, signature, memory, segment=None):
        """The store-side half of ``CodeCache.match_template``: same-shape
        template, matching non-hole values, guards holding in *this*
        session's memory, and an intact integrity checksum.  A template
        failing the checksum is evicted (cache poisoning) and counted.
        On an in-memory miss the disk tier (when present) is probed, and
        any loaded templates are admitted to the stripe for next time."""
        lock, shapes = self._stripe(signature.shape_key)
        with lock:
            candidates = list(shapes.get(signature.shape_key, ()))
        found = self._pick(candidates, signature, memory, segment)
        if found is not None:
            _SHARED_HITS.inc()
            return found
        if (self.disk is not None and segment is not None
                and signature.persistable):
            loaded = self.disk.load(signature, segment)
            if loaded:
                with lock:
                    bucket = shapes.setdefault(signature.shape_key, [])
                    bucket.extend(loaded)
                    while len(bucket) > self.templates_per_shape:
                        bucket.pop(0)
                return self._pick(loaded, signature, memory, segment)
        return None

    def _pick(self, candidates, signature, memory, segment):
        """Lock-free scan of snapshotted candidates (see class docs).
        Returns a :meth:`~repro.core.codecache.CodeTemplate.pinned` copy,
        so the body checked is the body cloned."""
        from repro.core.codecache import _guards_hold

        for template in candidates:
            if not template.matches(signature):
                continue
            pinned = template.pinned()
            if pinned is None:
                self.evict(signature.shape_key, template)
                _POISONED.inc()
                continue
            if segment is not None and not template.links_into(segment):
                continue
            if _guards_hold(template.guards, memory):
                return pinned
        return None

    def evict(self, shape_key, template) -> None:
        lock, shapes = self._stripe(shape_key)
        with lock:
            bucket = shapes.get(shape_key)
            if bucket and template in bucket:
                bucket.remove(template)

    def flush(self) -> None:
        """Drain the disk tier's write-behind queue (no-op without one)."""
        if self.disk is not None:
            self.disk.flush()

    def tamper_first(self) -> bool:
        """Chaos hook: corrupt one operand of one stored template in
        place (simulated cache poisoning).  Returns True when a template
        was found to tamper with."""
        for lock, shapes in self._stripes:
            with lock:
                for bucket in shapes.values():
                    for template in bucket:
                        if template.instructions:
                            instr = template.instructions[0]
                            instr.a = (instr.a + 1 if isinstance(instr.a, int)
                                       else 1)
                            return True
        return False

    def clear(self) -> None:
        for lock, shapes in self._stripes:
            with lock:
                shapes.clear()
        if self.disk is not None:
            self.disk.reset_probes()

    def stats(self) -> dict:
        shapes = templates = 0
        for lock, stripe_shapes in self._stripes:
            with lock:
                shapes += len(stripe_shapes)
                templates += sum(len(b) for b in stripe_shapes.values())
        out = {"shapes": shapes, "templates": templates}
        if self.disk is not None:
            out["disk"] = self.disk.stats()
        return out

    def __repr__(self) -> str:
        s = self.stats()
        return (f"<TemplateStore {s['templates']} templates / "
                f"{s['shapes']} shapes>")
