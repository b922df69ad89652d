"""In-memory hot LRU layer in front of the on-disk result cache.

The disk cache (:class:`repro.harness.executor.ResultCache`) makes warm
regenerations O(file read); a long-running server can do better for the
overlapping grids different tenants keep re-requesting — an LRU of
deserialized :class:`~repro.core.results.RunResult` objects keyed by the
same content-addressed key turns a repeat lookup into a dict hit with
zero IO and zero parsing.

Entries are immutable run results shared by reference; nothing in the
serving path mutates them (the same invariant the executor's program
memo relies on). Corruption handling stays where the bytes are: the
disk layer quarantines unreadable entries on read, the hot layer only
ever holds values that already parsed.

Memory: a run's per-kernel :class:`~repro.sim.counters.CounterReport`
is most of its size, and every iteration of a sweep family has an
equal one. As in the disk cache's packs, entries of one family share
one report, checked equal before it is shared.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.results import RunResult


@dataclass
class HotCacheStats:
    """Hit/miss/eviction accounting for one :class:`HotCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class HotCache:
    """Bounded LRU of finished runs, keyed by content-addressed key.

    Thread-safe: the asyncio event loop and the batch-executor threads
    both touch it. A ``capacity`` of 0 disables the layer (every get is
    a miss, puts are dropped) so the server can run hot-cache-free for
    A/B measurements without a second code path.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = HotCacheStats()
        # key -> (run, family; None when it keeps its own counters)
        self._entries: "OrderedDict[str, Tuple]" = OrderedDict()
        # family -> [shared CounterReport, entries sharing it]
        self._families: Dict[Hashable, List] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional["RunResult"]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: str, run: "RunResult",
            family: Optional[Hashable] = None) -> None:
        """Store ``run``; ``family`` (a spec's sweep family) lets it
        share its counter report with the family's other entries."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._release(self._entries.pop(key)[1])
            else:
                while len(self._entries) >= self.capacity:
                    self._release(self._entries.popitem(last=False)[1][1])
                    self.stats.evictions += 1
                self.stats.stores += 1
            if family is not None:
                shared = self._families.get(family)
                if shared is None:
                    self._families[family] = [run.counters, 1]
                elif shared[0] is run.counters or shared[0] == run.counters:
                    run = dataclasses.replace(run, counters=shared[0])
                    shared[1] += 1
                else:
                    family = None  # unequal: keeps its own report
            self._entries[key] = (run, family)

    def _release(self, family: Optional[Hashable]) -> None:
        if family is None:
            return
        shared = self._families[family]
        shared[1] -= 1
        if not shared[1]:
            del self._families[family]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._families.clear()
