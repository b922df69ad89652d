"""Sweep-as-a-service: the long-running face of the sweep executor.

``repro serve`` wraps the cached, crash-contained
:class:`~repro.harness.executor.SweepExecutor` in a stdlib-only
asyncio HTTP server with the properties a shared deployment needs:
admission control with load shedding (429 + ``Retry-After``),
per-tenant fair-share scheduling, request deadlines with explicit
partial responses, in-flight dedup plus a hot LRU over the disk
cache, a circuit breaker that degrades to the reference engine, and a
SIGTERM drain that checkpoints to the sweep journal for bit-identical
``--resume``. See ``docs/SERVICE.md``.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".admission": ("AdmissionController", "AdmissionLimits",
                   "AdmissionRejected"),
    ".hotcache": ("HotCache", "HotCacheStats"),
    ".lifecycle": ("drain", "resume_pending", "serve"),
    ".scheduler": ("CircuitBreaker", "FairShareScheduler", "SpecJob"),
    ".server": ("PENDING_STATUS", "RESUME_TENANT", "SERVICE_JOURNAL",
                "BadRequest", "ReproService", "ServiceConfig"),
})

__all__ = [
    "AdmissionController", "AdmissionLimits", "AdmissionRejected",
    "BadRequest", "CircuitBreaker", "FairShareScheduler", "HotCache",
    "HotCacheStats", "PENDING_STATUS", "RESUME_TENANT", "ReproService",
    "SERVICE_JOURNAL", "ServiceConfig", "SpecJob", "drain",
    "resume_pending", "serve",
]
