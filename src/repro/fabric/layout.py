"""The fabric root: one directory that *is* the distributed sweep.

Workers are spawned with nothing but ``--root <dir> --id <name>``;
everything else — the compiled DAG, the engine, lease and straggler
tuning — lives in the directory, so a worker started from a second
terminal (or a second machine sharing the filesystem) joins the same
sweep with the same configuration by construction:

    <root>/
      dag.json        compiled SpecDAG manifest (immutable after init)
      meta.json       FabricMeta: engine + protocol tuning (immutable)
      journal.jsonl   shared durable SweepJournal (coordination log)
      leases/         LeaseDir (token files + lease records)
      cache/          ResultCache (content-addressed result store)

``dag.json`` and ``meta.json`` are written once by ``init`` (temp +
atomic rename) before any worker starts; only the journal and the
lease directory are ever written concurrently.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

from ..core.execution import DEFAULT_ENGINE, engine_spec
from ..harness.executor import ResultCache
from ..harness.resilience import SweepJournal
from .dag import SpecDAG
from .leases import LeaseDir


@dataclass(frozen=True)
class FabricMeta:
    """Protocol tuning shared by every participant of one sweep."""

    engine: str = DEFAULT_ENGINE
    lease_s: float = 5.0          # heartbeat older than this = expired
    heartbeat_s: float = 0.0      # 0 = lease_s / 3
    straggler_factor: float = 4.0  # redispatch at factor x group median
    straggler_min_s: float = 1.0   # never redispatch under this elapsed
    straggler_min_samples: int = 3
    max_errors: int = 2            # error events before a node fails
    poll_s: float = 0.05           # worker idle poll interval

    def __post_init__(self) -> None:
        # A root written by an older build may name a retired engine;
        # fail once here rather than inside every worker.
        engine_spec(self.engine)

    @property
    def effective_heartbeat_s(self) -> float:
        return self.heartbeat_s if self.heartbeat_s > 0 else self.lease_s / 3

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "FabricMeta":
        return cls(**json.loads(payload))


class FabricRoot:
    """Paths + lazily constructed components of one fabric directory."""

    DAG_FILE = "dag.json"
    META_FILE = "meta.json"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # ------------------------------------------------------------------
    @property
    def dag_path(self) -> Path:
        return self.root / self.DAG_FILE

    @property
    def meta_path(self) -> Path:
        return self.root / self.META_FILE

    @property
    def journal_path(self) -> Path:
        return self.root / SweepJournal.FILENAME

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def initialized(self) -> bool:
        return self.dag_path.exists() and self.meta_path.exists()

    # ------------------------------------------------------------------
    @classmethod
    def init(cls, root: Union[str, Path], dag: SpecDAG,
             meta: Optional[FabricMeta] = None) -> "FabricRoot":
        """Create (or re-open) a fabric directory for one sweep.

        Re-initializing an existing root with the *same* DAG is a
        no-op (a crashed coordinator restarting); with a different DAG
        it refuses — a root is one sweep, forever.
        """
        fabric = cls(root)
        fabric.root.mkdir(parents=True, exist_ok=True)
        meta = meta or FabricMeta()
        dag_payload = dag.to_json()
        if fabric.dag_path.exists():
            if fabric.dag_path.read_text() != dag_payload:
                raise ValueError(
                    f"fabric root {fabric.root} already holds a different "
                    "sweep; use a fresh directory")
        else:
            _write_atomic(fabric.dag_path, dag_payload)
        if not fabric.meta_path.exists():
            _write_atomic(fabric.meta_path, meta.to_json())
        fabric.leases_dir.mkdir(exist_ok=True)
        fabric.cache_dir.mkdir(exist_ok=True)
        return fabric

    def load_dag(self) -> SpecDAG:
        return SpecDAG.from_json(self.dag_path.read_text())

    def load_meta(self) -> FabricMeta:
        return FabricMeta.from_json(self.meta_path.read_text())

    def journal(self) -> SweepJournal:
        # durable=True: the journal is the coordination log — a power
        # cut must not un-happen a claim another worker already acted on.
        return SweepJournal(self.journal_path, durable=True)

    def leases(self) -> LeaseDir:
        return LeaseDir(self.leases_dir)

    def cache(self) -> ResultCache:
        return ResultCache(self.cache_dir)


def _write_atomic(path: Path, payload: str) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(payload)
    tmp.replace(path)
