"""Fenced, heartbeat-renewed node leases over a shared filesystem.

The fabric's only coordination medium is a directory (``leases/``
under the fabric root) visible to every worker. Three mechanisms make
that safe without any server:

**Fencing tokens.** Every claim of a node consumes a fresh
monotonically increasing token, acquired by ``O_CREAT | O_EXCL``
creation of ``node<id>.t<token>`` — the one filesystem primitive that
is atomic test-and-set on every local filesystem. Two workers racing
for the same node compute the same next token; exactly one creation
succeeds, the loser backs off. The token is carried on every
subsequent action (renew, commit, journal event), so any *later*
claimant outranks every earlier one: a zombie worker resuming after a
stall finds the lease file holds a higher token than its own and is
**fenced** — it must not commit.

**Heartbeat leases.** The claim writes ``node<id>.json`` (temp +
atomic rename) recording holder, token and heartbeat timestamp; the
holder re-writes it every ``interval`` seconds. A lease whose
heartbeat is older than ``lease_s`` is *expired*: anyone may claim
over it (with a higher token). A crashed worker therefore blocks its
node for at most one lease term.

**One commit per node.** A fence check alone leaves a window: the
check passes, a steal lands, and both holders go on to commit. So the
commit is itself a fenced act: ``O_CREAT | O_EXCL`` creation of
``node<id>.commit`` naming the committer's token, after the check and
before the result store and the journal record. Of two holders that
both passed the check exactly one creates the marker; the other is
fenced. A holder killed between the marker and its journal record
leaves a marker with no commit; the next claim over its expired lease
clears it, so the node still waits at most one lease term. Behind the
marker, the store (``ResultCache.put``'s ``os.link`` publish) and the
journal reducer (first ``commit`` event per node) are each
independently first-commit-wins, so a wrong result needs every layer
to fail. Each is exercised separately in ``tests/fabric/``.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Union

_TOKEN_RE = re.compile(r"^node(\d+)\.t(\d+)$")


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one DAG node."""

    node_id: int
    worker: str
    token: int
    acquired_ts: float
    heartbeat_ts: float

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since the last heartbeat."""
        return (time.time() if now is None else now) - self.heartbeat_ts

    def expired(self, lease_s: float, now: Optional[float] = None) -> bool:
        return self.age(now) > lease_s


class LeaseDir:
    """The ``leases/`` directory: claim, renew, fence, release.

    Safe for concurrent use from any number of processes on one
    filesystem; every mutation is either ``O_EXCL`` creation (token
    grant) or temp-file + atomic rename (lease record), so no reader
    ever observes a torn lease.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def lease_path(self, node_id: int) -> Path:
        return self.root / f"node{node_id}.json"

    def read(self, node_id: int) -> Optional[Lease]:
        """The current lease on a node, or ``None``.

        A torn or half-written record (impossible via this class, but
        the fabric assumes hostile crashes) reads as no lease — the
        node is then stealable, which is the safe direction.
        """
        try:
            record = json.loads(self.lease_path(node_id).read_text())
            return Lease(node_id=int(record["node_id"]),
                         worker=str(record["worker"]),
                         token=int(record["token"]),
                         acquired_ts=float(record["acquired_ts"]),
                         heartbeat_ts=float(record["heartbeat_ts"]))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def all_leases(self) -> Dict[int, Lease]:
        """Every live lease record, by node id (for status rendering)."""
        leases: Dict[int, Lease] = {}
        try:
            names = os.listdir(self.root)
        except OSError:
            return leases
        for name in sorted(names):
            if name.startswith("node") and name.endswith(".json"):
                try:
                    node_id = int(name[4:-5])
                except ValueError:
                    continue
                lease = self.read(node_id)
                if lease is not None:
                    leases[node_id] = lease
        return leases

    def highest_token(self, node_id: int) -> int:
        """The highest token ever granted for a node (0 if none)."""
        highest = 0
        try:
            names = os.listdir(self.root)
        except OSError:
            return highest
        for name in names:
            match = _TOKEN_RE.match(name)
            if match and int(match.group(1)) == node_id:
                highest = max(highest, int(match.group(2)))
        return highest

    # ------------------------------------------------------------------
    def claim(self, node_id: int, worker: str, lease_s: float,
              beyond_token: Optional[int] = None) -> Optional[Lease]:
        """Try to claim a node; ``None`` means someone else holds it.

        A node is claimable when it has no lease, its lease's
        heartbeat has expired, or ``beyond_token`` is given (the
        coordinator's speculative re-dispatch: claim *over* a fresh
        lease whose token is ``<= beyond_token`` — the straggler keeps
        running but is now fenced).

        The grant itself is the ``O_CREAT|O_EXCL`` creation of the
        token file: of any number of racing claimants exactly one
        wins; losers return ``None`` and pick another node.
        """
        granted = self.highest_token(node_id)
        current = self.read(node_id)
        effective = max(granted, current.token if current else 0)
        if current is not None and not current.expired(lease_s):
            if beyond_token is None or effective > beyond_token:
                return None
        token = effective + 1
        now = time.time()
        lease = Lease(node_id=node_id, worker=worker, token=token,
                      acquired_ts=now, heartbeat_ts=now)
        # Staged before the grant so the record lands right after it:
        # a rival that sees the grant but not yet the record computes
        # the next token and claims over a lease just taken.
        staged = self._stage(lease)
        try:
            fd = os.open(self.root / f"node{node_id}.t{token}",
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
        except FileExistsError:
            staged.unlink(missing_ok=True)
            return None  # lost the token race; caller moves on
        staged.replace(self.lease_path(node_id))
        return lease

    def renew(self, lease: Lease) -> Optional[Lease]:
        """Heartbeat: refresh the lease if we still hold it.

        Returns the renewed lease, or ``None`` if a higher fencing
        token has since been granted for the node — this worker has
        been fenced and must abandon the node without committing.

        The fence decision reads the **token files**, not the lease
        JSON: the JSON is replaced with plain last-rename-wins, so a
        zombie's in-flight heartbeat write could momentarily mask a
        stealer's record — but it can never un-create the stealer's
        ``O_EXCL`` token file, which is why the token files are the
        authority for every fencing decision.
        """
        if self.highest_token(lease.node_id) > lease.token:
            return None
        renewed = replace(lease, heartbeat_ts=time.time())
        self._write(renewed)
        return renewed

    def check(self, lease: Lease) -> bool:
        """Commit-time fence check: do we still hold the node?

        True iff no higher token has been granted (token files are
        the authority; see :meth:`renew`).
        """
        return self.highest_token(lease.node_id) <= lease.token

    def commit_path(self, node_id: int) -> Path:
        return self.root / f"node{node_id}.commit"

    def commit(self, lease: Lease) -> bool:
        """Take the node's one commit: ``O_CREAT|O_EXCL`` creation of
        ``node<id>.commit`` holding our token. False means another
        holder committed (or is committing) the node, and this one
        must fence out."""
        try:
            fd = os.open(self.commit_path(lease.node_id),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, str(lease.token).encode())
        finally:
            os.close(fd)
        return True

    def committer(self, node_id: int) -> Optional[int]:
        """The token the node's commit marker names (0 if a crash tore
        it before the token was written), or ``None`` if there is none."""
        try:
            text = self.commit_path(node_id).read_text()
        except FileNotFoundError:
            return None
        return int(text) if text.isdigit() else 0

    def clear_commit(self, node_id: int) -> None:
        """Unlink the commit marker of a holder that died before
        journaling its commit. The caller must have checked the
        journal: a journaled commit's marker fences stale claimants."""
        self.commit_path(node_id).unlink(missing_ok=True)

    def release(self, lease: Lease) -> None:
        """Drop the lease after commit (only if we still hold it).

        A fenced worker (a higher token exists) must not unlink the
        stealer's record; the ``<=`` guard also lets the holder clean
        up after a zombie's stale heartbeat write momentarily put an
        *older* token back in the file.
        """
        current = self.read(lease.node_id)
        if current is not None and current.token <= lease.token \
                and self.check(lease):
            try:
                self.lease_path(lease.node_id).unlink()
            except OSError:  # pragma: no cover - benign release race
                pass

    def sweep(self, node_ids) -> int:
        """Unlink lease files for finished nodes; returns how many.

        The coordinator calls this with the committed/failed node set
        so a crash between a worker's commit and its release can never
        leave a lease dangling forever.
        """
        removed = 0
        for node_id in node_ids:
            try:
                self.lease_path(node_id).unlink()
                removed += 1
            except OSError:
                continue
        return removed

    # ------------------------------------------------------------------
    def _write(self, lease: Lease) -> None:
        self._stage(lease).replace(self.lease_path(lease.node_id))

    def _stage(self, lease: Lease) -> Path:
        path = self.lease_path(lease.node_id)
        tmp = path.with_name(f".{path.name}.{os.getpid()}."
                             f"{threading.get_ident()}.t{lease.token}.tmp")
        tmp.write_text(json.dumps({
            "node_id": lease.node_id, "worker": lease.worker,
            "token": lease.token, "acquired_ts": lease.acquired_ts,
            "heartbeat_ts": lease.heartbeat_ts}))
        return tmp
