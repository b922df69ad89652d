"""Lease protocol: fencing tokens, heartbeats, steals, releases."""

import json
import time

from repro.fabric.leases import Lease, LeaseDir


def test_claim_grants_monotonic_fenced_tokens(tmp_path):
    leases = LeaseDir(tmp_path)
    first = leases.claim(0, "w1", lease_s=60.0)
    assert first is not None and first.token == 1
    # Fresh lease: nobody else can claim.
    assert leases.claim(0, "w2", lease_s=60.0) is None
    leases.release(first)
    second = leases.claim(0, "w2", lease_s=60.0)
    assert second is not None
    assert second.token == 2  # tokens never reuse, even after release


def test_token_file_is_the_atomic_grant(tmp_path, monkeypatch):
    leases = LeaseDir(tmp_path)
    # Recreate the exact race window: a rival creates token file t1
    # *between* our scan (which saw none) and our O_EXCL create. The
    # O_EXCL failure is the clean loss — no double grant, no crash.
    real_scan = LeaseDir.highest_token

    def delayed_scan(self, node_id):
        highest = real_scan(self, node_id)
        (tmp_path / f"node{node_id}.t{highest + 1}").touch()  # rival wins
        return highest

    monkeypatch.setattr(LeaseDir, "highest_token", delayed_scan)
    assert leases.claim(7, "w1", lease_s=60.0) is None
    monkeypatch.undo()
    # The next attempt computes a higher token and wins.
    lease = leases.claim(7, "w1", lease_s=60.0)
    assert lease is not None and lease.token == 2


def test_expired_lease_is_stealable(tmp_path):
    leases = LeaseDir(tmp_path)
    stale = leases.claim(3, "w1", lease_s=0.01)
    time.sleep(0.03)
    stolen = leases.claim(3, "w2", lease_s=0.01)
    assert stolen is not None
    assert stolen.token == stale.token + 1
    assert stolen.worker == "w2"


def test_fresh_lease_stolen_only_with_beyond_token(tmp_path):
    leases = LeaseDir(tmp_path)
    holder = leases.claim(5, "w1", lease_s=60.0)
    # Plain claim refused; redispatch-style claim allowed.
    assert leases.claim(5, "w2", lease_s=60.0) is None
    assert leases.claim(5, "w2", lease_s=60.0,
                        beyond_token=holder.token - 1) is None
    stolen = leases.claim(5, "w2", lease_s=60.0,
                          beyond_token=holder.token)
    assert stolen is not None and stolen.token == holder.token + 1


def test_renew_detects_fencing(tmp_path):
    leases = LeaseDir(tmp_path)
    zombie = leases.claim(1, "w1", lease_s=0.01)
    renewed = leases.renew(zombie)
    assert renewed is not None
    assert renewed.heartbeat_ts >= zombie.heartbeat_ts
    time.sleep(0.03)
    stealer = leases.claim(1, "w2", lease_s=0.01)
    assert stealer is not None
    # The zombie is fenced on its next heartbeat and at commit time.
    assert leases.renew(zombie) is None
    assert leases.check(zombie) is False
    assert leases.check(stealer) is True


def test_fencing_authority_is_token_files_not_lease_json(tmp_path):
    """A zombie's stale lease-file write must not fence the stealer."""
    leases = LeaseDir(tmp_path)
    zombie = leases.claim(2, "w1", lease_s=0.01)
    time.sleep(0.03)
    stealer = leases.claim(2, "w2", lease_s=0.01)
    # Zombie's in-flight heartbeat write lands *after* the steal
    # (last-rename-wins on the JSON), momentarily masking the record.
    leases._write(Lease(node_id=2, worker="w1", token=zombie.token,
                        acquired_ts=zombie.acquired_ts,
                        heartbeat_ts=time.time()))
    assert leases.read(2).worker == "w1"  # the JSON lies...
    assert leases.check(stealer) is True  # ...the tokens do not
    assert leases.check(zombie) is False
    assert leases.renew(stealer) is not None


def test_release_ignores_foreign_and_fenced_leases(tmp_path):
    leases = LeaseDir(tmp_path)
    old = leases.claim(4, "w1", lease_s=0.01)
    time.sleep(0.03)
    new = leases.claim(4, "w2", lease_s=0.01)
    leases.release(old)  # fenced: must not unlink the stealer's lease
    assert leases.read(4) is not None
    assert leases.read(4).token == new.token
    leases.release(new)
    assert leases.read(4) is None


def test_sweep_removes_finished_nodes_leases(tmp_path):
    leases = LeaseDir(tmp_path)
    for node_id in (0, 1, 2):
        leases.claim(node_id, "w1", lease_s=60.0)
    assert leases.sweep([0, 2, 99]) == 2
    assert set(leases.all_leases()) == {1}


def test_torn_lease_record_reads_as_no_lease(tmp_path):
    leases = LeaseDir(tmp_path)
    leases.claim(9, "w1", lease_s=60.0)
    leases.lease_path(9).write_text('{"node_id": 9, "work')  # torn
    assert leases.read(9) is None
    assert 9 not in leases.all_leases()
    # ...which makes the node stealable — the safe direction.
    assert leases.claim(9, "w2", lease_s=60.0) is not None


def test_all_leases_and_highest_token_survive_junk_files(tmp_path):
    leases = LeaseDir(tmp_path)
    lease = leases.claim(0, "w1", lease_s=60.0)
    (tmp_path / "nodeX.json").write_text("{}")
    (tmp_path / "node0.tjunk").touch()
    assert set(leases.all_leases()) == {0}
    assert leases.highest_token(0) == lease.token
    record = json.loads(leases.lease_path(0).read_text())
    assert record["worker"] == "w1"


def test_commit_marker_names_its_token_until_cleared(tmp_path):
    leases = LeaseDir(tmp_path)
    first = leases.claim(6, "w1", lease_s=0.01)
    assert leases.committer(6) is None
    assert leases.commit(first)
    assert leases.committer(6) == first.token
    time.sleep(0.03)
    second = leases.claim(6, "w2", lease_s=0.01)
    assert not leases.commit(second)  # one commit per node
    assert leases.committer(6) == first.token
    leases.clear_commit(6)
    assert leases.committer(6) is None
    assert leases.commit(second)
    assert leases.committer(6) == second.token


def test_torn_commit_marker_names_token_zero(tmp_path):
    leases = LeaseDir(tmp_path)
    leases.commit_path(2).touch()  # crash between create and write
    assert leases.committer(2) == 0
    leases.clear_commit(2)
    leases.clear_commit(2)  # already gone: no error
    assert leases.committer(2) is None
