"""The sweep family as the in-process unit: each per-family fast path
equals its per-spec reference, bit for bit.

* :meth:`RunSpec.members` builds the specs ``RunSpec(...)`` builds;
* :func:`family_keys` splices iterations into one serialized payload
  and must equal :func:`cache_key`;
* :func:`family_rng_states` derives a family's PCG64 states with array
  arithmetic and must equal numpy's ``PCG64(SeedSequence(...))``;
* :meth:`SweepJournal.record_many` formats a family's lines from one
  template and must equal one ``json.dumps`` per item;
* :func:`pack_runs` decodes a family pack's columns and float64 block
  straight to results, bit for bit; one bad row fails only its key, a
  bad pack (or a stale version-1 one) every key that reads it.

Every test is deterministic: seeded ``random.Random`` draws, or
Hypothesis under the derandomized ``ci`` profile.
"""

import binascii
import json
import os
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import ALL_MODES, TransferMode
from repro.core.results import RunResult
from repro.harness import executor as executor_module
from repro.harness import resilience
from repro.harness.executor import (ResultCache, RunSpec, SweepExecutor,
                                    cache_key, environment_fingerprint,
                                    expand_grid, family_keys,
                                    family_rng_states)
from repro.harness.resilience import SpecStatus, SweepJournal
from repro.sim.counters import CounterReport

WORD = 2 ** 32


def numpy_state(words, iteration):
    return np.random.PCG64(
        np.random.SeedSequence([*words, iteration])).state


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
class TestFamilySeeds:
    ITERATIONS = list(range(41)) + [WORD - 1, WORD, WORD + 7, 2 ** 40]

    def test_random_prefixes_match_numpy(self):
        rng = random.Random(22)
        for _ in range(60):
            words = [rng.randrange(WORD) for _ in range(4)]
            assert family_rng_states(words, self.ITERATIONS) == [
                numpy_state(words, i) for i in self.ITERATIONS]

    def test_edge_words_match_numpy(self):
        for words in ([0, 0, 0, 0], [WORD - 1] * 4, [1234, 0, WORD - 1, 1]):
            assert family_rng_states(words, self.ITERATIONS) == [
                numpy_state(words, i) for i in self.ITERATIONS]

    @pytest.mark.parametrize("base_seed", [WORD, WORD + 1, 2 ** 64])
    def test_wide_base_seed_falls_back_to_numpy(self, base_seed):
        words = [base_seed, 17, 4, 9]
        assert family_rng_states(words, [0, 1, 30]) == [
            numpy_state(words, i) for i in (0, 1, 30)]

    def test_spec_states_match_the_spec_seed_sequence(self):
        spec = RunSpec("vector_seq", "large", TransferMode.UVM,
                       seed_salt=":sweep")
        members = spec.members(range(30))
        assert family_rng_states(spec.seed_words(), range(30)) == [
            np.random.PCG64(member.seed_sequence()).state
            for member in members]

    @settings(max_examples=40, deadline=None)
    @given(words=st.lists(st.integers(min_value=0, max_value=WORD - 1),
                          min_size=4, max_size=4),
           iterations=st.lists(st.one_of(
               st.integers(min_value=0, max_value=40),
               st.integers(min_value=WORD, max_value=2 ** 70)),
               min_size=1, max_size=12))
    def test_family_states_match_numpy_property(self, words, iterations):
        assert family_rng_states(words, iterations) == [
            numpy_state(words, i) for i in iterations]


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
class TestMembers:
    def test_members_equal_and_hash_like_constructed_specs(self):
        template = RunSpec("vector_seq", "large", TransferMode.ASYNC,
                           base_seed=7, blocks=64, threads=128,
                           seed_salt=":sweep")
        built = [RunSpec("vector_seq", "large", TransferMode.ASYNC,
                         iteration=i, base_seed=7, blocks=64, threads=128,
                         seed_salt=":sweep") for i in (0, 3, 12)]
        members = template.members([0, 3, 12])
        assert members == built
        assert [hash(m) for m in members] == [hash(b) for b in built]
        assert {m: i for i, m in enumerate(members)} == \
            {b: i for i, b in enumerate(built)}

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError, match="iteration"):
            RunSpec("saxpy", "tiny", TransferMode.UVM).members([0, -1])

    def test_expand_grid_matches_per_spec_construction(self):
        specs = expand_grid(("vector_seq", "saxpy"), ("tiny", "small"),
                            iterations=3, base_seed=9)
        reference = [RunSpec(name, size, mode, iteration=i, base_seed=9)
                     for size in ("tiny", "small")
                     for name in ("vector_seq", "saxpy")
                     for mode in ALL_MODES for i in range(3)]
        assert specs == reference
        assert [hash(s) for s in specs] == [hash(s) for s in reference]


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestFamilyKeys:
    def test_spliced_keys_equal_cache_key(self):
        env = environment_fingerprint()
        specs = []
        for mode in (TransferMode.STANDARD, TransferMode.UVM_PREFETCH):
            specs += RunSpec("vector_seq", "tiny", mode).members(
                [0, 9, 10, 12345])
        specs += RunSpec("saxpy", "small", TransferMode.UVM,
                         smem_carveout_bytes=8192,
                         seed_salt=":sweep").members([10, 0, 9])
        assert family_keys(specs, env) == [
            cache_key(spec, env_fingerprint=env) for spec in specs]

    def test_sentinel_in_a_field_falls_back(self):
        env = environment_fingerprint()
        specs = RunSpec("vector_seq", "tiny", TransferMode.UVM,
                        seed_salt="\x00iteration\x00").members([0, 1])
        assert family_keys(specs, env) == [
            cache_key(spec, env_fingerprint=env) for spec in specs]

    def test_handed_keys_are_not_derived_again(self, tmp_path,
                                               monkeypatch):
        specs = RunSpec("vector_seq", "tiny", TransferMode.UVM).members(
            range(4))
        keys = [cache_key(spec) for spec in specs]
        derived = []
        real = executor_module.family_keys
        monkeypatch.setattr(executor_module, "family_keys",
                            lambda batch, env: (derived.append(list(batch)),
                                                real(batch, env))[1])
        executor = SweepExecutor(jobs=1, engine="vector",
                                 cache=ResultCache(tmp_path / "cache"))
        outcome = executor.run_outcomes(specs, keys=keys[:3] + [None])
        assert derived == [specs[3:]]
        assert [o.key for o in outcome.outcomes] == keys
        assert outcome.complete


# ----------------------------------------------------------------------
# Journal lines
# ----------------------------------------------------------------------
class TestRecordMany:
    def test_lines_equal_per_item_json_dumps(self, tmp_path, monkeypatch):
        now = 1760000000.123456
        monkeypatch.setattr(resilience.time, "time", lambda: now)
        a = RunSpec("vector_seq", "tiny", TransferMode.UVM).members(range(3))
        b = RunSpec("saxpy", "small", TransferMode.ASYNC, blocks=64,
                    seed_salt=":sweep").members([10, 11])
        items = [
            (f"k{i}", SpecStatus.OK, spec, 1) for i, spec in enumerate(a)
        ] + [
            ("quote\"keyé", SpecStatus.OK, b[0], 1),
            ("err", SpecStatus.FAILED, b[1], 3, "boom: \"bad\""),
            ("extra", "ok", b[1], 1, None, {"event": "commit", "node": 4}),
            ("nospec", SpecStatus.OK),
            ("str-status", "ok", b[1], 1),
            ("b1", SpecStatus.OK, b[1], 1),
            ("attempts-2", SpecStatus.OK, b[1], 2),
            ("back-to-a", SpecStatus.OK, a[0], 1, ""),
            ("skipped", SpecStatus.SKIPPED, a[2], 0, None, {}),
        ]
        journal = SweepJournal(tmp_path / "j.jsonl")
        assert journal.record_many(items) == len(items)
        expected = "".join(json.dumps(SweepJournal._entry(now, *item)) + "\n"
                           for item in items)
        assert journal.path.read_text() == expected


# ----------------------------------------------------------------------
# Cache reads
# ----------------------------------------------------------------------
def make_run(iteration, alloc_ns=10.0):
    return RunResult(workload="vector_seq", mode=TransferMode.UVM,
                     size="tiny", seed=iteration, alloc_ns=alloc_ns,
                     memcpy_ns=20.0, kernel_ns=30.0, wall_ns=60.0,
                     counters=CounterReport(), occupancy=0.5,
                     gpu_busy_fraction=0.25)


def read_pack(path):
    """A pack file as (payload, its float block as a field-major list)."""
    pack = json.loads(path.read_text())
    block = binascii.a2b_base64(pack["f8"])
    return pack, list(struct.unpack(f"<{len(block) // 8}d", block))


def write_pack(path, pack, floats):
    pack["f8"] = binascii.b2a_base64(struct.pack(f"<{len(floats)}d",
                                                 *floats),
                                     newline=False).decode("ascii")
    path.write_text(json.dumps(pack))


def bits(value):
    return struct.pack("<d", value)


def v1_pack(items):
    """A pack in the version-1 layout: one JSON record per key."""
    return {"counters": [[]], "records": {key: {
        "v": 1, "workload": run.workload, "mode": run.mode.value,
        "size": run.size, "seed": run.seed, "alloc_ns": run.alloc_ns,
        "memcpy_ns": run.memcpy_ns, "kernel_ns": run.kernel_ns,
        "wall_ns": run.wall_ns, "occupancy": run.occupancy,
        "gpu_busy_fraction": run.gpu_busy_fraction, "counters": 0}
        for key, run in items}}


class TestPackReads:
    def test_negative_timing_fails_only_its_own_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        keys = [f"{i:02x}" + "ab" * 31 for i in range(4)]
        cache.put_many([(key, make_run(i)) for i, key in enumerate(keys)])
        # All four entries link one pack: rewrite it in place with one
        # negative timing in the row of keys[1] (alloc_ns is the block's
        # first field, so its row sits at offset 1).
        path = cache.path_for(keys[0])
        pack, floats = read_pack(path)
        assert pack["keys"] == keys and len(floats) == 6 * 4
        floats[1] = -1.0
        write_pack(path, pack, floats)

        reader = ResultCache(cache.root)
        assert reader.get(keys[1]) is None
        assert reader.stats.corrupt == 1
        assert not reader.path_for(keys[1]).exists()
        assert reader.path_for(keys[1]).with_suffix(".corrupt").exists()
        for i in (0, 2, 3):
            assert reader.get(keys[i]) == make_run(i)
        assert reader.stats.hits == 3

    def test_hits_equal_the_runs_put(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        items = [(f"{i:02x}" + "cd" * 31, make_run(i, alloc_ns=i * 1.5))
                 for i in range(5)]
        cache.put_many(items)
        reader = ResultCache(cache.root)
        for key, run in items:
            hit = reader.get(key)
            assert hit == run
            assert list(vars(hit)) == list(vars(run))

    #: A bad field in one row: ``counters`` is the row's index into the
    #: pack's counter reports (the ``counters_index`` column).
    @pytest.mark.parametrize("field,value", [
        ("mode", "nvlink"), ("mode", 7), ("mode", [1]), ("counters", 9),
        ("counters", -1), ("counters", "0")])
    def test_bad_record_fields_quarantine(self, tmp_path, field, value):
        cache = ResultCache(tmp_path / "cache")
        keys = ["ef" * 32, "fe" * 32]
        cache.put_many([(key, make_run(i)) for i, key in enumerate(keys)])
        path = cache.path_for(keys[0])
        pack = json.loads(path.read_text())
        column = "counters_index" if field == "counters" else field
        pack[column][0] = value
        path.write_text(json.dumps(pack))
        reader = ResultCache(cache.root)
        assert reader.get(keys[0]) is None
        assert reader.stats.corrupt == 1
        assert reader.get(keys[1]) == make_run(1)

    @pytest.mark.parametrize("field,value", [
        ("v", 1), ("f8", "short block"), ("f8", "long block"),
        ("f8", "not base64 \u00e9"), ("seed", "short column"),
        ("keys", None), ("counters", [["not", "an", "entry"]])],
        ids=["v-1", "f8-short_block", "f8-long_block", "f8-not_ascii",
             "seed-short_column", "keys-null", "counters-bad_entry"])
    def test_bad_pack_shape_quarantines_every_key(self, tmp_path, field,
                                                  value):
        cache = ResultCache(tmp_path / "cache")
        keys = [f"{i:02x}" + "12" * 31 for i in range(3)]
        cache.put_many([(key, make_run(i)) for i, key in enumerate(keys)])
        path = cache.path_for(keys[0])
        pack, floats = read_pack(path)
        if value == "short block":
            write_pack(path, pack, floats[:-1])
        elif value == "long block":
            write_pack(path, pack, floats + [0.0])
        elif value == "short column":
            pack[field] = pack[field][:-1]
            path.write_text(json.dumps(pack))
        else:
            pack[field] = value
            path.write_text(json.dumps(pack))
        reader = ResultCache(cache.root)
        assert [reader.get(key) for key in keys] == [None] * 3
        assert reader.stats.corrupt == 3
        assert all(reader.path_for(key).with_suffix(".corrupt").exists()
                   for key in keys)

    def test_v1_pack_is_quarantined_then_republished_as_v2(self, tmp_path):
        specs = RunSpec("vector_seq", "tiny", TransferMode.UVM).members(
            range(3))
        clean = SweepExecutor(jobs=1, engine="vector").run(specs)
        cache = ResultCache(tmp_path / "cache")
        executor = SweepExecutor(jobs=1, engine="vector", cache=cache)
        keys = [executor.key_for(spec) for spec in specs]
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(v1_pack(zip(keys, clean))))
        for key in keys:
            cache.path_for(key).parent.mkdir(parents=True, exist_ok=True)
            os.link(stale, cache.path_for(key))

        first = executor.run_outcomes(specs)
        assert first.results == clean
        assert cache.stats.corrupt == 3
        assert executor.last.executed == 3
        assert json.loads(cache.path_for(keys[0]).read_text())["v"] == 2
        second = SweepExecutor(jobs=1, engine="vector",
                               cache=ResultCache(cache.root))
        assert second.run_outcomes(specs).results == clean
        assert second.last.cache_hits == 3
        assert second.cache.stats.corrupt == 0

    def test_no_hardlink_fallback_writes_v2(self, tmp_path, monkeypatch):
        def no_links(_src, _dst):
            raise OSError("EPERM: filesystem without hard links")

        monkeypatch.setattr(os, "link", no_links)
        cache = ResultCache(tmp_path / "cache")
        items = [(f"{i:02x}" + "34" * 31, make_run(i)) for i in range(3)]
        assert cache.put_many(items) == 3
        for key, run in items:
            pack = json.loads(cache.path_for(key).read_text())
            assert (pack["v"], pack["keys"]) == (2, [key])
            assert ResultCache(cache.root).get(key) == run

    #: Non-negative timings (a negative one fails its row); the other
    #: two float fields take any float.
    TIMINGS = st.one_of(st.floats(min_value=0.0), st.just(-0.0),
                        st.just(5e-324), st.just(float("inf")),
                        st.just(float("nan")))

    @settings(max_examples=60, deadline=None)
    @given(timings=st.lists(TIMINGS, min_size=4, max_size=4),
           others=st.lists(st.floats(), min_size=2, max_size=2),
           nan_bits=st.integers(min_value=1, max_value=2 ** 51 - 1))
    def test_floats_round_trip_bitwise_property(self, tmp_path_factory,
                                                timings, others,
                                                nan_bits):
        payload_nan = struct.unpack(
            "<d", struct.pack("<Q", 0x7FF8000000000000 | nan_bits))[0]
        extremes = (-0.0, 5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308,
                    float("inf"), float("-inf"), float("nan"), payload_nan)
        runs = [RunResult(workload="vector_seq", mode=TransferMode.ASYNC,
                          size="tiny", seed=0, alloc_ns=timings[0],
                          memcpy_ns=timings[1], kernel_ns=timings[2],
                          wall_ns=timings[3], counters=CounterReport(),
                          occupancy=others[0],
                          gpu_busy_fraction=others[1])]
        runs += [RunResult(workload="saxpy", mode=TransferMode.UVM,
                           size="small", seed=i + 1, alloc_ns=abs(value),
                           memcpy_ns=payload_nan, kernel_ns=0.0,
                           wall_ns=abs(value), counters=CounterReport(),
                           occupancy=value, gpu_busy_fraction=-value)
                 for i, value in enumerate(extremes)]
        keys = [f"{i:02x}" + "56" * 31 for i in range(len(runs))]
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        cache.put_many(zip(keys, runs))
        reader = ResultCache(cache.root)
        for key, run in zip(keys, runs):
            hit = reader.get(key)
            assert list(vars(hit)) == list(vars(run))
            for name, value in vars(run).items():
                if isinstance(value, float):
                    assert bits(getattr(hit, name)) == bits(value), name
                else:
                    assert getattr(hit, name) == value, name
        assert reader.stats.corrupt == 0
