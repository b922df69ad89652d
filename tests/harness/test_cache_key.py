"""Property-based tests for the content-addressed cache key.

Three properties (hypothesis-driven where available):

1. equal specs hash equal (the key is a pure function of the spec);
2. perturbing any single field changes the key (no aliasing);
3. keys are stable across process boundaries and hash seeds (no
   ``hash()``/``id()`` leakage).
"""

import dataclasses
import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.configs import ALL_MODES, TransferMode
from repro.harness import executor as executor_module
from repro.harness.executor import (ResultCache, RunSpec, SweepExecutor,
                                    cache_key, canonical,
                                    environment_fingerprint, fingerprint)
from repro.sim.calibration import default_calibration
from repro.sim.hardware import default_system
from repro.workloads.registry import ALL_NAMES, get_workload
from repro.workloads.sizes import SizeClass

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the dev env
    HAVE_HYPOTHESIS = False

# Keep the searched grid cheap: keys build the workload program once
# per (workload, size, geometry) and memoize it.
WORKLOADS = ("vector_seq", "vector_rand", "saxpy")
SIZES = ("tiny", "small", "medium")


def make_spec(workload="vector_seq", size="tiny",
              mode=TransferMode.STANDARD, iteration=0, base_seed=1234,
              smem_carveout_bytes=None, seed_salt=""):
    return RunSpec(workload=workload, size=size, mode=mode,
                   iteration=iteration, base_seed=base_seed,
                   smem_carveout_bytes=smem_carveout_bytes,
                   seed_salt=seed_salt)


if HAVE_HYPOTHESIS:
    spec_strategy = st.builds(
        make_spec,
        workload=st.sampled_from(WORKLOADS),
        size=st.sampled_from(SIZES),
        mode=st.sampled_from(ALL_MODES),
        iteration=st.integers(min_value=0, max_value=40),
        base_seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
        smem_carveout_bytes=st.sampled_from((None, 8 * 1024, 32 * 1024)),
        seed_salt=st.sampled_from(("", ":sweep")),
    )

    class TestKeyProperties:
        @settings(max_examples=40, deadline=None)
        @given(spec=spec_strategy)
        def test_equal_specs_hash_equal(self, spec):
            clone = dataclasses.replace(spec)
            assert spec is not clone
            assert cache_key(spec) == cache_key(clone)

        @settings(max_examples=40, deadline=None)
        @given(spec=spec_strategy, other=spec_strategy)
        def test_distinct_specs_hash_distinct(self, spec, other):
            if spec == other:
                assert cache_key(spec) == cache_key(other)
            else:
                assert cache_key(spec) != cache_key(other)

        @settings(max_examples=25, deadline=None)
        @given(spec=spec_strategy,
               field=st.sampled_from(("workload", "size", "mode",
                                      "iteration", "base_seed",
                                      "smem_carveout_bytes", "seed_salt")))
        def test_any_field_perturbation_changes_key(self, spec, field):
            perturbed = {
                "workload": lambda s: dataclasses.replace(
                    s, workload=[w for w in WORKLOADS
                                 if w != s.workload][0]),
                "size": lambda s: dataclasses.replace(
                    s, size=[z for z in SIZES if z != s.size][0]),
                "mode": lambda s: dataclasses.replace(
                    s, mode=[m for m in ALL_MODES if m is not s.mode][0]),
                "iteration": lambda s: dataclasses.replace(
                    s, iteration=s.iteration + 1),
                "base_seed": lambda s: dataclasses.replace(
                    s, base_seed=s.base_seed + 1),
                "smem_carveout_bytes": lambda s: dataclasses.replace(
                    s, smem_carveout_bytes=(s.smem_carveout_bytes or 0)
                    + 1024),
                "seed_salt": lambda s: dataclasses.replace(
                    s, seed_salt=s.seed_salt + "x"),
            }[field](spec)
            assert cache_key(perturbed) != cache_key(spec)
else:  # randomized fallback when hypothesis is unavailable
    class TestKeyProperties:  # type: ignore[no-redef]
        def test_equal_specs_hash_equal(self):
            import random
            rng = random.Random(7)
            for _ in range(40):
                spec = make_spec(workload=rng.choice(WORKLOADS),
                                 size=rng.choice(SIZES),
                                 mode=rng.choice(ALL_MODES),
                                 iteration=rng.randrange(40),
                                 base_seed=rng.randrange(2 ** 31))
                assert cache_key(spec) == \
                    cache_key(dataclasses.replace(spec))

        def test_any_field_perturbation_changes_key(self):
            spec = make_spec()
            for change in (dict(workload="saxpy"), dict(size="small"),
                           dict(mode=TransferMode.UVM), dict(iteration=1),
                           dict(base_seed=1),
                           dict(smem_carveout_bytes=2048),
                           dict(seed_salt=":sweep")):
                assert cache_key(dataclasses.replace(spec, **change)) != \
                    cache_key(spec)


class TestCanonicalization:
    def test_enum_and_dict_normalization(self):
        assert canonical(TransferMode.UVM) == "uvm"
        assert canonical({"b": 2, "a": 1}) == {"a": 1, "b": 2}
        assert canonical((1, [2, 3])) == [1, [2, 3]]

    def test_dataclasses_tagged_by_type(self):
        blob = canonical(make_spec())
        assert blob["__type__"] == "RunSpec"

    def test_unhashable_objects_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical(object())

    def test_fingerprint_is_hex_sha256(self):
        digest = fingerprint({"x": 1})
        assert len(digest) == 64
        int(digest, 16)  # parses as hex

    def test_system_fingerprint_covers_nested_fields(self):
        base = default_system()
        assert fingerprint(base) == fingerprint(default_system())
        assert fingerprint(base) != \
            fingerprint(base.with_uvm(page_bytes=64 * 1024))


def reference_canonical(obj):
    """The generic canonicalizer ``canonical`` must equal: every node
    inspected afresh, with no per-type state."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = reference_canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return reference_canonical(obj.value)
    if isinstance(obj, dict):
        return {str(reference_canonical(key)): reference_canonical(value)
                for key, value in sorted(obj.items(),
                                         key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [reference_canonical(item) for item in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def payload(canonicalize, obj):
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"))


class TestPerTypeCanonicalizer:
    """``canonical`` caches each type's field names; the payload bytes
    (and so every key) equal the generic walk's."""

    @pytest.mark.parametrize("name", sorted(ALL_NAMES))
    def test_every_workload_program_payload_is_unchanged(self, name):
        workload = get_workload(name)
        for size in SizeClass.ordered():
            if workload.supports(size):
                program = workload.program(size)
                assert payload(canonical, program) == \
                    payload(reference_canonical, program)

    def test_environment_and_spec_payloads_are_unchanged(self):
        for obj in (default_system(), default_calibration(), make_spec(),
                    make_spec(smem_carveout_bytes=8192, seed_salt=":s")):
            assert payload(canonical, obj) == \
                payload(reference_canonical, obj)

    def test_enum_subclassing_a_plain_type_still_canonicalizes(self):
        class Level(enum.IntEnum):
            HIGH = 3

        class Label(str, enum.Enum):
            A = "a"

        @dataclasses.dataclass
        class Node:
            level: Level
            label: Label
            values: tuple

        obj = {Label.A: Node(Level.HIGH, Label.A, (np.int64(2), 1.5, None))}
        assert canonical(obj) == reference_canonical(obj)
        assert payload(canonical, obj) == payload(reference_canonical, obj)


class TestCrossProcessStability:
    def test_key_stable_across_process_and_hash_seed(self, tmp_path):
        """Keys must not depend on PYTHONHASHSEED or process identity."""
        spec = make_spec(workload="saxpy", size="small",
                         mode=TransferMode.UVM_PREFETCH, iteration=3,
                         base_seed=99)
        here = cache_key(spec)
        script = (
            "from repro.core.configs import TransferMode\n"
            "from repro.harness.executor import RunSpec, cache_key\n"
            "spec = RunSpec(workload='saxpy', size='small',"
            " mode=TransferMode.UVM_PREFETCH, iteration=3, base_seed=99)\n"
            "print(cache_key(spec))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        for hash_seed in ("0", "424242"):
            env["PYTHONHASHSEED"] = hash_seed
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.strip() == here

    def test_key_matches_process_pool_worker(self):
        from concurrent.futures import ProcessPoolExecutor
        spec = make_spec(iteration=7)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(cache_key, spec).result()
        assert remote == cache_key(spec)

    def test_canonical_payload_is_json_stable(self):
        spec = make_spec()
        a = json.dumps(canonical(spec), sort_keys=True)
        b = json.dumps(canonical(dataclasses.replace(spec)),
                       sort_keys=True)
        assert a == b


class TestHandedEnvironmentFingerprint:
    def test_handed_fingerprint_keys_are_byte_identical(self, tmp_path,
                                                        monkeypatch):
        """An executor given the environment fingerprint (the service
        hands its own to every batch) never recomputes it, and keys
        exactly as one that computes it."""
        specs = [make_spec(iteration=n) for n in range(3)] + [
            make_spec(workload="saxpy", mode=TransferMode.UVM)]
        expected = [cache_key(spec) for spec in specs]
        env = environment_fingerprint()

        def recomputed(*args, **kwargs):
            raise AssertionError("environment fingerprint recomputed")

        monkeypatch.setattr(executor_module, "environment_fingerprint",
                            recomputed)
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path),
                                 env_fingerprint=env)
        assert executor.run_outcomes(specs).complete
        assert [executor.key_for(spec) for spec in specs] == expected
