"""Unit tests for RNG plumbing."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    _derived_children,
    _pcg64_states,
    derive_seed,
    derived_uniforms,
    ensure_rng,
    spawn_rngs,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = ensure_rng(42).integers(10**9)
        b = ensure_rng(42).integers(10**9)
        assert a == b

    def test_generator_passed_through(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen


class TestSpawn:
    def test_spawn_count(self):
        assert len(spawn_rngs(1, 5)) == 5

    def test_spawned_streams_independent(self):
        a, b = spawn_rngs(7, 2)
        assert a.integers(10**9) != b.integers(10**9)

    def test_spawn_deterministic(self):
        a1, _ = spawn_rngs(7, 2)
        a2, _ = spawn_rngs(7, 2)
        assert a1.integers(10**9) == a2.integers(10**9)

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(0), 3)
        assert len(children) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(10, 1, 2) == derive_seed(10, 1, 2)

    def test_salt_changes_seed(self):
        assert derive_seed(10, 1) != derive_seed(10, 2)

    def test_base_changes_seed(self):
        assert derive_seed(10, 1) != derive_seed(11, 1)

    def test_none_stays_none(self):
        assert derive_seed(None, 1) is None

    def test_generator_input_yields_int(self):
        seed = derive_seed(np.random.default_rng(0), 1)
        assert isinstance(seed, int)


def reference_uniforms(seed, keys, shape, prefix=(), suffix=()):
    """The per-key loop ``derived_uniforms`` replaces."""
    blocks = [
        ensure_rng(derive_seed(seed, *prefix, int(k), *suffix)).random(shape)
        for k in keys
    ]
    return np.concatenate(blocks, axis=1) if blocks else np.empty((shape[0], 0))


#: Seeds: 0, one-word, two-word, >= 2**63, and wider than the pool.
SEEDS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**64 - 1),
    st.integers(min_value=2**128, max_value=2**140),
)
#: Salt values, 0 and >= 2**32 (two SeedSequence words) included.
SALTS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**63 - 1),
)
SALT_TUPLES = st.lists(SALTS, max_size=2).map(tuple)
#: Batch sizes 0, 1 and many.
KEYS = st.one_of(
    st.just([]),
    st.lists(SALTS, min_size=1, max_size=1),
    st.lists(SALTS, min_size=2, max_size=40),
)


class TestDerivedUniforms:
    @given(SEEDS, KEYS, SALT_TUPLES, SALT_TUPLES,
           st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_key_derivation(self, seed, keys, prefix, suffix, rows, cols):
        got = derived_uniforms(seed, keys, (rows, cols), prefix=prefix, suffix=suffix)
        want = reference_uniforms(seed, keys, (rows, cols), prefix, suffix)
        assert got.shape == (rows, len(keys) * cols)
        np.testing.assert_array_equal(got, want)

    @given(st.integers(min_value=0, max_value=2**32), st.lists(SALTS, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_generator_seed_canonicalised_to_int(self, entropy, keys):
        # Callers canonicalise a Generator once (derive_seed(gen)); the
        # int it yields is an ordinary seed for the batched draw.
        seed = derive_seed(np.random.default_rng(entropy))
        got = derived_uniforms(seed, keys, (4, 3), suffix=(3,))
        np.testing.assert_array_equal(got, reference_uniforms(seed, keys, (4, 3), suffix=(3,)))

    def test_call_site_salts(self):
        # The three production layouts: (seed, v, R), (seed, 31, u), (seed, 29, u).
        keys = np.arange(0, 300, 7, dtype=np.int64)
        for prefix, suffix in (((), (100,)), ((31,), ()), ((29,), ())):
            got = derived_uniforms(12345, keys, (10, 6), prefix=prefix, suffix=suffix)
            want = reference_uniforms(12345, keys, (10, 6), prefix, suffix)
            np.testing.assert_array_equal(got, want)

    def test_child_to_pcg64_state(self):
        # Children below 2**32 hash as one SeedSequence word, including 0.
        children = [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**40 + 17, 2**63, 2**64 - 1]
        states = _pcg64_states(np.asarray(children, dtype=np.uint64))
        for child, (state, inc) in zip(children, states):
            want = np.random.PCG64(child).state["state"]
            assert (state, inc) == (want["state"], want["inc"]), child

    def test_children_equal_derive_seed(self):
        keys = np.asarray([0, 1, 2**32 - 1, 2**32, 2**62], dtype=np.int64)
        for seed in (0, 9, 2**32, 2**63 + 1):
            got = _derived_children(seed, (5,), keys, (0, 2**33))
            want = [derive_seed(seed, 5, int(k), 0, 2**33) for k in keys]
            assert got.tolist() == want

    def test_concurrent_callers_get_identical_arrays(self):
        keys = np.arange(64, dtype=np.int64)
        want = derived_uniforms(77, keys, (10, 20), suffix=(20,))
        results = []
        barrier = threading.Barrier(6)

        def call() -> None:
            barrier.wait()
            results.append([derived_uniforms(77, keys, (10, 20), suffix=(20,)) for _ in range(20)])

        threads = [threading.Thread(target=call) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 6
        for batch in results:
            for got in batch:
                np.testing.assert_array_equal(got, want)

    def test_none_seed_gives_fresh_entropy(self):
        a = derived_uniforms(None, [1, 2, 3], (4, 5))
        b = derived_uniforms(None, [1, 2, 3], (4, 5))
        assert a.shape == b.shape == (4, 15)
        assert not np.array_equal(a, b)
        assert ((a >= 0.0) & (a < 1.0)).all()

    def test_negative_salt_rejected_like_derive_seed(self):
        with pytest.raises(ValueError):
            derive_seed(3, -1)
        with pytest.raises(ValueError):
            derived_uniforms(3, [1, -1], (2, 2))
        with pytest.raises(ValueError):
            derived_uniforms(3, [1], (2, 2), prefix=(-4,))
