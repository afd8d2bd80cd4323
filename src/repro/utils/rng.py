"""Random-number-generator plumbing.

Every randomized routine in this library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps the
Monte-Carlo code deterministic under test while staying convenient for
interactive use.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.sync import sanitizer_active

SeedLike = Union[None, int, np.random.Generator]

#: One uint32 hash word: a constant, or one value per key (uint64 array
#: holding values below 2**32, so products never overflow before masking).
_Word = Union[int, np.ndarray]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which
# derive_seed and default_rng both run.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    An existing generator is returned unchanged (so callers can thread a
    single generator through a pipeline); integers and ``None`` construct a
    fresh PCG64 generator.  Under ``REPRO_SANITIZE=1`` the constructed
    generator is a consumption-accounting shadow over the *same* bit
    generator — identical stream, recorded draws (see
    :mod:`repro.analysis.sanitizer.rng`).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if sanitizer_active():
        from repro.analysis.sanitizer.rng import shadow_rng

        return shadow_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    Used when an experiment fans out over workers or repeated trials and
    each trial must be reproducible in isolation.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    root = np.random.SeedSequence(seed if isinstance(seed, int) else None)
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the generator's own stream.
        children = np.random.SeedSequence(int(seed.integers(2**63))).spawn(count)
    else:
        children = root.spawn(count)
    return [np.random.default_rng(child) for child in children]


def derive_seed(seed: SeedLike, *salt: int) -> Optional[int]:
    """Derive a child integer seed from ``seed`` and integer salt values.

    Deterministic for integer seeds: the same (seed, salt) pair always maps
    to the same child seed.  Returns ``None`` for ``None`` input so fresh
    entropy stays fresh.
    """
    if seed is None:
        return None
    if isinstance(seed, np.random.Generator):
        child = int(seed.integers(2**63))
    else:
        mixed = np.random.SeedSequence(entropy=seed, spawn_key=tuple(salt))
        child = int(mixed.generate_state(1, dtype=np.uint64)[0])
    if sanitizer_active():
        from repro.analysis.sanitizer.rng import note_derived_seed

        note_derived_seed(child)
    return child


def _uint32_words(value: int) -> List[int]:
    """SeedSequence's little-endian uint32 split of a nonnegative int."""
    if value < 0:
        raise ValueError(f"seed and salt values must be nonnegative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _entropy_pool(entropy: Sequence[_Word]) -> List[_Word]:
    """SeedSequence.mix_entropy over ``entropy``, elementwise per key."""
    const = _INIT_A

    def hashmix(value: _Word) -> _Word:
        nonlocal const
        value = value ^ const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: _Word, y: _Word) -> _Word:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_words(pool: Sequence[_Word], n_words: int) -> List[_Word]:
    """SeedSequence.generate_state as ``n_words`` uint32 words."""
    const = _INIT_B
    words: List[_Word] = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = (const * _MULT_B) & _MASK32
        value = (value * const) & _MASK32
        words.append(value ^ (value >> _XSHIFT))
    return words


def _derived_children(
    seed: int, prefix: Sequence[int], keys: np.ndarray, suffix: Sequence[int]
) -> np.ndarray:
    """``derive_seed(seed, *prefix, k, *suffix)`` for every key, as uint64.

    ``derive_seed`` hashes ``SeedSequence(seed, spawn_key=salt)``: the
    seed's words, zero-padded to the pool size, then every salt word.
    Keys below 2**32 contribute one word and larger keys two, so each
    width is hashed as its own group.
    """
    head: List[_Word] = list(_uint32_words(seed))
    head += [0] * (_POOL_SIZE - len(head))
    head += [w for value in prefix for w in _uint32_words(int(value))]
    tail: List[_Word] = [w for value in suffix for w in _uint32_words(int(value))]
    wide = keys > _MASK32
    children = np.empty(keys.size, dtype=np.uint64)
    for group, width in ((~wide, 1), (wide, 2)):
        if not group.any():
            continue
        chosen = keys[group].astype(np.uint64)
        key_words: List[_Word] = [chosen & _MASK32, chosen >> 32][:width]
        low, high = _generate_words(_entropy_pool(head + key_words + tail), 2)
        children[group] = np.asarray(low, dtype=np.uint64) | (
            np.asarray(high, dtype=np.uint64) << 32
        )
    return children


def _pcg64_states(children: np.ndarray) -> List[Tuple[int, int]]:
    """The ``(state, inc)`` of ``PCG64(child)`` for every child seed.

    ``PCG64(child)`` draws four uint64 words from ``SeedSequence(child)``
    and runs PCG's ``srandom(initstate, initseq)``.  Every child is
    hashed as two words: ``mix_entropy`` fills a missing pool word with
    0, so a one-word child hashes like a zero high word.
    """
    low = children & _MASK32
    high = children >> 32
    words = _generate_words(_entropy_pool([low, high]), 8)
    columns = [
        (np.asarray(words[2 * j], dtype=np.uint64)
         | (np.asarray(words[2 * j + 1], dtype=np.uint64) << 32)).tolist()
        for j in range(4)
    ]
    states: List[Tuple[int, int]] = []
    for s_hi, s_lo, i_hi, i_lo in zip(*columns):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def derived_uniforms(
    seed: Optional[int],
    keys: "Sequence[int] | np.ndarray",
    shape: Tuple[int, int],
    prefix: Sequence[int] = (),
    suffix: Sequence[int] = (),
) -> np.ndarray:
    """Per-key derived-seed uniform blocks, concatenated along axis 1.

    Returns exactly::

        np.concatenate(
            [ensure_rng(derive_seed(seed, *prefix, k, *suffix)).random(shape)
             for k in keys],
            axis=1,
        )

    but hashes every key's child seed and PCG64 seeding words in one
    vectorised pass and sets each stream's state directly, instead of
    building two ``SeedSequence`` objects and a ``Generator`` per key.
    The bit generator is local to the call, so concurrent callers never
    share a stream.  ``seed=None`` draws fresh entropy.  Under the
    runtime sanitizer every child seed is noted and every block is drawn
    through a recording shadow, exactly as ``derive_seed`` + ``ensure_rng``
    would account it.
    """
    key_array = np.asarray(keys, dtype=np.int64).reshape(-1)
    rows, cols = shape
    if seed is None:
        return ensure_rng(None).random((rows, key_array.size * cols))
    if key_array.size and key_array.min() < 0:
        raise ValueError(f"salt values must be nonnegative, got {int(key_array.min())}")
    children = _derived_children(int(seed), prefix, key_array, suffix)
    bit_generator = np.random.PCG64()
    generator = np.random.Generator(bit_generator)
    sanitizing = sanitizer_active()
    if sanitizing:
        from repro.analysis.sanitizer.rng import ShadowGenerator, note_derived_seed
    out = np.empty((rows, key_array.size * cols))
    for i, (child, (state, inc)) in enumerate(
        zip(children.tolist(), _pcg64_states(children))
    ):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if sanitizing:
            note_derived_seed(child)
            generator = ShadowGenerator(bit_generator, child)
        out[:, i * cols : (i + 1) * cols] = generator.random((rows, cols))
    return out
