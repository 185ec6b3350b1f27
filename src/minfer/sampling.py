"""Seeded random draws of observed replicate tables.

Every Monte Carlo routine in this package draws replicate b from a
dedicated stream: the generator numpy's ``default_rng`` builds from
``SeedSequence(master_seed, spawn_key=(b,))``. Streams with distinct keys
are statistically independent and identical keys reproduce identical
draws, so a result depends only on its arguments and master seed.

Batches are seeded by SeedSequence's hash run here, numpy's bit for bit:
the master seed is hashed once, and the spawn word b is mixed into the
pool for all replicates of a batch in one vectorized pass, giving one row
of four uint64 words per replicate (``_state_words``). The first word of
row i is numpy's ``SeedSequence(master_seed,
spawn_key=(i,)).generate_state(1, np.uint64)[0]``, the 64-bit child seed
the consistency check in ``ctest`` gives each sample size. A lone
``ReplicateStream`` is hashed by numpy's SeedSequence itself, which is
cheaper for one key than the hash in Python; both paths check the seed
and key first, so a bad one is a ValidationError.

``_replicate_counts`` is the one routine that draws replicate tables.
``_Streams`` seeds numpy's PCG64 (O'Neill 2014) from each row as
``pcg64_set_seed`` does and steps all the states together on uint64
arrays, and ``draw_streams`` on the parameter type (see ``model`` and
``_binomial``) makes numpy's binomial or multinomial draw on every
stream, the draw ``draw`` on the parameter type makes on one generator.
Streams are stepped in chunks of ``_CHUNK``, so a batch's working memory
does not grow with B. ``_replayed`` draws one replicate by numpy on the
generator its words seed: the few replicates that pass cannot settle
exactly, and a replicate that goes on drawing (the assurance sweep's
nested bootstrap), whose replayed draw leaves the generator where its
stream stands after its table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import _check_seed
from .model import Psi


# SeedSequence's hash constants (numpy.random.bit_generator), pool of 4 words
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


# _hashmix and _mix do uint32 arithmetic on Python ints or on uint64 arrays
# of uint32 values: a product of two 32-bit values fits 64 bits, and a
# difference that wraps modulo 2**64 is still right modulo 2**32
def _hashmix(value, hash_const: int, mult: int):
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a master seed (0 is [0])."""
    value = _check_seed(value)
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _state_words(master_seed: int, replicates: np.ndarray) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(b,)).generate_state(4, np.uint64)``
    for each b of ``replicates``, a uint64 array of indices below 2**32, one
    row per index: the master seed is hashed once, and only mixing the spawn
    word in is done for all indices at once.
    """
    seed_words = _uint32_words(master_seed)
    # SeedSequence pads the seed with zeros to the pool size before a spawn key
    words = [*seed_words, *[0] * (_POOL_SIZE - len(seed_words)), replicates]
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    # entropy past the pool is mixed into every pool word
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    # output word w hashes pool word w % 4 with the w-th constant of a chain
    # that does not depend on the data, so all eight are hashed in one pass;
    # uint32 words pair up little-endian into the uint64 columns
    hash_consts = [_INIT_B]
    for _ in range(2 * _POOL_SIZE):
        hash_consts.append(hash_consts[-1] * _MULT_B & _MASK32)
    consts = np.array(hash_consts, dtype=np.uint64)[:, None]
    out = np.empty((2 * _POOL_SIZE, len(replicates)), dtype=np.uint64)
    out[:_POOL_SIZE] = pool
    out[_POOL_SIZE:] = out[:_POOL_SIZE]
    out ^= consts[:-1]
    out *= consts[1:]
    out &= np.uint64(_MASK32)
    out ^= out >> np.uint64(_XSHIFT)
    out[1::2] <<= np.uint64(32)
    out[1::2] |= out[0::2]
    return out[1::2].T.copy()


# numpy's PCG64 (O'Neill 2014, PCG tech report HMC-CS-2014-0905): the
# 128-bit state steps as state·M + inc mod 2**128 and outputs XSL-RR. On
# uint64 halves, only lo·M_lo needs its high word, from 32-bit limbs of M_lo.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG_MULT >> 64)
_MASK64 = (1 << 64) - 1
_MULT_LO = np.uint64(_PCG_MULT & _MASK64)
_MULT_LO0 = np.uint64(_PCG_MULT & _MASK32)
_MULT_LO1 = np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_ROTATE_SHIFT = np.uint64(58)
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_UNIT = 2.0 ** -53
# replicates whose streams step together, which bounds a batch's working memory
_CHUNK = 512


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """state·M + inc mod 2**128 on uint64 halves (products wrap mod 2**64)."""
    low0, low1 = lo & _LOW32, lo >> _SHIFT32
    mid = low1 * _MULT_LO0
    mid += low0 * _MULT_LO0 >> _SHIFT32
    cross = low0 * _MULT_LO1
    cross += mid & _LOW32
    new_hi = low1 * _MULT_LO1
    new_hi += mid >> _SHIFT32
    new_hi += cross >> _SHIFT32
    new_hi += lo * _MULT_HI
    new_hi += hi * _MULT_LO
    new_hi += inc_hi
    new_lo = lo * _MULT_LO
    new_lo += inc_lo
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


class _Streams:
    """numpy's PCG64 generators of a batch of replicates, stepped together:
    stream b gives the doubles ``Generator(PCG64(seed_sequence))`` gives for
    a seed sequence whose ``generate_state(4, np.uint64)`` is ``words[b]``.

    ``random(count)`` gives every stream's next ``count`` doubles without
    moving any stream; ``keep(taken)`` then moves stream b past the first
    ``taken[b]`` of them, so each stream takes only the doubles its draw
    used.
    """

    def __init__(self, words: np.ndarray) -> None:
        # pcg64_set_seed: inc = (words[2:4] << 1) | 1; from state 0 one step
        # gives inc, the seed words[0:2] are added, and one more step is taken
        self.inc_hi = words[:, 2] << np.uint64(1) | words[:, 3] >> np.uint64(63)
        self.inc_lo = words[:, 3] << np.uint64(1) | np.uint64(1)
        lo = self.inc_lo + words[:, 1]
        hi = self.inc_hi + words[:, 0]
        hi += lo < words[:, 1]
        self.hi, self.lo = _pcg_step(hi, lo, self.inc_hi, self.inc_lo)

    @property
    def size(self) -> int:
        return self.hi.size

    def random(self, count: int) -> np.ndarray:
        """The next ``count`` doubles of every stream, one column per
        stream, as ``Generator.random`` makes them: (XSL-RR output >> 11)
        times 2**-53."""
        trail_hi = np.empty((count, self.size), dtype=np.uint64)
        trail_lo = np.empty_like(trail_hi)
        hi, lo = self.hi, self.lo
        for j in range(count):
            hi, lo = trail_hi[j], trail_lo[j] = _pcg_step(hi, lo, self.inc_hi, self.inc_lo)
        self._trail = (trail_hi, trail_lo)
        # XSL-RR: (hi ^ lo) rotated right by the top 6 bits of hi
        out = trail_hi ^ trail_lo
        rotation = trail_hi >> _ROTATE_SHIFT
        wrapped = out << (-rotation & np.uint64(63))
        out >>= rotation
        out |= wrapped
        out >>= _DOUBLE_SHIFT
        return out * _DOUBLE_UNIT

    def keep(self, taken: np.ndarray) -> None:
        """Move stream b past the first ``taken[b]`` doubles of the last
        ``random`` call (0 leaves it where it was)."""
        moved = taken > 0
        step = np.maximum(taken - 1, 0)
        columns = np.arange(self.size)
        self.hi = np.where(moved, self._trail[0][step, columns], self.hi)
        self.lo = np.where(moved, self._trail[1][step, columns], self.lo)


class _Seed(ISeedSequence):
    """Seed words handed to PCG64 as a seed sequence's
    ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _replayed(psi: Psi, sizes: int | tuple[int, int],
              words: np.ndarray) -> tuple[np.ndarray, np.random.Generator]:
    """One replicate's cells ``psi.draw(rng, sizes)``, drawn by numpy on the
    generator its seed words seed, and that generator after the draw: the
    stream a replicate that goes on drawing continues on."""
    rng = np.random.Generator(np.random.PCG64(_Seed(words)))
    return psi.draw(rng, sizes), rng


@dataclass(frozen=True)
class ReplicateStream:
    """Independent, reproducible random stream for one replicate: the
    generator ``default_rng(SeedSequence(master_seed,
    spawn_key=(replicate_index,)))``."""

    master_seed: int
    replicate_index: int

    def rng(self) -> np.random.Generator:
        seed_sequence = np.random.SeedSequence(
            _check_seed(self.master_seed),
            spawn_key=(_check_seed(self.replicate_index, "replicate_index"),),
        )
        return np.random.Generator(np.random.PCG64(seed_sequence))


def _replicate_counts(psi: Psi, sizes: int | tuple[int, int], B: int,
                      master_seed: int) -> np.ndarray:
    """Cells of replicates 0..B-1 drawn at psi, one row per cell: replicate
    b's cells are ``psi.draw(rng, sizes)`` on ``rng = ReplicateStream(
    master_seed, b).rng()``, bit for bit (see module docs). B is a checked
    replicate count, so every index fits one 32-bit spawn word."""
    counts = None
    for start in range(0, B, _CHUNK):
        words = _state_words(master_seed, np.arange(start, min(start + _CHUNK, B), dtype=np.uint64))
        cells, settled = psi.draw_streams(_Streams(words), sizes)
        if counts is None:
            counts = np.empty((len(cells), B), dtype=np.int64)
        counts[:, start:start + len(words)] = cells
        for b in np.flatnonzero(~settled).tolist():
            counts[:, start + b] = _replayed(psi, sizes, words[b])[0]
    return counts
