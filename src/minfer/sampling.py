"""Seeded random generation of observed and complete tables.

Every Monte Carlo routine in this package draws replicate b from a
dedicated stream: the generator numpy's ``default_rng`` builds from
``SeedSequence(master_seed, spawn_key=(b,))``. Streams with distinct keys
are statistically independent and identical keys reproduce identical
draws, so a result depends only on its arguments and master seed.

``replicate_rngs`` seeds a batch. It runs SeedSequence's hash here, on
the master seed once, and mixes the spawn word b into the pool for all
replicates in one vectorized pass; each replicate's generator is then
built from its words by ``ReplicateStream.rng``, one at a time, and
agrees with numpy's SeedSequence, the test oracle, bit for bit. That
batched hash is the only one in this module: a single key (a lone
``ReplicateStream``, ``derive_seed``) is hashed by numpy's SeedSequence
itself, which is cheaper for one key than the hash in Python; both paths
check the seed and key first, so a bad one is a ValidationError.

The counts of a replicate table come from one routine per setting,
``draw`` on the parameter type (see ``model``); ``draw_observed`` wraps
one such draw on a replicate's stream into a validated table.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import ValidationError
from .model import SIMPLEX_TOL, ObservedTable, Psi, PsiMatched, PsiMissing


@dataclass(frozen=True)
class SimTruth:
    """Complete-data cell probabilities (l11, l10, l01, l00) on the simplex.

    The first index is X, the second is R (missing setting) or Y (matched
    setting).
    """

    l11: float
    l10: float
    l01: float
    l00: float

    def __post_init__(self) -> None:
        probs = (self.l11, self.l10, self.l01, self.l00)
        if any(p < 0.0 or p > 1.0 for p in probs):
            raise ValidationError(f"cell probabilities {probs} must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"cell probabilities sum to {sum(probs)}, not 1")

    def psi_missing(self) -> PsiMissing:
        """Identifiable parameter when the second variable is response."""
        return PsiMissing(self.l11, self.l01, self.l10 + self.l00)

    def psi_matched(self) -> PsiMatched:
        """Identifiable margins when only margins are observed."""
        return PsiMatched(self.l11 + self.l10, self.l11 + self.l01)

    def theta_missing(self) -> float:
        return self.l11 + self.l10

    def theta_matched(self) -> float:
        return self.l11


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


def _nonnegative_int(value, what: str) -> int:
    """``value`` as a Python int, if it is an integer >= 0 (bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValidationError(f"{what} {value!r} must be an integer >= 0")
    return int(value)


def _numpy_seed_sequence(master_seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    """numpy's ``SeedSequence(master_seed, spawn_key=key)``; a bad seed or key
    entry is a ValidationError, as on the batched path."""
    return np.random.SeedSequence(
        _nonnegative_int(master_seed, "master seed"),
        spawn_key=tuple(_nonnegative_int(k, "spawn key entry") for k in key),
    )


def _uint32_words(value: int, what: str) -> list[int]:
    """Little-endian 32-bit words of a non-negative integer (0 is [0])."""
    value = _nonnegative_int(value, what)
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
    seed_words = _uint32_words(master_seed, "master seed")
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
    hash_const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        out.append(value)
    # uint32 output words pair up little-endian into uint64
    pairs = [out[i] | out[i + 1] << 32 for i in range(0, len(out), 2)]
    return np.ascontiguousarray(np.array(pairs, dtype=np.uint64).T)


class _SeedWords(ISpawnableSeedSequence):
    """``SeedSequence(entropy, spawn_key=spawn_key)`` with its
    ``generate_state(4, np.uint64)`` output precomputed, handed to PCG64
    through numpy's seeding protocol. Any other request, and ``spawn``, go
    to the SeedSequence itself, so a stream's generator spawns children as
    numpy's own would."""

    def __init__(self, words: np.ndarray, entropy: int, spawn_key: tuple[int, ...]) -> None:
        self.words = words
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.n_children_spawned = 0

    def _sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            self.entropy, spawn_key=self.spawn_key, n_children_spawned=self.n_children_spawned
        )

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 asks for exactly the precomputed words
        if n_words == _POOL_SIZE and dtype is np.uint64:
            return self.words
        return self._sequence().generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list[np.random.SeedSequence]:
        sequence = self._sequence()
        children = sequence.spawn(n_children)
        self.n_children_spawned = sequence.n_children_spawned
        return children


@dataclass(frozen=True)
class ReplicateStream:
    """Independent, reproducible random stream for one replicate: the
    generator ``default_rng(SeedSequence(master_seed,
    spawn_key=(replicate_index,)))``."""

    master_seed: int
    replicate_index: int

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._seed_sequence()))

    def _seed_sequence(self) -> ISpawnableSeedSequence:
        return _numpy_seed_sequence(self.master_seed, (self.replicate_index,))


@dataclass(frozen=True)
class _BatchedStream(ReplicateStream):
    """A replicate stream whose state words were hashed with its batch's."""

    state: np.ndarray = field(repr=False, compare=False)

    def _seed_sequence(self) -> ISpawnableSeedSequence:
        return _SeedWords(self.state, self.master_seed, (self.replicate_index,))


def replicate_rngs(master_seed: int, B: int, start: int = 0) -> Iterator[np.random.Generator]:
    """Generators of replicates start..start+B-1, built one at a time as the
    iterator is consumed; replicate b's equals
    ``ReplicateStream(master_seed, b).rng()``.

    The master seed and start are checked here: integers >= 0 with every
    index below 2**32 (one spawn word), else ValidationError.
    """
    start = _nonnegative_int(start, "first replicate index")
    if start + B > 1 << 32:
        raise ValidationError(f"replicate indices {start}..{start + B - 1} must lie below 2**32")
    states = _state_words(master_seed, np.arange(start, start + B, dtype=np.uint64))
    return (_BatchedStream(master_seed, b, state).rng()
            for b, state in zip(range(start, start + B), states))


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed for nested Monte Carlo layers: the
    first output word of ``SeedSequence(master_seed, spawn_key=key)``."""
    return int(_numpy_seed_sequence(master_seed, key).generate_state(1, np.uint64)[0])


def draw_observed(psi: Psi, sizes: int | tuple[int, int], stream: ReplicateStream) -> ObservedTable:
    """One draw from the observed-data law at psi.

    ``sizes`` is the total n for a missing-data psi, or (n1, n2) for a
    matched-data psi.
    """
    if min(np.atleast_1d(sizes)) < 1:
        raise ValidationError(f"sample sizes {sizes} must be at least 1")
    return psi.table(psi.draw(stream.rng(), sizes), sizes)


def draw_complete(truth: SimTruth, n: int, stream: ReplicateStream) -> tuple[int, int, int, int]:
    """One complete-table draw (n11, n10, n01, n00) of size n from the
    four-cell law."""
    if n < 1:
        raise ValidationError(f"sample size n = {n} must be at least 1")
    p = np.clip([truth.l11, truth.l10, truth.l01, truth.l00], 0.0, 1.0)
    counts = stream.rng().multinomial(n, p / p.sum())
    return tuple(int(c) for c in counts)  # type: ignore[return-value]
