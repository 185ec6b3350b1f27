"""Binomial draws as numpy's ``Generator.binomial`` makes them, vectorized
where numpy walks one draw at a time.

numpy (``random_binomial`` in its distributions library) works with
p' = min(p, 1 - p) and returns n - X when p > 0.5. When n·p' <= 30 it
draws X by inversion (Devroye 1986, ch. X.4): it takes one double u from
the generator and walks the pmf, px_0 = exp(n·log q) and px_x =
((n - x + 1)·p'·px_{x-1}) / (x·q) with q = 1 - p', subtracting px_x from
u until u <= px_x. A walk past bound = int(min(n, n·p' + 10·sqrt(n·p'·q + 1)))
restarts on the next double. Larger n·p' goes to BTPE (Kachitvichyanukul
& Schmeiser 1988, CACM 31:216), which stays on numpy here.

``_binomial_draws`` reproduces the inversion regime for a batch. The walk
stops at the first x whose cumulative sum reaches u, so X is the
``searchsorted`` position of u in the cumulative pmf, and one
``rng.random(size)`` gives the batch's doubles, the ones numpy's
``next_double`` would give. The table is built with numpy's formulas in
numpy's evaluation order, with ``math.exp`` and ``math.log`` (the C
library's, as numpy's own), so every px_x is numpy's to the bit. The
cumulative sum and numpy's repeated subtraction differ by at most
2·(bound + 1)·2**-53 (bound <= 86 in this regime), so where u's position
among the sums lowered by a margin of 1e-12 equals its position among
the sums raised by it, numpy's walk stops there too. Most u are placed
without a search: a u in bucket [j/K, (j+1)/K) of a bucket that no
shifted sum falls in has the bucket's count. A u closer than the margin
to a sum, or past the bound, goes through numpy's exact scalar walk from
that draw on, in order, with any doubles past the batch taken from
``rng.random()`` one at a time: the counts, their dtype and the
generator's state after the call are numpy's.

Every other input (no ``size``, n = 0, p = 0, p invalid or NaN, n bool,
negative or beyond int64, n·p' > 30) goes to ``rng.binomial`` as it is,
errors included. The kernel tests compare it with ``rng.binomial`` bit
for bit, so a numpy whose Generator draws binomials differently fails
them. The module is private, like ``_normal``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

_INVERSION_MAX_MEAN = 30.0
# far above the <= 2·87·2**-53 (~2e-14) drift between a cumulative sum and
# numpy's repeated subtraction
_MARGIN = 1e-12
# a power of two, so u·K and the bucket edges j/K are exact
_BUCKETS = 1024
_INTEGERS = (int, np.integer)


@functools.lru_cache(maxsize=64)
def _walk_table(n: int, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """numpy's inversion pmf px_0..px_bound at (n, p), p <= 0.5; its
    cumulative sums lowered and raised by the margin; and each bucket's
    count, -1 where a shifted sum falls in the bucket (all read-only)."""
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = math.exp(n * math.log(q))
    pmf = [px]
    for x in range(1, bound + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        pmf.append(px)
    pmf = np.array(pmf)
    cdf = np.cumsum(pmf)
    low, high = cdf - _MARGIN, cdf + _MARGIN
    # every u of [j/K, (j+1)/K) has low.searchsorted(u) <= low.searchsorted
    # of the right edge and high.searchsorted(u) >= high.searchsorted of the
    # left edge; when those are equal both searches give that count
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    count = high.searchsorted(edges[:-1])
    clean = (count == low.searchsorted(edges[1:])) & (count <= bound)
    guide = np.where(clean, count, -1).astype(np.int8)
    for table in (pmf, low, high, guide):
        table.flags.writeable = False
    return pmf, low, high, guide


def _walk(doubles, pmf: list[float]) -> tuple[int, int]:
    """numpy's scalar inversion walk on an iterator of doubles: the count
    and the number of doubles it took (more than one after a restart)."""
    taken = 0
    while True:
        u = next(doubles)
        taken += 1
        for x, px in enumerate(pmf):
            if u <= px:
                return x, taken
            u -= px


def _inverted(n, p, size) -> bool:
    """Whether ``rng.binomial(n, p, size)`` draws by inversion, with an
    integer n and size and a float p: the inputs this module serves."""
    return (
        isinstance(size, _INTEGERS) and not isinstance(size, bool) and size >= 0
        and isinstance(n, _INTEGERS) and not isinstance(n, bool) and 0 < n < 1 << 63
        and isinstance(p, float) and 0.0 < p <= 1.0
        and min(p, 1.0 - p) * n <= _INVERSION_MAX_MEAN
    )


def _binomial_draws(rng: np.random.Generator, n, p, size):
    """``rng.binomial(n, p, size)``, with the same counts and the same
    generator state after the call (see module docs)."""
    if not _inverted(n, p, size):
        return rng.binomial(n, p, size)
    n = int(n)
    flip = p > 0.5
    pmf, low, high, guide = _walk_table(n, 1.0 - p if flip else p)
    u = rng.random(size)
    x = guide.take((u * _BUCKETS).astype(np.intp)).astype(np.int64)
    rest = np.flatnonzero(x < 0)
    if rest.size:
        x[rest] = count = low.searchsorted(u[rest])
        unsure = rest[(count != high.searchsorted(u[rest])) | (count == pmf.size)]
        if unsure.size:
            _rewalk(rng, u, x, unsure, pmf.tolist())
    return n - x if flip else x


def _rewalk(rng: np.random.Generator, u: np.ndarray, x: np.ndarray, unsure: np.ndarray,
            pmf: list[float]) -> None:
    """Redo, in place, the draws that the search could not settle, and
    every draw after a restart, with numpy's walk on the same doubles."""
    first = int(unsure[0])
    doubles = itertools.chain(u[first:].tolist(), iter(rng.random, None))
    unsure = set(unsure.tolist())
    taken = first
    for i in range(first, u.size):
        # until a walk restarts, draw i takes double i, and a settled one stands
        if taken == i and i not in unsure:
            next(doubles)
            taken += 1
        else:
            x[i], used = _walk(doubles, pmf)
            taken += used
