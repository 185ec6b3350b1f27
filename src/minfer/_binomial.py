"""Binomial draws as numpy's ``Generator.binomial`` makes them, vectorized
where numpy draws one at a time.

numpy (``random_binomial`` in its distributions library) returns 0 for
n = 0 or p = 0 without taking a double, works with p' = min(p, 1 - p) and
returns n - X when p > 0.5. When n·p' <= 30 it draws X by inversion
(Devroye 1986, ch. X.4): it takes one double u from the generator and
walks the pmf, px_0 = exp(n·log q) and px_x = ((n - x + 1)·p'·px_{x-1}) /
(x·q) with q = 1 - p', subtracting px_x from u until u <= px_x. A walk past
bound = int(min(n, n·p' + 10·sqrt(n·p'·q + 1))) restarts on the next
double. Larger n·p' goes to BTPE (Kachitvichyanukul & Schmeiser 1988,
CACM 31:216), which takes two doubles (u, v) per attempt.

``_binomial_draws`` reproduces the inversion regime for a batch drawn from
one generator (the nested bootstrap). The walk stops at the first x whose
cumulative sum reaches u, so one ``rng.random(size)`` gives the batch's
doubles and X is u's ``searchsorted`` position in the cumulative pmf,
built with numpy's formulas in numpy's order and the C library's
``math.exp`` and ``math.log``, so every px_x is numpy's to the bit. The
cumulative sum and numpy's repeated subtraction differ by at most
2·(bound + 1)·2**-53 (bound <= 86 here), so where u's position among the
sums lowered by a margin of 1e-12 equals its position among the sums
raised by it, numpy's walk stops there too (``_search``); a bucket of
[0, 1) that no shifted sum falls in gives its u without a search. A batch
that keeps a u within the margin of a sum or past the bound (a restart),
at most ~2e-10 per draw, is drawn by numpy instead: the generator is
rewound past the batch's doubles (``PCG64.advance``, with the buffered
half word put back) and ``rng.binomial`` draws it, so the counts, their
dtype and the generator's state after the call are numpy's by
construction. Only PCG64 rewinds; any other bit generator goes to
``rng.binomial`` as it is, as does every other input (no ``size``, n = 0,
p = 0, p invalid or NaN, n bool, negative or beyond int64, n·p' > 30),
errors included.

``_binomial_streams`` makes one draw on each of many generators at once,
the replicate streams that ``sampling._Streams`` steps together (one n,
or one n per stream, at one p). At one n, inversion runs ``_search`` on
the sums ``_walk_sums`` builds for the call; at many, numpy's walk runs
across the streams (``_walk_streams``). BTPE runs numpy's set-up and
Steps 10-60 on ``_BTPE_ATTEMPTS`` (u, v) pairs per stream at once, and
each stream keeps its first accepted attempt and moves past the doubles
up to it. Only IEEE-exact operations (+ - × ÷ sqrt floor) are used, in
numpy's order, except the logs: ``np.log`` may differ from the C
library's log by one ulp (on 651 of 200,000 uniform doubles in (0, 1) on
an AVX-512 machine), so a floor or comparison on one that falls within a
relative margin of 1e-12 is undecided. A stream whose draw is undecided,
rejects every attempt or restarts its walk, a stream in the regime fewer
of the streams fall in, and every stream at an n that is not an int below
2**53 or a p outside [0, 1], reads unsettled: its caller draws that
replicate with numpy itself. Arrays keep the batch's shape; see
``_BLOCK`` for the few that do not.

Exactness assumes numpy's C code rounds every product and sum on its own.
Several BTPE expressions have a multiply-add shape (fm = n·r + r,
xm - p1·v + u, v·c + 1.0) that a compiler may fuse on FMA hardware,
rounding them differently. It is verified on x86-64 numpy wheels only,
so on any other ``platform.machine()`` (``_EXACT``) ``_binomial_draws``
hands every batch to ``rng.binomial`` and ``_binomial_streams`` settles
no stream. ``tests/test_streams.py`` and ``tests/test_binomial.py`` run
the kernel itself on any machine against numpy, bit for bit, so they
show where the gate can widen. The module is private, like ``_normal``.
"""

from __future__ import annotations

import functools
import math
import platform

import numpy as np

_INVERSION_MAX_MEAN = 30.0
# far above the <= 2·87·2**-53 (~2e-14) drift between a cumulative sum and
# numpy's repeated subtraction
_MARGIN = 1e-12
# a power of two, so u·K and the bucket edges j/K are exact
_BUCKETS = 1024
_INTEGERS = (int, np.integer)
# exactness is verified on these machines' numpy builds only
_EXACT = platform.machine() in ("x86_64", "AMD64")


def _walk_sums(n: int, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's inversion pmf px_0..px_bound at (n, p), p <= 0.5, and its
    cumulative sums lowered and raised by the margin."""
    q = 1.0 - p
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    pmf = [math.exp(n * math.log(q))]
    for x in range(1, bound + 1):
        pmf.append(((n - x + 1) * p * pmf[-1]) / (x * q))
    cdf = np.cumsum(pmf)
    return np.array(pmf), cdf - _MARGIN, cdf + _MARGIN


@functools.lru_cache(maxsize=64)
def _walk_table(n: int, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_walk_sums`` at (n, p), and each bucket's count, -1 where a
    shifted sum falls in the bucket (all read-only)."""
    pmf, low, high = _walk_sums(n, p)
    # every u of [j/K, (j+1)/K) has low.searchsorted(u) <= low.searchsorted
    # of the right edge and high.searchsorted(u) >= high.searchsorted of the
    # left edge; when those are equal both searches give that count
    edges = np.arange(_BUCKETS + 1) / _BUCKETS
    count = high.searchsorted(edges[:-1])
    clean = (count == low.searchsorted(edges[1:])) & (count < pmf.size)
    guide = np.where(clean, count, -1).astype(np.int8)
    for table in (pmf, low, high, guide):
        table.flags.writeable = False
    return pmf, low, high, guide


def _search(u: np.ndarray, pmf: np.ndarray, low: np.ndarray, high: np.ndarray):
    """u's positions among the lowered sums, and whether each is numpy's
    count: the same among the raised sums, and no restart past the bound."""
    x = low.searchsorted(u)
    return x, (x == high.searchsorted(u)) & (x < pmf.size)


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
    if not (_EXACT and isinstance(rng.bit_generator, np.random.PCG64) and _inverted(n, p, size)):
        return rng.binomial(n, p, size)
    n = int(n)
    flip = p > 0.5
    pmf, low, high, guide = _walk_table(n, 1.0 - p if flip else p)
    u = rng.random(size)
    x = guide.take((u * _BUCKETS).astype(np.intp)).astype(np.int64)
    rest = np.flatnonzero(x < 0)
    if rest.size:
        x[rest], settled = _search(u[rest], pmf, low, high)
        if np.count_nonzero(settled) < rest.size:
            # rewind; advance takes a Python int and clears the buffered half word
            state = rng.bit_generator.state
            rng.bit_generator.advance(-int(size))
            state["state"] = rng.bit_generator.state["state"]
            rng.bit_generator.state = state
            return rng.binomial(n, p, size)
    return n - x if flip else x


# numpy's outcomes of a BTPE attempt, as codes
_REJECT, _ACCEPT, _TEST, _UNSURE = 0, 1, 2, 3
# BTPE attempts evaluated per stream at once, two doubles each; a stream
# that rejects all of them goes to numpy
_BTPE_ATTEMPTS = 3
# relative margin of a floor or comparison on an ``np.log`` value, whose
# last bits may differ from the C library's log; inside it, undecided
_LOG_MARGIN = 1e-12
# Step 50's pmf ratio is multiplied out over at most this many factors
_MAX_RATIO_FACTORS = 64
# the few attempts that need Step 50's row products or the Stirling bound
# are gathered in blocks of this many, so that every array made from them
# holds at least 1 KB: numpy keeps up to seven freed buffers of each size
# below 1 KB, and gathers of ever new sizes would fill those caches for
# good. Every other array has the batch's shape.
_BLOCK = 128
_STREAM_MAX_N = 1 << 53


def _binomial_streams(streams, n, p) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``random_binomial(n, p)`` on every stream of ``streams`` (a
    ``sampling._Streams``), n an int or one int64 per stream: the counts,
    and whether each is numpy's. Each settled stream moves past the doubles
    numpy's draw takes; an unsettled one reads 0 and is left to numpy."""
    size = streams.size
    scalar = np.ndim(n) == 0
    p = float(p)
    if not _EXACT or not 0.0 <= p <= 1.0 or scalar and not (
            isinstance(n, _INTEGERS) and not isinstance(n, bool) and 0 <= n < _STREAM_MAX_N):
        return np.zeros(size, dtype=np.int64), np.zeros(size, dtype=bool)
    if p == 0.0 or (scalar and n == 0):
        return np.zeros(size, dtype=np.int64), np.ones(size, dtype=bool)
    flip = p > 0.5
    p_walk = 1.0 - p if flip else p
    if scalar:
        # one n: every stream draws in the same regime
        n = int(n)
        if p_walk * n <= _INVERSION_MAX_MEAN:
            x, settled = _search(streams.random(1)[0], *_walk_sums(n, p_walk))
            taken = settled.astype(np.int64)
        else:
            x, taken = _btpe(n, p_walk, streams.random(2 * _BTPE_ATTEMPTS))
            settled = taken > 0
    else:
        # n = 0 takes no double; the others walk or run BTPE by their n. Only
        # the regime most streams fall in runs, and the other's streams are
        # left to numpy: their own draws cost less than running a second
        # regime on every stream of the batch
        drawn = n > 0
        inverted = drawn & (p_walk * n <= _INVERSION_MAX_MEAN)
        btpe = drawn & ~inverted
        if np.count_nonzero(inverted) >= np.count_nonzero(btpe):
            # an n = 0 stream stops at 0 (px_0 = 1) and takes no double
            x, ended = _walk_streams(np.where(inverted, n, 0), p_walk, streams.random(1)[0])
            settled = ~drawn | inverted & ended
            taken = inverted.astype(np.int64)
        else:
            # a stream that does not run BTPE runs it at an n that does, unused
            x, taken = _btpe(np.where(btpe, n, n.max()), p_walk, streams.random(2 * _BTPE_ATTEMPTS))
            x, taken = np.where(btpe, x, 0), np.where(btpe, taken, 0)
            settled = ~drawn | btpe & (taken > 0)
    streams.keep(taken)
    if flip:
        x = n - x
    return np.where(settled, x, 0), settled


def _walk_streams(n: np.ndarray, p: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's inversion walk at (n_b, p) on the double u_b, for each b: the
    counts, and whether each walk ended by its bound (a restart takes more
    doubles, so it is left to numpy). A ``_search`` on one ``_walk_table``
    per distinct n instead is faster where n repeat (B = 5000 at 32,54,24:
    ~16 -> ~12 ms) but far slower where most streams have their own n
    (n = 10**6, l01 = 2e-5: ~15 -> ~290-420 ms), so the walk stays."""
    q = 1.0 - p
    log_q = math.log(q)
    # the C library's exp, as numpy's; the walk itself is numpy's IEEE arithmetic
    px = np.array([math.exp(v) for v in (n * log_q).tolist()])
    mean = n * p
    bound = np.minimum(n, mean + 10.0 * np.sqrt(mean * q + 1)).astype(np.int64)
    x = np.zeros(n.size, dtype=np.int64)
    walking = u > px
    while walking.any():
        x += walking
        walking &= x <= bound
        u = u - np.where(walking, px, 0.0)
        # x is at least 1 where walking; elsewhere the value is not used
        px = np.where(walking, ((n + 1 - x) * p * px) / (np.maximum(x, 1) * q), px)
        walking &= u > px
    return x, x <= bound


def _btpe(n, p: float, doubles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``random_binomial_btpe`` at (n, p), p <= 0.5, n an int or
    one per column of ``doubles``, whose rows are ``_BTPE_ATTEMPTS`` (u, v)
    pairs: each column's count from its first accepted attempt, and the
    doubles that took (0 where an attempt before it is undecided or every
    attempt rejects)."""
    # numpy's set-up, in its evaluation order: on scalars at one n, else
    # one value per column
    nf = float(n) if np.ndim(n) == 0 else n.astype(np.float64)
    r, q = p, 1.0 - p
    fm = nf * r + r
    m = np.floor(fm)
    p1 = np.floor(2.195 * np.sqrt(nf * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr

    # Steps 10-40, every attempt at once: the triangle (u <= p1) accepts
    # its y; the parallelograms (u <= p2) and the two exponential tails
    # propose a y and a value to test against the pmf ratio
    u = doubles[0::2] * p4
    v = doubles[1::2]
    x = xl + (u - p1) / c
    left = u <= p3
    # numpy rejects a tail proposal at v = 0 before its log matters
    log_v = np.log(np.where(v > 0.0, v, 1.0))
    tail = np.where(left, xl + log_v / laml, xr - log_v / lamr)
    proposal = np.where(u <= p1, xm - p1 * v + u, np.where(u <= p2, x, tail))
    y = np.floor(proposal)
    test = np.where(u <= p2, v * c + 1.0 - np.abs(m - x + 0.5) / p1,
                    np.where(left, v * (u - p2) * laml, v * (u - p3) * lamr))
    in_tail = u > p2
    rejected = np.where(in_tail, np.where(left, y < 0.0, y > nf) | (v == 0.0), test > 1.0)
    # a tail's y is a floor over np.log: undecided within the margin of an integer
    slack = _LOG_MARGIN * (np.abs(xl) + np.abs(tail) + 1.0)
    unsure = in_tail & (v > 0.0) & (np.floor(tail - slack) != np.floor(tail + slack))
    state = np.where(u <= p1, _ACCEPT, np.where(unsure, _UNSURE,
                                                 np.where(rejected, _REJECT, _TEST)))
    if (state == _TEST).any():
        state = _step50(nf, m, xm, r, q, y, test, state)
    # each column's first attempt that is not rejected decides it
    first = (state != _REJECT).argmax(axis=0)
    every = np.arange(first.size)
    accepted = state[first, every] == _ACCEPT
    taken = np.where(accepted, 2 * first + 2, 0)
    return np.where(accepted, y[first, every], 0.0).astype(np.int64), taken


def _step50(n, m, xm, r: float, q: float, y: np.ndarray, v: np.ndarray,
            state: np.ndarray) -> np.ndarray:
    """numpy's BTPE Steps 50-52 on the attempts in ``state`` _TEST, with
    proposals y and test values v: accept when v is at most the pmf ratio
    f(y)/f(m), by numpy's product near m, and far from it by its squeeze
    and Stirling bound on log(v). n, m and xm are scalars or one value per
    column."""
    tested = state == _TEST
    nrq = n * r * q
    k = np.abs(y - m)
    squeeze = (k > 20) & (k < nrq / 2.0 - 1)
    state = np.where(tested, _UNSURE, state)

    near = tested & ~squeeze & (k <= _MAX_RATIO_FACTORS)
    if near.any():
        F = _pmf_ratio(n, r / q, m, y, near)
        state = np.where(near, np.where(v > F, _REJECT, _ACCEPT), state)

    # numpy forms -k·k in int64: exact in a double only for k below 2**26
    far = tested & squeeze & (k < 2.0 ** 26)
    if far.any():
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = -k * k / (2 * nrq)
        with np.errstate(divide="ignore", invalid="ignore"):
            A = np.log(v)
        slack = _LOG_MARGIN * (np.abs(A) + np.abs(t) + rho + 1.0)
        state = np.where(far & (A < t - rho - slack), _ACCEPT, state)
        state = np.where(far & (A > t + rho + slack), _REJECT, state)
        bounded = far & (A > t - rho + slack) & (A < t + rho - slack)
        for block in _blocks(bounded):
            columns = block % y.shape[1]
            state.flat[block] = _stirling(*(_at(value, columns) for value in (n, m, xm)), r, q,
                                          y.flat[block], A.flat[block])
    return state


def _blocks(mask: np.ndarray) -> np.ndarray:
    """Flat indices of ``mask``'s True entries in rows of ``_BLOCK``, the
    last row filled up with repeats (see ``_BLOCK``)."""
    index = np.flatnonzero(mask)
    return np.resize(index, (-(-index.size // _BLOCK), _BLOCK))


def _at(value, columns):
    """A set-up value at the given columns: itself when it is one scalar."""
    return value if np.ndim(value) == 0 else value[columns]


def _pmf_ratio(n, s: float, m, y: np.ndarray, near: np.ndarray) -> np.ndarray:
    """numpy's Step 50 ratio F = prod (a/i - s) over i = m+1..y, or
    1 / prod over i = y+1..m, with a = s·(n + 1), multiplied out factor by
    factor in numpy's order, where ``near``; 1 elsewhere. Rows of factors,
    padded with exact 1s, are accumulated along the row. At one n (scalars
    n and m) F is tabled once per offset y - m instead, the same products
    for less work: B = 5000 batches at the CLI's matched examples take
    ~15 ms against ~22 ms by the rows (2-vCPU x86-64, 10 alternating
    in-process pairs)."""
    offset = np.where(near, y - m, 0.0)
    if np.ndim(n) == 0:
        # upward products share prefixes; each downward one is its own row
        below, above = max(-int(offset.min()), 0), max(int(offset.max()), 0)
        factors = s * (n + 1.0) / (m + 1.0 + np.arange(-below, above)) - s
        F_down = []
        if below:
            down = np.where(np.arange(below) >= below - np.arange(1, below + 1)[:, None],
                            factors[:below], 1.0)
            down[:, 0] = 1.0 / down[:, 0]
            F_down = np.divide.accumulate(down, axis=1)[::-1, -1]
        table = np.concatenate((F_down, [1.0], np.multiply.accumulate(factors[below:])))
        return table[(offset + below).astype(np.intp)]
    F = np.ones(y.shape)
    width = int(np.abs(offset).max())
    j = np.arange(width)
    for block in _blocks(near) if width else ():
        columns = block % y.shape[1]
        offsets, n_block = offset.flat[block], n[columns]
        start = np.minimum(y.flat[block], m[columns]) + 1.0
        factors = s * (n_block[:, None] + 1.0) / (start[:, None] + j) - s
        factors[j >= np.abs(offsets)[:, None]] = 1.0
        # numpy's F starts at 1.0 and is divided by each factor in turn
        factors[:, 0] = np.where(offsets < 0, 1.0 / factors[:, 0], factors[:, 0])
        F.flat[block] = np.where(offsets > 0, np.multiply.accumulate(factors, axis=1)[:, -1],
                                 np.divide.accumulate(factors, axis=1)[:, -1])
    return F


def _stirling(n, m, xm, r: float, q: float, y: np.ndarray, A: np.ndarray) -> np.ndarray:
    """numpy's last BTPE test, A = log(v) against its Stirling bound on
    log f(y)/f(m), with ``np.log`` and a margin."""
    x1, f1, z, w = y + 1.0, m + 1.0, n + 1.0 - m, n - y + 1.0
    terms = (xm * np.log(f1 / x1), (n - m + 0.5) * np.log(z / w),
             (y - m) * np.log(w * r / (x1 * q)))
    bound = terms[0] + terms[1] + terms[2]
    for s1 in (f1, z, x1, w):
        s2 = s1 * s1
        bound = bound + (13680. - (462. - (132. - (99. - 140. / s2) / s2) / s2) / s2) / s1 / 166320.
    slack = _LOG_MARGIN * (np.abs(A) + np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2]) + 1.0)
    return np.where(A > bound + slack, _REJECT, np.where(A < bound - slack, _ACCEPT, _UNSURE))
