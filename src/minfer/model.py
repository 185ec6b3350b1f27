"""Data model for the two incomplete 2x2-table settings.

Missing-data setting: a binary outcome X is observed only when the
response indicator R equals 1; the observation is the count triple
(n11, n01, n_plus0) with total n, sampled multinomial(n; l11, l01, l_plus0).

Matched-data setting: two binary variables X and Y are observed in two
independent samples; the observation is (nx out of n1, ny out of n2), with
nx ~ binomial(n1, l1p) and ny ~ binomial(n2, lp1).

Everything that differs between the settings is an attribute of these
types, so callers never branch on the setting: a table's ``sizes`` and
``cells`` (the counts a ``draw`` of the parameter type produces), and the
parameter type's estimate and plug-in bounds from cells, identification
bounds, and whether the normal approximation exists (``has_normal``).

A batch of matched-data draws from one generator (``size`` given, as in
the nested bootstrap) goes through ``_binomial``, which draws numpy's
small-mean regime in one vectorized pass instead of one pmf walk per
draw, and rewinds the generator for numpy to draw any batch it cannot
place exactly: the counts and the generator's state are numpy's.
``draw_streams`` makes ``draw``'s one draw on each of many replicate
streams at once (see ``sampling._replicate_counts``), composing
``_binomial``'s draws across streams as numpy composes its own: the
multinomial as numpy's ``random_multinomial``, the two margins one after
the other on the same stream.

Counts are exact integers, and a table's sample sizes lie in
[1, ``errors.MAX_SIZE``]; estimated probabilities are double precision.
Degenerate tables (zero cells) are accepted here and handled downstream.
All types are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from ._binomial import _binomial_draws, _binomial_streams
from .errors import MAX_SIZE, ValidationError, _check_probability, _invalid

SIMPLEX_TOL = 1e-12


def _coerce_counts(obj: object, names: Sequence[str]) -> None:
    for name in names:
        value = getattr(obj, name)
        try:
            whole = not isinstance(value, bool) and value == int(value)
        except (TypeError, ValueError, OverflowError):
            # NaN, an infinity or no number at all
            whole = False
        if not whole:
            raise _invalid(ValidationError, name, repr(value), "must be an integer")
        if value < 0:
            raise _invalid(ValidationError, name, value, "is negative")
        object.__setattr__(obj, name, int(value))


@dataclass(frozen=True)
class PsiMissing:
    """Identifiable parameter (l11, l01, l_plus0) of the missing-data law.

    The three components live on the probability simplex.
    """

    l11: float
    l01: float
    l_plus0: float

    has_normal = True

    def __post_init__(self) -> None:
        for name in ("l11", "l01", "l_plus0"):
            _check_probability(getattr(self, name), name)
        total = self.l11 + self.l01 + self.l_plus0
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise _invalid(ValidationError, "psi", None, f"components sum to {total}, not 1")

    @cached_property
    def pvals(self) -> np.ndarray:
        # clean simplex vector: multinomial samplers reject the tiny negative
        # values or sum drift that the validation tolerance allows
        p = np.clip([self.l11, self.l01, self.l_plus0], 0.0, 1.0)
        return p / p.sum()

    def draw(self, rng: np.random.Generator, sizes: int, size: int | None = None):
        """Cells (c11, c01, c_plus0) of one multinomial(n = sizes) draw, or
        three arrays of ``size`` draws."""
        return rng.multinomial(sizes, self.pvals, size=size).T

    def draw_streams(self, streams, sizes: int):
        """The cells ``draw`` gives on each stream of ``streams`` (see
        ``_binomial``), as numpy's ``random_multinomial`` makes them:
        binomial(n, p11), then binomial(n - c11, p01 / (1 - p11)) where any
        is left, the rest in the last cell; and whether each stream's cells
        are numpy's."""
        p11, p01, _ = self.pvals.tolist()
        c11, settled = _binomial_streams(streams, sizes, p11)
        if not settled.any():
            # an n the kernel does not draw, say: numpy draws every replicate
            return (c11,) * 3, settled
        rest = sizes - c11
        c01 = np.zeros_like(c11)
        if p11 < 1.0:
            # numpy hands random_binomial this ratio unchecked; above 1 (p01
            # / (1 - p11) rounded up, when l_plus0 = 0) its walk starts at
            # px_0 >= 1 > u and returns rest on one double, as at p = 1
            p = min(p01 / (1.0 - p11), 1.0)
            c01, second = _binomial_streams(streams, rest, p)
            settled &= second
        return (c11, c01, rest - c01), settled

    @staticmethod
    def from_cells(cells, n: int) -> PsiMissing:
        c11, c01, c0 = cells
        return PsiMissing(c11 / n, c01 / n, c0 / n)

    @staticmethod
    def plug_in(cells, n: int):
        c11, _, c0 = cells
        return c11 / n, (c11 + c0) / n

    def bounds(self) -> tuple[float, float]:
        return self.l11, min(self.l11 + self.l_plus0, 1.0)

    def endpoint_limit(self, theta: float, lower: float, upper: float) -> float | None:
        if theta == lower:
            return 0.5 if lower > 0.0 else None
        return 0.5 if upper < 1.0 else None

    @staticmethod
    def sizes_for(n: int) -> int:
        return n


@dataclass(frozen=True)
class PsiMatched:
    """Identifiable margins (l1p, lp1) of the matched-data law.

    l1p = Pr(X = 1) and lp1 = Pr(Y = 1); each is a free probability.
    """

    l1p: float
    lp1: float

    has_normal = False

    def __post_init__(self) -> None:
        _check_probability(self.l1p, "l1p")
        _check_probability(self.lp1, "lp1")

    def draw(self, rng: np.random.Generator, sizes: tuple[int, int], size: int | None = None):
        """Cells (nx, ny) of one draw of binomial(n1, l1p), then of
        binomial(n2, lp1), or two arrays of ``size`` draws, the ones
        ``rng.binomial`` gives (see ``_binomial``)."""
        n1, n2 = sizes
        if size is None:
            return rng.binomial(n1, self.l1p), rng.binomial(n2, self.lp1)
        return _binomial_draws(rng, n1, self.l1p, size), _binomial_draws(rng, n2, self.lp1, size)

    def draw_streams(self, streams, sizes: tuple[int, int]):
        """The cells ``draw`` gives on each stream of ``streams`` (see
        ``_binomial``), and whether each stream's cells are numpy's."""
        n1, n2 = sizes
        nx, settled = _binomial_streams(streams, n1, self.l1p)
        ny, second = _binomial_streams(streams, n2, self.lp1)
        return (nx, ny), settled & second

    @staticmethod
    def from_cells(cells, sizes: tuple[int, int]) -> PsiMatched:
        (nx, ny), (n1, n2) = cells, sizes
        return PsiMatched(nx / n1, ny / n2)

    @staticmethod
    def plug_in(cells, sizes: tuple[int, int]):
        (nx, ny), (n1, n2) = cells, sizes
        p1, p2 = nx / n1, ny / n2
        return np.maximum(p1 + p2 - 1.0, 0.0), np.minimum(p1, p2)

    def bounds(self) -> tuple[float, float]:
        return max(self.l1p + self.lp1 - 1.0, 0.0), min(self.l1p, self.lp1)

    def endpoint_limit(self, theta: float, lower: float, upper: float) -> float | None:
        if theta == lower:
            return 0.5 if self.l1p + self.lp1 >= 1.0 else 1.0
        return 0.5 if self.l1p != self.lp1 else 0.25

    @staticmethod
    def sizes_for(n: int) -> tuple[int, int]:
        return n, n


Psi = Union[PsiMissing, PsiMatched]


@dataclass(frozen=True)
class MissingTable:
    """Observed counts (n11, n01, n_plus0) in the missing-data setting."""

    n11: int
    n01: int
    n_plus0: int

    psi_type = PsiMissing
    size_names = ("n",)

    def __post_init__(self) -> None:
        _coerce_counts(self, ("n11", "n01", "n_plus0"))
        if self.n == 0:
            raise _invalid(ValidationError, "counts", None, "must total at least 1")
        if self.n > MAX_SIZE:
            raise _invalid(ValidationError, "counts", None, f"must total at most {MAX_SIZE}")

    @property
    def n(self) -> int:
        return self.n11 + self.n01 + self.n_plus0

    @property
    def sizes(self) -> int:
        return self.n

    @property
    def cells(self) -> tuple[int, int, int]:
        return self.n11, self.n01, self.n_plus0


@dataclass(frozen=True)
class MatchedTable:
    """Observed margins (nx of n1, ny of n2) in the matched-data setting."""

    nx: int
    n1: int
    ny: int
    n2: int

    psi_type = PsiMatched
    size_names = ("n1", "n2")

    def __post_init__(self) -> None:
        _coerce_counts(self, ("nx", "n1", "ny", "n2"))
        if self.n1 == 0 or self.n2 == 0:
            raise _invalid(ValidationError, "counts", None, "must have n1 and n2 at least 1")
        if max(self.n1, self.n2) > MAX_SIZE:
            raise _invalid(ValidationError, "counts", None, f"must have n1 and n2 at most {MAX_SIZE}")
        if self.nx > self.n1:
            raise _invalid(ValidationError, "counts", None, f"nx = {self.nx} exceeds n1 = {self.n1}")
        if self.ny > self.n2:
            raise _invalid(ValidationError, "counts", None, f"ny = {self.ny} exceeds n2 = {self.n2}")

    @property
    def sizes(self) -> tuple[int, int]:
        return self.n1, self.n2

    @property
    def cells(self) -> tuple[int, int]:
        return self.nx, self.ny


ObservedTable = Union[MissingTable, MatchedTable]

SETTINGS = {"missing": MissingTable, "matched": MatchedTable}


def validate(raw_counts: Sequence[int], setting: str) -> ObservedTable:
    """Build a validated table from a raw count list.

    ``setting`` is "missing" (3 counts: n11, n01, n_plus0) or "matched"
    (4 counts: nx, n1, ny, n2).
    """
    counts = list(raw_counts)
    table_type = SETTINGS.get(setting) if isinstance(setting, str) else None
    if table_type is None:
        raise ValidationError(f"unknown setting {setting!r}; expected 'missing' or 'matched'")
    names = [f.name for f in fields(table_type)]
    if len(counts) != len(names):
        raise _invalid(ValidationError, "counts", counts,
                       f"must be {len(names)} {setting}-data counts ({', '.join(names)})")
    return table_type(*counts)


def mle_psi(data: ObservedTable) -> Psi:
    """Maximum likelihood estimate of the identifiable parameter.

    Missing: cell proportions (n11/n, n01/n, n_plus0/n). Matched: margin
    proportions (nx/n1, ny/n2). Boundary estimates (zero cells) are
    returned as-is.
    """
    return data.psi_type.from_cells(data.cells, data.sizes)
