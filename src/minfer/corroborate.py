"""Corroboration of theta values: how often the plug-in interval covers them.

The corroboration of theta at parameter psi is the probability, under
repeated sampling of the observed data at psi, that theta lands inside the
plug-in interval of the replicate. Evaluated at the MLE it is the observed
corroboration; evaluated at a hypothesized truth it is the actual
corroboration, whose value at the true theta is the confidence level of
the plug-in interval.

Two estimators are provided:

* ``corroboration_bootstrap`` resamples B replicate tables, replicate b
  the ``draw`` of the parameter type on its own stream (see ``model``),
  drawn for all replicates at once by ``sampling._replicate_counts`` into
  one (cells, B) count array with numpy's counts bit for bit; it forms
  their plug-in bounds from the integer counts, and averages
  closed-interval membership indicators. One set of B replicates serves
  every grid point (common random numbers), which keeps the empirical
  curve close to its population shape (nested, quasi-concave level sets)
  and makes the cost independent of the grid size.
* ``corroboration_normal`` and ``corroboration_normal_curve`` (missing-data
  setting only) replace the joint law of the two estimated bounds with a
  bivariate normal with matching moments. The coverage P(L <= theta <= U)
  is then Phi(h) - Phi2(h, k; rho), vectorized over the grid in numpy
  (``_normal``): Phi as Cephes' ndtr, and Phi2 by Genz's BVND algorithm
  (Genz 2004, Stat. Comput. 14:251), Gauss-Legendre quadrature accurate to
  double precision. No Owen's T function and no scipy is involved.

``corroboration_curve`` is the one method dispatch, for the CLI and the
corroboration test (``ctest``); it checks B, the master seed and the grid
whatever the method (with ``errors``' checkers), before any draw, so a
bad one is an error on the normal curve too. The assurance sweep's inner
curve keeps its own dispatch, since its nested bootstrap draws from the
replicate's generator.

``bounds_batch_streams`` keeps its last batch: the bounds of the most
recent (psi, sizes, B, master_seed), two read-only arrays (16·B bytes),
so a curve at the MLE followed by the test or the plug-in assurance at
the same table, B and seed draws its replicates once. The memo is one
``functools.lru_cache`` entry, safe to share across threads; a call with
other arguments replaces it, and the bounds are the same with or
without it.

Level sets of a curve are reported as the convex hull of qualifying grid
points: the population level sets are intervals, so raggedness from a
finite B is noise. Max-set thresholds are relaxed by half a lattice step
on bootstrap curves (exact ties at the maximum are common there) and by a
1e-9 float guard on normal curves; level sets at a caller-chosen alpha
use only a float-noise guard, so nothing strictly below alpha qualifies.
This module owns that rule: the assurance sweep (``assure``) extracts
every replicate's sets with the same routine, for all offsets at once.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import IO, Iterable, Sequence, Union

import numpy as np

from ._normal import _bvn_cover, _ndtr_pair
from .errors import (DegenerateVariance, EmptyLevelSet, ValidationError, _check_grid,
                     _check_offset, _check_probability, _check_replicates, _check_seed,
                     _check_sizes, _check_theta)
from .identify import ThetaInterval, theta_interval
from .model import Psi, PsiMissing
from .sampling import _replicate_counts

GRID_STEP = 0.001
NORMAL_TIE_EPS = 1e-9

Sizes = Union[int, tuple[int, int]]


def write_csv(destination: str | os.PathLike | IO[str], header: Sequence[str],
              rows: Iterable[Sequence[float | None]]) -> None:
    """Write a header and rows of numbers with 6 decimal places (None as an
    empty field) to a path or an open text stream."""
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "w", encoding="utf-8", newline="\n") as handle:
            write_csv(handle, header, rows)
        return
    destination.write(",".join(header) + "\n")
    for row in rows:
        destination.write(",".join("" if v is None else f"{v:.6f}" for v in row) + "\n")


def corroboration_method(psi: Psi, method: str | None) -> str:
    """``method``, or the setting's default when None: the normal
    approximation where it exists (missing data), else the bootstrap."""
    if method is None:
        method = "normal" if psi.has_normal else "bootstrap"
    if method not in ("normal", "bootstrap"):
        raise ValidationError(f"unknown method {method!r}")
    if method == "normal" and not psi.has_normal:
        raise ValidationError("the normal approximation applies to the missing-data setting only")
    return method


def default_grid() -> np.ndarray:
    """Equispaced theta grid on [0, 1] with step 0.001 (1001 points)."""
    return GRID_STEP * np.arange(1001)


def _as_grid(grid: np.ndarray | None) -> np.ndarray:
    """``grid`` as a float array, or the default grid when None."""
    return default_grid() if grid is None else np.asarray(grid, dtype=float)


def _tie_epsilon(B: int | None) -> float:
    """Max-set threshold slack: half a lattice step on a bootstrap curve of
    B replicates, a float guard on a normal curve (B is None)."""
    return NORMAL_TIE_EPS if B is None else 0.5 / B


@dataclass(frozen=True)
class CorroborationCurve:
    """Corroboration estimates over an ordered theta grid."""

    grid: np.ndarray
    values: np.ndarray
    method: str  # "bootstrap" | "normal"
    psi_at: Psi
    sizes: Sizes
    B: int | None = None
    master_seed: int | None = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        _check_grid(grid)
        if values.shape != grid.shape:
            raise ValidationError("values must match the grid point-for-point")
        # written so that NaN fails too: a max set of NaN values would span the grid
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValidationError("corroboration values must lie in [0, 1]")
        if self.method not in ("bootstrap", "normal"):
            raise ValidationError(f"unknown method {self.method!r}")
        if self.method == "bootstrap":
            _check_replicates(self.B, "B")
            lattice = values * self.B
            if np.max(np.abs(lattice - np.round(lattice))) > 1e-6:
                raise ValidationError("bootstrap values must be multiples of 1/B")

    @property
    def tie_epsilon(self) -> float:
        """Threshold slack for max-set extraction on this curve."""
        return _tie_epsilon(self.B if self.method == "bootstrap" else None)

    def value_at(self, theta: float) -> float:
        """Value at a grid point that matches theta exactly."""
        idx = np.nonzero(self.grid == theta)[0]
        if idx.size == 0:
            raise ValidationError(f"theta = {theta} is not a grid point of this curve")
        return float(self.values[idx[0]])

    def to_csv(self, destination: str | os.PathLike | IO[str]) -> None:
        """Write ``theta,corroboration`` rows with 6 decimal places."""
        write_csv(destination, ("theta", "corroboration"), zip(self.grid, self.values))


@dataclass(frozen=True)
class LevelSet:
    """A corroboration level set, reported as one closed interval."""

    interval: ThetaInterval
    level: float
    kind: str  # "alpha_level" | "h_offset" | "max_set"


def bounds_batch_streams(psi: Psi, sizes: Sizes, B: int, master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Plug-in interval bounds (L, U) of B replicate tables drawn at psi,
    one independent stream per replicate (spawn keys 0..B-1), as read-only
    arrays; the last batch is kept (see module docs)."""
    B = _check_replicates(B, "B")
    _check_sizes(sizes)
    # list or array sizes become a tuple, which can key the memo
    return _bounds_batch(psi, sizes if np.ndim(sizes) == 0 else tuple(sizes), B, master_seed)


# typed: a bool seed or size is not served the batch of an equal int
@functools.lru_cache(maxsize=1, typed=True)
def _bounds_batch(psi: Psi, sizes: Sizes, B: int, master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    counts = _replicate_counts(psi, sizes, B, master_seed)
    bounds = psi.plug_in(counts, sizes)
    for bound in bounds:
        bound.flags.writeable = False
    return bounds


def bounds_batch_from_rng(psi: Psi, sizes: Sizes, B: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Replicate bounds drawn sequentially from one generator.

    For nested bootstrap layers inside one outer replicate, which owns
    ``rng``.
    """
    return psi.plug_in(psi.draw(rng, sizes, B), sizes)


def coverage_share(lower: np.ndarray, upper: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Fraction of closed intervals [lower_b, upper_b] covering each grid
    point, via sorted endpoint counting."""
    lower = np.sort(lower)
    upper = np.sort(upper)
    covered = np.searchsorted(lower, grid, side="right") - np.searchsorted(upper, grid, side="left")
    return covered / lower.size


def corroboration_bootstrap(
    psi: Psi,
    sizes: Sizes,
    grid: np.ndarray | None = None,
    B: int = 5000,
    master_seed: int = 0,
) -> CorroborationCurve:
    """Bootstrap estimate of the corroboration curve at psi.

    Draws B replicate tables at psi (per-replicate streams spawned from
    ``master_seed``), forms each replicate's plug-in interval, and returns
    the share of intervals covering each grid point. The same replicates
    serve the whole grid.
    """
    B = _check_replicates(B, "B")
    grid = _as_grid(grid)
    lower, upper = bounds_batch_streams(psi, sizes, B, master_seed)
    values = coverage_share(lower, upper, grid)
    return CorroborationCurve(
        grid=grid, values=values, method="bootstrap",
        psi_at=psi, sizes=sizes, B=B, master_seed=master_seed,
    )


def _normal_values(psi: PsiMissing, n: int, theta: np.ndarray) -> np.ndarray:
    """Normal-approximation coverage P(L <= theta <= U) at each theta, with
    h and k the standardized distances of theta from the means of L and U."""
    corroboration_method(psi, "normal")
    _check_sizes(n)
    if psi.l11 in (0.0, 1.0) or psi.l_plus0 in (0.0, 1.0):
        raise DegenerateVariance(
            f"normal approximation undefined at l11 = {psi.l11}, l_plus0 = {psi.l_plus0}"
        )
    var_a = psi.l11 * (1.0 - psi.l11) / n
    var_b = psi.l_plus0 * (1.0 - psi.l_plus0) / n
    cov = -psi.l11 * psi.l_plus0 / n
    # conditional variance of the width given the lower bound; zero iff l01 = 0
    cond_var = max(var_b - cov * cov / var_a, 0.0)
    sd_a = math.sqrt(var_a)
    h = (theta - psi.l11) / sd_a
    if cond_var <= 0.0:
        # width degenerates to 1 - lower: coverage reduces to Pr(lower <= theta)
        return _ndtr_pair(h)[0]
    # U = lower + width moves with the lower bound by ``gain`` plus an
    # independent residual of variance cond_var: corr(L, U) = rho, and
    # sqrt(1 - rho^2) = sqrt(cond_var) / sd_u
    gain = 1.0 + cov / var_a
    sd_u = math.sqrt(gain * gain * var_a + cond_var)
    k = (theta - psi.l11 - psi.l_plus0) / sd_u
    coverage = _bvn_cover(h, k, gain * sd_a / sd_u, math.sqrt(cond_var) / sd_u)
    return np.clip(coverage, 0.0, 1.0)


def corroboration_normal(psi: PsiMissing, n: int, theta: float) -> float:
    """Normal-approximation corroboration of one theta (missing data); see
    ``_normal_values``."""
    return float(_normal_values(psi, n, _check_theta(theta))[0])


def corroboration_normal_curve(psi: PsiMissing, n: int, grid: np.ndarray | None = None) -> CorroborationCurve:
    """Normal-approximation corroboration over a whole grid."""
    grid = _as_grid(grid)
    return CorroborationCurve(
        grid=grid, values=_normal_values(psi, n, grid), method="normal", psi_at=psi, sizes=n,
    )


def corroboration_curve(
    psi: Psi,
    sizes: Sizes,
    grid: np.ndarray | None = None,
    method: str | None = None,
    B: int = 5000,
    master_seed: int = 0,
) -> CorroborationCurve:
    """Corroboration curve at psi by ``method`` or the setting's default
    (``corroboration_method``): the normal curve, or the bootstrap of B
    replicates spawned from ``master_seed``. B and the seed are checked
    whatever the method, and the grid before any replicate is drawn (see
    module docs)."""
    B = _check_replicates(B, "B")
    _check_seed(master_seed)
    grid = _as_grid(grid)
    _check_grid(grid)
    if corroboration_method(psi, method) == "normal":
        return corroboration_normal_curve(psi, sizes, grid)
    return corroboration_bootstrap(psi, sizes, grid, B=B, master_seed=master_seed)


def asymptotic_corroboration(psi: Psi, theta: float) -> float | None:
    """Large-sample limit of the actual corroboration at psi.

    Returns 0 outside the identification region, 1 on its open interior,
    and the boundary constants of the two settings at the endpoints;
    ``None`` where no limit is defined (boundary cases with a degenerate
    region, a missing-data lower endpoint at 0, or an upper endpoint at 1).
    """
    _check_theta(theta)
    region = theta_interval(psi)
    if not region.contains(theta):
        return 0.0
    if region.strictly_inside(theta):
        return 1.0
    if region.width == 0.0:
        return None
    return psi.endpoint_limit(theta, region.lower, region.upper)


def _hulls(
    values: np.ndarray, grid: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and last grid point whose value reaches each threshold; some
    value must reach every one."""
    # array methods, not np.argmax/np.take: this runs once per assurance replicate
    reach = values >= thresholds[:, None]
    last = values.size - 1 - reach[:, ::-1].argmax(axis=1)
    return grid.take(reach.argmax(axis=1)), grid.take(last)


def _max_sets(
    values: np.ndarray, grid: np.ndarray, hs: np.ndarray, tie: float
) -> tuple[np.ndarray, np.ndarray]:
    """Hull ends of the offset-h max sets of one curve, one per h: the grid
    points reaching max - h - tie, ``tie`` the curve's ``_tie_epsilon``."""
    return _hulls(values, grid, values.max() - hs - tie)


def max_corroboration_set(curve: CorroborationCurve, h: float = 0.0) -> LevelSet:
    """Grid points within offset h of the curve maximum, as one interval.

    h = 0 gives the maximum corroboration set (the hardest-to-refute
    values); larger h, below 1, relaxes it.
    """
    _check_offset(h)
    lower, upper = _max_sets(curve.values, curve.grid, np.array([h]), curve.tie_epsilon)
    return LevelSet(
        interval=ThetaInterval(float(lower[0]), float(upper[0])),
        level=h,
        kind="max_set" if h == 0.0 else "h_offset",
    )


def level_set(curve: CorroborationCurve, alpha: float) -> LevelSet:
    """Grid points with corroboration at least alpha, as one interval.

    The threshold here is the caller's alpha itself (with a float-noise
    guard only): relaxing by the lattice tie step would let values
    strictly below alpha qualify, e.g. zero-valued points as alpha
    approaches 0.
    """
    _check_probability(alpha, "alpha", positive=True)
    threshold = alpha - 1e-12
    if not np.any(curve.values >= threshold):
        raise EmptyLevelSet(f"no grid point reaches corroboration {alpha}")
    lower, upper = _hulls(curve.values, curve.grid, np.array([threshold]))
    return LevelSet(
        interval=ThetaInterval(float(lower[0]), float(upper[0])), level=alpha, kind="alpha_level",
    )
