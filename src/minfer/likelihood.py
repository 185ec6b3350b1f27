"""Profile likelihood of theta for the missing-data setting.

The observed-data log likelihood is
``n11*log(l11) + n01*log(l01) + n_plus0*log(l_plus0)`` over the simplex.
Profiling theta means maximizing subject to ``l11 <= theta <= l11 + l_plus0``.
The maximizer has three regimes:

* ``theta`` below the cell proportion ``n11/n``: the lower constraint is
  active, ``l11 = theta``, and the remaining mass ``1 - theta`` is split
  across (l01, l_plus0) proportional to (n01, n_plus0);
* ``theta`` inside ``[n11/n, (n11 + n_plus0)/n]``: the unconstrained MLE is
  feasible, so the profile is flat at the full-likelihood maximum;
* ``theta`` above: the upper constraint is active, ``l01 = 1 - theta``, and
  the mass ``theta`` is split across (l11, l_plus0) proportional to
  (n11, n_plus0).

Everything is computed in log space: simulated counts reach 1e6 and the
likelihood product would underflow. Convention: a zero count contributes
zero regardless of its cell probability; a positive count on a zero
probability gives -inf.

The point-identifying benchmark behind ``mcar_curve`` is the binomial
likelihood ``n11*log(theta) + n01*log(1 - theta)`` obtained when response
is independent of the outcome; it ignores n_plus0 entirely.
"""

from __future__ import annotations

import numpy as np

from .errors import _check_theta
from .model import MissingTable


def _cell_term(count: int, prob: np.ndarray) -> np.ndarray:
    # probabilities here are never negative, and log(0) = -inf
    if count == 0:
        return np.zeros_like(prob)
    with np.errstate(divide="ignore"):
        return count * np.log(prob)


def _profile_log_liks(data: MissingTable, theta: np.ndarray) -> np.ndarray:
    n = data.n
    n11, n01, n_plus0 = data.n11, data.n01, data.n_plus0
    below = theta < n11 / n
    above = theta > (n11 + n_plus0) / n
    # below: l11 = theta, and 1 - theta split over (l01, l_plus0) as (n01, n_plus0)
    rest = n01 + n_plus0
    if rest > 0:
        low01, low0 = (1.0 - theta) * n01 / rest, (1.0 - theta) * n_plus0 / rest
    else:
        low01, low0 = 0.0, 1.0 - theta
    # above: l01 = 1 - theta, and theta split over (l11, l_plus0) as (n11, n_plus0)
    top = n11 + n_plus0
    if top > 0:
        high11, high0 = theta * n11 / top, theta * n_plus0 / top
    else:
        high11, high0 = theta, 0.0
    l11 = np.where(below, theta, np.where(above, high11, n11 / n))
    l01 = np.where(below, low01, np.where(above, 1.0 - theta, n01 / n))
    l_plus0 = np.where(below, low0, np.where(above, high0, n_plus0 / n))
    return _cell_term(n11, l11) + _cell_term(n01, l01) + _cell_term(n_plus0, l_plus0)


def _mcar_log_liks(data: MissingTable, theta: np.ndarray) -> np.ndarray:
    return _cell_term(data.n11, theta) + _cell_term(data.n01, 1.0 - theta)


def _standardize(log_liks: np.ndarray) -> np.ndarray:
    # rescale log likelihoods on a grid so the maximum becomes 1
    log_liks = np.asarray(log_liks, dtype=float)
    peak = np.max(log_liks)
    if not np.isfinite(peak):
        return np.zeros_like(log_liks)
    return np.exp(log_liks - peak)


def profile_curve(data: MissingTable, grid: np.ndarray) -> np.ndarray:
    """Standardized profile likelihood over a theta grid (peak value 1)."""
    return _standardize(_profile_log_liks(data, _check_theta(grid)))


def mcar_curve(data: MissingTable, grid: np.ndarray) -> np.ndarray:
    """Standardized benchmark likelihood over a theta grid (peak value 1)."""
    return _standardize(_mcar_log_liks(data, _check_theta(grid)))

