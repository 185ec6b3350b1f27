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

The point-identifying benchmark ``mcar_log_lik`` is the binomial likelihood
``n11*log(theta) + n01*log(1 - theta)`` obtained when response is
independent of the outcome; it ignores n_plus0 entirely.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ThetaOutOfDomain
from .model import MissingTable


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ThetaOutOfDomain(f"theta = {theta} is not in [0, 1]")


def _cell_term(count: int, prob: float) -> float:
    if count == 0:
        return 0.0
    if prob <= 0.0:
        return -math.inf
    return count * math.log(prob)


def _log_lik(data: MissingTable, l11: float, l01: float, l_plus0: float) -> float:
    return (
        _cell_term(data.n11, l11)
        + _cell_term(data.n01, l01)
        + _cell_term(data.n_plus0, l_plus0)
    )


def profile_log_lik(data: MissingTable, theta: float) -> float:
    """Log profile likelihood of theta (closed form, up to the constant
    multinomial coefficient)."""
    _check_theta(theta)
    n = data.n
    l11_hat = data.n11 / n
    upper_hat = (data.n11 + data.n_plus0) / n

    if theta < l11_hat:
        rest = data.n01 + data.n_plus0
        l11 = theta
        if rest > 0:
            l01 = (1.0 - theta) * data.n01 / rest
            l_plus0 = (1.0 - theta) * data.n_plus0 / rest
        else:
            l01, l_plus0 = 0.0, 1.0 - theta
    elif theta > upper_hat:
        top = data.n11 + data.n_plus0
        l01 = 1.0 - theta
        if top > 0:
            l11 = theta * data.n11 / top
            l_plus0 = theta * data.n_plus0 / top
        else:
            l11, l_plus0 = theta, 0.0
    else:
        l11, l01, l_plus0 = l11_hat, data.n01 / n, data.n_plus0 / n
    return _log_lik(data, l11, l01, l_plus0)


def mcar_log_lik(data: MissingTable, theta: float) -> float:
    """Binomial log likelihood under outcome-independent response."""
    _check_theta(theta)
    return _cell_term(data.n11, theta) + _cell_term(data.n01, 1.0 - theta)


def profile_lr(data: MissingTable, theta_star: float, theta_ref: float) -> float:
    """Profile likelihood ratio of theta_star against theta_ref."""
    return math.exp(profile_log_lik(data, theta_star) - profile_log_lik(data, theta_ref))


def standardize(log_liks: np.ndarray) -> np.ndarray:
    """Rescale log likelihoods on a grid so the maximum becomes 1."""
    log_liks = np.asarray(log_liks, dtype=float)
    peak = np.max(log_liks)
    if not np.isfinite(peak):
        return np.zeros_like(log_liks)
    return np.exp(log_liks - peak)


def profile_curve(data: MissingTable, grid: np.ndarray) -> np.ndarray:
    """Standardized profile likelihood over a theta grid (peak value 1)."""
    values = np.array([profile_log_lik(data, float(t)) for t in grid])
    return standardize(values)


def mcar_curve(data: MissingTable, grid: np.ndarray) -> np.ndarray:
    """Standardized benchmark likelihood over a theta grid (peak value 1)."""
    values = np.array([mcar_log_lik(data, float(t)) for t in grid])
    return standardize(values)

