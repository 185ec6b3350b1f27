"""Numerical oracles that check closed forms of the library.

``profile_oracle`` re-solves the constrained maximization behind
``minfer.profile_log_lik`` numerically (a grid over the feasible slice of
the simplex, zoomed around the incumbent), independently of the closed
form's three regimes.
"""

import math

import numpy as np

from minfer import MissingTable


def _grid_log_lik(data: MissingTable, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # log likelihood in bound coordinates: l11 = u, l_plus0 = v - u,
    # l01 = 1 - v; -inf where a positive count meets a zero probability
    ll = np.zeros(np.broadcast(u, v).shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for count, p in ((data.n11, u), (data.n01, 1.0 - v), (data.n_plus0, v - u)):
            if count > 0:
                ll = ll + np.where(p > 0.0, count * np.log(np.maximum(p, 1e-300)), -np.inf)
    return ll


def profile_oracle(data: MissingTable, theta: float, points: int = 81, rounds: int = 5) -> float:
    """Numerically maximize the constrained log likelihood; verification
    oracle for ``profile_log_lik``, independent of the branch formulas.

    Works in bound coordinates (u, v) = (l11, l11 + l_plus0), where the
    constraint set {l11 <= theta <= l11 + l_plus0 <= 1} is the rectangle
    [0, theta] x [theta, 1] and its edges are grid-aligned. Scans a grid,
    then repeatedly zooms it around the incumbent; five rounds drive the
    parameter resolution below 1e-7, comfortably past the 1e-6 target in
    log likelihood.
    """
    assert 0.0 <= theta <= 1.0, theta
    u_lo, u_hi = 0.0, theta
    v_lo, v_hi = theta, 1.0
    best_val = -math.inf
    for _ in range(rounds):
        u_axis = np.linspace(u_lo, u_hi, points)
        v_axis = np.linspace(v_lo, v_hi, points)
        u, v = np.meshgrid(u_axis, v_axis, indexing="ij")
        ll = _grid_log_lik(data, u, v)
        idx = np.unravel_index(np.argmax(ll), ll.shape)
        if not math.isfinite(float(ll[idx])):
            return -math.inf
        if float(ll[idx]) > best_val:
            best_val = float(ll[idx])
            best_u, best_v = float(u[idx]), float(v[idx])
        # shrink the box to two old grid steps around the incumbent
        step_u = (u_hi - u_lo) / (points - 1)
        step_v = (v_hi - v_lo) / (points - 1)
        u_lo = max(0.0, best_u - 2.0 * step_u)
        u_hi = min(theta, best_u + 2.0 * step_u)
        v_lo = max(theta, best_v - 2.0 * step_v)
        v_hi = min(1.0, best_v + 2.0 * step_v)
    return best_val
