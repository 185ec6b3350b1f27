"""Numerical oracles that check closed forms of the library.

``profile_oracle`` re-solves the constrained maximization behind
``minfer.profile_log_lik`` numerically (a grid over the feasible slice of
the simplex, zoomed around the incumbent), independently of the closed
form's three regimes.

``normal_quad`` and ``normal_panels`` integrate the normal-approximation
coverage behind ``minfer.corroboration_normal`` numerically, independently
of any closed form: the integral over lower-bound values a <= theta of
the normal density times the conditional probability that the upper
bound reaches theta. ``normal_quad`` uses adaptive
quadrature at one theta; ``normal_panels`` uses fixed Gauss-Legendre panels
over a whole grid (the integrand is analytic on each panel because the
membership kink at a = theta is the upper integration limit).

``normal_owen`` is the same coverage in closed form through Owen's T
function and scipy's ``ndtr`` (Owen 1956, Ann. Math. Statist. 27:1075),
the form the library used before its numpy kernel; it checks the
kernel's Phi and Genz quadrature to ~1e-15 wherever rho stays away
from 1.

``numpy_stream`` is numpy's own per-replicate stream, the oracle for the
library's seeding (``minfer.sampling.replicate_rngs``, which hashes the
seed itself): ``default_rng(SeedSequence(seed, spawn_key=(b,)))``.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import ndtr, owens_t

from minfer import MissingTable, PsiMissing

TAIL_SIGMAS = 13.0
GL_PANELS = 10
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


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


def _normal_moments(psi: PsiMissing, n: int) -> tuple[float, float, float, float, float]:
    # means of the lower bound and the width, sd of the lower bound, the
    # regression slope of the width on it and the conditional variance
    var_a = psi.l11 * (1.0 - psi.l11) / n
    var_b = psi.l_plus0 * (1.0 - psi.l_plus0) / n
    cov = -psi.l11 * psi.l_plus0 / n
    cond_var = max(var_b - cov * cov / var_a, 0.0)
    return psi.l11, psi.l_plus0, math.sqrt(var_a), cov / var_a, cond_var


def normal_quad(psi: PsiMissing, n: int, theta: float) -> float:
    """Normal-approximation coverage of one theta by adaptive quadrature,
    absolute tolerance well below 1e-6."""
    mu_a, mu_b, sd_a, slope, cond_var = _normal_moments(psi, n)
    lo = mu_a - TAIL_SIGMAS * sd_a
    up = min(theta, mu_a + TAIL_SIGMAS * sd_a)
    if up <= lo:
        return 0.0
    if cond_var <= 0.0:
        # width degenerates to 1 - lower: coverage reduces to Pr(lower <= theta)
        return float(ndtr((up - mu_a) / sd_a) - ndtr((lo - mu_a) / sd_a))
    sd_cond = math.sqrt(cond_var)

    def integrand(a: float) -> float:
        z = (a - mu_a) / sd_a
        density = math.exp(-0.5 * z * z) / (sd_a * math.sqrt(2.0 * math.pi))
        mu_cond = mu_b + slope * (a - mu_a)
        return density * ndtr((mu_cond - (theta - a)) / sd_cond)

    value, _ = integrate.quad(integrand, lo, up, epsabs=1e-9, epsrel=1e-10, limit=200)
    return float(min(max(value, 0.0), 1.0))


def normal_panels(psi: PsiMissing, n: int, grid: np.ndarray) -> np.ndarray:
    """Normal-approximation coverage over a grid with ``GL_PANELS``
    Gauss-Legendre panels per grid point; agrees with ``normal_quad`` to
    ~1e-12."""
    grid = np.asarray(grid, dtype=float)
    mu_a, mu_b, sd_a, slope, cond_var = _normal_moments(psi, n)
    lo = mu_a - TAIL_SIGMAS * sd_a
    upper_limits = np.minimum(grid, mu_a + TAIL_SIGMAS * sd_a)
    values = np.zeros_like(grid)
    active = upper_limits > lo
    if cond_var <= 0.0:
        values[active] = ndtr((upper_limits[active] - mu_a) / sd_a) - ndtr((lo - mu_a) / sd_a)
    elif active.any():
        sd_cond = math.sqrt(cond_var)
        width = upper_limits[active] - lo
        edges = lo + width[:, None] * np.linspace(0.0, 1.0, GL_PANELS + 1)[None, :]
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
        a = mid[:, :, None] + half[:, :, None] * GL_NODES[None, None, :]
        weights = half[:, :, None] * GL_WEIGHTS[None, None, :]
        z = (a - mu_a) / sd_a
        density = np.exp(-0.5 * z * z) / (sd_a * math.sqrt(2.0 * math.pi))
        mu_cond = mu_b + slope * (a - mu_a)
        survival = ndtr((mu_cond - (grid[active][:, None, None] - a)) / sd_cond)
        values[active] = (weights * density * survival).sum(axis=(1, 2))
    return np.clip(values, 0.0, 1.0)


def _owen_t(x: np.ndarray, num: np.ndarray, scale: float) -> np.ndarray:
    # Owen's T(x, num / (x * scale)); at x = 0 the second argument is
    # infinite with the sign of ``num``, so T(0, +-inf) = +-1/4
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(x == 0.0, np.copysign(np.inf, num), num / (x * scale))
    return owens_t(x, a)


def normal_owen(psi: PsiMissing, n: int, theta: np.ndarray) -> np.ndarray:
    """Normal-approximation coverage over theta by Owen's identity for the
    bivariate normal CDF, with the library's moments and zero-width branch."""
    theta = np.asarray(theta, dtype=float)
    var_a = psi.l11 * (1.0 - psi.l11) / n
    var_b = psi.l_plus0 * (1.0 - psi.l_plus0) / n
    cov = -psi.l11 * psi.l_plus0 / n
    cond_var = max(var_b - cov * cov / var_a, 0.0)
    sd_a = math.sqrt(var_a)
    h = (theta - psi.l11) / sd_a
    if cond_var <= 0.0:
        return ndtr(h)
    gain = 1.0 + cov / var_a
    sd_u = math.sqrt(gain * gain * var_a + cond_var)
    rho = gain * sd_a / sd_u
    sqrt_one_minus_rho2 = math.sqrt(cond_var) / sd_u
    k = (theta - psi.l11 - psi.l_plus0) / sd_u
    # Phi2(h, k; rho) = (Phi(h) + Phi(k)) / 2 - T(h, (k - rho h) / (h s))
    #   - T(k, (h - rho k) / (k s)) - beta, s = sqrt(1 - rho^2), beta = 1/2
    #   when h and k straddle zero
    beta = np.where((h * k < 0.0) | ((h * k == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    phi2 = (0.5 * (ndtr(h) + ndtr(k))
            - _owen_t(h, k - rho * h, sqrt_one_minus_rho2)
            - _owen_t(k, h - rho * k, sqrt_one_minus_rho2)
            - beta)
    return np.clip(ndtr(h) - phi2, 0.0, 1.0)


def numpy_stream(seed: int, b: int) -> np.random.Generator:
    """Replicate b's generator as numpy's SeedSequence spawns it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
