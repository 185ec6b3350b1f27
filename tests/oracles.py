"""Numerical oracles that check closed forms of the library.

``profile_oracle`` re-solves the constrained maximization behind
``minfer.profile_curve`` (``likelihood._profile_log_liks``) numerically
(a grid over the feasible slice of the simplex, zoomed around the
incumbent), independently of the closed form's three regimes.

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

``numpy_stream`` is numpy's own per-replicate stream,
``default_rng(SeedSequence(seed, spawn_key=(b,)))``: the oracle for the
library's batch draw (``minfer.sampling._replicate_counts``, which hashes
the seeds itself and steps every replicate's PCG64 at once), for the
counts it draws and for the generator state it hands on to a replicate.
``child_seed`` is numpy's 64-bit child seed of a master seed and a spawn
key, for tests that seed sub-studies with several keys.

``exact_missing_curve`` is the expectation of the missing-data bootstrap
curve, B = infinity: with L = c11/n and U = (c11 + c0)/n, both binomial
and L <= U, closed membership has probability P(L <= theta) - P(U <
theta). The floats k/n are compared with theta exactly as the estimator
compares them, and the pmfs come from numpy alone (``binomial_pmf``).
``exact_matched_curve`` is the same expectation for matched data, over
the (x, y) lattice of two independent binomials, with L and U the floats
``PsiMatched.plug_in`` forms. ``share_tolerance`` is five binomial
standard deviations of a share of B replicates around such an expectation.

``outer_tables`` enumerates the replicate tables of one outer draw with
their probabilities, from ``binomial_pmf``. ``exact_ml_region_assurance``
and ``exact_normal_sweep`` sum over them the quantities the double
bootstrap averages (B_outer = infinity): tau, L_bar and U_bar of the
plug-in region, and of the offset-h sets of each table's normal curve
(the library's own curve and ``corroborate._max_sets``). Tables below
``TABLE_CUT`` and tables whose normal curve is degenerate are not
scored; their mass is reported as ``unscored``, since a seeded estimate
may differ from the sums by at most that much beyond its Monte Carlo
error.

``SimTruth`` is a complete-data law, with the identifiable parameter and
theta that each setting observes of it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr, owens_t

from minfer import (DegenerateVariance, MissingTable, ObservedTable, PsiMatched, PsiMissing,
                    ThetaInterval, corroboration_normal_curve, ml_region, mle_psi)
from minfer.corroborate import _max_sets, _tie_epsilon

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
    oracle for ``likelihood._profile_log_liks``, independent of the branch formulas.

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


def child_seed(master_seed: int, *key: int) -> int:
    """First 64-bit word of numpy's ``SeedSequence(master_seed, spawn_key=key)``."""
    return int(np.random.SeedSequence(master_seed, spawn_key=key).generate_state(1, np.uint64)[0])


# pmf support kept either side of the mean: the mass cut is below 1e-300
PMF_SIGMAS = 40.0


def binomial_pmf(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Support k and pmf of binomial(n, p), truncated PMF_SIGMAS standard
    deviations (plus 40) either side of the mean: log pmf ratios summed
    outward from the mode, then normalized. Normalizing cancels the pmf's
    constant, which an lgamma anchor carries with ~1e-9 relative error at
    n = 1e6."""
    if p <= 0.0 or p >= 1.0:
        return np.array([0 if p <= 0.0 else n]), np.array([1.0])
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    lo = max(0, math.floor(mean - PMF_SIGMAS * (sd + 1.0)))
    hi = min(n, math.ceil(mean + PMF_SIGMAS * (sd + 1.0)))
    mode = min(n, math.floor((n + 1) * p))
    odds = p / (1.0 - p)
    up = np.arange(mode, hi, dtype=float)
    down = np.arange(mode, lo, -1, dtype=float)
    log_pmf = np.concatenate([
        np.cumsum(np.log(down / (n - down + 1.0) / odds))[::-1],
        [0.0],
        np.cumsum(np.log((n - up) / (up + 1.0) * odds)),
    ])
    pmf = np.exp(log_pmf)
    return np.arange(lo, hi + 1), pmf / pmf.sum()


def exact_missing_curve(psi: PsiMissing, n: int, grid) -> np.ndarray:
    """Exact expectation of the missing-data bootstrap curve at psi and
    size n on ``grid`` (see module docs)."""
    k_lower, p_lower = binomial_pmf(n, psi.l11)
    k_upper, p_upper = binomial_pmf(n, psi.l11 + psi.l_plus0)
    lower, upper = k_lower / n, k_upper / n
    return np.array([p_lower[lower <= theta].sum() - p_upper[upper < theta].sum()
                     for theta in np.asarray(grid, dtype=float)])


def exact_matched_curve(psi: PsiMatched, sizes: tuple[int, int], grid) -> np.ndarray:
    """Exact expectation of the matched-data bootstrap curve at psi and
    sizes (n1, n2) on ``grid`` (see module docs)."""
    (k_x, p_x), (k_y, p_y) = binomial_pmf(sizes[0], psi.l1p), binomial_pmf(sizes[1], psi.lp1)
    lower, upper = PsiMatched.plug_in((k_x[:, None], k_y[None, :]), sizes)
    prob = p_x[:, None] * p_y[None, :]
    # the difference of two sums of ~1e4 terms can stray out of [0, 1] by an ulp
    return np.clip([prob[lower <= theta].sum() - prob[upper < theta].sum()
                    for theta in np.asarray(grid, dtype=float)], 0.0, 1.0)


def share_tolerance(p: float, B: int) -> float:
    """Five standard deviations of the share of B independent replicates
    that hit an event of probability p."""
    return 5.0 * math.sqrt(p * (1.0 - p) / B)


@dataclass(frozen=True)
class SimTruth:
    """Complete-data cell probabilities (l11, l10, l01, l00): the first
    index is X, the second R (missing setting) or Y (matched setting)."""

    l11: float
    l10: float
    l01: float
    l00: float

    def psi_missing(self) -> PsiMissing:
        return PsiMissing(self.l11, self.l01, self.l10 + self.l00)

    def psi_matched(self) -> PsiMatched:
        return PsiMatched(self.l11 + self.l10, self.l11 + self.l01)

    def theta_missing(self) -> float:
        return self.l11 + self.l10

    def theta_matched(self) -> float:
        return self.l11


# outer tables less likely than this are left out of the exact assurance
TABLE_CUT = 1e-15


def outer_tables(psi, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The outer replicate tables at psi above ``TABLE_CUT``, one row of
    cells each (as ``from_cells`` takes them), and their probabilities:
    missing data c11, then c01 given c11; matched data nx and ny apart."""
    if isinstance(psi, PsiMissing):
        k11, p11 = binomial_pmf(sizes, psi.l11)
        share = psi.l01 / (psi.l01 + psi.l_plus0) if psi.l11 < 1.0 else 0.0
        tables = [((c11, c01, sizes - c11 - c01), p * q)
                  for c11, p in zip(k11.tolist(), p11.tolist())
                  for c01, q in zip(*(a.tolist() for a in binomial_pmf(sizes - c11, share)))]
    else:
        (k_x, p_x), (k_y, p_y) = (binomial_pmf(n, l) for n, l in zip(sizes, (psi.l1p, psi.lp1)))
        tables = [((x, y), p * q) for x, p in zip(k_x.tolist(), p_x.tolist())
                  for y, q in zip(k_y.tolist(), p_y.tolist())]
    kept = [(cells, prob) for cells, prob in tables if prob > TABLE_CUT]
    return np.array([cells for cells, _ in kept]), np.array([prob for _, prob in kept])


@dataclass(frozen=True)
class ExactAssurance:
    """tau, L_bar and U_bar summed over the scored outer tables, the
    standard deviations of one replicate's L_b and U_b, and the mass of
    the tables not scored."""

    tau: float
    L_bar: float
    U_bar: float
    sd_L: float
    sd_U: float
    unscored: float


def _exact_assurance(region: ThetaInterval, lower: np.ndarray, upper: np.ndarray,
                     probs: np.ndarray, unscored: float) -> ExactAssurance:
    # the estimator's indicator, with its strict middle inequality
    delta = (region.lower <= lower) & (lower < upper) & (upper <= region.upper)
    L_bar, U_bar = float(probs @ lower), float(probs @ upper)
    return ExactAssurance(
        tau=float(probs @ delta), L_bar=L_bar, U_bar=U_bar,
        sd_L=math.sqrt(max(float(probs @ lower**2) - L_bar**2, 0.0)),
        sd_U=math.sqrt(max(float(probs @ upper**2) - U_bar**2, 0.0)),
        unscored=unscored,
    )


def exact_ml_region_assurance(data: ObservedTable) -> ExactAssurance:
    """Exact assurance of the plug-in region (``assurance_of_ml_region``)."""
    cells, probs = outer_tables(mle_psi(data), data.sizes)
    lower, upper = data.psi_type.plug_in(cells.T, data.sizes)
    return _exact_assurance(ml_region(data), lower, upper, probs, float(1.0 - probs.sum()))


def exact_normal_sweep(data: MissingTable, hs, grid) -> list[ExactAssurance]:
    """Exact assurance of each offset h with the normal inner curve on
    ``grid`` (``assurance_sweep`` with ``inner_method="normal"``)."""
    psi, hs = mle_psi(data), np.asarray(hs, dtype=float)
    cells, probs = outer_tables(psi, data.n)
    lower, upper = np.zeros((2, len(hs), len(probs)))
    scored = np.ones(len(probs), dtype=bool)
    for t, table in enumerate(cells.tolist()):
        try:
            curve = corroboration_normal_curve(psi.from_cells(table, data.n), data.n, grid)
        except DegenerateVariance:
            scored[t] = False
        else:
            lower[:, t], upper[:, t] = _max_sets(curve.values, curve.grid, hs, _tie_epsilon(None))
    unscored = float(1.0 - probs[scored].sum())
    return [_exact_assurance(ml_region(data), lower[i, scored], upper[i, scored], probs[scored],
                             unscored) for i in range(len(hs))]
