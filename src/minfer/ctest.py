"""The corroboration test.

Null: theta_star lies strictly inside the identification region.
Alternative: theta_star lies outside it. Both hypotheses induce exactly
the same family of observed-data laws, so likelihood-ratio testing has no
traction; the test statistic is instead membership of theta_star in the
plug-in region: T = 1 strictly inside, T = 0 outside the closed region,
and a third "boundary" outcome when theta_star sits exactly on an
endpoint, where the rule is undefined. The null is rejected when T = 0,
and the result is reported with its observed power, one minus the
observed corroboration of theta_star.

No Type-I error rate is reported: the corroboration of theta_star is the
same under either hypothesis, so it can estimate only the Type-II side.

Every observed corroboration is read from one curve on the distinct
theta_stars (``corroborate.corroboration_curve``). A normal value may
differ from the one-point ``corroboration_normal`` in the last bit: Genz's
quadrature sums by a dot product there, by a matrix-vector product here.

The consistency check draws one replicate batch per schedule entry, after
checking every entry. Batch i is seeded with numpy's
``SeedSequence(master_seed, spawn_key=(i,)).generate_state(1,
np.uint64)[0]``; all of these seeds come from one batched hash
(``sampling._state_words``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .corroborate import bounds_batch_streams, corroboration_curve, corroboration_method
from .errors import (BoundaryTheta, _check_count, _check_replicates, _check_seed, _check_sizes,
                     _check_theta)
from .identify import ml_region, theta_interval
from .model import ObservedTable, Psi, mle_psi
from .sampling import _state_words

QUADRANT_HA = "support H_A"
QUADRANT_HB = "support H_B"
QUADRANT_NEITHER = "support neither, improbable event"
QUADRANT_INDETERMINATE = "indeterminate"

# split between "low" and "high" observed power for the quadrant label
POWER_SPLIT = 0.5


@dataclass(frozen=True)
class TestResult:
    """Outcome of one corroboration test."""

    theta_star: float
    T: Union[int, str]  # 1, 0, or "boundary"
    observed_corroboration: float
    observed_power: float
    decision: str  # "reject_HA" | "not_reject" | "indeterminate"
    quadrant: str


def corroboration_tests(
    data: ObservedTable,
    theta_stars: Sequence[float],
    method: str | None = None,
    B: int = 5000,
    master_seed: int = 0,
) -> list[TestResult]:
    """``corroboration_test`` of each theta_star, all read from one curve
    on the distinct theta_stars (see module docs); an empty list, once
    every argument is checked, gives no result."""
    _check_theta(theta_stars, "theta_star")
    _check_replicates(B, "B")
    _check_seed(master_seed)
    psi_hat = mle_psi(data)
    method = corroboration_method(psi_hat, method)
    if not theta_stars:
        return []
    region = ml_region(data)
    # the curve needs an increasing grid; theta_stars may come in any order
    grid, where = np.unique(np.asarray(theta_stars, dtype=float), return_inverse=True)
    curve = corroboration_curve(psi_hat, data.sizes, grid, method, B=B, master_seed=master_seed)
    corroborations = curve.values[where].tolist()

    results = []
    for theta_star, corroboration in zip(theta_stars, corroborations):
        power = 1.0 - corroboration
        T: Union[int, str]
        if region.strictly_inside(theta_star):
            T, decision = 1, "not_reject"
            quadrant = QUADRANT_HA if power <= POWER_SPLIT else QUADRANT_NEITHER
        elif not region.contains(theta_star):
            T, decision = 0, "reject_HA"
            quadrant = QUADRANT_HB if power > POWER_SPLIT else QUADRANT_NEITHER
        else:
            T, decision, quadrant = "boundary", "indeterminate", QUADRANT_INDETERMINATE
        results.append(TestResult(
            theta_star=theta_star,
            T=T,
            observed_corroboration=corroboration,
            observed_power=power,
            decision=decision,
            quadrant=quadrant,
        ))
    return results


def corroboration_test(
    data: ObservedTable,
    theta_star: float,
    method: str | None = None,
    B: int = 5000,
    master_seed: int = 0,
) -> TestResult:
    """Run the corroboration test of theta_star on the observed data.

    ``method`` picks the observed-corroboration estimator ("normal" or
    "bootstrap"); the default is normal for missing-data inputs and
    bootstrap for matched-data inputs.
    """
    return corroboration_tests(data, [theta_star], method=method, B=B, master_seed=master_seed)[0]


def chernoff_consistency_check(
    psi0: Psi,
    theta_star: float,
    n_schedule: Sequence[int],
    reps: int = 2000,
    master_seed: int = 0,
) -> list[tuple[int, float]]:
    """Empirical rejection rates of the test along a sample-size schedule.

    Simulates ``reps`` datasets at psi0 for each n and reports the share
    rejected (theta_star outside the closed replicate region). theta_star
    must be strictly interior or strictly exterior to the identification
    region at psi0; rates then drift to 0 or 1 respectively.
    """
    _check_theta(theta_star, "theta_star")
    reps = _check_replicates(reps, "reps")
    region0 = theta_interval(psi0)
    if theta_star == region0.lower or theta_star == region0.upper:
        raise BoundaryTheta(
            f"theta_star = {theta_star} sits exactly on an identification bound"
        )
    schedule = [_check_count(n, "n_schedule") for n in n_schedule]
    for n in schedule:
        _check_sizes(n, "n_schedule")
    seeds = _state_words(master_seed, np.arange(len(schedule), dtype=np.uint64))[:, 0]
    rates = []
    for n, seed in zip(schedule, seeds.tolist()):
        lo, up = bounds_batch_streams(psi0, psi0.sizes_for(n), reps, seed)
        rejected = ~((lo <= theta_star) & (theta_star <= up))
        rates.append((n, float(np.count_nonzero(rejected) / reps)))
    return rates
