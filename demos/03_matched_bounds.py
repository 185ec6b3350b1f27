#!/usr/bin/env python3
"""Statistical matching: two binary variables never observed together.

X is recorded in one survey of size n1, Y in an independent survey of
size n2, and the target is theta = Pr(X = 1, Y = 1). Only the margins are
estimable; theta is bracketed by the Frechet bounds. This script traces
the actual corroboration of theta across its range for two margin
configurations and checks the curves against their large-sample limits.
"""

import numpy as np

import minfer as m

CASES = [
    ("thin overlap", m.PsiMatched(0.1, 0.9), (1000, 500)),
    ("equal margins", m.PsiMatched(0.3, 0.3), (200, 300)),
]

for label, psi, sizes in CASES:
    region = m.theta_interval(psi)
    print(f"--- {label}: margins ({psi.l1p}, {psi.lp1}), samples {sizes}")
    print(f"    identification region: [{region.lower:.3f}, {region.upper:.3f}]")

    grid = np.arange(0, 201) * 0.005
    curve = m.corroboration_bootstrap(psi, sizes, grid, B=5000, master_seed=7)

    probes = {
        "lower bound": region.lower,
        "midpoint": round((region.lower + region.upper) / 2, 3),
        "upper bound": region.upper,
        "outside": min(region.upper + 0.2, 1.0),
    }
    for name, theta in probes.items():
        value = curve.value_at(theta) if theta in grid else np.interp(theta, grid, curve.values)
        limit = m.asymptotic_corroboration(psi, theta)
        limit_text = "undefined" if limit is None else f"{limit:.2f}"
        print(f"    {name:12s} theta = {theta:5.3f}: "
              f"corroboration {value:.3f} (large-sample limit {limit_text})")
    print()

# ---------------------------------------------------------------------------
# The limits depend on the margin configuration in a sharp way: with
# margins summing below one, the lower bound 0 is eventually always
# covered; with equal margins, the upper bound is covered only a quarter
# of the time, because both estimated margins must exceed it at once.
# ---------------------------------------------------------------------------
for n in (500, 5000, 50_000):
    psi = m.PsiMatched(0.3, 0.3)
    # an independent seed per study: numpy's 64-bit child seed of 3 and key n
    seed = int(np.random.SeedSequence(3, spawn_key=(n,)).generate_state(1, np.uint64)[0])
    curve = m.corroboration_bootstrap(psi, (n, n), np.array([0.3]), B=4000, master_seed=seed)
    print(f"equal margins, n1 = n2 = {n:6d}: corroboration at the upper bound "
          f"= {curve.values[0]:.3f} (limit 0.25)")
