#!/usr/bin/env python3
"""High-assurance estimation of the identification region.

A confidence region for the identification region shrinks toward it from
outside, so with high confidence it still contains refutable points. The
opposite strategy: report the set of values within a small offset h of
the maximal corroboration. Its assurance is the probability that all of
its points are genuinely inside the identification region; the set grows
toward the region from inside as data accumulate.

The double bootstrap below estimates, for several h, both the assurance
and the expected endpoints of the reported set.
"""

import minfer as m

data = m.validate([32, 54, 24], "missing")
region = m.ml_region(data)
print(f"plug-in region: [{region.lower:.4f}, {region.upper:.4f}]")

# ---------------------------------------------------------------------------
# Sweep the offset: longer sets come at the price of assurance.
# ---------------------------------------------------------------------------
reports = m.assurance_sweep(
    data,
    h_list=[0.01, 0.06, 0.20, 0.40, 0.80],
    B_outer=2000,
    inner_method="normal",
    master_seed=0,
    threads=2,
)
print("\n   h    assurance    expected set")
for r in reports:
    print(f"{r.h:5.2f}   {r.tau_hat:9.3f}    [{r.L_bar:.3f}, {r.U_bar:.3f}]")

# For comparison, using the plug-in region itself as the estimator gives
# much lower assurance at comparable length:
plugin = m.assurance_of_ml_region(data, B_outer=2000, master_seed=0)
print(f"\nplug-in region as estimator: assurance {plugin.tau_hat:.3f}, "
      f"expected [{plugin.L_bar:.3f}, {plugin.U_bar:.3f}]")

# ---------------------------------------------------------------------------
# Pick the longest set meeting an assurance floor.
# ---------------------------------------------------------------------------
chosen, report = m.select_h(
    data,
    tau_min=0.90,
    candidates=[0.01, 0.06, 0.20, 0.40, 0.80],
    B_outer=2000,
    inner_method="normal",
    master_seed=0,
    threads=2,
)
print(f"\nlargest offset with assurance >= 0.90: h = {chosen} "
      f"(assurance {report.tau_hat:.3f}, set [{report.L_bar:.3f}, {report.U_bar:.3f}])")

# A caveat worth knowing: at h = 0 a smooth inner curve has a single-point
# maximum set, and the coverage indicator requires a nondegenerate
# interval, so the reported assurance collapses to zero while the
# singleton tally makes the regime visible.
degenerate = m.assurance_sweep(
    data, [0.0], B_outer=300, inner_method="normal", master_seed=1, threads=2
)[0]
print(f"\nat h = 0: assurance {degenerate.tau_hat:.2f} with "
      f"{degenerate.singleton_count}/{degenerate.B_outer} single-point sets")
