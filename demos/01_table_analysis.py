#!/usr/bin/env python3
"""Walk through the basic analysis of an incomplete 2x2 table.

A clinical-trial-style dataset: 32 successes and 54 failures were
observed, and 24 outcomes are missing. What does the sample say about the
success probability theta without any assumption on why data are missing?
"""

import numpy as np

import minfer as m

# ---------------------------------------------------------------------------
# Validate the raw counts and estimate the identifiable parameter.
# ---------------------------------------------------------------------------
data = m.validate([32, 54, 24], "missing")
psi = m.mle_psi(data)
print(f"observed table: {data} (n = {data.n})")
print(f"estimated cell probabilities: l11 = {psi.l11:.4f}, "
      f"l01 = {psi.l01:.4f}, l_plus0 = {psi.l_plus0:.4f}")

# Without assumptions, theta is only interval-identified. The plug-in
# region collects every value attaining the maximal profile likelihood.
region = m.ml_region(data)
print(f"plug-in region for theta: [{region.lower:.4f}, {region.upper:.4f}]")
print(f"its width is exactly the nonresponse share: {region.width:.4f}")

# ---------------------------------------------------------------------------
# Profile likelihood vs the independence benchmark.
# ---------------------------------------------------------------------------
# The profile likelihood is flat across the whole region: inside it, the
# data cannot prefer one theta over another. The benchmark likelihood that
# assumes response is unrelated to outcome has a sharp peak instead, and
# it completely ignores how many observations are missing.
grid = np.linspace(0.01, 0.99, 197)
profile = m.profile_curve(data, grid)
benchmark = m.mcar_curve(data, grid)

flat = grid[(profile > 1.0 - 1e-9)]
print(f"\nprofile likelihood is maximal on [{flat.min():.3f}, {flat.max():.3f}]")
print(f"benchmark peak sits at theta = {grid[np.argmax(benchmark)]:.3f} "
      f"(= 32/86 = {32 / 86:.3f})")

for k in (4, 104):
    other = m.MissingTable(32, 54, k)
    same = np.array_equal(m.mcar_curve(other, grid), benchmark)
    print(f"benchmark log likelihood unchanged with {k} missing instead of 24: {same}")

# Relative plausibility of selected values against theta = 0.4: the ratio
# of the two points of a standardized profile curve.
print("\ntheta*   profile LR vs 0.4")
for theta in (0.2, 0.3, 0.4, 0.5, 0.6):
    at, ref = m.profile_curve(data, np.array([theta, 0.4]))
    print(f"{theta:5.2f}   {at / ref:8.3f}")

# ---------------------------------------------------------------------------
# Optional picture.
# ---------------------------------------------------------------------------
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(grid, profile, "--", label="profile likelihood")
    ax.plot(grid, benchmark, ":", label="independence benchmark")
    for edge in (region.lower, region.upper):
        ax.axvline(edge, color="grey", linestyle="--", linewidth=0.8)
    ax.set_xlabel("theta")
    ax.set_ylabel("standardized likelihood")
    ax.legend()
    fig.tight_layout()
    fig.savefig("table_analysis.png", dpi=120)
    print("\nwrote table_analysis.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
