"""Seeded random generation of observed and complete tables.

Every Monte Carlo routine in this package draws replicate b from a
dedicated stream derived from (master_seed, b) by numpy's SeedSequence
spawn-key mechanism. Streams with distinct keys are statistically
independent, identical keys reproduce identical draws, and results never
depend on execution order, so parallel scheduling cannot change output.

The counts of a replicate table come from one routine per setting,
``draw`` on the parameter type (see ``model``); ``draw_observed`` wraps
one such draw on a replicate's stream into a validated table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import SIMPLEX_TOL, ObservedTable, Psi, PsiMatched, PsiMissing


@dataclass(frozen=True)
class SimTruth:
    """Complete-data cell probabilities (l11, l10, l01, l00) on the simplex.

    The first index is X, the second is R (missing setting) or Y (matched
    setting).
    """

    l11: float
    l10: float
    l01: float
    l00: float

    def __post_init__(self) -> None:
        probs = (self.l11, self.l10, self.l01, self.l00)
        if any(p < 0.0 or p > 1.0 for p in probs):
            raise ValidationError(f"cell probabilities {probs} must lie in [0, 1]")
        if abs(sum(probs) - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"cell probabilities sum to {sum(probs)}, not 1")

    def psi_missing(self) -> PsiMissing:
        """Identifiable parameter when the second variable is response."""
        return PsiMissing(self.l11, self.l01, self.l10 + self.l00)

    def psi_matched(self) -> PsiMatched:
        """Identifiable margins when only margins are observed."""
        return PsiMatched(self.l11 + self.l10, self.l11 + self.l01)

    def theta_missing(self) -> float:
        return self.l11 + self.l10

    def theta_matched(self) -> float:
        return self.l11


@dataclass(frozen=True)
class ReplicateStream:
    """Independent, reproducible random stream for one replicate."""

    master_seed: int
    replicate_index: int

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.replicate_index,))
        return np.random.default_rng(seq)


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed for nested Monte Carlo layers."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def draw_observed(psi: Psi, sizes: int | tuple[int, int], stream: ReplicateStream) -> ObservedTable:
    """One draw from the observed-data law at psi.

    ``sizes`` is the total n for a missing-data psi, or (n1, n2) for a
    matched-data psi.
    """
    if min(np.atleast_1d(sizes)) < 1:
        raise ValidationError(f"sample sizes {sizes} must be at least 1")
    return psi.table(psi.draw(stream.rng(), sizes), sizes)


def draw_complete(truth: SimTruth, n: int, stream: ReplicateStream) -> tuple[int, int, int, int]:
    """One complete-table draw (n11, n10, n01, n00) of size n from the
    four-cell law."""
    if n < 1:
        raise ValidationError(f"sample size n = {n} must be at least 1")
    p = np.clip([truth.l11, truth.l10, truth.l01, truth.l00], 0.0, 1.0)
    counts = stream.rng().multinomial(n, p / p.sum())
    return tuple(int(c) for c in counts)  # type: ignore[return-value]
