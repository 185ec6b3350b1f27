"""Identification bounds for the parameter of interest.

Missing data: theta = Pr(X = 1) is bounded by [l11, l11 + l_plus0].
Matched data: theta = Pr(X = 1, Y = 1) obeys the Frechet bounds
[max(l1p + lp1 - 1, 0), min(l1p, lp1)].

Intervals are closed on both ends; interior membership is a separate
predicate because the closed region and its interior both matter in the
corroboration test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .model import ObservedTable, Psi


@dataclass(frozen=True)
class ThetaInterval:
    """Closed interval [lower, upper] within [0, 1]."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValidationError(
                f"invalid interval [{self.lower}, {self.upper}]: "
                "need 0 <= lower <= upper <= 1"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, theta: float) -> bool:
        """Closed membership: lower <= theta <= upper."""
        return self.lower <= theta <= self.upper

    def strictly_inside(self, theta: float) -> bool:
        """Interior membership: lower < theta < upper."""
        return self.lower < theta < self.upper


def theta_interval(psi: Psi) -> ThetaInterval:
    """Interval of theta values consistent with the identifiable parameter."""
    return ThetaInterval(*psi.bounds())


def ml_region(data: ObservedTable) -> ThetaInterval:
    """Plug-in interval at the MLE: the region of equally most likely theta.

    The bounds come from the table's integer counts: for missing data
    (n11/n, (n11 + n_plus0)/n), so each endpoint is the correctly rounded
    double of the exact rational value; for matched data the Frechet
    bounds of (nx/n1, ny/n2).
    """
    lower, upper = data.psi_type.plug_in(data.cells, data.sizes)
    return ThetaInterval(float(lower), float(upper))
