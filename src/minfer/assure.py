"""Assurance of relaxed maximum corroboration sets via double bootstrap.

The assurance of an estimated set is the probability that all of its
points are genuinely irrefutable, i.e. that the set lands entirely inside
the identification region. Confidence regions for the region contract
toward it from outside; a high-assurance set grows toward it from inside.

``assurance_sweep`` runs the double bootstrap once and evaluates every
requested offset h on the shared replicates:

1. draw replicate table b from the observed-data law at the MLE of
   ``data`` (one ``draw`` of the parameter type on the stream spawned
   from (master_seed, b)) and take its MLE;
2. compute the replicate's corroboration curve at its own MLE on the same
   theta grid (inner method: closed-form normal curve or nested bootstrap
   consuming the replicate's stream), and extract the interval of points
   within h of the curve maximum, [L_b, U_b]: the set
   ``max_corroboration_set`` gives on that curve. ``corroborate`` owns
   the rule, its threshold and its tie slack; the sweep calls it for all
   h at once;
3. set delta_b = 1 exactly when Lhat <= L_b < U_b <= Uhat, where
   [Lhat, Uhat] is the plug-in region of the observed data.

The grid must cover [Lhat, Uhat]; otherwise a set could end at a grid
edge that is no feature of the curve, and ``ValidationError`` is raised.
The report aggregates tau_hat = mean(delta_b), L_bar = mean(L_b), and
U_bar = mean(U_b). The middle inequality in step 3 is deliberately
strict, so a replicate whose offset-h set collapses to a single grid
point contributes delta_b = 0; such replicates are tallied in
``singleton_count`` because smooth inner curves at h = 0 produce them
every time and the tally is the honest signal of that regime.

Each outer replicate draws only from its own stream, so the report does
not depend on how replicates are scheduled. With a nested-bootstrap inner
curve (matched data, or ``inner_method="bootstrap"``) the replicates are
split into contiguous blocks, one per worker thread: min(``threads``,
B_outer, usable CPUs) of them. Their inner draws run in numpy code that
releases the GIL, so the blocks run in parallel. The normal inner curve
is many small numpy calls that hold the GIL, so there threads would only
add contention, and its replicates run in one block, where replicates
that draw the same table share one curve and its sets.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass
from typing import IO, Callable, Sequence

import numpy as np

from .corroborate import (
    _as_grid,
    _max_sets,
    _tie_epsilon,
    bounds_batch_from_rng,
    bounds_batch_streams,
    corroboration_method,
    corroboration_normal_curve,
    coverage_share,
    write_csv,
)
from .errors import DegenerateVariance, NoQualifyingH, ValidationError
from .identify import ThetaInterval, ml_region
from .model import ObservedTable, mle_psi
from .sampling import replicate_rngs

DEFAULT_INNER_B = 1000


@dataclass(frozen=True)
class AssuranceReport:
    """Double-bootstrap assurance estimate for one offset h.

    ``h is None`` marks the variant where the plug-in region itself plays
    the role of the estimated set (inner_method "ml_region").
    """

    h: float | None
    tau_hat: float
    L_bar: float
    U_bar: float
    B_outer: int
    inner_method: str  # "normal" | "bootstrap" | "ml_region"
    inner_B: int | None
    master_seed: int
    singleton_count: int
    fallback_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau_hat <= 1.0:
            raise ValidationError(f"tau_hat = {self.tau_hat} is not in [0, 1]")
        if not 0.0 <= self.L_bar <= self.U_bar <= 1.0:
            raise ValidationError(
                f"expected endpoints [{self.L_bar}, {self.U_bar}] are not ordered in [0, 1]"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def _report(region: ThetaInterval, lo: np.ndarray, up: np.ndarray, **fields) -> AssuranceReport:
    # delta_b = 1 exactly when Lhat <= L_b < U_b <= Uhat (see module docs)
    B_outer = lo.size
    delta = (region.lower <= lo) & (lo < up) & (up <= region.upper)
    return AssuranceReport(
        tau_hat=float(np.count_nonzero(delta) / B_outer),
        L_bar=float(np.sum(lo) / B_outer),
        U_bar=float(np.sum(up) / B_outer),
        B_outer=B_outer,
        singleton_count=int(np.count_nonzero(lo == up)),
        **fields,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blocks(B_outer: int, threads: int) -> list[range]:
    """Replicate indices 0..B_outer-1 in contiguous blocks, one per worker:
    min(threads, B_outer, usable CPUs) of them, sizes differing by at most 1."""
    workers = min(int(threads), B_outer, _usable_cpus())
    edges = [B_outer * w // workers for w in range(workers + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def _run_blocks(run_block: Callable[[range], None], blocks: list[range]) -> None:
    """``run_block`` on each block, one thread per block when there are
    several. A worker's exception is re-raised here; each block stops at
    its first, so the lowest failing block's is the one a serial run raises."""
    if len(blocks) == 1:
        run_block(blocks[0])
        return
    errors: list[BaseException | None] = [None] * len(blocks)

    def work(i: int) -> None:
        try:
            run_block(blocks[i])
        except BaseException as exc:
            errors[i] = exc

    workers = [threading.Thread(target=work, args=(i,)) for i in range(len(blocks))]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for exc in errors:
        if exc is not None:
            raise exc


def assurance_sweep(
    data: ObservedTable,
    h_list: Sequence[float],
    B_outer: int = 5000,
    inner_method: str | None = None,
    inner_B: int = DEFAULT_INNER_B,
    master_seed: int = 0,
    grid: np.ndarray | None = None,
    threads: int = 1,
) -> list[AssuranceReport]:
    """Assurance reports for several offsets h from one shared outer
    bootstrap (common random numbers across the h values). ``threads``
    caps the worker threads of a nested-bootstrap inner curve (see module
    docs); the reports do not depend on it."""
    hs = [float(h) for h in h_list]
    if not hs:
        raise ValidationError("h_list must be nonempty")
    for h in hs:
        if not 0.0 <= h < 1.0:
            raise ValidationError(f"offset h = {h} must lie in [0, 1)")
    if B_outer < 1:
        raise ValidationError(f"B_outer = {B_outer} must be at least 1")
    if threads < 1:
        raise ValidationError(f"thread count {threads} must be at least 1")
    psi_hat = mle_psi(data)
    inner_method = corroboration_method(psi_hat, inner_method)
    if inner_B < 1:
        raise ValidationError(f"inner_B = {inner_B} must be at least 1")
    grid = _as_grid(grid)
    sizes = data.sizes
    region_hat = ml_region(data)
    if grid[0] > region_hat.lower or grid[-1] < region_hat.upper:
        raise ValidationError(
            f"grid [{grid[0]}, {grid[-1]}] does not cover the plug-in region "
            f"[{region_hat.lower}, {region_hat.upper}]"
        )

    lower = np.empty((len(hs), B_outer))
    upper = np.empty((len(hs), B_outer))
    fallbacks = np.zeros(B_outer, dtype=bool)
    h_arr = np.asarray(hs)

    def run_block(block: range) -> None:
        # a normal inner curve depends on the replicate's counts alone, so each
        # distinct table's sets are computed once; a bootstrap inner curve, and
        # a DegenerateVariance fallback to one, draws from the replicate's stream
        normal_sets: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        for b, rng in zip(block, replicate_rngs(master_seed, len(block), block.start)):
            cells = psi_hat.draw(rng, sizes)
            if inner_method == "normal":
                key = tuple(int(c) for c in cells)
                if key in normal_sets:
                    lower[:, b], upper[:, b] = normal_sets[key]
                    continue
            psi_b = psi_hat.from_cells(cells, sizes)
            values, curve_B = None, None
            if inner_method == "normal":
                try:
                    values = corroboration_normal_curve(psi_b, sizes, grid).values
                except DegenerateVariance:
                    fallbacks[b] = True
            if values is None:
                lo_b, up_b = bounds_batch_from_rng(psi_b, sizes, inner_B, rng)
                values, curve_B = coverage_share(lo_b, up_b, grid), inner_B
            sets = _max_sets(values, grid, h_arr, _tie_epsilon(curve_B))
            lower[:, b], upper[:, b] = sets
            if curve_B is None:
                normal_sets[key] = sets

    # nested-bootstrap draws release the GIL; the normal curve's small numpy
    # calls hold it, so that path stays one block
    _run_blocks(run_block, _blocks(B_outer, threads if inner_method == "bootstrap" else 1))

    return [
        _report(
            region_hat, lower[i], upper[i],
            h=h,
            inner_method=inner_method,
            inner_B=inner_B if inner_method == "bootstrap" or fallbacks.any() else None,
            master_seed=master_seed,
            fallback_count=int(np.count_nonzero(fallbacks)),
        )
        for i, h in enumerate(hs)
    ]


def assurance_of_ml_region(
    data: ObservedTable,
    B_outer: int = 5000,
    master_seed: int = 0,
) -> AssuranceReport:
    """Assurance of the plug-in region itself: each replicate's set is its
    own plug-in region, no inner curve involved."""
    if B_outer < 1:
        raise ValidationError(f"B_outer = {B_outer} must be at least 1")
    region_hat = ml_region(data)
    lo, up = bounds_batch_streams(mle_psi(data), data.sizes, B_outer, master_seed)
    return _report(
        region_hat, lo, up,
        h=None, inner_method="ml_region", inner_B=None, master_seed=master_seed, fallback_count=0,
    )


def select_h(
    data: ObservedTable,
    tau_min: float,
    candidates: Sequence[float],
    **sweep_kwargs,
) -> tuple[float, AssuranceReport]:
    """Largest candidate offset whose assurance still reaches tau_min.

    Candidates must be sorted ascending. Raises NoQualifyingH when even
    the smallest offset falls short.
    """
    cands = [float(h) for h in candidates]
    if not cands:
        raise ValidationError("candidate list must be nonempty")
    if any(a > b for a, b in zip(cands, cands[1:])):
        raise ValidationError("candidates must be sorted ascending")
    reports = assurance_sweep(data, cands, **sweep_kwargs)
    for report in reversed(reports):
        if report.tau_hat >= tau_min:
            return report.h, report  # type: ignore[return-value]
    raise NoQualifyingH(
        f"no candidate h reaches assurance {tau_min}; "
        f"best is {max(r.tau_hat for r in reports):.4f}"
    )


def reports_to_csv(reports: Sequence[AssuranceReport], destination: str | os.PathLike | IO[str]) -> None:
    """Write ``h,tau,L_bar,U_bar`` rows with 6 decimal places."""
    write_csv(destination, ("h", "tau", "L_bar", "U_bar"),
              ((r.h, r.tau_hat, r.L_bar, r.U_bar) for r in reports))
