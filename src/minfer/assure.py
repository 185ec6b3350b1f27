"""Assurance of relaxed maximum corroboration sets via double bootstrap.

The assurance of an estimated set is the probability that all of its
points are genuinely irrefutable, i.e. that the set lands entirely inside
the identification region. Confidence regions for the region contract
toward it from outside; a high-assurance set grows toward it from inside.

``assurance_sweep`` runs the double bootstrap once and evaluates every
requested offset h on the shared replicates:

1. draw the B_outer replicate tables from the observed-data law at the
   MLE of ``data`` in one batch (``sampling._replicate_counts``: table b
   is one ``draw`` of the parameter type on the stream spawned from
   (master_seed, b)) and take each one's MLE;
2. compute each replicate's corroboration curve at its own MLE on the
   same theta grid (inner method: closed-form normal curve or nested
   bootstrap going on from the replicate's stream), and extract the
   interval of points within h of the curve maximum, [L_b, U_b]: the set
   ``max_corroboration_set`` gives on that curve. ``corroborate`` owns
   the rule, its threshold and its tie slack; the sweep calls it for all
   h at once;
3. set delta_b = 1 exactly when Lhat <= L_b < U_b <= Uhat, where
   [Lhat, Uhat] is the plug-in region of the observed data.

The grid must be strictly increasing within [0, 1], as every curve's
grid (checked before any replicate is drawn, whatever the inner method),
and must cover [Lhat, Uhat]; otherwise a set could end at a grid edge
that is no feature of the curve, and ``ValidationError`` is raised.
The report aggregates tau_hat = mean(delta_b), L_bar = mean(L_b), and
U_bar = mean(U_b). The middle inequality in step 3 is deliberately
strict, so a replicate whose offset-h set collapses to a single grid
point contributes delta_b = 0; such replicates are tallied in
``singleton_count`` because smooth inner curves at h = 0 produce them
every time and the tally is the honest signal of that regime.

Each outer replicate draws only from its own stream, so the report does
not depend on how replicates are scheduled. The batch is drawn in the
calling process, before any fork. With the normal inner curve, each
distinct table's curve and sets are computed once and scattered to every
replicate that drew it; a table whose curve raises ``DegenerateVariance``
sends each of its replicates to a nested bootstrap (``fallback_count``).
With a nested-bootstrap inner curve (matched data, or
``inner_method="bootstrap"``) every replicate runs one, going on from its
stream: its outer draw is replayed (``sampling._replayed``). The
replicates that run one are split into contiguous blocks, min(``threads``,
their number, usable CPUs) of them, and each block after the first runs
in a forked worker process while the calling process runs the first; no
such replicate, no fork. The blocks write their own columns of arrays on
shared anonymous memory, so nothing is sent back; a worker that fails
has its block rerun in the calling process, which raises what a serial
run raises. Where ``os.fork`` does not exist the blocks run one after
another.
"""

from __future__ import annotations

import mmap
import os
import warnings
from dataclasses import dataclass
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
from .errors import (DegenerateVariance, NoQualifyingH, ValidationError, _check_count,
                     _check_grid, _check_number, _check_offset, _check_probability,
                     _check_replicates, _check_seed, _invalid)
from .identify import ThetaInterval, ml_region
from .model import ObservedTable, mle_psi
from .sampling import _replayed, _replicate_counts, _state_words

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
        if self.inner_method not in ("normal", "bootstrap", "ml_region"):
            raise _invalid(ValidationError, "inner_method", repr(self.inner_method),
                           "must be normal, bootstrap or ml_region")
        if (self.h is None) != (self.inner_method == "ml_region"):
            raise _invalid(ValidationError, "h", repr(self.h),
                           "must be None exactly when inner_method is ml_region")
        if self.h is not None:
            _check_offset(self.h)
        for name in ("tau_hat", "L_bar", "U_bar"):
            _check_probability(getattr(self, name), name)
        if self.L_bar > self.U_bar:
            raise _invalid(ValidationError, "L_bar", self.L_bar,
                           f"must be at most U_bar = {self.U_bar}")
        B_outer = _check_replicates(self.B_outer, "B_outer")
        if self.inner_B is not None:
            _check_replicates(self.inner_B, "inner_B")
        _check_seed(self.master_seed)
        for name in ("singleton_count", "fallback_count"):
            if _check_count(getattr(self, name), name, least=0) > B_outer:
                raise _invalid(ValidationError, name, getattr(self, name),
                               f"must be at most B_outer = {B_outer}")


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


def _blocks(replicates: np.ndarray, threads: int) -> list[np.ndarray]:
    """``replicates`` in contiguous blocks, one per worker: min(threads,
    replicates, usable CPUs) of them, sizes differing by at most 1; one
    block where there is no replicate or the process cannot fork."""
    workers = min(int(threads), replicates.size, _usable_cpus()) if hasattr(os, "fork") else 1
    return np.array_split(replicates, max(workers, 1))


def _shared(shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """A zeroed array on anonymous shared memory, so that a forked
    worker's writes reach this process."""
    buffer = mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
    return np.frombuffer(buffer, dtype).reshape(shape)


def _fork_block(run_block: Callable[[np.ndarray], None], block: np.ndarray) -> int:
    """Pid of a forked worker that runs ``run_block(block)`` and exits 0,
    or 1 on any exception, without returning into the caller's frames,
    flushing inherited stdio buffers or printing."""
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork while another thread exists, and
        # numpy's OpenBLAS pool is one; unfiltered, a caller that shows
        # warnings would see one per sweep. The worker touches only its own
        # generators and the shared arrays before os._exit; glibc's and
        # OpenBLAS's atfork handlers keep malloc and the BLAS pool
        # consistent; bench/worker.py forks from the same imported state.
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        run_block(block)
        code = 0
    finally:
        os._exit(code)


def _run_blocks(run_block: Callable[[np.ndarray], None], blocks: list[np.ndarray]) -> None:
    """``run_block`` on each block: the first in this process, each other
    in a forked worker, all reaped before this returns or raises. A block
    whose worker fails is rerun here; blocks are deterministic, so the
    lowest failing block raises what a serial run raises."""
    workers: dict[int, np.ndarray] = {}
    failed: list[np.ndarray] = []
    try:
        for block in blocks[1:]:
            try:
                workers[_fork_block(run_block, block)] = block
            except OSError:  # no process to spare: the block runs here
                failed.append(block)
        run_block(blocks[0])
        for pid, block in list(workers.items()):
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            if status:
                failed.append(block)
    finally:
        if workers:  # raised before they were reaped: none may outlive the call
            # imported only here, since signal's import adds ~0.1 MB to
            # every process that loads minfer
            import signal

            for pid in workers:
                os.kill(pid, signal.SIGKILL)
            for pid in workers:
                os.waitpid(pid, 0)
    for block in sorted(failed, key=lambda block: block[0]):
        run_block(block)


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
    caps the worker processes of the replicates that run a nested
    bootstrap (see module docs); the reports do not depend on it."""
    hs = [_check_offset(h) for h in h_list]
    if not hs:
        raise ValidationError("h_list must be nonempty")
    B_outer = _check_replicates(B_outer, "B_outer")
    threads = _check_count(threads, "threads")
    psi_hat = mle_psi(data)
    inner_method = corroboration_method(psi_hat, inner_method)
    inner_B = _check_replicates(inner_B, "inner_B")
    grid = _as_grid(grid)
    _check_grid(grid)
    sizes = data.sizes
    region_hat = ml_region(data)
    if grid[0] > region_hat.lower or grid[-1] < region_hat.upper:
        raise ValidationError(
            f"grid [{grid[0]}, {grid[-1]}] does not cover the plug-in region "
            f"[{region_hat.lower}, {region_hat.upper}]"
        )

    counts = _replicate_counts(psi_hat, sizes, B_outer, master_seed)
    # forked blocks write their own columns of these two
    lower = _shared((len(hs), B_outer), np.float64)
    upper = _shared((len(hs), B_outer), np.float64)
    h_arr = np.asarray(hs)

    def run_block(block: np.ndarray) -> None:
        # a nested-bootstrap curve goes on drawing from each replicate's
        # stream, after its outer draw is replayed (see module docs)
        for b, words in zip(block.tolist(), _state_words(master_seed, block.astype(np.uint64))):
            rng = _replayed(psi_hat, sizes, words)[1]
            psi_b = psi_hat.from_cells(counts[:, b].tolist(), sizes)
            lo_b, up_b = bounds_batch_from_rng(psi_b, sizes, inner_B, rng)
            lower[:, b], upper[:, b] = _max_sets(coverage_share(lo_b, up_b, grid), grid, h_arr,
                                                 _tie_epsilon(inner_B))

    # the replicates whose inner curve is a nested bootstrap
    nested = np.ones(B_outer, dtype=bool)
    if inner_method == "normal":
        # a normal curve depends on the table alone: one per distinct table,
        # its sets scattered to every replicate that drew it
        tables, inverse = np.unique(counts, axis=1, return_inverse=True)
        sets = np.zeros((tables.shape[1], 2, len(hs)))
        degenerate = np.zeros(tables.shape[1], dtype=bool)
        for t, table in enumerate(tables.T.tolist()):
            try:
                curve = corroboration_normal_curve(psi_hat.from_cells(table, sizes), sizes, grid)
            except DegenerateVariance:
                degenerate[t] = True
            else:
                sets[t] = _max_sets(curve.values, grid, h_arr, _tie_epsilon(None))
        lower[:], upper[:] = sets[inverse].transpose(1, 2, 0)
        nested = degenerate[inverse]
    _run_blocks(run_block, _blocks(np.flatnonzero(nested), threads))
    fallbacks = int(np.count_nonzero(nested)) if inner_method == "normal" else 0

    return [
        _report(
            region_hat, lower[i], upper[i],
            h=h,
            inner_method=inner_method,
            inner_B=inner_B if inner_method == "bootstrap" or fallbacks else None,
            master_seed=master_seed,
            fallback_count=fallbacks,
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
    B_outer = _check_replicates(B_outer, "B_outer")
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
    the smallest offset falls short; a tau_min outside [0, 1] is a
    ValidationError before any replicate is drawn.
    """
    _check_probability(tau_min, "tau_min")
    cands = [_check_number(h, "candidates") for h in candidates]
    if not cands:
        raise _invalid(ValidationError, "candidates", None, "must be nonempty")
    if any(a > b for a, b in zip(cands, cands[1:])):
        raise _invalid(ValidationError, "candidates", cands, "must be sorted ascending")
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
