"""Record the benchmark's goldens from the current code.

    python3 bench/record_goldens.py

Writes ``bench/goldens/cli.json`` (stdout and exit code of every CLI op
for every seed of the pool, run as ``python -m minfer.cli``) and
``bench/goldens/study.json`` (the library-study catalog and the outcome
of every op on every catalog table). Goldens are recorded once, from the
commit that defines the benchmark; later changes are judged against them.
"""

from __future__ import annotations

import json
import os

import numpy as np

import workloads as wl
from run import BENCH, cli_child, worker_child

CATALOG_SEED = 20181023
ENTRIES_PER_STRATUM = 16


def _missing(rng, n_lo, n_hi):
    n = int(rng.integers(n_lo, n_hi + 1))
    return [int(c) for c in rng.multinomial(n, rng.dirichlet([1.0, 1.0, 1.0]))]


def _missing_zero(rng):
    # a zero cell: n11 = 0 or n_plus0 = 0 make the normal approximation
    # degenerate, n01 = 0 takes its zero-conditional-variance branch
    counts = _missing(rng, 2, 5000)
    counts[int(rng.integers(3))] = 0
    if sum(counts) == 0:
        counts[1] = 1
    return counts


def _matched(rng, n_lo, n_hi):
    n1, n2 = (int(x) for x in rng.integers(n_lo, n_hi + 1, size=2))
    return [int(rng.integers(n1 + 1)), n1, int(rng.integers(n2 + 1)), n2]


def _matched_edge(rng):
    # a margin at 0 or at its sample size, or a sample of one
    nx, n1, ny, n2 = _matched(rng, 1, 5000)
    kind = int(rng.integers(3))
    if kind == 0:
        nx = int(rng.choice([0, n1]))
    elif kind == 1:
        ny = int(rng.choice([0, n2]))
    else:
        n1, nx = 1, int(rng.integers(2))
    return [nx, n1, ny, n2]


STRATA = {
    "missing_tiny": ("missing", lambda rng: _missing(rng, 1, 30)),
    "missing_mid": ("missing", lambda rng: _missing(rng, 100, 10_000)),
    "missing_large": ("missing", lambda rng: _missing(rng, 500_000, 1_500_000)),
    "missing_zero": ("missing", _missing_zero),
    "matched_tiny": ("matched", lambda rng: _matched(rng, 1, 30)),
    "matched_mid": ("matched", lambda rng: _matched(rng, 100, 10_000)),
    "matched_large": ("matched", lambda rng: _matched(rng, 500_000, 1_500_000)),
    "matched_edge": ("matched", _matched_edge),
}


def catalog() -> dict[str, list[dict]]:
    out = {}
    for s, (stratum, (setting, make)) in enumerate(sorted(STRATA.items())):
        entries = []
        for i in range(ENTRIES_PER_STRATUM):
            rng = np.random.default_rng([CATALOG_SEED, s, i])
            counts = make(rng)
            theta_star = round(float(rng.uniform()), 3)
            if i % 4 == 3 and setting == "missing":
                theta_star = counts[0] / sum(counts)  # on the region's lower end
            entries.append({
                "id": f"{stratum}/{i}",
                "setting": setting,
                "counts": counts,
                "theta_star": theta_star,
                "h": float(rng.choice([0.0, 0.01, 0.05, 0.2])),
                "alpha": float(rng.choice([0.05, 0.5, 0.9, 0.99])),
                "seed": int(rng.integers(2**31)),
            })
        out[stratum] = entries
    return out


def record_cli() -> dict:
    ops = {}
    for workload, defs in wl.CLI_OPS.items():
        for op_id, argv in defs:
            by_seed = {}
            for seed in range(wl.SEED_POOL):
                child = cli_child([*argv, "--seed", str(seed)])
                by_seed[str(seed)] = {"exit": child.code, "stdout": wl.cli_form(child.stdout)}
            ops[op_id] = {"workload": workload, "argv": argv, "by_seed": by_seed}
            print(f"recorded {op_id}", flush=True)
    return {"seed_pool": wl.SEED_POOL, "ops": ops}


def record_study() -> dict:
    cat = catalog()
    tables = [entry for stratum in sorted(cat) for entry in cat[stratum]]
    report = worker_child("study", False, {"tables": tables})
    goldens = {entry["id"]: outcomes for entry, outcomes in zip(tables, report["outcomes"])}
    return {"catalog_seed": CATALOG_SEED, "catalog": cat, "goldens": goldens}


def main() -> None:
    os.makedirs(os.path.join(BENCH, wl.GOLDEN_DIR), exist_ok=True)
    for name, record in (("study", record_study), ("cli", record_cli)):
        path = os.path.join(BENCH, wl.GOLDEN_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    main()
