"""Workload definitions, the library-study op sequence, and golden outcomes.

Every op's output is reduced to a *golden form* before it is compared:

* CLI stdout that parses as JSON is kept as parsed JSON;
* CSV stdout keeps its header, its row count and one digest per column;
* a library result is turned into JSON-like data field by field, floats
  formatted with 6 decimals as the CLI prints them, arrays as a digest of
  their 6-decimal text;
* an op that raises keeps only the exception type name.

``covers(golden, new)`` accepts a new outcome when every golden field,
list entry and CSV column is present and equal, so an output that only
adds a field or a column still matches, while any changed number fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

GOLDEN_DIR = "goldens"

# the minfer --seed of a CLI op is drawn from this pool, so that goldens
# exist for every benchmark seed
SEED_POOL = 16

MISSING = ("--setting", "missing", "--counts", "32,54,24")
MATCHED = ("--setting", "matched", "--counts", "30,100,40,120")

ASSURE_MISSING_B_OUTER = 300
ASSURE_MATCHED_B_OUTER = 3000

# op id -> argv of ``python -m minfer.cli`` (``--seed`` is appended per run)
CLI_OPS: dict[str, list[tuple[str, list[str]]]] = {
    "cli_short": [
        ("analyze_missing", ["analyze", *MISSING]),
        ("analyze_matched", ["analyze", *MATCHED]),
        ("curve_normal", ["curve", *MISSING, "--method", "normal"]),
        ("curve_matched", ["curve", *MATCHED]),
        ("levelset_h", ["levelset", *MISSING, "--method", "normal", "--h", "0.01"]),
        ("test_normal", ["test", *MISSING, "--theta-star", "0.2,0.3,0.5,0.6",
                         "--method", "normal"]),
        ("test_bootstrap", ["test", *MISSING, "--theta-star", "0.2,0.3,0.5,0.6",
                            "--method", "bootstrap"]),
        ("simulate_readme", ["simulate", "--setting", "matched", "--psi", "0.3,0.3",
                             "--sizes", "200,300", "--reps", "5000", "--grid", "0:1:0.005"]),
        ("assure_ml_region", ["assure", *MISSING, "--ml-region"]),
    ],
    "assure_missing": [
        ("assure_missing", ["assure", *MISSING, "--h", "0,0.01,0.06,0.4,0.8",
                            "--B-outer", str(ASSURE_MISSING_B_OUTER), "--threads", "2"]),
    ],
    "assure_matched": [
        ("assure_matched", ["assure", *MATCHED, "--h", "0,0.01,0.06,0.4",
                            "--B-outer", str(ASSURE_MATCHED_B_OUTER), "--threads", "2"]),
    ],
}

WORKLOADS = ("cli_short", "assure_missing", "assure_matched", "library_study")

# replicate counts, recorded with every result
REPLICATES = {
    "cli_short": {"curve_B": 5000, "test_B": 5000, "simulate_reps": 5000,
                  "ml_region_B_outer": 5000},
    "assure_missing": {"B_outer": ASSURE_MISSING_B_OUTER, "inner": "normal"},
    "assure_matched": {"B_outer": ASSURE_MATCHED_B_OUTER, "inner_B": 1000},
    "library_study": {"bootstrap_B": 500, "test_B": 500, "tables_per_stratum": 8},
}

STUDY_B = REPLICATES["library_study"]["bootstrap_B"]
STUDY_TEST_B = REPLICATES["library_study"]["test_B"]
TABLES_PER_STRATUM = REPLICATES["library_study"]["tables_per_stratum"]


def op_seed(seed: int) -> int:
    return seed % SEED_POOL


def cli_ops(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's CLI ops with the run's ``--seed`` appended."""
    s = str(op_seed(seed))
    return [(op_id, [*argv, "--seed", s]) for op_id, argv in CLI_OPS[workload]]


def single_threaded(argv: list[str]) -> list[str]:
    """argv with any ``--threads`` value replaced by 1 (the traced run)."""
    out = list(argv)
    for i, arg in enumerate(out[:-1]):
        if arg == "--threads":
            out[i + 1] = "1"
    return out


def study_tables(catalog: dict, seed: int) -> list[dict]:
    """Tables of one library-study run: TABLES_PER_STRATUM catalog entries
    per stratum, chosen and ordered by ``seed``."""
    rng = random.Random(seed)
    tables = []
    for stratum in sorted(catalog):
        entries = catalog[stratum]
        tables += [entries[i] for i in rng.sample(range(len(entries)), TABLES_PER_STRATUM)]
    rng.shuffle(tables)
    return tables


# ------------------------------------------------------------ golden forms

def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def cli_form(stdout: str) -> dict:
    try:
        return {"json": json.loads(stdout)}
    except json.JSONDecodeError:
        pass
    lines = stdout.splitlines()
    if lines and "," in lines[0]:
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        columns = {
            name: digest(row[i] if i < len(row) else "" for row in rows)
            for i, name in enumerate(header)
        }
        return {"csv": {"header": header, "rows": len(rows), "columns": columns}}
    return {"text": digest(lines)}


def cli_covers(golden: dict, stdout: str) -> bool:
    new = cli_form(stdout)
    if "csv" in golden and "csv" in new:
        g, n = golden["csv"], new["csv"]
        return g["rows"] == n["rows"] and all(
            n["columns"].get(name) == value for name, value in g["columns"].items()
        )
    return covers(golden, new)


def library_form(value):
    """JSON-like golden form of a library result."""
    # imported here so that the benchmark's parent process, which never
    # calls this, stays small (see run.run_child)
    import numpy as np

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: library_form(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6f}"
    if isinstance(value, np.ndarray):
        return {"array": list(value.shape), "digest": digest(f"{v:.6f}" for v in value.ravel())}
    if isinstance(value, (list, tuple)):
        return [library_form(v) for v in value]
    if isinstance(value, dict):
        return {str(k): library_form(v) for k, v in value.items()}
    return {"repr": repr(value)}


def covers(golden, new) -> bool:
    """Every golden field is present in ``new`` with an equal value."""
    if isinstance(golden, dict):
        return isinstance(new, dict) and all(
            key in new and covers(value, new[key]) for key, value in golden.items()
        )
    if isinstance(golden, list):
        return (isinstance(new, list) and len(new) == len(golden)
                and all(covers(g, n) for g, n in zip(golden, new)))
    return golden == new and isinstance(golden, bool) == isinstance(new, bool)


# ------------------------------------------------------ library-study ops

def run_table(m, entry: dict, grid, call) -> None:
    """The library-study op sequence on one catalog table.

    ``m`` is the ``minfer`` package; ``call(op, fn, *args, **kwargs)`` runs
    one op and returns ``(ok, result)``. Functions are looked up on the
    package at call time, so a traced run sees its wrappers.
    """
    ok, data = call("validate", m.validate, entry["counts"], entry["setting"])
    if not ok:
        return
    ok, psi = call("mle_psi", m.mle_psi, data)
    call("ml_region", m.ml_region, data)
    if not ok:
        return
    missing = entry["setting"] == "missing"
    sizes = data.n if missing else (data.n1, data.n2)
    curves = []
    if missing:
        call("profile_curve", m.profile_curve, data, grid)
        call("mcar_curve", m.mcar_curve, data, grid)
        curves.append(("normal", *call("corroboration_normal_curve",
                                       m.corroboration_normal_curve, psi, data.n, grid)))
    curves.append(("bootstrap", *call("corroboration_bootstrap", m.corroboration_bootstrap,
                                      psi, sizes, grid, B=STUDY_B, master_seed=entry["seed"])))
    for tag, ok, curve in curves:
        if ok:
            call(f"max_corroboration_set.{tag}", m.max_corroboration_set, curve, entry["h"])
            call(f"level_set.{tag}", m.level_set, curve, entry["alpha"])
    call("corroboration_test", m.corroboration_test, data, entry["theta_star"],
         B=STUDY_TEST_B, master_seed=entry["seed"])
