"""Command-line surface.

Subcommands:

* ``analyze``  — MLE, plug-in region, and likelihood summaries for one table;
                 it draws nothing, so it accepts ``--seed`` and ignores it.
* ``curve``    — corroboration curve CSV (plus standardized profile and
                 independence-benchmark likelihood columns for missing data).
* ``levelset`` — one corroboration level set (by level alpha or offset h).
* ``assure``   — double-bootstrap assurance of offset-h sets.
* ``test``     — corroboration test of one or more theta values.
* ``simulate`` — actual-corroboration curve CSV at a hypothesized psi.

Each subcommand computes one result, and one writer puts it on stdout or
in the ``--out`` file: a CSV table, every field with 6 decimals, or else
JSON, every float rounded to 6 decimal places. Reruns with identical
arguments and seed produce byte-identical output. Exit codes: 0 success,
1 invalid input, 2 numeric failure. Values from a ``--config`` JSON file
are parsed as if given as flags before the command line's own, so they
pass the same checks and explicit flags win. An error names the flag.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict, astuple, fields, is_dataclass
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from . import assure as assure_mod
from . import corroborate as corr
from . import ctest, likelihood
from .errors import EmptyLevelSet, MinferError, NoQualifyingH, ValidationError, _check_count
from .identify import ml_region
from .model import SETTINGS, MissingTable, ObservedTable, mle_psi, validate

GRID = "0:1:0.001"
# the most points a --grid may have, checked before the grid is built
GRID_MAX_POINTS = 10**7

# the flag that sets each library parameter a check names ((subcommand, name) first)
_FLAGS = {
    "B": "--B", ("simulate", "B"): "--reps", "B_outer": "--B-outer", "inner_B": "--inner-B",
    "master_seed": "--seed", "threads": "--threads", "grid": "--grid", "alpha": "--alpha",
    "h": "--h", "candidates": "--h", "tau_min": "--tau-min", "theta_star": "--theta-star",
    "sizes": "--sizes", "counts": "--counts", "psi": "--psi",
    **{f.name: "--psi" for table in SETTINGS.values() for f in fields(table.psi_type)},
    **{f.name: "--counts" for table in SETTINGS.values() for f in fields(table)},
}


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; route them through the
    # package's validation path (exit 1) instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated numbers, got {text!r}")


def parse_grid(spec: str) -> np.ndarray:
    """Parse a ``start:stop:step`` grid specification (inclusive ends)."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--grid expects numeric start:stop:step, got {spec!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValidationError(f"--grid expects finite start:stop:step, got {spec!r}")
    if step <= 0.0:
        raise ValidationError(f"--grid step must be positive, got {step}")
    if stop < start:
        raise ValidationError(f"--grid stop {stop} is below start {start}")
    # the grid has floor(span) + 1 points; an infinite span fails the cap too
    span = (stop - start) / step + 0.5
    if not span < GRID_MAX_POINTS:
        raise ValidationError(f"--grid expects at most {GRID_MAX_POINTS} points, got {spec!r}")
    count = int(np.floor(span)) + 1
    grid = start + step * np.arange(count)
    if abs(grid[-1] - stop) < step * 1e-6:
        grid[-1] = stop
    return grid


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    return config


def _config_tokens(args: argparse.Namespace, config: dict) -> list[str]:
    # one flag per config key that the subcommand knows, a warning for
    # others: true is a bare switch, a list becomes a comma list
    tokens = []
    for key, value in config.items():
        attr = key.replace("-", "_")
        if attr in ("config", "func", "command") or not hasattr(args, attr):
            print(f"minfer: warning: config key {key!r} is not an option of "
                  f"{args.command}; ignored", file=sys.stderr)
            continue
        if value is None or value is False:
            continue
        flag = "--" + attr.replace("_", "-")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        tokens.append(flag if value is True else f"{flag}={value}")
    return tokens


def _table_from_args(args: argparse.Namespace) -> ObservedTable:
    if args.setting is None:
        raise ValidationError("--setting is required (missing or matched)")
    if args.counts is None:
        raise ValidationError("--counts is required for this subcommand")
    return validate(args.counts, args.setting)


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[IO[str]]:
    """The stream a subcommand writes to: ``--out`` opened for writing, or stdout."""
    if out is None:
        yield sys.stdout
        return
    try:
        handle = open(out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc.strerror}") from exc
    with handle:
        yield handle


def _plain(value: object) -> object:
    """``value`` as JSON data: dataclasses as dicts, floats to 6 decimal places."""
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return round(float(value), 6) if isinstance(value, float) else value


# ---------------------------------------------------------------- analyze

def _cmd_analyze(args: argparse.Namespace) -> dict:
    data = _table_from_args(args)
    missing = isinstance(data, MissingTable)
    payload: dict = {"setting": args.setting, "counts": list(astuple(data))}
    payload.update({"n": data.n} if missing else {"sizes": list(data.sizes)})
    payload["psi_hat"] = mle_psi(data)
    if missing:
        responders = data.n11 + data.n01
        payload["mcar_mle"] = data.n11 / responders if responders else None
    payload["ml_region"] = ml_region(data)
    return payload


# ------------------------------------------------------------------ curve

def _cmd_curve(args: argparse.Namespace) -> Callable[[IO[str]], None]:
    data = _table_from_args(args)
    grid = parse_grid(args.grid)
    curve = corr.corroboration_curve(mle_psi(data), data.sizes, grid, args.method,
                                     B=args.B, master_seed=args.seed)
    header, columns = ["theta", "corroboration"], [grid, curve.values]
    if isinstance(data, MissingTable):
        header += ["profile_std", "mcar_std"]
        columns += [likelihood.profile_curve(data, grid), likelihood.mcar_curve(data, grid)]
    return functools.partial(corr.write_csv, header=header, rows=zip(*columns))


# --------------------------------------------------------------- levelset

def _cmd_levelset(args: argparse.Namespace) -> dict:
    if (args.alpha is None) == (args.h is None):
        raise ValidationError("levelset needs exactly one of --alpha or --h")
    data = _table_from_args(args)
    grid = parse_grid(args.grid)
    curve = corr.corroboration_curve(mle_psi(data), data.sizes, grid, args.method,
                                     B=args.B, master_seed=args.seed)
    if args.alpha is not None:
        try:
            result = corr.level_set(curve, float(args.alpha))
        except EmptyLevelSet:
            return {"kind": "alpha_level", "level": args.alpha, "empty": True}
    else:
        result = corr.max_corroboration_set(curve, float(args.h))
    return {"kind": result.kind, "level": result.level, "empty": False,
            "lower": result.interval.lower, "upper": result.interval.upper}


# ----------------------------------------------------------------- assure

def _cmd_assure(args: argparse.Namespace) -> object:
    data = _table_from_args(args)
    # checked before the --ml-region branch, which does not read it
    _check_count(args.threads, "threads")
    if args.ml_region:
        return assure_mod.assurance_of_ml_region(data, B_outer=args.B_outer,
                                                 master_seed=args.seed)
    # an empty list (``--h ,`` or ``"h": []``) names no offset
    if not args.h:
        raise ValidationError("assure needs --h (one value or a comma list) or --ml-region")
    grid = parse_grid(args.grid)
    kwargs = dict(
        B_outer=args.B_outer,
        inner_method=args.inner_method,
        inner_B=args.inner_B,
        master_seed=args.seed,
        grid=grid,
        threads=args.threads,
    )
    if args.tau_min is not None:
        chosen, report = assure_mod.select_h(data, float(args.tau_min), args.h, **kwargs)
        return {"tau_min": args.tau_min, "chosen_h": chosen, "report": report}
    reports = assure_mod.assurance_sweep(data, args.h, **kwargs)
    if len(reports) == 1:
        return reports[0]
    return functools.partial(assure_mod.reports_to_csv, reports)


# ------------------------------------------------------------------- test

def _cmd_test(args: argparse.Namespace) -> object:
    data = _table_from_args(args)
    # an empty list (``--theta-star ,`` or ``"theta-star": []``) tests nothing
    if not args.theta_star:
        raise ValidationError("test needs --theta-star (one value or a comma list)")
    # one corroboration curve serves every theta value, as on a grid
    results = ctest.corroboration_tests(data, args.theta_star, method=args.method, B=args.B,
                                        master_seed=args.seed)
    return results[0] if len(results) == 1 else results


# --------------------------------------------------------------- simulate

def _cmd_simulate(args: argparse.Namespace) -> Callable[[IO[str]], None]:
    if args.setting is None:
        raise ValidationError("--setting is required (missing or matched)")
    if args.psi is None or args.sizes is None:
        raise ValidationError("simulate needs --psi and --sizes")
    table_type = SETTINGS[args.setting]
    for flag, values, names in (
        ("--psi", args.psi, [f.name for f in fields(table_type.psi_type)]),
        ("--sizes", args.sizes, table_type.size_names),
    ):
        if len(values) != len(names):
            raise ValidationError(f"{args.setting}-data {flag} needs {','.join(names)}")
    psi = table_type.psi_type(*args.psi)
    sizes = args.sizes[0] if len(args.sizes) == 1 else tuple(args.sizes)
    grid = parse_grid(args.grid)
    curve = corr.corroboration_curve(psi, sizes, grid, "bootstrap", B=args.reps,
                                     master_seed=args.seed)
    return curve.to_csv


# ------------------------------------------------------------------ wiring

def _add_common(parser: argparse.ArgumentParser, *, counts: bool = True) -> None:
    parser.add_argument("--setting", choices=["missing", "matched"], default=None)
    if counts:
        parser.add_argument("--counts", type=_int_list, default=None,
                            help="missing: n11,n01,n_plus0; matched: nx,n1,ny,n2")
    parser.add_argument("--config", default=None, help="JSON file with default option values")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minfer", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("analyze", help="MLE, plug-in region, likelihood summaries")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("curve", help="corroboration curve CSV")
    _add_common(p)
    p.add_argument("--method", choices=["bootstrap", "normal"], default=None)
    p.add_argument("--grid", default=GRID, help=f"start:stop:step (default {GRID})")
    p.add_argument("--B", type=int, default=5000, help="bootstrap replicates (default 5000)")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("levelset", help="corroboration level set")
    _add_common(p)
    p.add_argument("--method", choices=["bootstrap", "normal"], default=None)
    p.add_argument("--grid", default=GRID)
    p.add_argument("--B", type=int, default=5000)
    p.add_argument("--alpha", type=float, default=None, help="corroboration level in (0, 1]")
    p.add_argument("--h", type=float, default=None, help="offset below the curve maximum")
    p.set_defaults(func=_cmd_levelset)

    p = sub.add_parser("assure", help="double-bootstrap assurance of offset-h sets")
    _add_common(p)
    p.add_argument("--h", type=_float_list, default=None, help="offset(s), comma-separated")
    p.add_argument("--B-outer", dest="B_outer", type=int, default=5000)
    p.add_argument("--inner-method", choices=["normal", "bootstrap"], default=None)
    p.add_argument("--inner-B", dest="inner_B", type=int, default=assure_mod.DEFAULT_INNER_B)
    p.add_argument("--grid", default=GRID)
    p.add_argument("--tau-min", dest="tau_min", type=float, default=None,
                   help="pick the largest h whose assurance reaches this level")
    p.add_argument("--ml-region", dest="ml_region", action="store_true",
                   help="assurance of the plug-in region itself")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for nested-bootstrap replicates; output "
                   "does not depend on it (default 1)")
    p.set_defaults(func=_cmd_assure)

    p = sub.add_parser("test", help="corroboration test")
    _add_common(p)
    p.add_argument("--theta-star", dest="theta_star", type=_float_list, default=None,
                   help="value(s) under test, comma-separated")
    p.add_argument("--method", choices=["bootstrap", "normal"], default=None)
    p.add_argument("--B", type=int, default=5000)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("simulate", help="actual-corroboration curve at a hypothesized psi")
    _add_common(p, counts=False)
    p.add_argument("--psi", type=_float_list, default=None,
                   help="missing: l11,l01,l_plus0; matched: l1p,lp1")
    p.add_argument("--sizes", type=_int_list, default=None, help="missing: n; matched: n1,n2")
    p.add_argument("--reps", type=int, default=5000, help="bootstrap replicates (default 5000)")
    p.add_argument("--grid", default=GRID)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help(sys.stderr)
            return 1
        if args.config is not None:
            # argv[0] is the subcommand: the top-level parser has no options
            tokens = _config_tokens(args, _load_config(args.config))
            args = parser.parse_args([argv[0], *tokens, *argv[1:]])
        result = args.func(args)
        with _output(args.out) as handle:
            if callable(result):
                result(handle)
            else:
                handle.write(json.dumps(_plain(result), indent=2) + "\n")
        return 0
    except ValidationError as exc:
        flag = _FLAGS.get((argv[0] if argv else None, exc.name), _FLAGS.get(exc.name))
        shown = " ".join(str(part) for part in (flag, exc.value, exc.rule) if part is not None)
        print(f"minfer: error: {shown if flag else exc}", file=sys.stderr)
        return 1
    except NoQualifyingH as exc:
        print(f"minfer: {exc}", file=sys.stderr)
        return 1
    except MinferError as exc:
        print(f"minfer: numeric failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"minfer: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
