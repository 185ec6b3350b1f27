"""Per-layer metrics from a traced run's spans.

Time metrics are self times in seconds (a span's duration minus the part
its traced children cover), so they add up, with ``trace.unattributed_s``,
to the traced wall time. A metric whose source functions were not found
when the tracer was installed, or whose observer raised, is absent from
the result, not zero.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import EXC, INFO, NAME, PARENT, END, START, root_time, self_times


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _normal_curve_key(tracer, args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    grid_key = None if grid is None else (len(grid), float(grid[0]), float(grid[-1]))
    points = 0 if result is None else int(result.grid.size)
    key = (_arg(args, kwargs, 0, "psi"), int(_arg(args, kwargs, 1, "n")), grid_key)
    return tracer.scope, key, points


def _replicates(tracer, args, kwargs, result):
    return int(_arg(args, kwargs, 2, "B"))


def _grid_points(tracer, args, kwargs, result):
    return len(_arg(args, kwargs, 1, "grid"))


def _stream_key(tracer, args, kwargs, result):
    stream = args[0]
    return tracer.scope, (stream.master_seed, stream.replicate_index)


def _reports(tracer, args, kwargs, result):
    if result is None:
        return None
    reports = result if isinstance(result, list) else [result]
    return (reports[0].B_outer, reports[0].fallback_count,
            sum(r.singleton_count for r in reports))


# span name -> observer(tracer, args, kwargs, result) -> span info
OBSERVERS = {
    "corroborate.corroboration_normal_curve": _normal_curve_key,
    "corroborate.bounds_batch_streams": _replicates,
    "corroborate.bounds_batch_from_rng": _replicates,
    "likelihood.profile_curve": _grid_points,
    "likelihood.mcar_curve": _grid_points,
    "sampling.ReplicateStream.rng": _stream_key,
    "assure.assurance_sweep": _reports,
    "assure.assurance_of_ml_region": _reports,
}

NORMAL_CURVE = "corroborate.corroboration_normal_curve"
NORMAL_POINT = "corroborate.corroboration_normal"
BOUNDS = ("corroborate.bounds_batch_streams", "corroborate.bounds_batch_from_rng")
STREAM = "sampling.ReplicateStream.rng"
SWEEPS = ("assure.assurance_sweep", "assure.assurance_of_ml_region")

# metric -> span names whose self times it sums
SELF_BY_NAME = {
    "corroborate.normal_curve_s": (NORMAL_CURVE,),
    "corroborate.normal_point_s": (NORMAL_POINT,),
    "corroborate.bounds_draw_s": BOUNDS,
    "corroborate.coverage_share_s": ("corroborate.coverage_share",),
    "corroborate.bootstrap_curve_self_s": ("corroborate.corroboration_bootstrap",),
    "corroborate.level_set_s": ("corroborate.level_set", "corroborate.max_corroboration_set"),
    "sampling.stream_s": (STREAM,),
    "likelihood.profile_curve_s": ("likelihood.profile_curve",),
    "likelihood.mcar_curve_s": ("likelihood.mcar_curve",),
    "model.validate_s": ("model.validate",),
    "model.mle_psi_s": ("model.mle_psi",),
    "identify.ml_region_s": ("identify.ml_region",),
}

# metric -> span names whose calls it counts
CALLS_BY_NAME = {
    "corroborate.normal_curve_calls": (NORMAL_CURVE,),
    "corroborate.normal_point_calls": (NORMAL_POINT,),
    "corroborate.coverage_share_calls": ("corroborate.coverage_share",),
    "sampling.streams": (STREAM,),
    "model.validate_calls": ("model.validate",),
    "model.mle_psi_calls": ("model.mle_psi",),
    "identify.ml_region_calls": ("identify.ml_region",),
    "ctest.calls": ("ctest.corroboration_test",),
}

# metric -> layer whose spans' self times it sums
SELF_BY_LAYER = {"cli.self_s": "cli", "assure.self_s": "assure", "ctest.self_s": "ctest"}

# metrics that stay equal between traced runs of the same inputs
COUNT_METRICS = (
    set(CALLS_BY_NAME) | {
        "cli.bytes_out", "corroborate.normal_curve_points",
        "corroborate.normal_curve_distinct_inputs", "corroborate.normal_curve_repeat_ratio",
        "corroborate.degenerate_variance", "corroborate.bounds_draw_replicates",
        "sampling.stream_reuse_ratio", "likelihood.points", "assure.outer_replicates",
        "assure.fallbacks", "assure.singletons",
    }
)


def layer_metrics(spans: list[list], installed: set[str], wall_s: float,
                  bytes_out: int | None = None,
                  unobserved: set[str] = frozenset()) -> dict[str, float]:
    """Per-layer metrics of one traced run lasting ``wall_s`` seconds.
    Metrics read from the spans' info are absent for the names in
    ``unobserved``, whose observer raised."""
    selfs = self_times(spans)
    self_by = defaultdict(float)
    calls = Counter()
    by_name = defaultdict(list)
    for span, own in zip(spans, selfs):
        self_by[span[NAME]] += own
        calls[span[NAME]] += 1
        by_name[span[NAME]].append(span)

    def have(*names):
        return any(name in installed for name in names)

    def observed(*names):
        return have(*names) and not unobserved.intersection(names)

    def infos(*names):
        return [s[INFO] for name in names for s in by_name[name] if s[INFO] is not None]

    out: dict[str, float] = {}
    for metric, names in SELF_BY_NAME.items():
        if have(*names):
            out[metric] = sum(self_by[name] for name in names)
    for metric, names in CALLS_BY_NAME.items():
        if have(*names):
            out[metric] = sum(calls[name] for name in names)
    for metric, layer in SELF_BY_LAYER.items():
        names = [name for name in installed if name.split(".", 1)[0] == layer]
        if names:
            out[metric] = sum(self_by[name] for name in names)
    if bytes_out is not None:
        out["cli.bytes_out"] = bytes_out

    if observed(NORMAL_CURVE):
        keys = infos(NORMAL_CURVE)
        n_calls = calls[NORMAL_CURVE]
        distinct = len({(scope, key) for scope, key, _ in keys})
        out["corroborate.normal_curve_points"] = sum(points for _, _, points in keys)
        out["corroborate.normal_curve_distinct_inputs"] = distinct
        out["corroborate.normal_curve_repeat_ratio"] = 1.0 - distinct / n_calls if n_calls else 0.0
    if have(NORMAL_CURVE, NORMAL_POINT):
        out["corroborate.degenerate_variance"] = sum(
            1 for name in (NORMAL_CURVE, NORMAL_POINT) for s in by_name[name]
            if s[EXC] == "DegenerateVariance"
        )
    if observed(*BOUNDS):
        out["corroborate.bounds_draw_replicates"] = sum(infos(*BOUNDS))
    if observed(STREAM):
        keys = infos(STREAM)
        out["sampling.stream_reuse_ratio"] = 1.0 - len(set(keys)) / len(keys) if keys else 0.0
    if observed("likelihood.profile_curve", "likelihood.mcar_curve"):
        out["likelihood.points"] = sum(infos("likelihood.profile_curve", "likelihood.mcar_curve"))
    if have("assure.assurance_sweep"):
        out["assure.sweep_s"] = sum(
            s[END] - s[START] for s in by_name["assure.assurance_sweep"]
            if s[PARENT] is None or s[PARENT][NAME] != "assure.assurance_sweep"
        )
    if observed(*SWEEPS):
        reports = infos(*SWEEPS)
        out["assure.outer_replicates"] = sum(r[0] for r in reports)
        out["assure.fallbacks"] = sum(r[1] for r in reports)
        out["assure.singletons"] = sum(r[2] for r in reports)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = max(wall_s - root_time(spans), 0.0)
    return out
