"""Child process of the benchmark: runs ops in-process and reports JSON.

    python bench/worker.py cli   --trace 0|1  < {"ops": [[op_id, argv], ...]}
    python bench/worker.py study --trace 0|1  < {"tables": [entry, ...]}

Each line of stdin is one request and gets one line of JSON on stdout, so
one process (one import) can serve many repetitions; it exits at the end
of stdin. Every request runs in a child forked from the imported process,
so it starts from the state right after import and nothing it leaves
behind (a cache, say) reaches the next one. ``cli`` calls
``minfer.cli.main(argv)`` per op with stdout captured; ``study`` runs the
library-study op sequence on each table. With
``--trace 1`` the tracer is installed around the timed block and the
report carries the per-layer metrics. ``minfer`` must be importable
(the benchmark sets ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from layers import OBSERVERS, layer_metrics
from tracer import Tracer
from workloads import library_form, run_table


def _tracer(traced: bool) -> Tracer | None:
    if not traced:
        return None
    tracer = Tracer()
    tracer.install(OBSERVERS)
    return tracer


def _finish(tracer: Tracer | None, report: dict, wall_s: float, bytes_out: int) -> dict:
    report["wall_s"] = wall_s
    if tracer is not None:
        report["restored"] = tracer.uninstall()
        report["unobserved"] = sorted(tracer.unobserved)
        report["metrics"] = layer_metrics(tracer.spans, tracer.names, wall_s, bytes_out,
                                          tracer.unobserved)
    return report


def run_cli(ops: list, traced: bool) -> dict:
    import minfer.cli

    tracer = _tracer(traced)
    results, wall_s, bytes_out = [], 0.0, 0
    for op_id, argv in ops:
        if tracer is not None:
            tracer.scope += 1
        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = minfer.cli.main(argv)
        wall_s += time.perf_counter() - start
        text = out.getvalue()
        bytes_out += len(text.encode())
        results.append({"id": op_id, "exit": code, "stdout": text})
    return _finish(tracer, {"ops": results}, wall_s, bytes_out)


def run_study(tables: list, traced: bool) -> dict:
    import minfer
    import minfer.cli  # noqa: F401  the set-up import; its layer reads 0 here

    grid = minfer.default_grid()
    calls: list[tuple[int, str, bool, object]] = []
    index = 0

    def call(op, fn, *args, **kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every outcome, raised or returned, is compared
            calls.append((index, op, False, type(exc).__name__))
            return False, None
        calls.append((index, op, True, result))
        return True, result

    tracer = _tracer(traced)
    start, cpu_start = time.perf_counter(), time.process_time()
    for index, entry in enumerate(tables):
        if tracer is not None:
            tracer.scope += 1
        run_table(minfer, entry, grid, call)
    wall_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start

    outcomes: list[dict] = [{} for _ in tables]
    for i, op, ok, value in calls:
        outcomes[i][op] = {"value": library_form(value)} if ok else {"exc": value}
    return _finish(tracer, {"outcomes": outcomes, "cpu_s": cpu_s}, wall_s, 0)


def serve(mode: str, traced: bool, payload: dict) -> dict | None:
    """Run one request in a forked child and reap it with ``os.wait4``;
    None if the child failed (its traceback is on stderr)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            if mode == "cli":
                report = run_cli(payload["ops"], traced)
            else:
                report = run_study(payload["tables"], traced)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(report, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    report = json.loads(text)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["cli", "study"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    import minfer.cli  # noqa: F401  imported once, before any request forks

    for line in sys.stdin:
        report = serve(args.mode, bool(args.trace), json.loads(line))
        if report is None:
            return 1
        print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
