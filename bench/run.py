"""The minfer benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` makes the separate traced run
(``--threads 1``) that gives the per-layer metrics. Every op's output is
checked against the goldens in ``bench/goldens``. The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment, the seeds, the replicate counts
and any failures. See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads as wl
from layers import COUNT_METRICS
from tracer import import_metrics

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")

SETUP_REPS = 6  # fresh interpreters timed per run for setup_s
IMPORT_REPS = 3  # -X importtime logs per traced run
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = "import minfer, minfer.cli"


class BenchError(Exception):
    """The benchmark cannot run here (no program, no goldens, no import)."""


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MINFER_THREADS", None)  # ops state their own thread counts
    return env


def run_child(argv: list[str], stdin_text: str | None = None) -> Child:
    """Run one child to completion and reap it with ``os.wait4``, so its
    CPU time and peak RSS are its own, not a maximum over earlier children.

    Linux starts a child's peak RSS from its parent's RSS at spawn; this
    process imports no numpy, so it stays well below any child's own peak.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        if stdin_text is not None:
            try:
                proc.stdin.write(stdin_text.encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the child exited early; its exit code says why
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        code=proc.returncode,
        stdout=out.decode(),
        stderr=err[0].decode() if err else "",
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def cli_child(argv: list[str]) -> Child:
    return run_child([sys.executable, "-m", "minfer.cli", *argv])


class Worker:
    """A ``bench/worker.py`` child that serves requests until it is closed,
    so the repetitions of a run share one import. The worker runs each
    request in a forked child of its own and reports that child's peak RSS.

    Used as a context manager: leaving the block on any path closes the
    worker's stdin and waits for it, which lets it finish and reap the
    request in flight; a worker that outlives ``CHILD_TIMEOUT_S`` is killed
    with its whole process group.
    """

    def __init__(self, mode: str, traced: bool = False) -> None:
        self.mode = mode
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, mode, "--trace", str(int(traced))],
            cwd=ROOT, env=child_env(), text=True, start_new_session=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self._killer = threading.Timer(CHILD_TIMEOUT_S, self._kill)
        self._killer.start()
        self._err: list[str] = []
        self._reader = threading.Thread(target=lambda: self._err.append(self.proc.stderr.read()))
        self._reader.start()

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _stderr(self) -> str:
        self._reader.join()
        return self._err[0].strip()[-500:] if self._err else ""

    def request(self, payload: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(payload) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker exited; the missing reply says so
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker {self.mode} printed no report: {self._stderr()}")
        return json.loads(line)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, exc_type, *_) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.stdout.read()
        err = self._stderr()
        code = self.proc.wait()
        self._killer.cancel()
        self.proc.stdout.close()
        self.proc.stderr.close()
        if exc_type is None and code != 0:
            raise BenchError(f"worker {self.mode} exited {code}: {err}")


def worker_child(mode: str, traced: bool, payload: dict) -> dict:
    """One request to a fresh worker."""
    with Worker(mode, traced) as worker:
        return worker.request(payload)


# ----------------------------------------------------------------- goldens

def load_goldens() -> tuple[dict, dict]:
    try:
        with open(os.path.join(BENCH, wl.GOLDEN_DIR, "cli.json"), encoding="utf-8") as fh:
            cli = json.load(fh)
        with open(os.path.join(BENCH, wl.GOLDEN_DIR, "study.json"), encoding="utf-8") as fh:
            study = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read goldens: {exc}") from exc
    for ops in wl.CLI_OPS.values():
        for op_id, argv in ops:
            if cli["ops"].get(op_id, {}).get("argv") != argv:
                raise BenchError(f"goldens do not match op {op_id}; re-record them")
    return cli, study


class Checker:
    """Counts ops attempted and failed against the goldens, and failed
    integrity checks of the traced run."""

    def __init__(self, cli_goldens: dict, study_goldens: dict, seed: int) -> None:
        self.cli = cli_goldens
        self.study = study_goldens
        self.op_seed = str(wl.op_seed(seed))
        self.attempted = 0
        self.failed = 0
        self.broken = 0
        self.failures: list[str] = []

    def _note(self, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(what)

    def _fail(self, what: str) -> None:
        self.failed += 1
        self._note(what)

    def cli_op(self, op_id: str, code: int, stdout: str) -> None:
        self.attempted += 1
        golden = self.cli["ops"][op_id]["by_seed"][self.op_seed]
        if code != golden["exit"]:
            self._fail(f"{op_id}: exit {code}, golden {golden['exit']}")
        elif not wl.cli_covers(golden["stdout"], stdout):
            self._fail(f"{op_id}: stdout differs from golden")

    def table(self, entry: dict, outcomes: dict) -> None:
        golden = self.study["goldens"][entry["id"]]
        for op, outcome in golden.items():
            self.attempted += 1
            if not wl.covers(outcome, outcomes.get(op)):
                self._fail(f"{entry['id']} {op}: {str(outcomes.get(op))[:120]}")
        for op in set(outcomes) - set(golden):
            self.attempted += 1
            self._fail(f"{entry['id']} {op}: op has no golden")

    def integrity(self, ok: bool, what: str) -> None:
        if not ok:
            self.broken += 1
            self._note(what)


# ---------------------------------------------------------------- measuring

class Window:
    """A run's measuring window, with the ``setup_s`` samples spread
    through it.

    A set-up sample (one fresh interpreter) is taken at the first op
    boundary after each of ``samples`` evenly spaced points of the window,
    so a drift in CPU speed during the run reaches the set-up samples as it
    reaches the workload's. The time a sample takes is not measuring time.
    """

    def __init__(self, seconds: float, samples: int) -> None:
        self.seconds = seconds
        self.samples = samples
        self.setup: list[float] = []
        self._paused = 0.0
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start - self._paused

    def _sample(self) -> None:
        start = time.perf_counter()
        child = run_child([sys.executable, "-c", SETUP_CODE])
        if child.code != 0:
            raise BenchError(f"cannot import minfer: {child.stderr.strip()[-500:]}")
        self.setup.append(child.wall_s)
        self._paused += time.perf_counter() - start

    def between_ops(self) -> None:
        """Take the next set-up sample if its point of the window has passed."""
        if len(self.setup) < self.samples and \
                self.elapsed() >= len(self.setup) * self.seconds / self.samples:
            self._sample()

    def finish(self) -> list[float]:
        """Every set-up sample, taking any the run had no boundary left for."""
        while len(self.setup) < self.samples:
            self._sample()
        return self.setup


def repeat(window: Window, rep) -> int:
    """Call ``rep()`` until the window's time has passed, not starting one
    that would end more than half a repetition late; at least once."""
    times: list[float] = []
    while True:
        window.between_ops()
        start = window.elapsed()
        rep()
        times.append(window.elapsed() - start)
        if window.elapsed() + 0.5 * statistics.median(times) >= window.seconds:
            return len(times)


def end_to_end(workload: str, seed: int, seconds: float, check: Checker) -> dict[str, list[float]]:
    """Per-repetition samples of every end-to-end metric."""
    window = Window(seconds, SETUP_REPS)
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}

    if workload == "library_study":
        # one worker serves every repetition, so the run's time goes to the
        # study rather than to a fresh import per repetition
        tables = wl.study_tables(check.study["catalog"], seed)
        with Worker("study") as worker:
            def rep():
                report = worker.request({"tables": tables})
                for entry, outcomes in zip(tables, report["outcomes"]):
                    check.table(entry, outcomes)
                samples["wall_s"].append(report["wall_s"])
                samples["cpu_s"].append(report["cpu_s"])
                samples["peak_rss_mb"].append(report["peak_rss_mb"])

            repeat(window, rep)
    else:
        ops = wl.cli_ops(workload, seed)

        def rep():
            children = []
            for op_id, argv in ops:
                window.between_ops()
                child = cli_child(argv)
                check.cli_op(op_id, child.code, child.stdout)
                children.append(child)
            samples["wall_s"].append(sum(c.wall_s for c in children))
            samples["cpu_s"].append(sum(c.cpu_s for c in children))
            samples["peak_rss_mb"].append(max(c.peak_rss_mb for c in children))

        repeat(window, rep)
    samples["setup_s"] = window.finish()
    return samples


def traced(workload: str, seed: int, seconds: float,
           check: Checker) -> tuple[dict, int, list[str]]:
    logs = []
    for _ in range(IMPORT_REPS):
        child = run_child([sys.executable, "-X", "importtime", "-c", SETUP_CODE])
        if child.code != 0:
            raise BenchError(f"cannot import minfer: {child.stderr.strip()[-500:]}")
        logs.append(import_metrics(child.stderr))
    metrics = {key: statistics.median(log[key] for log in logs) for key in logs[0]}

    if workload == "library_study":
        mode = "study"
        tables = wl.study_tables(check.study["catalog"], seed)
        payload = {"tables": tables}
    else:
        mode = "cli"
        ops = wl.cli_ops(workload, seed)
        payload = {"ops": [(op_id, wl.single_threaded(argv)) for op_id, argv in ops]}
    runs: list[dict] = []
    overheads: list[float] = []

    def rep():
        plain = worker_child(mode, False, payload)
        trace = worker_child(mode, True, payload)
        if mode == "study":
            for entry, outcomes in zip(tables, trace["outcomes"]):
                check.table(entry, outcomes)
            check.integrity(trace["outcomes"] == plain["outcomes"],
                            "traced study outcomes differ from untraced")
        else:
            for op, plain_op in zip(trace["ops"], plain["ops"]):
                check.cli_op(op["id"], op["exit"], op["stdout"])
                check.integrity(op["stdout"] == plain_op["stdout"],
                                f"{op['id']}: traced stdout differs from untraced")
        check.integrity(trace["restored"], "a traced attribute was not restored")
        overheads.append(trace["wall_s"] - plain["wall_s"])
        runs.append(trace)

    reps = repeat(Window(seconds, 0), rep)
    first = runs[0]["metrics"]
    for key in first:
        if key in COUNT_METRICS:
            for run in runs[1:]:
                check.integrity(run["metrics"].get(key) == first[key],
                                f"count {key} differs between traced runs")
            metrics[key] = first[key]
        else:
            metrics[key] = statistics.median(run["metrics"][key] for run in runs)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    unobserved = sorted(set().union(*(run["unobserved"] for run in runs)))
    return metrics, reps, unobserved


# ------------------------------------------------------------------- report

def environment() -> dict:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "minfer", "__init__.py")):
            raise BenchError("no minfer sources under src/; run from a repository checkout")
        declared = declared_metrics(bool(args.trace))
        check = Checker(*load_goldens(), args.seed)
        if args.trace:
            measured, reps, unobserved = traced(args.workload, args.seed, args.seconds, check)
            samples = None
        else:
            samples = end_to_end(args.workload, args.seed, args.seconds, check)
            measured = {key: statistics.median(values) for key, values in samples.items()}
            reps = len(samples["wall_s"])
            unobserved = []
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "op_seed": wl.op_seed(args.seed),
        "trace": args.trace,
        "repetitions": reps,
        "samples": samples,
        "replicates": wl.REPLICATES[args.workload],
        "environment": environment(),
        "failed_ratio": check.failed / check.attempted,
        "integrity_failed": check.broken,
        "failures": check.failures,
        "absent": sorted(set(declared) - set(measured)),
        "unobserved": unobserved,
        "measured": measured,
    }
    print(json.dumps(detail))
    result = {
        "correct": check.failed == 0 and check.broken == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items() if name in measured},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
