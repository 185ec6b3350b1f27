"""Outside-in span tracer for the minfer benchmark.

The tracer times calls into the package's public functions without
editing the package: it wraps each function once and rebinds every
``minfer.*`` module attribute that holds that function object, so a
name imported into another module (``assure`` imports
``corroboration_normal_curve`` by name) is traced too. ``uninstall``
puts every original object back.

A span is ``[name, start, end, parent, info, exc]``: ``parent`` is the
enclosing span (None for a root), ``info`` is whatever the function's
observer extracted from its arguments and result (None when the call
raised), and ``exc`` is the name of the exception type the call raised,
if any. Spans are kept in memory; ``self_times`` turns them into self
times, a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import re
import sys
import threading
import time
import types
from typing import Callable, Iterable

NAME, START, END, PARENT, INFO, EXC = range(6)

PACKAGE = "minfer"

# scalar helpers called once per grid point: a span per call would cost
# more than the call, so their time stays in the caller's self time
SKIP = frozenset({"profile_log_lik", "mcar_log_lik", "profile_lr"})

# methods traced besides module-level functions: (module, class, method)
METHODS = (("minfer.sampling", "ReplicateStream", "rng"),)


def _in_package(module_name: str) -> bool:
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.scope = 0  # bumped per benchmark op; observers tag keys with it
        self.names: set[str] = set()  # span names that were installed
        self.unobserved: set[str] = set()  # span names whose observer raised
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _observer(self, name: str, observe: Callable | None) -> Callable | None:
        """``observe`` made safe to call inside a wrapper: when it raises (it
        no longer fits the function it reads), the span's info stays None
        and ``name`` goes into ``unobserved``, whose metrics are then absent."""
        if observe is None:
            return None

        def safe(tracer, args, kwargs, result):
            try:
                return observe(tracer, args, kwargs, result)
            except Exception:
                self.unobserved.add(name)
                return None

        return safe

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        spans, clock, get_stack = self.spans, self.clock, self._stack
        observe = self._observer(name, observe)

        def traced(*args, **kwargs):
            stack = get_stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None, None]
            stack.append(span)
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[EXC] = type(exc).__name__
                if observe is not None:
                    span[INFO] = observe(self, args, kwargs, None)
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if observe is not None:
                span[INFO] = observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, observers: dict[str, Callable]) -> None:
        """Wrap every public function of the loaded ``minfer`` modules and
        the methods in ``METHODS``. Span names are ``<module>.<function>``
        with the module's last dotted component as the layer."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and _in_package(key)]
        wrappers: dict[int, Callable] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not _in_package(home):
                    continue
                if obj.__name__.startswith("_") or obj.__name__ in SKIP:
                    continue
                if id(obj) not in wrappers:
                    name = f"{home.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self.wrap(name, obj, observers.get(name))
                    self.names.add(name)
                self._rebind(module, attr, wrappers[id(obj)])
        for module_name, class_name, method in METHODS:
            cls = getattr(sys.modules.get(module_name), class_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                name = f"{module_name.rsplit('.', 1)[-1]}.{class_name}.{method}"
                self._rebind(cls, method, self.wrap(name, fn, observers.get(name)))
                self.names.add(name)

    def uninstall(self) -> bool:
        """Restore every rebound attribute; True when all originals are back."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original for owner, attr, original in saved)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered(children.get(id(span), ()), span[START], span[END])
        for span in spans
    ]


def root_time(spans: list[list]) -> float:
    """Wall time covered by root spans."""
    roots = [(s[START], s[END]) for s in spans if s[PARENT] is None]
    if not roots:
        return 0.0
    return covered(roots, min(a for a, _ in roots), max(b for _, b in roots))


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def parse_importtime(text: str) -> list[tuple[int, str, float, float]]:
    """Parse ``python -X importtime`` stderr into (depth, module, self_s,
    cumulative_s) rows; the header and unrelated lines are skipped."""
    rows = []
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            self_us, cum_us, indent, module = match.groups()
            rows.append((len(indent) // 2, module, int(self_us) * 1e-6, int(cum_us) * 1e-6))
    return rows


def import_metrics(text: str) -> dict[str, float]:
    """``import.*`` metrics from one ``-X importtime`` log."""
    rows = parse_importtime(text)

    def self_of(prefix: str) -> float:
        return sum(s for _, mod, s, _ in rows if mod == prefix or mod.startswith(prefix + "."))

    return {
        "import.total_s": sum(cum for depth, _, _, cum in rows if depth == 0),
        "import.scipy_s": self_of("scipy"),
        "import.minfer_self_s": self_of("minfer"),
    }
