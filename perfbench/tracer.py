"""Outside-in span recorder for the fresh-subject benchmark.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public callables of each ``repro`` layer *where the caller looks them
up* (a module global or a class attribute) with a thin timing wrapper that
records one span per call: ``[name, start, end, parent, job, tag]``.
Spans nest through a per-thread stack, so a ``DelayMap`` build inside a
``cached_delay_map`` call inside a fusion cost evaluation is that cost
evaluation's grandchild, and a layer's self time is its duration minus the
time its direct children cover.

A target that a later version of the program no longer has is skipped and
reported in :attr:`Tracer.missing`, so deleting a layer never breaks the
benchmark; its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

__all__ = ["TARGETS", "Tracer", "layer_totals", "self_times", "span_cost_s"]

#: (module, attribute path, span name).  The attribute path is resolved on
#: the module object; a dotted path names a method on a class.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.localize", "binaural_delays_batch", "geometry.delays_batch"),
    ("repro.core.localize", "DelayMap.__init__", "localize.map_build"),
    ("repro.core.localize", "DelayMap.locate_batch", "localize.locate"),
    ("repro.core.fusion", "cached_delay_map", "localize.map_get"),
    ("repro.core.fusion", "DiffractionAwareSensorFusion.run", "fusion.run"),
    ("repro.core.fusion", "DiffractionAwareSensorFusion._cost", "fusion.cost"),
    (
        "repro.core.fusion",
        "DiffractionAwareSensorFusion.extract_probe_delays",
        "fusion.extract_delays",
    ),
    ("repro.signals.channel", "ProbeChannelBank.channel", "signals.channel"),
    ("repro.core.pipeline", "preflight", "quality.preflight"),
    ("repro.simulation.session", "MeasurementSession.run", "simulation.render"),
    (
        "repro.core.interpolation",
        "NearFieldInterpolator.extract_measurements",
        "interpolation.extract",
    ),
    (
        "repro.core.interpolation",
        "NearFieldInterpolator.build_grid",
        "interpolation.grid",
    ),
    ("repro.core.near_far", "NearFarConverter.convert", "near_far.convert"),
    ("repro.serve.worker", "table_digest", "hrtf.digest"),
    ("repro.serve.journal", "Journal.append", "serve.journal_append"),
)

_WRAPPED = "__perfbench_original__"


def _channel_tag(bank: Any) -> Callable[[], str]:
    """Deconvolution method, and whether the call deconvolved or hit."""
    before = getattr(bank, "n_cached", None)
    method = str(getattr(bank, "method", "unknown"))

    def finish() -> str:
        after = getattr(bank, "n_cached", None)
        hit = before is not None and after == before
        return f"{method}:{'hit' if hit else 'miss'}"

    return finish


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    ``spans`` rows are ``[name, start, end, parent, job, tag]`` with
    ``parent`` the index of the enclosing span on the same thread (``-1``
    at the root) and ``job`` the id given to the enclosing :meth:`job`.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, job: Any = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if job is None and stack:
            job = self.spans[stack[0]][4]
        row = [name, 0.0, 0.0, parent, job, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        row[1] = time.perf_counter()
        return index

    def _close(self, index: int, tag: str | None = None) -> None:
        row = self.spans[index]
        row[2] = time.perf_counter()
        row[5] = tag
        self._stack().pop()

    def job(self, job_id: Any) -> "_JobSpan":
        """Context manager opening the root span of one job."""
        return _JobSpan(self, job_id)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        tagged = name == "signals.channel"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = _channel_tag(args[0]) if tagged else None
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index, finish() if finish is not None else None)

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, targets: Iterable[tuple[str, str, str]] = TARGETS) -> None:
        """Wrap every target that exists; remember the rest as missing."""
        for module_name, path, name in targets:
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}:{path}")
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = (
                owner.__dict__.get(attr)
                if owner is not None and hasattr(owner, "__dict__")
                else None
            )
            if original is None or not callable(original):
                self.missing.append(f"{module_name}:{path}")
                continue
            original = getattr(original, _WRAPPED, original)
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list[Any]]:
        """Hand over the recorded spans and start an empty store."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


class _JobSpan:
    def __init__(self, tracer: Tracer, job_id: Any) -> None:
        self._tracer = tracer
        self._job_id = job_id
        self._index = -1

    def __enter__(self) -> "_JobSpan":
        self._index = self._tracer._open("job", self._job_id)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._index)


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run on its thread, one after another, so the sum
    of their durations is the part of the parent's interval they cover.
    """
    own = [row[2] - row[1] for row in spans]
    for row in spans:
        if row[3] >= 0:
            own[row[3]] -= row[2] - row[1]
    return own


def layer_totals(
    spans: list[list[Any]],
) -> dict[Any, dict[str, dict[str, float]]]:
    """Per job: ``{name: {"s", "self_s", "calls"}}`` plus tagged splits.

    ``signals.channel`` spans are also summed under
    ``signals.channel[<method>:<hit|miss>]``.  Spans outside any job are
    grouped under job ``None``.
    """
    own = self_times(spans)
    out: dict[Any, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0.0})
    )
    for row, self_s in zip(spans, own):
        names = [row[0]] if row[5] is None else [row[0], f"{row[0]}[{row[5]}]"]
        for name in names:
            entry = out[row[4]][name]
            entry["s"] += row[2] - row[1]
            entry["self_s"] += self_s
            entry["calls"] += 1
    return out


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op minus a bare one.

    The median of ``repeats`` batches of ``calls`` calls each.
    """

    def noop() -> None:
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibration")
    costs = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        with tracer.job("calibration"):
            for _ in range(calls):
                wrapped()
        costs.append((time.perf_counter() - started - bare) / calls)
        tracer.take()
    return statistics.median(costs)
