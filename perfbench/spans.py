"""In-memory span tracing of the repro stack, installed from outside.

The benchmark never edits ``src/``: :func:`install_layers` replaces each
layer's public entry point, at every name its callers look it up by,
with a wrapper that records one span per call.  A span is
``(id, parent, request, name, start, end, attrs)``; ``parent`` is the
enclosing span in the same thread or asyncio task, ``request`` the id
of the user operation it serves (a ``Session`` verb call, or one
request of the service daemon).  Spans stay in memory and are written
out once, when the process ends (:meth:`Tracer.dump`).

Layer names follow the modules they time (``store.get``,
``backends.kernel``, ...).  :func:`summarize` turns a span list into
per-layer counts, inclusive and self time, and the share of the traced
wall time that no layer span covers.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time

# (span id, attrs dict) of the innermost open span in this thread/task.
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
# Id of the user operation (request) the current code serves.
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

#: Spans that time one layer's public function.
LAYERS = (
    "api.spec.from_dict",
    "store.fingerprint",
    "api.result.clone",
    "api.result.from_dict",
    "api.result.to_dict",
    "store.get",
    "store.put",
    "protocols.build_pair",
    "simulation.critical_offsets",
    "backends.kernel",
    "parallel.spot_check",
    "parallel.map_scenarios",
)

#: Spans that bound the traced wall time (the user operations).
ROOTS = (
    "api.session.sweep",
    "api.session.worst_case",
    "api.session.grid",
    "api.session.simulate",
    "campaign.runner.run",
    "server.request",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = True
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, sid, parent, request, name, start, end, attrs) -> None:
        self.spans.append((sid, parent, request, name, start, end, attrs))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def _enter(tracer: Tracer, name: str, root: bool):
    parent = _CURRENT.get()
    if parent is not None:
        # Let the parent see which layers ran beneath it (store.get uses
        # this to tell disk hits, which parse JSON, from memory hits).
        parent[1][name] = parent[1].get(name, 0) + 1
    sid = tracer.new_id()
    attrs: dict = {}
    span_token = _CURRENT.set((sid, attrs))
    request_token = None
    if root and _REQUEST.get() is None:
        request_token = _REQUEST.set(sid)
    return sid, attrs, parent, span_token, request_token


def _exit(tracer, name, sid, attrs, parent, span_token, request_token, start):
    end = time.perf_counter()
    request = _REQUEST.get()
    _CURRENT.reset(span_token)
    if request_token is not None:
        _REQUEST.reset(request_token)
    tracer.record(
        sid, parent[0] if parent is not None else None, request,
        name, start, end, attrs,
    )


def wrap(tracer: Tracer, name: str, fn, annotate=None, root: bool = False):
    """``fn`` wrapped to record a span named ``name`` per call.

    ``annotate(args, kwargs, result, attrs)`` may add counts to the
    span's attrs after the call returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid, attrs, parent, span_token, request_token = _enter(
            tracer, name, root
        )
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(args, kwargs, result, attrs)
            return result
        finally:
            _exit(tracer, name, sid, attrs, parent, span_token,
                  request_token, start)

    return wrapper


def _set_all(targets, attribute: str, value) -> None:
    for target in targets:
        setattr(target, attribute, value)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics need."""
    import repro.api.result as result_module
    import repro.api.session as session_module
    import repro.api.spec as spec_module
    import repro.backends.base as backend_base
    import repro.campaign.runner as runner_module
    import repro.parallel.executor as executor_module
    import repro.simulation as simulation_package
    import repro.simulation.analytic as analytic_module
    import repro.simulation.runner as simulation_runner
    import repro.store.store as store_module

    # Import every kernel module so all SweepBackend subclasses exist.
    import repro.backends.numpy_kernel  # noqa: F401
    import repro.backends.pooled  # noqa: F401
    import repro.backends.python_loop  # noqa: F401

    RunSpec = spec_module.RunSpec
    RunResult = result_module.RunResult
    ResultStore = store_module.ResultStore
    Session = session_module.Session
    ParallelSweep = executor_module.ParallelSweep

    RunSpec.from_dict = classmethod(
        wrap(tracer, "api.spec.from_dict", RunSpec.from_dict.__func__)
    )
    RunResult.from_dict = classmethod(
        wrap(tracer, "api.result.from_dict", RunResult.from_dict.__func__)
    )
    RunResult.clone = wrap(tracer, "api.result.clone", RunResult.clone)
    RunResult.to_dict = wrap(tracer, "api.result.to_dict", RunResult.to_dict)

    ResultStore.fingerprint = staticmethod(
        wrap(tracer, "store.fingerprint",
             ResultStore.__dict__["fingerprint"].__func__)
    )

    def _get(args, kwargs, result, attrs):
        attrs["hit"] = result is not None

    def _put(args, kwargs, path, attrs):
        try:
            attrs["bytes"] = os.path.getsize(path)
        except OSError:
            attrs["bytes"] = 0

    ResultStore.get = wrap(tracer, "store.get", ResultStore.get, _get)
    ResultStore.put = wrap(tracer, "store.put", ResultStore.put, _put)

    build_pair = wrap(tracer, "protocols.build_pair", spec_module.build_pair)
    _set_all((spec_module, session_module), "build_pair", build_pair)

    def _offsets_result(args, kwargs, result, attrs):
        attrs["offsets"] = len(result)

    critical = wrap(
        tracer, "simulation.critical_offsets",
        analytic_module.critical_offsets, _offsets_result,
    )
    _set_all(
        (analytic_module, simulation_package, simulation_runner),
        "critical_offsets", critical,
    )

    def _offsets_arg(position):
        def annotate(args, kwargs, result, attrs):
            attrs["n"] = len(args[position])
        return annotate

    for cls in _subclasses(backend_base.SweepBackend):
        if "evaluate_offsets_batch" in cls.__dict__:
            cls.evaluate_offsets_batch = wrap(
                tracer, "backends.kernel",
                cls.__dict__["evaluate_offsets_batch"], _offsets_arg(2),
            )
    ParallelSweep.spot_check_pairs = wrap(
        tracer, "parallel.spot_check", ParallelSweep.spot_check_pairs,
        _offsets_arg(3),
    )
    ParallelSweep.map_scenarios = wrap(
        tracer, "parallel.map_scenarios", ParallelSweep.map_scenarios,
        _offsets_arg(1),
    )

    for verb in ("sweep", "worst_case", "grid", "simulate"):
        setattr(Session, verb, wrap(
            tracer, f"api.session.{verb}", getattr(Session, verb), root=True,
        ))
    runner_module.CampaignRunner.run = wrap(
        tracer, "campaign.runner.run", runner_module.CampaignRunner.run,
        root=True,
    )


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_server(tracer: Tracer) -> None:
    """Time each daemon request from the moment its frame is parsed to
    the moment its response frame is written (``server.request``).

    The span carries the client's port and the request's position on
    its connection, so the client can pair it with its own timing:
    a connection answers one request at a time, strictly in order."""
    import repro.service.server as server_module

    read_frame = server_module.read_frame
    write_frame = server_module.write_frame
    connection = contextvars.ContextVar("perfbench_connection", default=None)

    async def traced_read(reader, *args, **kwargs):
        frame = await read_frame(reader, *args, **kwargs)
        state = connection.get()
        if state is None:
            state = {"seq": -1}
            connection.set(state)
        state["seq"] += 1
        state["start"] = time.perf_counter()
        state["id"] = tracer.new_id()
        _REQUEST.set(state["id"])
        return frame

    async def traced_write(writer, payload):
        await write_frame(writer, payload)
        state = connection.get()
        if state is None or "start" not in state or not tracer.enabled:
            return
        peer = writer.get_extra_info("peername")
        tracer.record(
            state["id"], None, state["id"], "server.request",
            state.pop("start"), time.perf_counter(),
            {"port": peer[1] if peer else None, "seq": state["seq"]},
        )

    server_module.read_frame = traced_read
    server_module.write_frame = traced_write


def calibrate(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call (the wrapper's cost)."""
    scratch = Tracer()

    def noop():
        return None

    traced = wrap(scratch, "calibrate", noop)
    best = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append(time.perf_counter() - start)
    return max(0.0, (best[1] - best[0]) / calls)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _length(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _intersect(a, b) -> float:
    """Total overlap of two merged interval lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def summarize(spans, window=None) -> dict:
    """Per-layer ``{calls, ms, self_ms, attrs...}`` plus coverage.

    ``calls``/``ms`` count only the outermost span of each name (a
    kernel falling back to another kernel is one kernel call);
    ``self_ms`` is each span's duration minus the time its direct child
    spans cover.  ``window=(start, end)`` keeps spans starting inside
    it.  ``uncovered_share`` is the share of the root spans' wall time
    that no layer span covers."""
    if window is not None:
        spans = [s for s in spans if window[0] <= s[4] <= window[1]]
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[4], span[5]))
    layers: dict = {}
    for sid, parent, _request, name, start, end, attrs in spans:
        entry = layers.setdefault(name, {"calls": 0, "ms": 0.0,
                                         "self_ms": 0.0, "spans": 0})
        entry["spans"] += 1
        covered = _length(_union(children.get(sid, ())))
        entry["self_ms"] += max(0.0, end - start - covered) * 1000.0
        if _nested_in_same(by_id, parent, name):
            continue
        entry["calls"] += 1
        entry["ms"] += (end - start) * 1000.0
        for key, value in attrs.items():
            if isinstance(value, bool):
                value = int(value)
            # Dotted keys are child-layer tallies, port/seq are labels.
            if isinstance(value, (int, float)) and "." not in key \
                    and key not in ("port", "seq"):
                entry[key] = entry.get(key, 0) + value
    roots = _union((s[4], s[5]) for s in spans if s[3] in ROOTS)
    covered = _union((s[4], s[5]) for s in spans if s[3] in LAYERS)
    root_time = _length(roots)
    uncovered = (
        1.0 - _intersect(roots, covered) / root_time if root_time > 0 else 0.0
    )
    return {"layers": layers, "uncovered_share": uncovered,
            "root_s": root_time, "spans": len(spans)}


def _nested_in_same(by_id, parent, name) -> bool:
    while parent is not None:
        span = by_id.get(parent)
        if span is None:
            return False
        if span[3] == name:
            return True
        parent = span[1]
    return False


def store_get_kinds(spans, window=None) -> dict:
    """memory hits / disk hits / misses among outermost ``store.get``."""
    counts = {"memory_hits": 0, "disk_hits": 0, "misses": 0}
    for span in spans:
        if span[3] != "store.get":
            continue
        if window is not None and not window[0] <= span[4] <= window[1]:
            continue
        attrs = span[6]
        if not attrs.get("hit"):
            counts["misses"] += 1
        elif attrs.get("api.result.from_dict"):
            counts["disk_hits"] += 1
        else:
            counts["memory_hits"] += 1
    return counts


def load(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]
