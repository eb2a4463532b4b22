"""Spans recorded from outside the program.

The benchmark never edits ``src/``: it times calls into the program's
public functions by replacing them, for the length of a traced pass,
at the site where the caller looks them up — a module attribute for a
function imported by name (``repro.campaign.plan.sprinkle``), a class
attribute for a method (``CampaignRunner.execute``).  Every call then
becomes one :class:`Span` with its name, start, end, the span that was
open when it was called (its parent) and a trace id shared by every
span of one operation.

Spans stay in memory until the run writes them out.  A layer's self
time is a span's duration minus the part of that interval its child
spans cover; summing self times per span name gives the per-layer
split of the traced wall time.

Spans may also be *recorded* after the fact with known start and end
times: pool workers report a class's wall time in the program's
``ClassCompleted`` event, and the server child process returns its
spans over its pipe at shutdown.  Times everywhere are
``time.perf_counter()``, which reads the system-wide monotonic clock
on Linux, so spans from different processes share one time axis.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: request headers carrying the client's trace context to the server
TRACE_HEADER = "X-Trace-Id"
PARENT_HEADER = "X-Parent-Span"


def request_context(handler) -> Tuple[Optional[str], Optional[str]]:
    """The trace id and parent span id a client sent with a request."""
    return (handler.headers.get(TRACE_HEADER),
            handler.headers.get(PARENT_HEADER))


#: (module, attribute path, span name[, count[, context]]) — where each
#: layer is entered.  ``count`` maps the call's result to a work count
#: recorded on the span; ``context`` maps the call's first argument to
#: the (trace id, parent span id) the span continues.
CAMPAIGN_SITES = (
    ("repro.campaign.plan", "sprinkle", "defects.sprinkle", len),
    ("repro.campaign.plan", "analyze_defects", "defects.extract", len),
    ("repro.campaign.plan", "collapse", "defects.collapse"),
    ("repro.campaign.plan", "rescale_magnitudes", "defects.collapse"),
    ("repro.faultsim.macro_engines", "DecoderFaultEngine.run",
     "digital.decoder"),
    ("repro.faultsim.engine", "ComparatorFaultEngine.good_space",
     "faultsim.goodspace"),
    ("repro.faultsim.engine", "ComparatorFaultEngine.export_baseline",
     "faultsim.goodspace"),
    ("repro.faultsim.macro_engines", "LadderFaultEngine.export_baseline",
     "faultsim.goodspace"),
    ("repro.faultsim.macro_engines",
     "ClockgenFaultEngine.export_baseline", "faultsim.goodspace"),
    ("repro.faultsim.macro_engines",
     "BiasgenFaultEngine.export_baseline", "faultsim.goodspace"),
    ("repro.campaign.runner", "CampaignRunner.prepare",
     "campaign.prepare"),
    ("repro.campaign.runner", "CampaignRunner.execute",
     "campaign.execute"),
    ("repro.campaign.store", "ResultsStore.get", "campaign.store_read"),
    ("repro.campaign.store", "ResultsStore.get_blob",
     "campaign.store_read"),
    ("repro.campaign.store", "ResultsStore.put", "campaign.store_write"),
    ("repro.campaign.store", "ResultsStore.put_blob",
     "campaign.store_write"),
    ("repro.campaign.journal", "CampaignJournal.append",
     "campaign.journal"),
)

FULLCHIP_SITES = (
    ("repro.adc.fullchip", "build_fullchip", "adc.fullchip_build"),
    ("repro.adc.fullchip", "fullchip_transient", "circuit.march"),
)

DICTIONARY_SITES = (
    ("repro.diagnosis.build", "compile_from_campaign",
     "diagnosis.compile"),
)

#: installed inside the server child; a request's handler span
#: continues the trace the client started
SERVER_SITES = (
    ("repro.diagnosis.server", "_Handler._dispatch", "diagnosis.http",
     None, request_context),
    ("repro.diagnosis.registry", "QueryBatcher.diagnose",
     "diagnosis.batcher"),
    ("repro.diagnosis.match", "DictionaryMatcher.diagnose_batch",
     "diagnosis.match"),
    ("repro.diagnosis.db", "DiagnosisDB.record_batch", "diagnosis.db"),
)


@dataclass
class Span:
    """One timed call (or one reconstructed interval)."""

    name: str
    start: float
    end: float
    span_id: str
    parent_id: Optional[str]
    trace_id: str
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one per process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        with self._lock:
            return f"{self.pid}.{next(self._ids)}"

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None,
             parent_id: Optional[str] = None):
        """Time the body as one span, nested under the open span of
        this thread unless ``parent_id``/``trace_id`` say otherwise."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span_id = self.new_id()
        if parent_id is None and parent is not None:
            parent_id = parent.span_id
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else span_id
        span = Span(name, time.perf_counter(), 0.0, span_id, parent_id,
                    trace_id)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def record(self, name: str, start: float, end: float,
               parent: Optional[Span]) -> None:
        """Add a span whose interval was measured elsewhere."""
        span_id = self.new_id()
        span = Span(name, start, end, span_id,
                    parent.span_id if parent else None,
                    parent.trace_id if parent else span_id)
        with self._lock:
            self.spans.append(span)

    def _wrapper(self, fn: Callable, name: str,
                 count: Optional[Callable] = None,
                 context: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:  # forked pool worker
                return fn(*args, **kwargs)
            trace_id, parent_id = context(args[0]) if context else \
                (None, None)
            with tracer.span(name, trace_id, parent_id) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(result)
                return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, sites: Iterable[Tuple]):
        """Wrap every site for the body of the ``with``; the originals
        are put back on exit."""
        restore = []
        try:
            for module, path, name, *options in sites:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                setattr(owner, attr,
                        self._wrapper(original, name, *options))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def add(self, spans: Iterable[Dict]) -> None:
        """Merge spans another process sent as dicts."""
        with self._lock:
            self.spans.extend(Span(**s) for s in spans)

    def dump(self) -> List[Dict]:
        with self._lock:
            return [asdict(s) for s in self.spans]


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover.

    Children may overlap (pool workers run classes side by side), so
    coverage is the union of the children's intervals clipped to the
    parent's.
    """
    children: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.span_id, ()),
                        key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out


def layer_summary(spans: List[Span]) -> Dict[str, Dict]:
    """Per span name: calls, summed self time, summed duration, work
    count and the list of durations."""
    own = self_times(spans)
    out: Dict[str, Dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                      "total_s": 0.0, "count": 0,
                                      "durations": []})
        row["calls"] += 1
        row["self_s"] += own[s.span_id]
        row["total_s"] += s.duration
        row["count"] += s.count
        row["durations"].append(s.duration)
    return out


def write_trace(path, spans: List[Span], summary: Dict) -> None:
    """Write spans plus their per-layer summary as one JSON file."""
    payload = {"spans": [asdict(s) for s in spans],
               "layers": {name: {k: v for k, v in row.items()
                                 if k != "durations"}
                          for name, row in sorted(summary.items())}}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
