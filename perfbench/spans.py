"""In-memory span recorder for the traced benchmark run.

A span covers one call the benchmark makes into a layer of the library. It
records its name, start and end (``time.perf_counter`` seconds), the span
that was open when it started (its parent) and the run id it belongs to,
plus any counts given at the call site. Spans stay in memory and are
written out once, when the run ends.
"""

import contextlib
import json
import time

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    def span(self, name, **counts):
        return _NULL_SPAN


class Tracer:
    """Collects spans; ``span`` nests by the order calls open and close."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._open = []

    def begin_run(self, run_id):
        """Spans started from now on share ``run_id``."""
        self.run_id = run_id

    @contextlib.contextmanager
    def span(self, name, **counts):
        record = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "counts": counts,
            "start": None,
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path, extra=None):
        payload = {"spans": self.spans, "self_s": self_times(self.spans)}
        if extra:
            payload.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover. Children are clipped to the parent and overlapping
    children are merged, so the result is never negative."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = []
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        kids = sorted(children.get(span["id"], ()), key=lambda s: s["start"])
        for kid in kids:
            lo, hi = max(kid["start"], cursor), min(kid["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result
