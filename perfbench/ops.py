"""Operation and failure accounting shared by the harness and the workloads."""

import sys
import time
import traceback

from spans import NullTracer

LAYERS = ("data", "models", "nn", "autodiff", "optim", "energy", "estimator",
          "attacks", "defense", "metrics", "serialize")


class Run:
    """Operation and failure accounting for one workload run.

    ``call`` runs one library call inside a span. An exception is recorded,
    counted as a failure of the call's layer and turned into ``FAILED``; a
    call handed a ``FAILED`` argument is counted as failed without running.
    """

    FAILED = object()

    def __init__(self, tracer=None, kernel=None):
        self.tracer = tracer or NullTracer()
        # when set, timed before every call: the machine's speed right then
        self.kernel = kernel
        self.attempted = 0
        self.failed = dict.fromkeys(LAYERS, 0)
        self.errors = []
        self.durations = []   # (span name, seconds, kernel seconds before it)

    def call(self, span, fn, *args, ops=1, counts=None, **kwargs):
        """Run ``fn(*args, **kwargs)``, a call worth ``ops`` operations.

        A call with ``ops=0`` is no operation of its own, but it still
        counts as one failed operation when it fails.
        """
        if any(a is Run.FAILED for a in args):
            self._fail(span, ops, "%s skipped: input failed" % span)
            return Run.FAILED
        kernel = self.kernel() if self.kernel else None
        try:
            start = time.perf_counter()
            with self.tracer.span(span, **(counts or {})):
                value = fn(*args, **kwargs)
        except Exception:  # the run must go on and report the failure
            self._fail(span, ops, traceback.format_exc(limit=3))
            return Run.FAILED
        self.durations.append((span, time.perf_counter() - start, kernel))
        self.attempted += ops
        return value

    def scaled_durations(self, reference):
        """(span, seconds) of the calls so far, at the reference speed.

        Each call's wall time is multiplied by ``reference`` over the mean
        of the kernel times taken just before and just after it, so that a
        shared machine's changes of speed cancel out.
        """
        kernels = [k for _, _, k in self.durations] + [self.kernel()]
        return [(name, took * 2.0 * reference / (kernels[i] + kernels[i + 1]))
                for i, (name, took, _) in enumerate(self.durations)]

    def check(self, layer, ok, what, ops=1):
        """Count ``ops`` attempted operations of ``layer`` as failed unless ``ok``."""
        if not ok:
            self.failed[layer] += ops
            self._log("check failed: %s" % what)

    def _fail(self, span, ops, message):
        self.attempted += max(ops, 1)
        self.failed[span.split(".")[0]] += max(ops, 1)
        self._log(message)

    def _log(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)
            print(message, file=sys.stderr)

    @property
    def failed_total(self):
        return sum(self.failed.values())
