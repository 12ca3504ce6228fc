"""Span tracing from outside the program.

The benchmark never edits the program: a traced repetition wraps the
public functions and methods at each layer boundary (``Tracer.install``)
and restores them afterwards.  Every wrapped call records one span —
name, start, end, parent span and run id — in memory; spans are written
out once, when the run ends.  A layer's self time is its spans' duration
minus the part covered by their child spans.

Functions imported by name into other modules (``from ..core import
domain_negotiation_epoch``) are rebound in every loaded ``repro`` module
that holds the same object, so callers see the wrapper wherever they look
the function up.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, run_id):
        self.run_id = run_id
        # (id, name, start, end, parent, attrs) per finished span.
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._undo = []

    # -- recording ------------------------------------------------------
    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, attrs):
        end = clock()
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, attrs))

    def call(self, name, func, attrs=None):
        """Wrap ``func`` so each call is one span named ``name``.

        ``attrs(args, kwargs, result)`` may return a dict stored on the
        span (e.g. rows and domain of a scored batch).
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                extra = attrs(args, kwargs, result) if attrs else None
                tracer._close(span_id, parent, name, start, extra)

        return wrapper

    def generator(self, name, func):
        """Wrap a generator function: each produced item is one span."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                span_id, parent = tracer._open()
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._stack.pop()     # no item produced: no span
                    return
                tracer._close(span_id, parent, name, start, None)
                yield item

        return wrapper

    # -- patching -------------------------------------------------------
    def patch_function(self, func, wrapper):
        """Rebind ``func`` to ``wrapper`` in every loaded repro module."""
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, func))

    def patch_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- analysis -------------------------------------------------------
    def of(self, name):
        return [span for span in self.spans if span[1] == name]

    def self_times(self):
        """``{name: (calls, total_s, self_s)}`` computed from the spans."""
        child_time = defaultdict(float)
        for _id, _name, start, end, parent, _attrs in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, name, start, end, _parent, _attrs in self.spans:
            entry = table[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time.get(span_id, 0.0)
        return {name: tuple(entry) for name, entry in table.items()}

    def write(self, path):
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "a", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, attrs in self.spans:
                handle.write(json.dumps({
                    "run_id": self.run_id, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                    "attrs": attrs,
                }) + "\n")


def _batch_attrs(args, kwargs, _result):
    users, domain = args[1], args[3]
    return {"rows": len(users), "domain": int(domain)}


def _groups_attrs(_args, _kwargs, result):
    return {"groups": len(result[1])} if result is not None else None


def install(tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.core import clustering, negotiation, regularization
    from repro.core.param_space import DomainParameterSpace
    from repro.core.selection import PerDomainTracker
    from repro.data import batching, synthetic
    from repro.metrics import report
    from repro.models.base import CTRModel
    from repro.online.publisher import GatedPublisher
    from repro.online.stream import EventStream, StreamArchive
    from repro.online.trainer import IncrementalTrainer
    from repro.serving.service import Predictor
    from repro.serving.snapshots import SnapshotStore
    from repro.traffic.pool import PredictorPool

    functions = [
        (synthetic.generate_dataset, tracer.call("data.generate",
                                                 synthetic.generate_dataset)),
        (batching.iter_minibatches, tracer.generator(
            "data.minibatch", batching.iter_minibatches)),
        (batching.sample_batch, tracer.call("data.minibatch",
                                            batching.sample_batch)),
        (negotiation.domain_negotiation_epoch, tracer.call(
            "core.dn_epoch", negotiation.domain_negotiation_epoch)),
        (regularization.domain_regularization_round, tracer.call(
            "core.dr_round", regularization.domain_regularization_round)),
        (clustering.plan_clusters, tracer.call("core.plan_clusters",
                                               clustering.plan_clusters)),
        (report.evaluate_bank, tracer.call("metrics.evaluate",
                                           report.evaluate_bank)),
    ]
    for func, wrapper in functions:
        tracer.patch_function(func, wrapper)

    methods = [
        (EventStream, "window", "data.generate", None),
        (StreamArchive, "window", "data.window_read", None),
        (PerDomainTracker, "update_from_space", "core.select", None),
        (DomainParameterSpace, "training_plan", "core.training_plan",
         _groups_attrs),
        (CTRModel, "predict", "nn.predict", None),
        (Predictor, "predict_batch", "serving.predict_batch", _batch_attrs),
        (SnapshotStore, "publish", "serving.publish", None),
        (SnapshotStore, "publish_states", "serving.publish", None),
        (SnapshotStore, "save", "serving.save", None),
        (PredictorPool, "publish", "traffic.pool_publish", None),
        (IncrementalTrainer, "ingest", "online.ingest", None),
        (IncrementalTrainer, "update", "online.update", None),
        (GatedPublisher, "publish", "online.gate_publish", None),
    ]
    for cls, attr, name, attrs in methods:
        tracer.patch_method(cls, attr,
                            tracer.call(name, cls.__dict__[attr], attrs))
