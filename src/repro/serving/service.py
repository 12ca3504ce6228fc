"""The serving front door: Predictor, latency accounting, ServingService.

A :class:`Predictor` binds one model skeleton to a
:class:`~repro.serving.snapshots.SnapshotStore` and answers per-domain CTR
queries with **bit-identical** results to offline
``space.load_combined(model, d); model.predict(batch)`` — the serving path
changes where parameters come from, never their values.

There is one parameter path: every batch binds each model parameter to the
read-only snapshot array of the batch's domain (``load_state_dict(...,
copy=False)``) and runs the model's own ``predict``.  A bind is a few
pointer swaps, so a domain switch or a hot reload costs no copy and no
row scatter, and no memo of "what is loaded" can go stale — two
predictors may even share one model.

:class:`ServingService` wires a Predictor to the
:class:`~repro.serving.batcher.MicroBatcher` and a latency recorder whose
p50/p95/p99 and QPS are exported through :mod:`repro.utils.profiling`.
"""

from __future__ import annotations

import time

import numpy as np

from ..data.batching import Batch
from ..utils import profiling
from .batcher import BatchingPolicy, MicroBatcher
from .snapshots import SnapshotStore

__all__ = ["LatencyRecorder", "Predictor", "ServingService"]


class LatencyRecorder:
    """Per-request latency samples with tail percentiles and QPS."""

    def __init__(self, name="serving.request_seconds"):
        self.name = name
        self._samples = []

    def observe(self, seconds):
        self._samples.append(float(seconds))
        profiling.observe(self.name, seconds)

    def reset(self):
        self._samples = []

    @property
    def count(self):
        return len(self._samples)

    def quantile_seconds(self, q):
        return profiling.percentile(self._samples, q)

    def qps(self, elapsed_seconds):
        """Request throughput over an externally timed window."""
        if elapsed_seconds <= 0:
            return 0.0
        return self.count / elapsed_seconds

    def summary(self):
        if not self._samples:
            return {"count": 0}
        scale = 1e3  # report milliseconds
        return {
            "count": self.count,
            "mean_ms": sum(self._samples) / self.count * scale,
            "p50_ms": self.quantile_seconds(0.5) * scale,
            "p95_ms": self.quantile_seconds(0.95) * scale,
            "p99_ms": self.quantile_seconds(0.99) * scale,
        }


class Predictor:
    """Scores per-domain requests against the current snapshot."""

    def __init__(self, model, store):
        self._model = model
        self._store = store
        # The model's arrays at construction, rebound by ``release``.
        self._own_state = {
            name: param.data for name, param in model.named_parameters()
        }

    def predict_batch(self, users, items, domain):
        """Click probabilities for a homogeneous-domain batch."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        # Pin the snapshot once: the whole batch is served from this
        # version even if a publish lands mid-batch (hot-swap atomicity).
        snapshot = self._store.current()
        start = profiling.tick()
        self._model.load_state_dict(
            snapshot.state_for(int(domain)), copy=False
        )
        batch = Batch(users, items, np.zeros(len(users)), int(domain))
        scores = self._model.predict(batch)
        profiling.tock("serving.score_batch", start)
        profiling.count("serving.rows_scored", n=len(users))
        return scores

    def predict(self, user, item, domain):
        """One request's click probability."""
        return float(self.predict_batch([user], [item], domain)[0])

    def release(self):
        """Rebind the model's own arrays, dropping every snapshot reference.

        After a batch the model still points at that batch's snapshot
        arrays.  A pool worker calls this before flipping to a new
        shared-memory generation, so no parameter pins the retired
        segment's buffer and it closes on the first try.
        """
        self._model.load_state_dict(self._own_state, copy=False)

    def cache_stats(self):
        """Always ``{}``: serving binds snapshot arrays, it keeps no cache."""
        return {}


class ServingService:
    """The online inference front door: predict, batch, reload, stats."""

    def __init__(self, model, store=None, policy=None,
                 clock=time.perf_counter):
        self.store = store if store is not None else SnapshotStore()
        self.predictor = Predictor(model, self.store)
        self.latency = LatencyRecorder()
        self._clock = clock
        self.batcher = MicroBatcher(
            policy if policy is not None else BatchingPolicy(),
            score_batch=self.predictor.predict_batch,
            clock=clock,
            on_complete=self._observe,
        )

    def _observe(self, request):
        if request.error is None:
            self.latency.observe(request.latency)

    # ------------------------------------------------------------------
    # Publishing / reloading
    # ------------------------------------------------------------------
    def publish(self, space, dataset=None, metadata=None):
        """Publish a trained parameter space as the new live version.

        ``dataset`` is accepted for older callers and ignored: serving
        keeps no row cache, so it needs no training access counts.
        """
        return self.store.publish(space, metadata=metadata)

    def publish_states(self, domain_states, default_state=None,
                       metadata=None):
        """Publish explicit per-domain states (a trained ``StateBank``)."""
        return self.store.publish_states(
            domain_states, default_state=default_state, metadata=metadata
        )

    reload = publish

    # ------------------------------------------------------------------
    # Synchronous path
    # ------------------------------------------------------------------
    def predict_batch(self, users, items, domain):
        start = self._clock()
        scores = self.predictor.predict_batch(users, items, domain)
        elapsed = self._clock() - start
        for _ in range(len(scores)):
            self.latency.observe(elapsed)
        return scores

    def predict(self, user, item, domain):
        return float(self.predict_batch([user], [item], domain)[0])

    # ------------------------------------------------------------------
    # Micro-batched path
    # ------------------------------------------------------------------
    def submit(self, user, item, domain):
        return self.batcher.submit(user, item, domain)

    def poll(self):
        return self.batcher.poll()

    def drain(self):
        return self.batcher.drain()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        try:
            version = self.store.version
        except LookupError:
            version = None
        return {
            "version": version,
            "latency": self.latency.summary(),
            "batcher": self.batcher.stats(),
        }

    def reset_stats(self):
        self.latency.reset()
