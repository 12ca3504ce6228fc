"""``repro.serving`` — online multi-domain inference (Section IV-E).

The deployment layer between a trained
:class:`~repro.core.param_space.DomainParameterSpace` and live CTR traffic:

* :mod:`repro.serving.snapshots` — versioned, copy-on-write materialized
  per-domain states with atomic hot-swap;
* :mod:`repro.serving.batcher` — micro-batching of single-row requests
  into per-domain batches;
* :mod:`repro.serving.service` — the Predictor/ServingService front door,
  which binds the snapshot arrays of each batch's domain zero-copy, with
  latency percentiles and QPS accounting;
* :mod:`repro.serving.bench` — the ``serve-bench`` harness behind
  ``python -m repro.cli serve-bench``.

Serving has no embedding row cache.  Figure 7's static/dynamic tiers save
remote parameter-server pulls; here a published snapshot already sits in
local or shared memory, so the tiers live only where a pull exists, in
:mod:`repro.distributed.cache`.
"""

from .batcher import BatchingPolicy, MicroBatcher, PendingRequest
from .service import LatencyRecorder, Predictor, ServingService
from .snapshots import ModelSnapshot, SharedSnapshotArena, SnapshotStore

__all__ = [
    "SharedSnapshotArena",
    "BatchingPolicy",
    "MicroBatcher",
    "PendingRequest",
    "LatencyRecorder",
    "Predictor",
    "ServingService",
    "ModelSnapshot",
    "SnapshotStore",
]
