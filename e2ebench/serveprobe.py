"""Serving phases every workload runs against the model it produced.

Three phases, single process, no threads, cycled over rounds of the
trace (``rounds``):

1. open loop at 2000 requests/s: a seeded Poisson trace; the generator
   polls the service until each request's due time, then submits it;
2. the same request sequence re-paced to 6000 requests/s;
3. closed-loop capacity: the trace pre-batched per domain (at most 32
   rows, arrival order) and sent back to back through
   ``ServingService.predict_batch``.

Open-loop latency runs from each request's *due* time, so a stall is
charged to every request that waited behind it; how late the generator
itself ran is reported separately.  Every answer is compared with the
offline reference score for its row: an unanswered or wrong request is a
failed request.
"""

from __future__ import annotations

import bisect
import gc
from dataclasses import replace

import numpy as np

from harness import clock

RATES = (2000, 6000)
MAX_BATCH_ROWS = 32

#: Seconds of traffic per round: the phases cycle every round, so each
#: phase samples the whole run rather than one stretch of it.
ROUND_S = 0.6

#: Closed-loop passes over each round's requests: a round's pass lasts
#: only ~20 ms, too short to time on its own.
CLOSED_PASSES = 5

#: A served score must match the offline forward of the same row.  The
#: offline reference scores each domain's rows in one batch, and BLAS
#: takes another kernel for a one-row batch, which moves the last bit
#: (differences of ~1e-16 seen); anything above this tolerance is a wrong
#: answer.  Same-batch parity checks (``parity``) stay bit-exact.
TOLERANCE = 1e-12


def prebatch(domains, max_rows=MAX_BATCH_ROWS):
    """Per-domain batches of at most ``max_rows`` rows, in arrival order.

    ``domains`` is the domain of each request in arrival order.  Returns
    ``[(domain, row_index_array)]`` in the order the batches close (full
    batches first, then leftovers by first arrival).
    """
    open_batches = {}
    batches = []
    for row, domain in enumerate(np.asarray(domains).tolist()):
        rows = open_batches.setdefault(domain, [])
        rows.append(row)
        if len(rows) == max_rows:
            batches.append((domain, np.asarray(rows, dtype=np.int64)))
            open_batches[domain] = []
    for domain, rows in open_batches.items():
        if rows:
            batches.append((domain, np.asarray(rows, dtype=np.int64)))
    return batches


def zipf_trace(name, dataset, seed, duration, n_domains=None):
    """Seeded Poisson trace at the lowest rate: Zipf domains, users, items.

    ``n_domains`` defaults to the dataset's; a smaller count draws domain
    ranks for the caller to map onto dataset domains.
    """
    from repro.traffic import TraceConfig, generate_trace

    return generate_trace(TraceConfig(
        name=name, n_domains=n_domains or dataset.n_domains,
        n_users=dataset.n_users, n_items=dataset.n_items,
        duration=duration, mean_qps=RATES[0], seed=seed,
    ))


def reference_scores(trace, offline_scores):
    """Offline score of every trace row, ``offline_scores(users, items,
    domain)`` evaluated once per domain."""
    expected = np.empty(len(trace))
    for domain in np.unique(trace.domains):
        rows = np.nonzero(trace.domains == domain)[0]
        expected[rows] = offline_scores(
            trace.users[rows], trace.items[rows], int(domain)
        )
    return expected


def _matches(served, expected):
    return np.abs(np.asarray(served, dtype=np.float64) - expected) <= TOLERANCE


def rounds(trace, seconds=ROUND_S):
    """Split ``trace`` into consecutive rounds of ``seconds`` each.

    Each round is a trace of its own, re-based to start at 0, so the
    three phases can cycle many times through a run: per-round figures
    then sample the whole run, not one moment of it.
    """
    n_rounds = max(1, int(trace.horizon // seconds))
    cuts = np.searchsorted(trace.times, np.arange(1, n_rounds) * seconds)
    bounds = [0, *cuts.tolist(), len(trace)]
    for k in range(n_rounds):
        rows = slice(bounds[k], bounds[k + 1])
        last = k == n_rounds - 1
        yield rows, replace(
            trace, times=trace.times[rows] - k * seconds,
            users=trace.users[rows], items=trace.items[rows],
            domains=trace.domains[rows],
            horizon=trace.horizon - k * seconds if last else seconds,
        )


def open_loop(run, service, trace, expected, rate, tracer=None):
    """Replay ``trace`` on its own schedule; record latency from due time."""
    phase = f"r{rate}"
    users = trace.users.tolist()
    items = trace.items.tolist()
    domains = trace.domains.tolist()
    n = len(users)
    requests = [None] * n
    late = np.empty(n)
    mark = len(tracer.spans) if tracer is not None else 0
    gc.collect()
    start = clock() + 0.002
    due_times = (start + trace.times).tolist()
    for i in range(n):
        due = due_times[i]
        now = clock()
        while now < due:
            service.poll()
            now = clock()
        late[i] = now - due
        requests[i] = service.submit(users[i], items[i], domains[i])
    backlog = service.batcher.pending()
    while service.batcher.pending():
        service.poll()

    answered = np.array([r.result is not None for r in requests])
    served = np.array([r.result if r.result is not None else np.nan
                       for r in requests])
    ok = answered & _matches(served, expected)
    run.requests(phase, n, int(ok.sum()))
    latency_ms = [
        (r.completed_at - due) * 1e3
        for r, due in zip(requests, due_times) if r.completed_at is not None
    ]
    run.extend(f"lat_ms.{phase}", latency_ms)
    run.extend("layer:serving.gen_late_ms", late * 1e3)
    run.add("layer:serving.backlog_end", backlog)

    if tracer is not None:
        # The batch that served a request is the last scoring span that
        # ended before the request completed (scoring is sequential).
        spans = [s for s in tracer.spans[mark:]
                 if s[1] == "serving.predict_batch"]
        ends = [s[3] for s in spans]
        waits = []
        for request in requests:
            k = bisect.bisect_right(ends, request.completed_at) - 1
            if k >= 0:
                waits.append((spans[k][2] - request.enqueued_at) * 1e3)
        run.extend("layer:serving.queue_wait_ms", waits)


def closed_loop(run, service, trace, expected, batch_samples,
                phase="capacity", passes=CLOSED_PASSES):
    """Back-to-back passes over the pre-batched trace."""
    batches = [
        (domain, rows, trace.users[rows], trace.items[rows])
        for domain, rows in prebatch(trace.domains)
    ]
    gc.collect()
    batch_ms = []
    elapsed = 0.0
    for _ in range(passes):
        outputs = []
        start = clock()
        for domain, _rows, users, items in batches:
            t0 = clock()
            outputs.append(service.predict_batch(users, items, domain))
            batch_ms.append((clock() - t0) * 1e3)
        elapsed += clock() - start
        ok = sum(int(_matches(scores, expected[rows]).sum())
                 for (_d, rows, _u, _i), scores in zip(batches, outputs))
        run.requests(phase, len(trace), ok)
    if phase == "capacity":
        run.extend(batch_samples, batch_ms)
        run.add("capacity_rps", len(trace) * passes / elapsed)


def serve(run, service, trace, offline_scores, tracer=None,
          batch_samples="batch_ms"):
    """Cycle the three phases over the rounds of ``trace``.

    Returns the wall seconds of all rounds (the paced open-loop phases,
    their drain and the closed loop).  ``batch_samples`` names the sample
    list the closed-loop per-batch round trips go to (the pool workload
    keeps ``batch_ms`` for the pool's own round trips).
    """
    expected = reference_scores(trace, offline_scores)
    # Warm-up: one untimed pass over the whole trace, so first touches
    # (row caches, lazily materialized states) are not charged to round 1.
    closed_loop(run, service, trace, expected, batch_samples,
                phase="warmup", passes=1)
    start = clock()
    for rows, chunk in rounds(trace):
        for rate in RATES:
            open_loop(run, service, chunk.at_rate(rate), expected[rows],
                      rate, tracer)
        closed_loop(run, service, chunk, expected[rows], batch_samples)
    elapsed = clock() - start
    rates = [
        entry["hit_rate"]
        for entry in service.predictor.cache_stats().values()
    ]
    run.add("layer:serving.cache_hit_rate",
            float(np.mean(rates)) if rates else 0.0)
    return elapsed


def freshness(run, service, publish, probes, offline_scores):
    """Publish, then answer one batch per domain under the new version.

    ``publish()`` installs a new version through the service and returns
    its snapshot; ``probes`` is ``[(users, items, domain)]``.  Each probe
    yields one freshness sample: the time from the start of the publish
    until that domain answered from the new version.  Every answer is
    checked bit for bit against ``offline_scores`` once all have answered.
    Returns the seconds from the publish to the last answer.
    """
    served = []
    start = clock()
    snapshot = publish()
    for users, items, domain in probes:
        served.append(service.predict_batch(users, items, domain))
        run.extend("freshness_ms", [(clock() - start) * 1e3])
    elapsed = clock() - start
    for scores, (users, items, domain) in zip(served, probes):
        run.check("parity:after_publish",
                  np.array_equal(scores, offline_scores(users, items, domain)))
    run.check("freshness:new_version_live",
              service.store.version == snapshot.version)
    return elapsed


def parity(run, name, service, probes, offline_scores):
    """Served scores must equal the offline forward bit for bit."""
    for users, items, domain in probes:
        served = service.predict_batch(users, items, domain)
        run.check(f"parity:{name}",
                  np.array_equal(served, offline_scores(users, items, domain)))


def probe_rows(dataset, rng, domains=None, rows=MAX_BATCH_ROWS):
    """Up to ``rows`` sampled test rows of each domain, as probe batches."""
    probes = []
    for index in (range(dataset.n_domains) if domains is None else domains):
        table = dataset.domain(int(index)).test
        pick = rng.choice(len(table), size=min(rows, len(table)),
                          replace=False)
        probes.append((table.users[pick], table.items[pick], int(index)))
    return probes
