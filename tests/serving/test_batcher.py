"""Micro-batcher flush policy: size trigger, wait trigger, per-domain."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import BatchingPolicy, MicroBatcher

pytestmark = pytest.mark.serving


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class RecordingScorer:
    """Scores a batch as user + item/1000 so results are attributable."""

    def __init__(self):
        self.batches = []

    def __call__(self, users, items, domain):
        self.batches.append((users.copy(), items.copy(), domain))
        return users + items / 1000.0


def make_batcher(max_batch_size=3, max_wait_us=1000.0):
    clock = FakeClock()
    scorer = RecordingScorer()
    batcher = MicroBatcher(
        BatchingPolicy(max_batch_size=max_batch_size, max_wait_us=max_wait_us),
        score_batch=scorer, clock=clock,
    )
    return batcher, scorer, clock


def test_size_trigger_flushes_exactly_at_capacity():
    batcher, scorer, _ = make_batcher(max_batch_size=3)
    first = [batcher.submit(u, 10 + u, 0) for u in range(2)]
    assert all(not r.done for r in first)
    assert batcher.pending() == 2
    last = batcher.submit(2, 12, 0)
    assert last.done and all(r.done for r in first)
    assert len(scorer.batches) == 1
    users, items, domain = scorer.batches[0]
    np.testing.assert_array_equal(users, [0, 1, 2])
    assert domain == 0
    assert first[1].result == pytest.approx(1.011)
    assert batcher.size_flushes == 1 and batcher.wait_flushes == 0


def test_wait_trigger_flushes_stale_queue_on_poll():
    batcher, scorer, clock = make_batcher(max_batch_size=100,
                                          max_wait_us=1000.0)
    request = batcher.submit(4, 40, 1)
    clock.advance(0.0005)
    assert batcher.poll() == 0          # younger than max_wait: stays queued
    assert not request.done
    clock.advance(0.0006)               # now 1.1ms old
    assert batcher.poll() == 1
    assert request.done
    assert request.result == pytest.approx(4.04)
    assert batcher.wait_flushes == 1
    # latency spans enqueue -> flush on the injected clock
    assert request.latency == pytest.approx(0.0011)


def test_queues_are_per_domain():
    batcher, scorer, _ = make_batcher(max_batch_size=2)
    batcher.submit(0, 0, 0)
    batcher.submit(1, 1, 1)
    assert batcher.pending() == 2       # neither domain reached capacity
    batcher.submit(2, 2, 0)             # domain 0 flushes alone
    assert len(scorer.batches) == 1
    assert scorer.batches[0][2] == 0
    assert batcher.pending() == 1


def test_wait_timer_starts_at_first_request_of_batch():
    batcher, _, clock = make_batcher(max_batch_size=100, max_wait_us=1000.0)
    batcher.submit(0, 0, 0)
    clock.advance(0.0008)
    batcher.submit(1, 1, 0)             # does not reset the deadline
    clock.advance(0.0003)
    assert batcher.poll() == 1          # oldest request is 1.1ms old


def test_stale_queue_flushes_on_submit_to_another_domain():
    """Starvation fix: an overdue sub-batch must not wait for a poll."""
    batcher, scorer, clock = make_batcher(max_batch_size=100,
                                          max_wait_us=1000.0)
    starved = batcher.submit(7, 70, 0)
    clock.advance(0.0015)               # domain-0 queue is now overdue
    batcher.submit(1, 10, 1)            # traffic only ever hits domain 1
    assert starved.done                 # flushed by the submit, no poll
    assert starved.result == pytest.approx(7.07)
    assert batcher.wait_flushes == 1
    assert scorer.batches[0][2] == 0


def test_next_deadline_drives_idle_flush():
    """With no arrivals at all, next_deadline + poll flushes at max_wait."""
    batcher, _, clock = make_batcher(max_batch_size=100, max_wait_us=1000.0)
    assert batcher.next_deadline() is None
    clock.advance(0.25)
    request = batcher.submit(3, 30, 2)
    deadline = batcher.next_deadline()
    assert deadline == pytest.approx(0.25 + 0.001)
    clock.advance(deadline - clock.now)  # idle: clock runs, nothing arrives
    assert batcher.poll() == 1
    assert request.done
    assert batcher.next_deadline() is None


def test_next_deadline_tracks_oldest_queue():
    batcher, _, clock = make_batcher(max_batch_size=100, max_wait_us=1000.0)
    batcher.submit(0, 0, 0)
    clock.advance(0.0004)
    batcher.submit(1, 1, 1)
    assert batcher.next_deadline() == pytest.approx(0.001)  # domain 0's


def test_drain_force_flushes_everything():
    batcher, scorer, _ = make_batcher(max_batch_size=100)
    requests = [batcher.submit(u, u, u % 2) for u in range(5)]
    assert batcher.drain() == 2         # one forced flush per domain
    assert all(r.done for r in requests)
    assert batcher.pending() == 0
    assert batcher.forced_flushes == 2


def test_stats_accounting():
    batcher, _, clock = make_batcher(max_batch_size=2, max_wait_us=100.0)
    batcher.submit(0, 0, 0)
    batcher.submit(1, 1, 0)             # size flush
    batcher.submit(2, 2, 1)
    clock.advance(1.0)
    batcher.poll()                      # wait flush
    stats = batcher.stats()
    assert stats["requests"] == 3
    assert stats["batches"] == 2
    assert stats["size_flushes"] == 1
    assert stats["wait_flushes"] == 1
    assert stats["rows_scored"] == 3
    assert stats["failed"] == 0
    assert stats["mean_batch_size"] == pytest.approx(1.5)


def test_failed_batch_completes_every_request_with_the_error():
    """A scoring error must not lose the batch: every request in it is
    completed with the error, and the accounting still balances."""
    def scorer(users, items, domain):
        if (users >= 10).any():
            raise IndexError("embedding index out of range [0, 10)")
        return users + items / 1000.0

    completed = []
    batcher = MicroBatcher(
        BatchingPolicy(max_batch_size=3, max_wait_us=1000.0),
        score_batch=scorer, clock=FakeClock(), on_complete=completed.append,
    )
    requests = [batcher.submit(u, 0, 1) for u in (1, 2)]
    requests.append(batcher.submit(10, 0, 1))   # does not raise
    assert all(r.done for r in requests)
    assert completed == requests
    for request in requests:
        assert request.result is None
        assert isinstance(request.error, IndexError)
    # The scorer recovers for later batches.
    ok = batcher.submit(3, 30, 1)
    batcher.drain()
    assert ok.result == pytest.approx(3.03) and ok.error is None
    stats = batcher.stats()
    assert stats["requests"] == 4
    assert stats["failed"] == 3 and stats["rows_scored"] == 1
    assert stats["pending"] == 0
    assert stats["requests"] == (
        stats["rows_scored"] + stats["failed"] + stats["pending"]
    )


def test_policy_validation():
    with pytest.raises(ValueError):
        BatchingPolicy(max_batch_size=0)
    with pytest.raises(ValueError):
        BatchingPolicy(max_wait_us=-1.0)
