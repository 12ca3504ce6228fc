"""Continual refresh: serve, ingest, update, gate, persist and reload.

Parent process plus one ``PredictorPool`` worker with one batch in
flight.  Set-up writes a drifted 8-domain stream to a columnar archive
and bootstraps (2 windows ingested, 2 updates, first publish — one more
window and update per gate rejection — and pool start).  Each later
window *i* is (a) served through the pool on the live version — its
prequential AUC comes from the served scores — then
(b) ingested from ``StreamArchive.window(i)``, (c) trained on, (d) gated,
(e) saved if accepted and (f) reloaded into the pool.  One seeded
corrupted candidate must be rejected and rolled back.

This mixes writes with reads and reaches what the other workloads do
not: sparse-embedding updates on small windows, copy-on-write publish,
shared-memory arena reload, pool IPC, cold caches after every reload and
columnar replay.  The serving phases then run in-process on the final
live version, with the last window's events as traffic.
"""

from __future__ import annotations

import shutil

import numpy as np

import serveprobe
from harness import OUT_DIR, check_auc, clock, input_digest, rss_peak_mb

NAME = "online_drift"

SIZES = {
    "full": {"n_windows": 24, "window_events": 2000, "probe_windows": 2},
    "toy": {"n_windows": 10, "window_events": 400, "probe_windows": 3},
}

N_DOMAINS = 8
BOOTSTRAP_WINDOWS = 2
BOOTSTRAP_UPDATES = 2
MAX_BOOTSTRAP_WINDOWS = 4
PARITY_ROWS = 16


def _stream(seed, size):
    from repro.online.stream import EventStream, StreamConfig

    cfg = SIZES[size]
    return EventStream(StreamConfig(
        name=NAME, n_domains=N_DOMAINS, n_windows=cfg["n_windows"],
        window_events=cfg["window_events"], seed=seed,
    ))


def _inject_at(seed, n_windows):
    """The window whose candidate is corrupted: after any bootstrap
    window, never the last one."""
    rng = np.random.default_rng([seed, 8])
    return int(rng.integers(MAX_BOOTSTRAP_WINDOWS, n_windows - 1))


def inputs(seed, size):
    stream = _stream(seed, size)
    arrays = [np.asarray([_inject_at(seed, stream.config.n_windows)])]
    for window in stream.windows():
        arrays += [window.users, window.items, window.labels, window.domains]
    return input_digest(*arrays)


def _corrupt(states, seed, scale):
    rng = np.random.default_rng([seed, 666])
    return {
        domain: {name: value + rng.normal(0.0, scale, size=value.shape)
                 for name, value in state.items()}
        for domain, state in states.items()
    }


def _prequential_auc(window, scores):
    from repro.metrics import auc_score

    aucs = [
        float(auc_score(window.labels[window.domains == d],
                        scores[window.domains == d]))
        for d in np.unique(window.domains)
        if len(np.unique(window.labels[window.domains == d])) == 2
    ]
    return float(np.mean(aucs))


class _Refresh:
    """One repetition's pipeline objects (built in set-up)."""

    def __init__(self, seed, size, workdir):
        from repro.models import build_model
        from repro.online import GatedPublisher, IncrementalTrainer
        from repro.online.gate import ValidationGate
        from repro.online.sim import OnlineSimConfig
        from repro.online.stream import StreamArchive, write_stream
        from repro.serving import Predictor, SnapshotStore
        from repro.traffic import PredictorPool

        defaults = OnlineSimConfig()
        self.defaults = defaults
        stream = _stream(seed, size)
        self.n_windows = stream.config.n_windows
        self.path = workdir / "stream.col"
        write_stream(self.path, stream)
        self.archive = StreamArchive.open(self.path)
        skeleton = stream.skeleton_dataset()
        self.make_model = lambda: build_model("mlp", skeleton, seed=seed)
        self.trainer = IncrementalTrainer(
            self.make_model(), N_DOMAINS, defaults.train,
            replay_capacity=defaults.replay_capacity,
            holdout_frac=defaults.holdout_frac,
            holdout_capacity=defaults.holdout_capacity,
            dataset_name=NAME, n_users=stream.config.n_users,
            n_items=stream.config.n_items, seed=seed,
        )
        self.store = SnapshotStore(keep=defaults.keep_versions)
        self.publisher = GatedPublisher(
            self.store, ValidationGate(self.make_model(), defaults.gate))
        self.first_window = self._bootstrap()
        self.reference = Predictor(self.make_model(), self.store)
        self.pool = PredictorPool(self.make_model(), n_workers=1)
        self.pool.start()
        self.pool.publish(self.store.current(), wait=True)
        self.next_batch = 0

    def _bootstrap(self):
        """Ingest, update and publish until a first version passes the gate.

        The gate rejects a miscalibrated first candidate (about one seed
        in fifty at two windows) and, with nothing to roll back to, the
        publisher raises; a serving system then waits for the next window
        and tries again.  Returns the first window the loop serves.
        """
        for index in range(BOOTSTRAP_WINDOWS):
            self.trainer.ingest(self.archive.window(index))
        for round_index in range(BOOTSTRAP_UPDATES):
            update = self.trainer.update(key=("bootstrap", round_index))
        index = BOOTSTRAP_WINDOWS
        while True:
            rejected = len(self.publisher.quarantine)
            try:
                self.publisher.publish(
                    update.states, update.default_state,
                    self.trainer.holdouts, key=index - 1,
                )
                return index
            except RuntimeError:
                if (len(self.publisher.quarantine) == rejected
                        or index == MAX_BOOTSTRAP_WINDOWS):
                    raise
            self.trainer.ingest(self.archive.window(index))
            update = self.trainer.update(key=("bootstrap", index))
            index += 1

    def score(self, users, items, domain):
        """One pool round trip; returns (scores, version, seconds)."""
        batch_id = self.next_batch
        self.next_batch += 1
        start = clock()
        self.pool.submit(batch_id, domain, users, items)
        (message,) = self.pool.drain(expected=1)
        elapsed = clock() - start
        _kind, _worker, got_id, _generation, version, scores = message
        if got_id != batch_id:
            return None, None, elapsed
        return scores, version, elapsed

    def close(self):
        self.pool.shutdown()
        self.archive.close()


def _pool_parity(run, refresh, window):
    """Pool scores must equal an in-process Predictor on the same snapshot."""
    for domain in np.unique(window.domains):
        rows = np.nonzero(window.domains == domain)[0][:PARITY_ROWS]
        users, items = window.users[rows], window.items[rows]
        pooled, _version, _s = refresh.score(users, items, int(domain))
        local = refresh.reference.predict_batch(users, items, int(domain))
        run.check("parity:pool_vs_predictor",
                  pooled is not None and np.array_equal(pooled, local))


def rep(run, seed, size, tracer):
    from repro.data.batching import Batch
    from repro.serving import ServingService
    from repro.traffic import trace_from_stream

    cfg = SIZES[size]
    workdir = OUT_DIR / f"{NAME}-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = clock()
    refresh = _Refresh(seed, size, workdir)
    run.add("setup_s", clock() - start)
    try:
        run.add("layer:online.bootstrap_windows", refresh.first_window)
        _pool_parity(run, refresh, refresh.archive.window(0))
        wall, aucs, accepted, published = _loop(run, refresh, seed, workdir)
        run.add("wall_s", wall)
        auc = float(np.mean(aucs))
        check_auc(run, "prequential", auc)
        run.add("auc", auc)
        run.add("layer:online.accept_ratio", accepted / published)
        run.add("layer:traffic.worker_rss_mb",
                rss_peak_mb(refresh.pool.worker_pids()[0]))

        store = refresh.store
        probe = refresh.make_model()
        service = ServingService(refresh.make_model(), store=store)

        def offline_scores(users, items, domain):
            probe.load_state_dict(store.current().state_for(domain))
            return probe.predict(Batch(users, items, np.zeros(len(users)),
                                       domain))

        last = list(range(refresh.n_windows - cfg["probe_windows"],
                          refresh.n_windows))
        trace = trace_from_stream(refresh.archive,
                                  mean_qps=serveprobe.RATES[0],
                                  windows=last, seed=seed)
        serveprobe.serve(run, service, trace, offline_scores, tracer,
                         batch_samples="layer:serving.capacity_batch_ms")
    finally:
        refresh.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _loop(run, refresh, seed, workdir):
    """Windows after bootstrap; returns (timed seconds, AUCs, counts)."""
    inject_at = _inject_at(seed, refresh.n_windows)
    store, trainer = refresh.store, refresh.trainer
    wall = 0.0
    aucs = []
    accepted = published = 0
    arena_mb = 0.0
    for index in range(refresh.first_window, refresh.n_windows):
        live = store.version
        start = clock()
        window = refresh.archive.window(index)
        # (a) serve the window on the live version, one batch in flight.
        scores = np.empty(len(window))
        ok_rows = 0
        rtts = []
        for domain, rows in serveprobe.prebatch(window.domains):
            got, version, seconds = refresh.score(
                window.users[rows], window.items[rows], domain)
            rtts.append(seconds * 1e3)
            if got is not None and version == live:
                scores[rows] = got
                ok_rows += len(rows)
            else:
                scores[rows] = np.nan
        ready = clock()
        wall += ready - start
        run.requests("pool", len(window), ok_rows)
        run.extend("batch_ms", rtts)
        run.extend("layer:traffic.pool_rtt_ms", rtts)
        aucs.append(_prequential_auc(window, scores))

        start = clock()
        trainer.ingest(window)                                  # (b)
        update = trainer.update(key=index)                      # (c)
        candidate = update.states
        if index == inject_at:
            candidate = _corrupt(candidate, seed,
                                 refresh.defaults.regression_scale)
        result = refresh.publisher.publish(                     # (d)
            candidate, update.default_state, trainer.holdouts, key=index)
        published += 1
        if result.accepted:
            accepted += 1
            store.save(workdir / "live.npz")                    # (e)
            refresh.pool.publish(store.current(), wait=True)    # (f)
            run.extend("freshness_ms", [(clock() - ready) * 1e3])
        wall += clock() - start

        if index == inject_at:
            run.check("injected_regression_rejected", not result.accepted)
            run.check("injected_regression_rolled_back",
                      store.version == live)
        if result.accepted:
            _pool_parity(run, refresh, window)
        arena_mb = max(arena_mb, sum(
            refresh.pool.stats()["segments"].values()) / 2**20)
    run.add("layer:traffic.arena_mb", arena_mb)
    return wall, aucs, accepted, published
