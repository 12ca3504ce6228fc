"""Table-V MLP+MAMDR on taobao30_sim, then serve the trained bank.

Fixed features and 30 domains: nn forward/backward and the DN/DR loops do
almost all the work of the timed ``Session.fit``.  The bank is then
published and served; with frozen features there are no embedding
tables, so serving takes the full-state ``Predictor`` path (whole state
loaded on every domain switch) that the row-path workload bypasses.
"""

from __future__ import annotations

import numpy as np

import serveprobe
from harness import check_auc, clock, input_digest

NAME = "train_taobao30"

SIZES = {
    # epochs None = the default TrainConfig
    "full": {"scale": 1.0, "epochs": None, "probe_s": 2.4, "publishes": 6},
    "toy": {"scale": 0.2, "epochs": 1, "probe_s": 0.6, "publishes": 1},
}


def _dataset(seed, size):
    from repro.data import dataset_by_name

    return dataset_by_name("taobao30_sim", scale=SIZES[size]["scale"],
                           seed=seed)


def inputs(seed, size):
    """Digest of every generated input (dataset and request trace)."""
    dataset = _dataset(seed, size)
    trace = serveprobe.zipf_trace(NAME, dataset, seed,
                                  SIZES[size]["probe_s"])
    return input_digest(dataset=dataset, trace=trace)


def rep(run, seed, size, tracer):
    from repro.core import TrainConfig
    from repro.data.batching import Batch
    from repro.models import build_model
    from repro.serving import ServingService
    from repro.train import Session, SessionConfig

    cfg = SIZES[size]
    start = clock()
    dataset = _dataset(seed, size)
    run.add("setup_s", clock() - start)

    train = TrainConfig() if cfg["epochs"] is None \
        else TrainConfig(epochs=cfg["epochs"])
    session = Session(
        SessionConfig(dataset="taobao30_sim", model="mlp",
                      framework="mamdr", seed=seed, train=train),
        dataset=dataset,
    )
    start = clock()
    result = session.fit()
    run.add("wall_s", clock() - start)
    auc = float(result.mean_auc)
    check_auc(run, "test", auc)
    run.add("auc", auc)

    bank = result.bank

    def offline_scores(users, items, domain):
        return bank.scores(Batch(users, items, np.zeros(len(users)), domain))

    service = ServingService(build_model("mlp", dataset, seed=seed))
    rng = np.random.default_rng([seed, 30])
    probes = serveprobe.probe_rows(dataset, rng)
    for _ in range(cfg["publishes"]):
        serveprobe.freshness(
            run, service,
            lambda: service.publish_states(bank.domain_states,
                                           default_state=bank.default_state),
            probes, offline_scores,
        )
    trace = serveprobe.zipf_trace(NAME, dataset, seed, cfg["probe_s"])
    serveprobe.serve(run, service, trace, offline_scores, tracer)
    serveprobe.parity(run, "after_load", service, probes, offline_scores)
