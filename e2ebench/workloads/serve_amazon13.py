"""Open-loop and closed-loop serving of an amazon13_sim MAMDR space.

Trainable id embeddings put serving on the ``Predictor`` row path and the
serve embedding cache.  With 13 Zipf-weighted domains almost every batch
switches domain, which is the per-batch preparation cost the serving
open items target.  At 2000 requests/s latency is mostly batcher wait; at
6000 requests/s it is mostly scoring.  Training happens in set-up only.
"""

from __future__ import annotations

import numpy as np

import serveprobe
from harness import check_auc, clock, input_digest

NAME = "serve_amazon13"

SIZES = {
    "full": {"scale": 1.0, "probe_s": 3.0, "publishes": 10},
    "toy": {"scale": 0.3, "probe_s": 0.6, "publishes": 2},
}


def _train_config():
    from repro.core import TrainConfig

    # The serve-bench's short DN+DR schedule: enough to give every domain
    # its own delta, cheap enough to stay in set-up.
    return TrainConfig(epochs=2, batch_size=64, inner_steps=4, dr_steps=2,
                       sample_k=1)


def _dataset(seed, size):
    from repro.data import dataset_by_name

    return dataset_by_name("amazon13_sim", scale=SIZES[size]["scale"],
                           seed=seed)


def inputs(seed, size):
    dataset = _dataset(seed, size)
    trace = serveprobe.zipf_trace(NAME, dataset, seed,
                                  SIZES[size]["probe_s"])
    return input_digest(dataset=dataset, trace=trace)


def _served_auc(service, dataset):
    """AUC over every test row, scored by the service in <=32-row batches.

    Pooled over domains rather than averaged per domain: the sparse
    domains' test splits hold a few dozen rows, and their per-domain AUCs
    swing with the seed far more than the served model's quality does.
    """
    from repro.metrics import auc_score

    labels, scores = [], []
    for domain in dataset:
        table = domain.test
        labels.append(table.labels)
        scores += [
            service.predict_batch(table.users[i:i + 32],
                                  table.items[i:i + 32], domain.index)
            for i in range(0, len(table), 32)
        ]
    return float(auc_score(np.concatenate(labels), np.concatenate(scores)))


def rep(run, seed, size, tracer):
    from repro.data.batching import Batch
    from repro.models import build_model
    from repro.serving import BatchingPolicy, ServingService
    from repro.serving.bench import train_space

    cfg = SIZES[size]
    start = clock()
    dataset = _dataset(seed, size)
    space = train_space(build_model("mlp", dataset, seed=seed), dataset,
                        _train_config(), seed=seed)
    service = ServingService(build_model("mlp", dataset, seed=seed),
                             policy=BatchingPolicy())
    service.publish(space, dataset=dataset)
    run.add("setup_s", clock() - start)

    offline = build_model("mlp", dataset, seed=seed)

    def offline_scores(users, items, domain):
        space.load_combined(offline, domain)
        return offline.predict(Batch(users, items, np.zeros(len(users)),
                                     domain))

    rng = np.random.default_rng([seed, 13])
    probes = serveprobe.probe_rows(dataset, rng)
    serveprobe.parity(run, "before", service, probes, offline_scores)
    for _ in range(cfg["publishes"]):
        serveprobe.freshness(
            run, service, lambda: service.publish(space, dataset=dataset),
            probes, offline_scores,
        )
    trace = serveprobe.zipf_trace(NAME, dataset, seed, cfg["probe_s"])
    run.add("wall_s", serveprobe.serve(run, service, trace, offline_scores,
                                       tracer))
    serveprobe.parity(run, "after", service, probes, offline_scores)

    auc = _served_auc(service, dataset)
    check_auc(run, "served_test", auc)
    run.add("auc", auc)
