"""The domain axis: plan, train, publish and serve 5000 domains.

Without this workload ``core.clustering``, the clustered parameter store
and large-scale synthetic generation go unmeasured.  Set-up generates the
5000-domain ``taobao_sim`` with the domains-bench settings; the timed
pipeline is ``plan_clusters`` → ``MAMDR(store=ClusteredDomainStore)``
with the domains-bench ``BENCH_CONFIG`` → publish → one batch for each of
32 sampled domains → ``evaluate_bank``.  The serving phases then send
Zipf traffic over those 32 domains.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import serveprobe
from harness import check_auc, clock, input_digest

NAME = "domains_5k"

SIZES = {
    "full": {"n_domains": 5000, "clusters": 64, "probe_s": 2.4},
    "toy": {"n_domains": 400, "clusters": 16, "probe_s": 0.6},
}

SAMPLED_DOMAINS = 32


def _dataset(seed, size):
    from repro.core.domains_bench import make_domains_dataset

    return make_domains_dataset(SIZES[size]["n_domains"], seed=seed)


def _sampled(seed, n_domains):
    rng = np.random.default_rng([seed, 5000])
    return np.sort(rng.choice(n_domains, size=SAMPLED_DOMAINS,
                              replace=False))


def _trace(dataset, sampled, seed, duration):
    """Zipf traffic over the sampled domains, in the dataset's ids."""
    trace = serveprobe.zipf_trace(NAME, dataset, seed, duration,
                                  n_domains=len(sampled))
    return replace(trace, domains=sampled[trace.domains],
                   n_domains=dataset.n_domains)


def inputs(seed, size):
    dataset = _dataset(seed, size)
    sampled = _sampled(seed, dataset.n_domains)
    trace = _trace(dataset, sampled, seed, SIZES[size]["probe_s"])
    return input_digest(sampled, dataset=dataset, trace=trace)


def rep(run, seed, size, tracer):
    from repro.core import MAMDR
    from repro.core.clustering import plan_clusters
    from repro.core.domains_bench import BENCH_CONFIG
    from repro.core.param_space import ClusteredDomainStore
    from repro.data.batching import Batch
    from repro.metrics import evaluate_bank
    from repro.models import build_model
    from repro.serving import ServingService

    cfg = SIZES[size]
    start = clock()
    dataset = _dataset(seed, size)
    run.add("setup_s", clock() - start)
    sampled = _sampled(seed, dataset.n_domains)
    probes = serveprobe.probe_rows(
        dataset, np.random.default_rng([seed, 32]), domains=sampled, rows=16)

    start = clock()
    plan = plan_clusters(
        dataset, n_clusters=cfg["clusters"], seed=seed,
        head_fraction=min(0.01, 100 / dataset.n_domains),
    )
    bank = MAMDR(
        store=lambda shared: ClusteredDomainStore(shared, plan),
    ).fit(build_model("mlp", dataset, seed=seed), dataset, BENCH_CONFIG,
          seed=seed)
    service = ServingService(build_model("mlp", dataset, seed=seed))

    def offline_scores(users, items, domain):
        return bank.scores(Batch(users, items, np.zeros(len(users)), domain))

    wall = clock() - start
    # Publish, then one batch for each sampled domain (parity-checked
    # outside the timed part).
    wall += serveprobe.freshness(
        run, service,
        lambda: service.publish_states(bank.domain_states,
                                       default_state=bank.default_state),
        probes, offline_scores,
    )
    start = clock()
    report = evaluate_bank(bank, dataset, method="mlp+mamdr")
    run.add("wall_s", wall + clock() - start)
    auc = float(report.mean_auc)
    check_auc(run, "test", auc)
    run.add("auc", auc)

    trace = _trace(dataset, sampled, seed, cfg["probe_s"])
    serveprobe.serve(run, service, trace, offline_scores, tracer)
    serveprobe.parity(run, "after_load", service, probes, offline_scores)
