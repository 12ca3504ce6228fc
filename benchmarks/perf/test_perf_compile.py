"""Compile-and-replay executor benchmarks.

Times the bulk-synchronous DN round and the full MAMDR epoch (DN + DR)
three ways on the same computation:

* **eager** — the sequential in-process reference, plain Python autodiff
  dispatch per op (``sync_dn_round_reference`` / ``_dr_targets``);
* **compiled** — the same sequential loop with steps replayed from the
  compiled tape (``repro.nn.compiled_execution``);
* **vectorized** — all workers/targets replayed as one lane-batched tape
  (``vector_dn_round`` / ``vector_dr_rounds``), the single-core answer
  to multi-domain parallelism.

Every variant is bitwise-equal to the eager reference (asserted in
``tests/distributed/test_vector.py``); the numbers here are therefore a
pure executor comparison, not an algorithm change.  A last row times
the forked multi-process DR rounds (``parallel_dr_rounds``) at 1 and 2
workers.  Results append to ``BENCH_perf.json`` through the
``perf_records`` fixture.

Run::

    PYTHONPATH=src python -m pytest benchmarks/perf -m perf -q -s
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import TrainConfig
from repro.core.param_space import DomainParameterSpace
from repro.data import DomainSpec, SyntheticConfig, generate_dataset
from repro.data.benchmarks import taobao_sim
from repro.distributed import parallel_dr_rounds
from repro.distributed.parallel import _dr_targets
from repro.distributed.vector import (
    sync_dn_round_reference,
    vector_dn_round,
    vector_dr_rounds,
)
from repro.models import build_model
from repro.nn import compiled_execution
from repro.utils.seeding import spawn_rng

N_DOMAIN_GRID = (4, 32, 128)
DN_CONFIG = dict(batch_size=8, inner_steps=4)
DR_CONFIG = dict(batch_size=8, sample_k=3, dr_steps=2)


def make_mdr_dataset(n_domains, seed=0):
    """Many small domains — the regime the paper's industrial deployment
    runs in (hundreds of domains, thin per-domain traffic)."""
    specs = tuple(
        DomainSpec(f"C{i}", 120, 0.25 + 0.05 * (i % 8))
        for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name=f"compile_{n_domains}", domains=specs, n_users=400,
        n_items=200, latent_dim=8, feature_mode="fixed", feature_dim=10,
        seed=seed,
    ))


def best_time(fn, repeats=3, warmup=1):
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def time_dn(dataset, config, variant):
    model = build_model("mlp", dataset, seed=0)
    shared = model.state_dict()

    def round_once():
        state = {k: v.copy() for k, v in shared.items()}
        rng = spawn_rng(11, "bench-dn")
        if variant == "vectorized":
            vector_dn_round(model, dataset, state, config, rng)
        elif variant == "compiled":
            with compiled_execution():
                sync_dn_round_reference(model, dataset, state, config, rng)
        else:
            sync_dn_round_reference(model, dataset, state, config, rng)

    return best_time(round_once)


def time_dr(dataset, config, variant):
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, dataset.n_domains)
    for target in range(dataset.n_domains):
        delta = space.delta(target)
        for name in delta:
            delta[name] += 0.01 * (target + 1)
    targets = list(range(dataset.n_domains))

    def rounds_once():
        if variant == "vectorized":
            vector_dr_rounds(model, dataset, space, config, seed=7)
        elif variant == "compiled":
            with compiled_execution():
                _dr_targets(model, dataset, space, config, 7, targets)
        else:
            _dr_targets(model, dataset, space, config, 7, targets)

    return best_time(rounds_once)


# ----------------------------------------------------------------------
# Full perf suite (pytest benchmarks/perf -m perf)
# ----------------------------------------------------------------------

@pytest.mark.perf
def test_dn_epoch_compiled_vs_eager(perf_records):
    """Acceptance benchmark: the vectorized DN round is ≥ 5x the eager
    single-process round at 32+ domains."""
    by_n_domains = {}
    for n_domains in N_DOMAIN_GRID:
        dataset = make_mdr_dataset(n_domains)
        config = TrainConfig(**DN_CONFIG)
        eager = time_dn(dataset, config, "eager")
        compiled = time_dn(dataset, config, "compiled")
        vectorized = time_dn(dataset, config, "vectorized")
        row = {
            "n_domains": n_domains,
            "eager_seconds": eager,
            "compiled_seconds": compiled,
            "vectorized_seconds": vectorized,
            "compiled_speedup": eager / compiled,
            "vectorized_speedup": eager / vectorized,
        }
        by_n_domains[str(n_domains)] = row
        print(f"\nDN round n={n_domains}: eager {eager * 1e3:.1f} ms, "
              f"compiled {compiled * 1e3:.1f} ms, "
              f"vectorized {vectorized * 1e3:.1f} ms "
              f"({row['vectorized_speedup']:.2f}x)")
        if n_domains >= 32:
            assert row["vectorized_speedup"] >= 5.0, (
                f"vectorized DN only {row['vectorized_speedup']:.2f}x at "
                f"{n_domains} domains"
            )
    perf_records["dn_epoch_compiled"] = dict(DN_CONFIG, by_n_domains=by_n_domains)


@pytest.mark.perf
def test_mamdr_epoch_compiled_vs_eager(perf_records):
    """One full MAMDR epoch (a bulk-sync DN round + a DR sweep over every
    target): vectorized ≥ 5x eager at 32+ domains."""
    by_n_domains = {}
    for n_domains in N_DOMAIN_GRID:
        dataset = make_mdr_dataset(n_domains)
        dn_config = TrainConfig(**DN_CONFIG)
        dr_config = TrainConfig(**DR_CONFIG)
        row = {"n_domains": n_domains}
        for variant in ("eager", "compiled", "vectorized"):
            row[f"{variant}_seconds"] = (
                time_dn(dataset, dn_config, variant)
                + time_dr(dataset, dr_config, variant)
            )
        row["compiled_speedup"] = row["eager_seconds"] / row["compiled_seconds"]
        row["vectorized_speedup"] = (
            row["eager_seconds"] / row["vectorized_seconds"]
        )
        by_n_domains[str(n_domains)] = row
        print(f"\nMAMDR epoch n={n_domains}: "
              f"eager {row['eager_seconds'] * 1e3:.1f} ms, "
              f"compiled {row['compiled_seconds'] * 1e3:.1f} ms, "
              f"vectorized {row['vectorized_seconds'] * 1e3:.1f} ms "
              f"({row['vectorized_speedup']:.2f}x)")
        if n_domains >= 32:
            assert row["vectorized_speedup"] >= 5.0, (
                f"vectorized MAMDR epoch only "
                f"{row['vectorized_speedup']:.2f}x at {n_domains} domains"
            )
    perf_records["mamdr_epoch_compiled"] = {
        "dn": dict(DN_CONFIG), "dr": dict(DR_CONFIG),
        "by_n_domains": by_n_domains,
    }


@pytest.mark.perf
def test_parallel_dr_worker_scaling(perf_records):
    """Wall time of one epoch's forked DR rounds by worker count.

    Every DR target is independent, so ``parallel_dr_rounds`` can use
    more than one core; its result is byte-identical for any worker
    count (``tests/distributed/test_parallel.py``).  The row records
    ``os.cpu_count()`` because the 2-worker time only means something
    on a host with at least two cores.
    """
    dataset = taobao_sim(30)
    config = TrainConfig()
    model = build_model("mlp", dataset, seed=0)
    space = DomainParameterSpace(model, dataset.n_domains)
    by_workers = {}
    for n_workers in (1, 2):
        seconds = best_time(
            lambda: parallel_dr_rounds(model, dataset, space, config,
                                       seed=11, n_workers=n_workers),
            repeats=3, warmup=1,
        )
        by_workers[str(n_workers)] = seconds
        print(f"\nparallel DR n_workers={n_workers}: {seconds * 1e3:.1f} ms")
        assert seconds > 0
    perf_records["parallel_dr_worker_scaling"] = {
        "dataset": dataset.name, "n_domains": dataset.n_domains,
        "sample_k": config.sample_k, "dr_steps": config.dr_steps,
        "batch_size": config.batch_size, "cpu_count": os.cpu_count(),
        "seconds_by_workers": by_workers,
    }


# ----------------------------------------------------------------------
# Smoke check (pytest benchmarks/perf -m perf_smoke) — seconds, not minutes
# ----------------------------------------------------------------------

@pytest.mark.perf_smoke
def test_compile_harness_smoke(perf_records):
    """Tiny pass through all three variants so the harness can't bit-rot;
    only requires the vectorized path not be a >2x regression."""
    dataset = make_mdr_dataset(4)
    config = TrainConfig(**DN_CONFIG)
    eager = time_dn(dataset, config, "eager")
    vectorized = time_dn(dataset, config, "vectorized")
    assert eager > 0 and vectorized > 0
    assert vectorized <= eager * 2.0
    perf_records["compile_smoke"] = {
        "eager_seconds": eager, "vectorized_seconds": vectorized,
    }
