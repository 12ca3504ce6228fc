"""Multi-core DR fan-out: worker-count determinism.

``parallel_dr_rounds`` keys every target's RNG from ``(seed, target)``
alone, so its result is byte-identical for *any* worker count —
including the in-process reference path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.core.param_space import DomainParameterSpace
from repro.data import DomainSpec, SyntheticConfig, generate_dataset
from repro.distributed import parallel_dr_rounds
from repro.models import build_model

pytestmark = pytest.mark.compile_smoke


def make_dataset(n_domains, seed=0):
    specs = tuple(
        DomainSpec(f"P{i}", 80, 0.3 + 0.05 * i) for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name="par", domains=specs, n_users=100, n_items=60,
        latent_dim=4, feature_mode="fixed", feature_dim=8, seed=seed,
    ))


def assert_states_equal(reference, candidate):
    assert set(reference) == set(candidate)
    for name in reference:
        assert np.array_equal(reference[name], candidate[name]), name


def test_dr_rounds_worker_count_invariant():
    dataset = make_dataset(4)
    config = TrainConfig(batch_size=8, sample_k=1, dr_steps=2)

    def run(n_workers):
        model = build_model("mlp", dataset, seed=0)
        space = DomainParameterSpace(model, dataset.n_domains)
        return parallel_dr_rounds(model, dataset, space, config, seed=13,
                                  n_workers=n_workers)

    reference = run(1)
    fanned = run(2)
    assert set(reference) == set(fanned)
    for target in reference:
        assert_states_equal(reference[target], fanned[target])
