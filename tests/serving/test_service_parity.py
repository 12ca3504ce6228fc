"""Serving parity: the online path is bit-identical to offline scoring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DomainParameterSpace
from repro.models import MODEL_REGISTRY, build_model
from repro.serving import BatchingPolicy, Predictor, ServingService, SnapshotStore
from repro.utils.seeding import spawn_rng

from tests.conftest import make_tiny_dataset

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset("trainable")


@pytest.fixture(scope="module")
def datasets(dataset):
    return {"trainable": dataset, "fixed": make_tiny_dataset("fixed")}


def make_space(model, n_domains, seed=7, scale=0.05):
    """A parameter space with distinct non-zero deltas per domain."""
    rng = spawn_rng(seed, "serving-parity", "deltas")
    space = DomainParameterSpace(model, n_domains)
    for domain in range(n_domains):
        space.set_delta(domain, {
            name: rng.normal(scale=scale, size=value.shape)
            for name, value in space.shared.items()
        })
    return space


def make_queries(dataset, n=24, seed=3):
    rng = spawn_rng(seed, "serving-parity", "queries")
    users = rng.integers(0, dataset.n_users, size=n).astype(np.int64)
    items = rng.integers(0, dataset.n_items, size=n).astype(np.int64)
    return users, items


def offline_scores(dataset, space, users, items, domain, seed=0,
                   model_name="mlp"):
    """Reference path: ``load_combined`` into a fresh model, then forward."""
    from repro.data.batching import Batch

    model = build_model(model_name, dataset, seed=seed)
    space.load_combined(model, domain)
    batch = Batch(users, items, np.zeros(len(users)), domain)
    return model.predict(batch)


# Every domain switches on every batch, and domain 0 comes back after the
# others have been served on the same model.
INTERLEAVED = (0, 2, 1, 0, 1, 2, 2, 0)


def test_predict_batch_bit_identical_per_domain(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    predictor = Predictor(model, SnapshotStore())
    predictor._store.publish(space)
    users, items = make_queries(dataset)
    for domain in range(dataset.n_domains):
        served = predictor.predict_batch(users, items, domain)
        expected = offline_scores(dataset, space, users, items, domain)
        np.testing.assert_array_equal(served, expected)


@pytest.mark.parametrize("feature_mode", ["trainable", "fixed"])
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_registry_models_bit_identical_per_domain(datasets, model_name,
                                                  feature_mode):
    """Every registry model, both feature modes, across domain switches
    and a hot reload: served == offline ``load_combined`` + ``predict``."""
    dataset = datasets[feature_mode]
    model = build_model(model_name, dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    store = SnapshotStore()
    predictor = Predictor(model, store)
    users, items = make_queries(dataset)

    def check():
        for domain in INTERLEAVED:
            served = predictor.predict_batch(users, items, domain)
            expected = offline_scores(dataset, space, users, items, domain,
                                      model_name=model_name)
            np.testing.assert_array_equal(served, expected)

    store.publish(space)
    check()
    space.set_shared({n: v + 0.125 for n, v in space.shared.items()})
    space.set_delta(1, {n: v * 2.0 for n, v in space.delta(1).items()})
    store.publish(space)
    check()


def test_two_predictors_share_one_model(dataset):
    """Predictors over different snapshots may share one model skeleton:
    each batch binds its own parameters, nothing is memoized."""
    model = build_model("mlp", dataset, seed=0)
    spaces = [make_space(model, dataset.n_domains, seed=seed)
              for seed in (7, 8)]
    predictors = []
    for space in spaces:
        store = SnapshotStore()
        store.publish(space)
        predictors.append(Predictor(model, store))
    users, items = make_queries(dataset)
    for domain in INTERLEAVED:
        for predictor, space in zip(predictors, spaces):
            np.testing.assert_array_equal(
                predictor.predict_batch(users, items, domain),
                offline_scores(dataset, space, users, items, domain),
            )


def test_serving_binds_published_arrays_without_writing_them(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    service = ServingService(
        model, policy=BatchingPolicy(max_batch_size=4, max_wait_us=1e6)
    )
    snapshot = service.publish(space)
    published = {
        domain: {name: value.copy() for name, value in state.items()}
        for domain, state in snapshot.states.items()
    }
    users, items = make_queries(dataset)
    for domain in INTERLEAVED:
        for position in range(5):
            service.submit(users[position], items[position], domain)
    service.drain()
    for domain in INTERLEAVED:
        service.predict_batch(users, items, domain)

    # Zero-copy: the model's parameters are the snapshot's arrays.
    last = snapshot.state_for(INTERLEAVED[-1])
    for name, param in model.named_parameters():
        assert param.data is last[name]
    for domain, state in snapshot.states.items():
        for name, value in state.items():
            assert not value.flags.writeable
            np.testing.assert_array_equal(value, published[domain][name])


def test_release_rebinds_the_models_own_arrays(dataset):
    model = build_model("mlp", dataset, seed=0)
    own = {name: param.data for name, param in model.named_parameters()}
    predictor = Predictor(model, SnapshotStore())
    predictor._store.publish(make_space(model, dataset.n_domains))
    users, items = make_queries(dataset, n=4)
    predictor.predict_batch(users, items, 1)
    predictor.release()
    for name, param in model.named_parameters():
        assert param.data is own[name]
        assert param.data.flags.writeable


def test_single_predict_matches_batch_path(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    predictor = Predictor(model, SnapshotStore())
    predictor._store.publish(space)
    users, items = make_queries(dataset, n=4)
    expected = offline_scores(dataset, space, users, items, 1)
    for position in range(len(users)):
        assert predictor.predict(
            users[position], items[position], 1
        ) == expected[position]


def test_parity_immediately_after_hot_reload(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    service = ServingService(model)
    service.publish(space, dataset=dataset)
    users, items = make_queries(dataset)
    service.predict_batch(users, items, 0)  # warm version 1 state + caches

    # Training advanced: new shared weights and deltas, hot reload.
    space.set_shared({n: v + 0.125 for n, v in space.shared.items()})
    space.set_delta(2, {
        n: v * 2.0 for n, v in space.delta(2).items()
    })
    service.reload(space, dataset=dataset)
    assert service.store.version == 2
    for domain in range(dataset.n_domains):
        served = service.predict_batch(users, items, domain)
        expected = offline_scores(dataset, space, users, items, domain)
        np.testing.assert_array_equal(served, expected)


def test_batched_path_matches_offline(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    service = ServingService(
        model, policy=BatchingPolicy(max_batch_size=5, max_wait_us=1e6)
    )
    service.publish(space)
    users, items = make_queries(dataset, n=18)
    rng = spawn_rng(11, "serving-parity", "domains")
    domains = rng.integers(0, dataset.n_domains, size=len(users))
    requests = [
        service.submit(users[i], items[i], int(domains[i]))
        for i in range(len(users))
    ]
    service.drain()
    assert all(request.done for request in requests)
    for domain in range(dataset.n_domains):
        mask = domains == domain
        if not mask.any():
            continue
        served = np.array(
            [r.result for r, m in zip(requests, mask) if m]
        )
        expected = offline_scores(
            dataset, space, users[mask], items[mask], domain
        )
        np.testing.assert_array_equal(served, expected)


def test_queued_requests_never_see_a_half_published_version(dataset):
    """Requests queued across a publish are scored wholly under one version."""
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    service = ServingService(
        model, policy=BatchingPolicy(max_batch_size=100, max_wait_us=1e6)
    )
    service.publish(space)
    users, items = make_queries(dataset, n=10)
    requests = [
        service.submit(users[i], items[i], 1) for i in range(len(users))
    ]
    # A publish lands while the batch is still queued.
    space.set_shared({n: v - 0.5 for n, v in space.shared.items()})
    service.reload(space)
    service.drain()
    served = np.array([request.result for request in requests])
    # The flush pinned exactly one snapshot: all rows match version 2,
    # none are a mixture of old and new parameters.
    expected_v2 = offline_scores(dataset, space, users, items, 1)
    np.testing.assert_array_equal(served, expected_v2)


def test_out_of_range_request_fails_only_its_batch(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    service = ServingService(
        model, policy=BatchingPolicy(max_batch_size=3, max_wait_us=1e6)
    )
    service.publish(space)
    users, items = make_queries(dataset, n=2)
    requests = [service.submit(users[i], items[i], 1) for i in range(2)]
    requests.append(service.submit(dataset.n_users, items[0], 1))
    for request in requests:
        assert request.done and request.result is None
        assert isinstance(request.error, IndexError)
    stats = service.stats()
    assert stats["batcher"]["failed"] == 3
    assert stats["batcher"]["rows_scored"] == 0
    assert stats["latency"]["count"] == 0
    # The service keeps answering valid traffic afterwards.
    np.testing.assert_array_equal(
        service.predict_batch(users, items, 1),
        offline_scores(dataset, space, users, items, 1),
    )


@pytest.mark.parametrize("feature_mode", ["trainable", "fixed"])
def test_out_of_range_ids_raise_in_both_feature_modes(datasets,
                                                       feature_mode):
    dataset = datasets[feature_mode]
    model = build_model("mlp", dataset, seed=0)
    predictor = Predictor(model, SnapshotStore())
    predictor._store.publish(make_space(model, dataset.n_domains))
    for user in (-1, dataset.n_users):
        with pytest.raises(IndexError, match="out of range"):
            predictor.predict_batch([user], [0], 0)


def test_service_stats_shape(dataset):
    model = build_model("mlp", dataset, seed=0)
    space = make_space(model, dataset.n_domains)
    service = ServingService(model)
    service.publish(space)
    users, items = make_queries(dataset, n=8)
    service.predict_batch(users, items, 0)
    stats = service.stats()
    assert stats["version"] == 1
    assert stats["latency"]["count"] == 8
    assert set(stats["latency"]) >= {"p50_ms", "p95_ms", "p99_ms"}
    assert stats["batcher"]["requests"] == 0  # sync path bypasses batcher
    service.reset_stats()
    assert service.stats()["latency"] == {"count": 0}
