"""Deprecated entrypoints must warn — and produce identical results.

The transport redesign kept an old construction ritual alive as a thin
shim: a ``Worker`` built with a raw :class:`ParameterServer` silently
wraps it in an in-process channel.  The shim must emit a
``DeprecationWarning`` and be byte-identical to the supported path.
"""

from __future__ import annotations

import warnings

import pytest

from repro.distributed import (
    DirectChannel,
    ParameterServer,
    PSClient,
    SimulatedCluster,
    Worker,
)
from repro.distributed.worker import embedding_parameter_names
from repro.models import build_model
from repro.nn.serialization import state_checksum
from repro.utils.seeding import spawn_rng


def build_factory(dataset):
    return lambda worker_id: build_model("mlp", dataset, seed=0)


def make_ps(dataset):
    model = build_model("mlp", dataset, seed=0)
    return ParameterServer(
        model.state_dict(),
        embedding_names=embedding_parameter_names(model),
        outer_lr=1.0,
    )


def test_raw_ps_worker_warns_and_matches_client(tiny_dataset, fast_config):
    def run_epoch(make_worker):
        ps = make_ps(tiny_dataset)
        worker = make_worker(ps)
        worker.run_epoch(tiny_dataset, spawn_rng(0, "shim"))
        return state_checksum(ps.full_state())

    with pytest.deprecated_call():
        via_raw = run_epoch(lambda ps: Worker(
            0, build_model("mlp", tiny_dataset, seed=0), [0, 1], ps,
            fast_config,
        ))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        via_client = run_epoch(lambda ps: Worker(
            0, build_model("mlp", tiny_dataset, seed=0), [0, 1],
            PSClient(DirectChannel(ps), 0), fast_config,
        ))
    assert via_raw == via_client


def test_supported_paths_do_not_warn(tiny_dataset, fast_config):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        SimulatedCluster(n_workers=2).run(
            build_factory(tiny_dataset), tiny_dataset, fast_config, seed=1
        )
