"""TrainConfig validation and helpers."""

from __future__ import annotations

import pytest

from repro.core import TrainConfig


def test_defaults_valid():
    config = TrainConfig()
    assert config.epochs > 0
    assert 0 < config.outer_lr <= 1.0


@pytest.mark.parametrize("kwargs", [
    {"epochs": 0},
    {"batch_size": 0},
    {"outer_lr": 0.0},
    {"outer_lr": 1.5},
    {"dr_lr": 0.0},
    {"sample_k": -1},
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_updated_returns_new_frozen_copy():
    config = TrainConfig()
    changed = config.updated(epochs=3, sample_k=7)
    assert changed.epochs == 3 and changed.sample_k == 7
    assert config.epochs != 3 or config.sample_k != 7
    with pytest.raises(Exception):
        config.epochs = 99  # frozen dataclass


def test_updated_revalidates():
    with pytest.raises(ValueError):
        TrainConfig().updated(outer_lr=2.0)


def test_compile_steps_is_not_a_field():
    """Compiled execution is switched by ``repro.nn.compiled_execution``
    alone; the config carries no per-run compile knob."""
    with pytest.raises(TypeError):
        TrainConfig(compile_steps=True)
    with pytest.raises(TypeError):
        TrainConfig().updated(compile_steps=None)


def test_joint_steps_per_epoch(tiny_dataset):
    explicit = TrainConfig(inner_steps=5)
    assert explicit.joint_steps_per_epoch(tiny_dataset) == 5

    full_pass = TrainConfig(inner_steps=None, batch_size=32)
    steps = full_pass.joint_steps_per_epoch(tiny_dataset)
    total = tiny_dataset.total_interactions("train")
    expected = max(1, round(total / (tiny_dataset.n_domains * 32)))
    assert steps == expected
    assert steps >= 1
