"""Compile-and-replay executor: bitwise replay parity and guard semantics.

The contract under test is absolute: a compiled replay must be
**bit-for-bit identical** to the eager step it traced — every primitive's
forward buffer, every leaf gradient, every RNG draw.  ``replay_verified``
re-runs the step eagerly and compares op by op, so one verified step over
a graph that touches every registered forward kernel covers the whole
primitive set at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TrainConfig, negotiation_rounds, regularization_pass
from repro.core.param_space import DomainParameterSpace
from repro.data import DomainSpec, SyntheticConfig, generate_dataset
from repro.data.batching import Batch
from repro.models import build_model
from repro.nn import Module, Parameter, compiled_execution
from repro.nn import functional as F
from repro.nn import compile as compile_mod
from repro.nn.compile import executor_for
from repro.nn.optim import make_optimizer
from repro.tooling.sanitizer import ReplayMismatchError
from repro.utils.seeding import spawn_rng

pytestmark = pytest.mark.compile_smoke

VOCAB, N_FIXED, FIXED_DIM = 12, 9, 6
FIXED_FEATURES = spawn_rng(3, "compile", "fixed").normal(size=(N_FIXED, FIXED_DIM))


class OmniModel(Module):
    """One step of this model touches every forward kernel in the tape.

    ``structure_flag`` lets tests change the traced graph *after* tracing,
    which ``replay_verified`` must detect as a structure mismatch.
    """

    multi_domain = False

    def __init__(self, seed=0):
        super().__init__()
        rng = spawn_rng(seed, "compile", "omni")
        self.table = Parameter(rng.normal(size=(VOCAB, 4)) * 0.1)
        self.w1 = Parameter(rng.normal(size=(4 + FIXED_DIM, 8)) * 0.1)
        self.b1 = Parameter(rng.normal(size=(8,)) * 0.1)
        self.w2 = Parameter(rng.normal(size=(4, 1)) * 0.1)
        self._dropout_rng = spawn_rng(seed, "compile", "dropout")
        self.structure_flag = False

    def loss(self, batch):
        emb = F.embedding(self.table, batch.users)
        fixed = F.fixed_gather(FIXED_FEATURES, batch.items)
        x = F.concat([emb, fixed], axis=-1)
        h = F.fused_dense(x, self.w1, self.b1, activation="relu")
        h = F.dropout(h, 0.25, self._dropout_rng, training=self.training)
        s = F.softmax(h, axis=-1)
        t = s.tanh() + h.sigmoid() + F.softplus(h) + F.leaky_relu(h) + h.relu()
        u = ((t * 0.5) - (t / 3.0)).abs() ** 2
        v = (u + 1.0).log().sqrt()
        st = F.stack([v, (-u).exp()], axis=0).sum(axis=0)
        r = st.reshape(len(batch), 2, 4).transpose(0, 2, 1).swapaxes(1, 2)
        logits = (r[:, 0, :] @ self.w2).reshape(len(batch))
        if self.structure_flag:
            logits = logits * 2.0
        main = F.bce_with_logits(logits, batch.labels)
        return main + 0.1 * F.mse_loss(logits, batch.labels) \
            + 1e-4 * F.l2_penalty([self.w1, self.w2])


def make_batch(size, seed):
    rng = spawn_rng(seed, "compile", "batch", size)
    return Batch(
        users=rng.integers(0, VOCAB, size=size),
        items=rng.integers(0, N_FIXED, size=size),
        labels=rng.integers(0, 2, size=size).astype(np.float64),
        domain=0,
    )


def make_tiny_dataset(n_domains=4, seed=0):
    specs = tuple(
        DomainSpec(f"C{i}", 80, 0.25 + 0.05 * i) for i in range(n_domains)
    )
    return generate_dataset(SyntheticConfig(
        name="compile", domains=specs, n_users=60, n_items=40,
        latent_dim=4, feature_mode="fixed", feature_dim=8, seed=seed,
    ))


class TestReplayParity:
    def test_tape_covers_every_forward_kernel(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        tape = executor_for(model).tape_for(make_batch(6, 0), optimizer)
        assert tape is not None, "omni step unexpectedly bailed to eager"
        kinds = {rec.kind for rec in tape._trace_records}
        missing = set(compile_mod._FWD_KERNELS) - kinds
        assert not missing, f"primitives never traced: {sorted(missing)}"

    def test_replay_bitwise_equals_eager_across_all_primitives(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        executor = executor_for(model)
        tape = executor.tape_for(make_batch(6, 0), optimizer)
        # Several post-trace steps: buffers, optimizer slots, dropout
        # streams all advance; every op and leaf grad must stay bitwise
        # equal to eager or replay_verified raises naming the op.
        for step in range(4):
            tape.replay_verified(make_batch(6, step + 1), optimizer, model)

    def test_replay_verified_catches_planted_structure_change(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        tape = executor_for(model).tape_for(make_batch(6, 0), optimizer)
        model.structure_flag = True
        with pytest.raises(ReplayMismatchError):
            tape.replay_verified(make_batch(6, 1), optimizer, model)


class TestGuards:
    def test_shape_change_triggers_retrace(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        executor = executor_for(model)
        with compiled_execution():
            executor.step(make_batch(6, 0), optimizer)
            executor.step(make_batch(6, 1), optimizer)
            traces_before = executor.traces
            executor.step(make_batch(4, 2), optimizer)  # new shape → guard
        assert executor.traces == traces_before + 1
        assert executor.replays >= 1

    def test_eval_mode_is_a_distinct_signature(self):
        model = OmniModel()
        optimizer = make_optimizer("adam", model.parameters(), 0.05)
        executor = executor_for(model)
        with compiled_execution():
            executor.step(make_batch(6, 0), optimizer)
            traces_before = executor.traces
            model.eval()
            try:
                executor.step(make_batch(6, 1), optimizer)
            finally:
                model.train()
        assert executor.traces == traces_before + 1


class TestFixedGatherRange:
    """Out-of-range feature rows raise, eager and replayed alike: numpy
    would silently wrap ``-1`` to the last row's features."""

    @pytest.mark.parametrize("bad", [-1, N_FIXED])
    def test_eager_rejects_out_of_range_rows(self, bad):
        with pytest.raises(IndexError, match="out of range"):
            F.fixed_gather(FIXED_FEATURES, np.array([0, bad]))

    @pytest.mark.parametrize("bad", [-1, N_FIXED])
    def test_replay_rejects_out_of_range_rows(self, bad):
        model = OmniModel()
        optimizer = make_optimizer("sgd", model.parameters(), 0.05)
        tape = executor_for(model).tape_for(make_batch(6, 0), optimizer)
        batch = make_batch(6, 1)
        batch.items[2] = bad
        with pytest.raises(IndexError, match="out of range"):
            tape.replay(batch, optimizer)

    @pytest.mark.parametrize("bad", [-1, 40])
    def test_vector_replay_rejects_out_of_range_rows(self, bad):
        from repro.nn.vectorized import vector_tape_for

        dataset = make_tiny_dataset()          # 40 fixed-feature items
        model = build_model("mlp", dataset, seed=0)
        optimizer = make_optimizer("sgd", model.parameters(), 0.05)
        batches = [dataset.domain(d).train for d in (0, 1)]
        batches = [
            Batch(t.users[:8].copy(), t.items[:8].copy(),
                  t.labels[:8].astype(np.float64), d)
            for d, t in enumerate(batches)
        ]
        tape = executor_for(model).tape_for(batches[0], optimizer)
        vt = vector_tape_for(tape, model, 2)
        vt.set_lane_rngs([
            [spawn_rng(lane, "compile", "lane") for lane in range(2)]
            for _ in tape._rngs
        ])
        vt.replay(batches, vt.make_optimizer("sgd", 0.05))
        batches[1].items[3] = bad
        with pytest.raises(IndexError, match="out of range"):
            vt.replay(batches, vt.make_optimizer("sgd", 0.05))


class TestDeterminism:
    def test_dropout_streams_identical_under_replay(self):
        """Same seed, same batches: compiled and eager runs are one
        trajectory — losses and final parameters bitwise equal, which can
        only hold if replay draws the identical dropout masks."""
        batches = [make_batch(6, s) for s in range(6)]

        def run(compiled):
            model = OmniModel(seed=0)
            optimizer = make_optimizer("adam", model.parameters(), 0.05)
            executor = executor_for(model)
            losses = []
            for batch in batches:
                if compiled:
                    losses.append(executor.step(batch, optimizer))
                else:
                    losses.append(compile_mod.eager_step(model, batch, optimizer))
            return losses, model.state_dict()

        eager_losses, eager_state = run(compiled=False)
        compiled_losses, compiled_state = run(compiled=True)
        assert eager_losses == compiled_losses
        for name in eager_state:
            assert np.array_equal(eager_state[name], compiled_state[name]), name

    def test_full_dn_dr_epoch_byte_identical(self):
        """Tentpole acceptance: a full MAMDR epoch — ``dn_rounds`` DN
        rounds, then one DR round per domain — produces byte-identical
        states compiled vs eager, and the compiled run really replays
        through the executor while the eager run never touches it."""
        dataset = make_tiny_dataset()
        config = TrainConfig(batch_size=16, inner_steps=2, dr_steps=2,
                             sample_k=1)

        def run(compiled):
            model = build_model("mlp", dataset, seed=0)
            space = DomainParameterSpace(model, dataset.n_domains)
            view, groups = space.training_plan(dataset)
            optimizer = make_optimizer(
                config.inner_optimizer, model.parameters(), config.inner_lr
            )
            rng = spawn_rng(5, "epoch")
            with compiled_execution(compiled):
                space.set_shared(negotiation_rounds(
                    model, view, space.shared, config, rng, optimizer
                ))
                regularization_pass(model, view, space, groups, config, rng)
            executor = executor_for(model)
            return space.all_combined(), (executor.traces, executor.replays)

        eager, eager_steps = run(False)
        compiled, (traces, replays) = run(True)
        assert eager_steps == (0, 0)
        assert traces > 0 and replays > traces
        assert set(eager) == set(compiled) == set(range(dataset.n_domains))
        for domain in eager:
            for name in eager[domain]:
                assert np.array_equal(
                    eager[domain][name], compiled[domain][name]
                ), (domain, name)
