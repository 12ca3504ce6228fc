"""Domain Negotiation (Algorithm 1).

DN mitigates domain conflict on shared parameters.  One DN epoch:

1. ``Θ~_1 ← Θ`` — start the inner trajectory at the current shared state;
2. visit every domain once *in a freshly shuffled order*, taking a few
   gradient steps on each (Eq. 2);
3. treat ``Θ~_{n+1} − Θ`` as the outer gradient and move
   ``Θ ← Θ + β (Θ~_{n+1} − Θ)`` (Eq. 3).

The Taylor analysis in Section IV-C shows the expected update both descends
every domain's loss and ascends the pairwise gradient inner-products
(InnerGrad) — *because* the order is reshuffled each epoch and β < 1.  With
``β = 1`` DN degenerates to Alternate Training (tested explicitly).
"""

from __future__ import annotations

from ..frameworks.base import LearningFramework, SingleModelBank
from ..nn.state import clone_state, state_interpolate_
from ..utils.seeding import spawn_rng
from .param_space import live_state_view
from .selection import BestTracker, model_split_auc
from .trainer import make_inner_optimizer, train_steps

__all__ = ["domain_negotiation_epoch", "DomainNegotiation"]


def domain_negotiation_epoch(model, dataset, shared_state, config, rng,
                             split="train", optimizer=None):
    """Run one DN epoch and return the new shared state.

    ``model`` is used as a scratch workspace; its parameters are left at the
    end of the *inner* trajectory (callers needing Θ must reload it).

    ``optimizer`` may be supplied to keep inner-optimizer slot state (Adam
    moments etc.) across epochs, as the PS-Worker deployment does; when
    omitted a fresh optimizer is created (the textbook Algorithm 1 reading).
    """
    model.load_state_dict(shared_state)
    if optimizer is None:
        optimizer = make_inner_optimizer(model, config)

    domain_order = list(range(dataset.n_domains))
    rng.shuffle(domain_order)
    for domain_index in domain_order:
        domain = dataset.domain(domain_index)
        train_steps(
            model,
            getattr(domain, split),
            domain_index,
            optimizer,
            rng,
            config.batch_size,
            config.inner_steps,
        )

    # Eq. 3 without materializing model.state_dict(): interpolate the owned
    # clone toward a zero-copy view of the live parameters (one full-state
    # allocation per DN epoch instead of two).
    current = live_state_view(model)
    return state_interpolate_(clone_state(shared_state), current, config.outer_lr)


class DomainNegotiation(LearningFramework):
    """DN as a standalone framework (the "DN" rows of Tables VIII and X).

    Trains a single shared parameter set with Domain Negotiation; no
    domain-specific parameters are kept (that is MAMDR's job).
    """

    name = "DN"

    def fit(self, model, dataset, config, seed=0):
        from .mamdr import negotiation_rounds

        rng = spawn_rng(seed, "dn", dataset.name)
        shared = model.state_dict()
        tracker = BestTracker()
        optimizer = make_inner_optimizer(model, config)
        for _ in range(config.epochs):
            shared = negotiation_rounds(model, dataset, shared, config, rng,
                                        optimizer)
            model.load_state_dict(shared)
            tracker.update(model_split_auc(model, dataset), shared)
        model.load_state_dict(tracker.best)
        return SingleModelBank(model)
