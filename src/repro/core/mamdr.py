"""MAMDR (Algorithm 3): Domain Negotiation + Domain Regularization.

Per epoch, MAMDR first updates the shared parameters θ_S with DN
(mitigating domain conflict), then updates every domain's specific delta
θ_i with DR (regularizing sparse domains with other domains' data).  The
deployed predictor for domain ``i`` uses ``Θ_i = θ_S + θ_i`` (Eq. 4).

Total complexity per epoch is ``O((k + 1) n)`` domain visits, matching the
paper, versus ``O(n^2)`` for CDR-style pairwise transfer or PCGrad.
"""

from __future__ import annotations

from ..frameworks.base import LearningFramework, StateBank
from ..utils.seeding import spawn_rng
from .negotiation import domain_negotiation_epoch
from .param_space import DomainParameterSpace
from .regularization import domain_regularization_round
from .selection import BestTracker, PerDomainTracker, model_split_auc
from .trainer import make_inner_optimizer

__all__ = ["MAMDR", "negotiation_rounds", "regularization_pass"]


def negotiation_rounds(model, dataset, shared, config, rng, optimizer):
    """Update θ_S with ``config.dn_rounds`` DN epochs (Algorithm 1).

    The β-damped outer step advances ~β of an alternate epoch, so 1/β
    rounds keep data-movement parity.  ``optimizer`` carries the inner
    optimizer's slot state across rounds.  Returns the new θ_S; ``model``
    is scratch space, as in :func:`domain_negotiation_epoch`.
    """
    for _ in range(config.dn_rounds):
        shared = domain_negotiation_epoch(
            model, dataset, shared, config, rng, optimizer=optimizer
        )
    return shared


def regularization_pass(model, view, space, groups, config, rng):
    """One DR round (Algorithm 2) per delta-sharing group, applied in place.

    ``view, groups = space.training_plan(dataset)``: position ``p`` of
    ``view`` is group ``groups[p]``, whose delta is trained and written
    back before the next group's round starts.
    """
    for position, group in enumerate(groups):
        delta = domain_regularization_round(
            model, view, space, position, config, rng,
            delta=space.group_delta(group),
        )
        space.apply_delta(group, delta)


class MAMDR(LearningFramework):
    """The paper's unified framework.

    ``use_dn`` / ``use_dr`` ablate the two components (Table VI):

    * ``use_dn=False`` replaces DN with plain alternate training of θ_S;
    * ``use_dr=False`` drops the specific deltas entirely (serving uses
      θ_S for every domain).

    ``store`` selects the parameter backend: ``None`` keeps the dense
    per-domain layout (bitwise-identical to the historical behaviour); a
    ``DomainParamStore`` factory — e.g. ``lambda shared:
    ClusteredDomainStore(shared, plan)`` — gates the DN/DR outer loops by
    delta-sharing group instead of by domain, which is what makes
    10k-50k domains tractable.
    """

    def __init__(self, use_dn=True, use_dr=True, store=None):
        self.use_dn = use_dn
        self.use_dr = use_dr
        self.store = store

    @property
    def name(self):
        if self.use_dn and self.use_dr:
            return "MAMDR (DN+DR)"
        if self.use_dn:
            return "DN"
        if self.use_dr:
            return "DR"
        return "Alternate"

    def fit(self, model, dataset, config, seed=0):
        rng = spawn_rng(seed, "mamdr", dataset.name, self.use_dn, self.use_dr)
        space = DomainParameterSpace(model, dataset.n_domains,
                                     store=self.store)
        # DN/DR iterate the store's delta-sharing units: per domain for
        # the dense backend, per cluster (+ heads) for the clustered one.
        view, groups = space.training_plan(dataset)
        # With DR the deployment artifact is per-domain (Θ_i = θ_S + θ_i), so
        # each domain selects its best checkpoint independently, like the
        # other per-domain frameworks.  Without DR there is one shared state.
        per_domain_tracker = PerDomainTracker(dataset.n_domains)
        shared_tracker = BestTracker()
        shared_optimizer = make_inner_optimizer(model, config)
        # Ablation without DN: plain alternate training (β = 1, one round).
        dn_config = (config if self.use_dn
                     else config.updated(outer_lr=1.0, dn_rounds=1))

        for _ in range(config.epochs):
            shared = negotiation_rounds(
                model, view, space.shared, dn_config, rng, shared_optimizer
            )
            space.set_shared(shared)

            if self.use_dr:
                regularization_pass(model, view, space, groups, config, rng)
                per_domain_tracker.update_from_space(model, dataset, space)
            else:
                model.load_state_dict(shared)
                shared_tracker.update(model_split_auc(model, dataset), shared)

        if self.use_dr:
            return StateBank(model, per_domain_tracker.best_states(),
                             default_state=space.shared)
        best_shared = shared_tracker.best
        model.load_state_dict(best_shared)
        return StateBank(
            model,
            {d: best_shared for d in range(dataset.n_domains)},
            default_state=best_shared,
        )
