"""Neural-network layers built on the module system.

Contains every layer the paper's model zoo needs: dense stacks for the MLP /
tower networks, embedding tables for sparse ids, dropout (rate 0.5 in the
paper's setup), layer normalization, and the Partitioned Normalization used
by STAR (per-domain statistics).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, ModuleList, Parameter


__all__ = [
    "Dense",
    "MLPBlock",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "PartitionedNorm",
    "Identity",
]

_ACTIVATIONS = {
    "relu": F.relu,
    "sigmoid": F.sigmoid,
    "tanh": F.tanh,
    "linear": lambda x: x,
}


def resolve_activation(name):
    """Look up an activation function by name."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; expected one of {sorted(_ACTIVATIONS)}"
        ) from None


class Identity(Module):
    """A no-op module (placeholder in configurable stacks)."""

    def forward(self, x):
        return x


class Dense(Module):
    """Fully connected layer ``y = act(x @ W + b)``."""

    def __init__(self, in_dim, out_dim, rng, activation="linear", use_bias=True):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        if activation == "relu":
            weight = init.he_uniform(rng, (in_dim, out_dim))
        else:
            weight = init.glorot_uniform(rng, (in_dim, out_dim))
        self.weight = Parameter(weight)
        self.bias = Parameter(init.zeros(out_dim)) if use_bias else None
        self.activation = activation
        self._activation = resolve_activation(activation)

    def forward(self, x):
        return F.fused_dense(x, self.weight, self.bias, activation=self.activation)


class MLPBlock(Module):
    """A stack of Dense layers with shared activation and optional dropout.

    This is the paper's "tower"/"expert"/"bottom" building block; the
    benchmark configuration uses hidden sizes like [256, 128, 64] with
    dropout rate 0.5.
    """

    def __init__(self, in_dim, hidden_dims, rng, activation="relu",
                 dropout_rate=0.0, out_activation=None):
        super().__init__()
        self.layers = ModuleList()
        dims = [in_dim] + list(hidden_dims)
        for depth, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            is_last = depth == len(hidden_dims) - 1
            act = (out_activation or activation) if is_last else activation
            self.layers.append(Dense(d_in, d_out, rng, activation=act))
        self.dropout = Dropout(dropout_rate, rng) if dropout_rate else None
        self.out_dim = dims[-1]

    def forward(self, x):
        for index, layer in enumerate(self.layers):
            x = layer(x)
            is_last = index == len(self.layers) - 1
            if self.dropout is not None and not is_last:
                x = self.dropout(x)
        return x


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings, dim, rng, std=0.01):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.normal(rng, (num_embeddings, dim), std=std))

    def forward(self, indices):
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        F.check_index_range(indices, self.num_embeddings)
        return F.embedding(self.weight, indices)


class Dropout(Module):
    """Inverted dropout with its own RNG stream for reproducibility."""

    def __init__(self, rate, rng):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x):
        return F.dropout(x, self.rate, self._rng, training=self.training)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim, eps=1e-5):
        super().__init__()
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(init.zeros(dim))
        self.eps = eps

    def forward(self, x):
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class PartitionedNorm(Module):
    """STAR's Partitioned Normalization: per-domain scale/shift statistics.

    A shared LayerNorm-style normalization whose affine parameters are the
    element-wise combination of shared and domain-specific factors, following
    STAR (Sheng et al., CIKM 2021): gamma = gamma_s * gamma_d, beta =
    beta_s + beta_d.
    """

    def __init__(self, dim, num_domains, eps=1e-5):
        super().__init__()
        self.gamma_shared = Parameter(np.ones(dim))
        self.beta_shared = Parameter(init.zeros(dim))
        self.gamma_domain = Parameter(np.ones((num_domains, dim)))
        self.beta_domain = Parameter(init.zeros((num_domains, dim)))
        self.eps = eps
        self.num_domains = num_domains

    def forward(self, x, domain):
        if not 0 <= domain < self.num_domains:
            raise IndexError(f"domain {domain} out of range [0, {self.num_domains})")
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        gamma = self.gamma_shared * self.gamma_domain[domain]
        beta = self.beta_shared + self.beta_domain[domain]
        return normed * gamma + beta
