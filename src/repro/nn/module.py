"""Module system: parameter containers with named state dicts.

The learning frameworks in this reproduction (DN, DR, MAMDR, Reptile, ...)
are *model agnostic*: they only interact with a model through its named
parameter state.  :class:`Module` therefore provides exactly the surface the
paper's framework requires — ``named_parameters``, ``state_dict`` and
``load_state_dict`` — plus train/eval mode handling for dropout.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..tooling import sanitizer as _sanitizer
from .tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a module."""

    def __init__(self, data):
        super().__init__(np.array(data, dtype=np.float64), requires_grad=True)
        # Parameters are the tensors whose buffers escape as raw arrays
        # (state dicts, zero-copy views); registering ownership lets the
        # sanitizer trace an in-place view mutation back to this tensor.
        _sanitizer.register_owner(self.data, self)


class Module:
    """Base class for all models and layers.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; registration happens automatically in ``__setattr__``.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix=""):
        """Yield ``(dotted_name, Parameter)`` pairs in registration order."""
        for name, param in self._parameters.items():
            yield (prefix + name, param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=prefix + name + ".")

    def parameters(self):
        """Yield all parameters."""
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix=""):
        """Yield ``(dotted_name, Module)`` pairs, including self as ``""``."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=prefix + name + ".")

    def num_parameters(self):
        """Total number of scalar parameters."""
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self):
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # State dicts — the model-agnostic interface used by every framework
    # ------------------------------------------------------------------
    def state_dict(self):
        """Return an OrderedDict of parameter copies keyed by dotted name."""
        return OrderedDict(
            (name, param.data.copy()) for name, param in self.named_parameters()
        )

    def load_state_dict(self, state, copy=True):
        """Load arrays from ``state`` into the matching parameters.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatch — silent partial loads hide bugs in meta-learning code.

        ``copy=True`` gives every parameter a private copy (training).
        ``copy=False`` binds the caller's float64 arrays themselves: serving
        binds the read-only arrays of a published snapshot per batch this
        way, so a domain switch costs no copy.  A bound array still belongs
        to the caller; a read-only one makes any in-place update raise.
        """
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            previous = param.data
            param.data = value.copy() if copy else value
            param.bump_version()
            _sanitizer.rebind_owner(param, previous)

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode=True):
        """Set training mode recursively (affects dropout etc.)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self):
        """Set evaluation mode recursively."""
        return self.train(False)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class ModuleList(Module):
    """A list of submodules, registered under their integer index."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for module in modules:
            self.append(module)

    def append(self, module):
        if not isinstance(module, Module):
            raise TypeError("ModuleList only holds Module instances")
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]
