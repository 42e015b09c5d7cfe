"""Named, freezable model parameters and initialization helpers."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Parameter:
    """A named tensor with a frozen flag.

    ``frozen`` is the negation of ``tensor.requires_grad``: a frozen
    parameter gets no gradient (its ``grad`` stays None) and the optimizer
    never updates it. Gradients still flow through frozen layers into the
    trainable parameters below them; ops whose inputs are all frozen or
    constant are not recorded on the tape at all.
    """

    def __init__(self, name: str, values: np.ndarray, frozen: bool = False):
        self.name = name
        self.tensor = Tensor(values, requires_grad=not frozen)

    @property
    def frozen(self) -> bool:
        return not self.tensor.requires_grad

    @frozen.setter
    def frozen(self, value: bool):
        self.tensor.requires_grad = not value

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad

    def zero_grad(self):
        self.tensor.grad = None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape}, frozen={self.frozen})"


class ParamStore:
    """Registry of uniquely named parameters, grouped for freezing policies."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._params: dict[str, Parameter] = {}
        self.groups: dict[str, list[str]] = {}

    def register(self, name: str, values: np.ndarray, group: str) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        p = Parameter(name, values)
        self._params[name] = p
        self.groups.setdefault(group, []).append(name)
        return p

    def embedding(self, name: str, rows: int, dim: int, group: str) -> Parameter:
        # uniform(-0.08, 0.08), the usual small-seq2seq embedding init
        return self.register(name, self.rng.uniform(-0.08, 0.08, size=(rows, dim)), group)

    def linear(self, name: str, fan_in: int, fan_out: int, group: str) -> tuple[Parameter, Parameter]:
        w = self.register(name + ".w",
                          self.rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)),
                          group)
        b = self.register(name + ".b", np.zeros(fan_out), group)
        return w, b

    def layer_norm(self, name: str, dim: int, group: str) -> tuple[Parameter, Parameter]:
        gamma = self.register(name + ".gamma", np.ones(dim), group)
        beta = self.register(name + ".beta", np.zeros(dim), group)
        return gamma, beta

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def trainable(self) -> list[Parameter]:
        return [p for p in self._params.values() if not p.frozen]

    def num_params(self, trainable_only: bool = False) -> int:
        return sum(p.data.size for p in self._params.values()
                   if not (trainable_only and p.frozen))

    def set_group_frozen(self, group: str, frozen: bool):
        for name in self.groups[group]:
            self._params[name].frozen = frozen

    def zero_grad(self):
        for p in self._params.values():
            p.zero_grad()

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]):
        unknown = sorted(set(state) - set(self._params))
        if unknown:
            raise KeyError(f"unknown parameters in state: {', '.join(unknown)}")
        for name, p in self._params.items():
            if name not in state:
                raise KeyError(f"missing parameter in state: {name}")
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {state[name].shape} vs {p.data.shape}"
                )
            p.tensor.data = np.asarray(state[name], dtype=np.float64).copy()
