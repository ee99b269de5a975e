"""Adam optimizer with named parameter groups and cosine decay."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractError
from .tensor import Tensor


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """base_lr * (1 + cos(pi * step / total_steps)) / 2."""
    if total_steps <= 0:
        raise ConfigError("cosine_lr needs total_steps >= 1")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return base_lr * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


class Adam:
    """Standard Adam over named parameters with per-group lr multipliers.

    ``groups`` maps a group name to (params, lr_multiplier) where params is
    a list of (name, Tensor). ``step(lr)`` takes the base rate from the
    caller's schedule and moves each group at its multiple of it; the prompt
    learner group runs at 25x the base rate in the default training
    configuration.
    """

    def __init__(self, groups: dict, betas=(0.9, 0.999), eps: float = 1e-8):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._entries = []
        # np.zeros takes calloc'd memory: large moments stay untouched zero
        # pages until the first step, so an optimizer that never steps
        # (``vld eval`` builds one) holds no resident memory for them.
        for group_name, (params, mult) in groups.items():
            for name, param in params:
                self._entries.append({
                    "name": f"{group_name}/{name}" if group_name else name,
                    "param": param,
                    "mult": float(mult),
                    "m": np.zeros(param.data.shape, param.data.dtype),
                    "v": np.zeros(param.data.shape, param.data.dtype),
                })

    def zero_grad(self) -> None:
        for entry in self._entries:
            entry["param"].grad = None

    def step(self, lr: float) -> None:
        """One update at base rate ``lr``; a missing gradient on any
        parameter is an error."""
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for entry in self._entries:
            param: Tensor = entry["param"]
            if param.grad is None:
                raise ContractError(f"parameter {entry['name']} has no gradient")
            g = param.grad
            m, v = entry["m"], entry["v"]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            # asarray: ufuncs may hand back scalars for 0-d parameters.
            step_arr = np.asarray(np.sqrt(v / bias2))
            step_arr += self.eps
            np.divide(m, step_arr, out=step_arr)
            step_arr *= lr * entry["mult"] / bias1
            param.data -= step_arr
