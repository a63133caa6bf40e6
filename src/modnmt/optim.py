"""Adam optimizer over named parameters with freeze support."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import GradientError, Tensor


@dataclass
class Parameter:
    """A named trainable tensor. Frozen parameters are never updated."""

    name: str
    tensor: Tensor

    @property
    def frozen(self) -> bool:
        return not self.tensor.requires_grad

    @frozen.setter
    def frozen(self, frozen: bool) -> None:
        self.tensor.requires_grad = not frozen
        self.tensor.grad = None


class Adam:
    """Adam with bias correction, keyed by parameter name.

    Frozen parameters, and any that no backward pass reached (`grad` None),
    are skipped entirely: no update, no moment change, so their bytes are
    identical before and after a step.
    """

    BETA1, BETA2, EPSILON = 0.9, 0.98, 1e-9

    def __init__(self):
        self.step_count = 0
        self.first_moment: dict[str, np.ndarray] = {}
        self.second_moment: dict[str, np.ndarray] = {}

    def step(self, params: list[Parameter], lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.BETA1**t
        bc2 = 1.0 - self.BETA2**t
        for p in params:
            g = p.tensor.grad
            if p.frozen or g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise GradientError(f"non-finite gradient for parameter {p.name!r}")
            m = self.first_moment.get(p.name)
            if m is None:
                m = self.first_moment[p.name] = np.zeros_like(p.tensor.data)
            v = self.second_moment.get(p.name)
            if v is None:
                v = self.second_moment[p.name] = np.zeros_like(p.tensor.data)
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            mhat = m / bc1
            vhat = v / bc2
            p.tensor.data -= lr * mhat / (np.sqrt(vhat) + self.EPSILON)
