"""Adam with decoupled weight decay, plus gradient norm clipping."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DivergenceError
from .layers import Param


class Adam:
    """Bias-corrected Adam; weight decay, off by default, is applied directly
    to parameters (not folded into the gradient) before each update.
    """

    def __init__(self, params: list[Param], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        """One update from the gradients currently stored on the params."""
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise DivergenceError(f"non-finite gradient in parameter '{p.name}'")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            if self.weight_decay:
                p.value -= self.lr * self.weight_decay * p.value
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def clip_gradient_norm(params: list[Param], max_norm: float) -> float:
    """Scale gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if total > max_norm > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
