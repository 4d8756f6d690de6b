"""Finite-difference verification of hand-written gradients.

The checker perturbs a random subsample of entries per parameter and compares
central differences of the scalar loss against the analytic gradient. Any
stochastic part of the forward pass (dropout) must be frozen by reseeding the
same rng stream for every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .layers import Param


@dataclass
class GradCheckReport:
    tolerance: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_relative_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.tolerance

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"gradient check {status}: max relative error "
                f"{self.max_relative_error:.3e} (tolerance {self.tolerance:.1e})")


def _relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def finite_difference_check(
    params: list[Param],
    loss_fn: Callable[[], float],
    grad_fn: Callable[[], None],
    h: float = 1e-5,
    max_per_param: int = 64,
    seed: int = 0,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients with central differences.

    ``loss_fn`` evaluates the scalar loss at the current parameter values;
    ``grad_fn`` must fill ``param.grad`` from scratch. Up to ``max_per_param``
    randomly chosen entries are probed per parameter.
    """
    grad_fn()
    analytic = {p.name: p.grad.copy() for p in params}
    rng = np.random.default_rng(seed)
    report = GradCheckReport(tolerance=tolerance)
    for p in params:
        flat = p.value.reshape(-1)
        n_probe = min(max_per_param, flat.size)
        idx = rng.choice(flat.size, size=n_probe, replace=False)
        worst = 0.0
        a_flat = analytic[p.name].reshape(-1)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            worst = max(worst, _relative_error(float(a_flat[i]), numeric))
        report.per_param[p.name] = worst
    return report


def gradient_check_network(
    net,
    x: np.ndarray,
    reg_targets: np.ndarray,
    labels: np.ndarray,
    alpha: float = 1.0,
    dropout_seed: int = 0,
    h: float = 1e-5,
    max_per_param: int = 64,
    seed: int = 0,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Check the gradient of a Network's training objective (``Network.loss``)
    against finite differences.

    Runs in training mode with the dropout mask frozen by reseeding the rng
    identically for every forward evaluation, so dropout's backward path is
    itself under test.
    """

    def objective(grad: bool = False) -> float:
        rng = np.random.default_rng(dropout_seed)
        return net.loss(x, reg_targets, labels, alpha, training=True, rng=rng, grad=grad)[0]

    return finite_difference_check(
        net.params(), objective, lambda: objective(grad=True),
        h=h, max_per_param=max_per_param, seed=seed, tolerance=tolerance,
    )
