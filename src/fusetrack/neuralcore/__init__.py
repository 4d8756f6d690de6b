"""Minimal differentiable-network core with hand-written gradients."""

from .gradcheck import (
    GradCheckReport,
    finite_difference_check,
    gradient_check_network,
)
from .layers import (
    Bilstm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2x2,
    Param,
    Relu,
    Softmax,
    layer_from_spec,
)
from .losses import (
    cross_entropy_grad,
    cross_entropy_loss,
    l2_displacement_grad,
    l2_displacement_loss,
    softmax,
    total_loss,
)
from .network import Module, Network
from .optim import Adam, clip_gradient_norm

__all__ = [
    "Adam",
    "Bilstm",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "GradCheckReport",
    "Layer",
    "MaxPool2x2",
    "Module",
    "Network",
    "Param",
    "Relu",
    "Softmax",
    "clip_gradient_norm",
    "cross_entropy_grad",
    "cross_entropy_loss",
    "finite_difference_check",
    "gradient_check_network",
    "l2_displacement_grad",
    "l2_displacement_loss",
    "layer_from_spec",
    "softmax",
    "total_loss",
]
