"""Two-headed network: shared trunk, displacement head, activity head.

Checkpoints are a binary file: magic ``TFNN``, version, a JSON block with the
layer specs, then the raw little-endian float64 parameter tensors in layer
order.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..errors import CacheError, ConfigError, ShapeError
from .layers import Dense, Layer, Param, layer_from_spec
from .losses import (
    cross_entropy_grad,
    cross_entropy_loss,
    l2_displacement_grad,
    l2_displacement_loss,
    total_loss,
)

_MAGIC = b"TFNN"
_VERSION = 1
_FILE_HEADER = struct.Struct("<4sII")  # magic, version, json length


class Module:
    """Owner of named layers: names, lists and zeroes their parameters.

    Each parameter is named ``<scope>.<own name>``, and :meth:`params` lists
    them in scope order, which is also the checkpoint order.
    """

    def register(self, scopes: list[tuple[str, Layer]]) -> None:
        self._scopes = scopes
        for scope, layer in scopes:
            for p in layer.params():
                p.name = f"{scope}.{p.name.split('.')[-1]}"

    def params(self) -> list[Param]:
        return [p for _, layer in self._scopes for p in layer.params()]

    def zero_grad(self) -> None:
        for p in self.params():
            p.grad[...] = 0.0


class Network(Module):
    """Trunk layers feeding a 2-unit regression head and a 2-logit class head.

    Forward is deterministic given the parameters, the input, the dropout rng
    stream and training mode; the class head emits logits (take a softmax for
    probabilities).
    """

    def __init__(self, trunk: list[Layer], reg_head: Dense, cls_head: Dense,
                 input_shape: tuple, extra_header: dict | None = None):
        self.trunk = trunk
        self.reg_head = reg_head
        self.cls_head = cls_head
        self.input_shape = tuple(input_shape)
        self.extra_header = dict(extra_header or {})
        self.register([(f"trunk.{i}.{layer.kind}", layer) for i, layer in enumerate(trunk)]
                      + [("reg_head", reg_head), ("cls_head", cls_head)])

    def forward(self, x, training: bool = False, rng=None):
        """Returns (regression (N,2), class logits (N,2), cache).

        Only a training-mode cache feeds :meth:`backward`. In eval mode each
        layer's ctx is dropped as soon as the next layer has run, so the
        cache holds no arrays and cannot be used for a backward pass.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape[1:]} does not match model {self.input_shape}"
            )
        h = x
        caches = []
        for i, layer in enumerate(self.trunk):
            try:
                h, ctx = layer.forward(h, training=training, rng=rng)
            except ShapeError as exc:
                raise ShapeError(f"layer {i} ({layer.kind}): {exc}") from exc
            caches.append(ctx if training else None)
        reg, reg_ctx = self.reg_head.forward(h, training=training, rng=rng)
        logits, cls_ctx = self.cls_head.forward(h, training=training, rng=rng)
        if not training:
            reg_ctx = cls_ctx = None
        return reg, logits, (caches, reg_ctx, cls_ctx)

    def backward(self, cache, dreg, dlogits):
        """Accumulate parameter gradients; returns the input gradient."""
        caches, reg_ctx, cls_ctx = cache
        dh = self.reg_head.backward(np.asarray(dreg, dtype=np.float64), reg_ctx)
        dh = dh + self.cls_head.backward(np.asarray(dlogits, dtype=np.float64), cls_ctx)
        for layer, ctx in zip(reversed(self.trunk), reversed(caches)):
            dh = layer.backward(dh, ctx)
        return dh

    def loss(self, x, targets, labels, alpha: float, training: bool = False,
             rng=None, grad: bool = False) -> tuple[float, float, float]:
        """The training objective on one batch: (total, displacement, cross
        entropy), with total = displacement + ``alpha`` * cross entropy.

        A non-finite term raises :class:`ValidationError`. With ``grad`` the
        parameters' gradients are zeroed and filled with d total / d param;
        that needs a ``training`` forward, whose dropout draws from ``rng``.
        """
        if grad and not training:
            raise ConfigError("gradients need a training-mode forward")
        reg, logits, cache = self.forward(x, training=training, rng=rng)
        regr = l2_displacement_loss(reg, targets)
        ce = cross_entropy_loss(logits, labels)
        total = total_loss(regr, ce, alpha)
        if grad:
            self.zero_grad()
            self.backward(cache, l2_displacement_grad(reg, targets),
                          alpha * cross_entropy_grad(logits, labels))
        return total, regr, ce

    def get_state(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.params()]

    def set_state(self, state: list[np.ndarray]) -> None:
        params = self.params()
        if len(state) != len(params):
            raise CacheError("parameter count mismatch in state")
        for p, v in zip(params, state):
            if p.value.shape != v.shape:
                raise CacheError(f"shape mismatch for '{p.name}'")
            p.value[...] = v

    def header(self) -> dict:
        return {
            "version": _VERSION,
            "input_shape": list(self.input_shape),
            "trunk": [layer.spec() for layer in self.trunk],
            "reg_head": self.reg_head.spec(),
            "cls_head": self.cls_head.spec(),
            "extra": self.extra_header,
        }

    def save(self, path) -> None:
        blob = json.dumps(self.header()).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_FILE_HEADER.pack(_MAGIC, _VERSION, len(blob)))
            fh.write(blob)
            for p in self.params():
                fh.write(np.asarray(p.value, dtype="<f8").tobytes(order="C"))

    @classmethod
    def load(cls, path) -> "Network":
        with open(path, "rb") as fh:
            head = fh.read(_FILE_HEADER.size)
            if len(head) != _FILE_HEADER.size:
                raise CacheError(f"truncated checkpoint {path}")
            magic, version, json_len = _FILE_HEADER.unpack(head)
            if magic != _MAGIC:
                raise CacheError(f"bad checkpoint magic {magic!r}")
            if version != _VERSION:
                raise CacheError(f"unsupported checkpoint version {version}")
            rng = np.random.default_rng(0)  # placeholder init, overwritten below
            try:
                spec = json.loads(fh.read(json_len).decode("utf-8"))
                trunk = [layer_from_spec(s, rng) for s in spec["trunk"]]
                reg_head = layer_from_spec(spec["reg_head"], rng)
                cls_head = layer_from_spec(spec["cls_head"], rng)
                net = cls(trunk, reg_head, cls_head, tuple(spec["input_shape"]),
                          spec.get("extra"))
            except (ValueError, KeyError, TypeError) as exc:
                # undecodable JSON, missing or ill-typed keys, unknown layers
                raise CacheError(f"corrupt checkpoint header in {path}: {exc!r}") from exc
            for p in net.params():
                raw = fh.read(8 * p.size)
                if len(raw) != 8 * p.size:
                    raise CacheError(f"truncated parameters in {path}")
                p.value[...] = np.frombuffer(raw, dtype="<f8").reshape(p.value.shape)
        return net
