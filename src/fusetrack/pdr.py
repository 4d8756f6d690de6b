"""Deep pedestrian dead reckoning: displacement model and classic baseline.

The model learns body-frame (heading-aligned) displacements: each target is
the world-frame delta rotated by -yaw at the window center, and predictions
are rotated back by +yaw at inference. That makes the learning task
rotation-invariant and yields exact world-frame equivariance under yaw shifts.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ValidationError
from .features import (
    RAW,
    RP,
    SensorWindow,
    WINDOW_WIDTH,
    magnitude_channels,
    make_windows,
    recurrence_matrix,
)
from .ingest import SensorStream
from .labels import WALKING, PseudoLabeledSample, detect_steps, ensure_yaw
from .neuralcore import (
    Adam,
    Bilstm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2x2,
    Network,
    Relu,
    clip_gradient_norm,
    softmax,
)

log = logging.getLogger(__name__)

CNN = "cnn"
BILSTM = "bilstm"

TRAIN_STRIDE = 50
INFER_STRIDE = 25

#: fixed step length of the classic step-and-heading baseline, meters
CLASSIC_STRIDE_M = 0.7

#: windows classified below this walking probability emit a zero delta
ACTIVITY_GATE = 0.5

#: drop probability of the CNN trunk's two dropout layers
DROPOUT_RATE = 0.25
#: norm the BiLSTM parameters' gradient is clipped to during training
LSTM_GRAD_CLIP = 5.0


@dataclass
class PdrModelConfig:
    input_mode: str = RAW
    arch: str = CNN
    alpha: float = 1.0
    weight_decay: float = 1e-5
    batch_size: int = 64
    patience: int = 50
    max_epochs: int = 500
    conv_filters: tuple[int, int, int] = (16, 32, 32)
    dense_units: int = 128
    lstm_hidden: int = 64
    rng_seed: int = 0

    def __post_init__(self):
        if self.input_mode not in (RAW, RP):
            raise ConfigError(f"input_mode must be '{RAW}' or '{RP}'")
        if self.arch not in (CNN, BILSTM):
            raise ConfigError(f"arch must be '{CNN}' or '{BILSTM}'")
        if self.alpha < 0 or self.batch_size < 1:
            raise ConfigError("alpha >= 0 and batch_size >= 1 required")
        if self.patience < 1 or self.max_epochs < 1:
            raise ConfigError("patience and max_epochs must be >= 1")


@dataclass
class DisplacementPrediction:
    t_center: float
    delta: np.ndarray  # world-frame (dx, dy), meters
    activity_prob: float  # walking probability

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        if not 0.0 <= self.activity_prob <= 1.0:
            raise ValidationError(f"activity_prob must be in [0,1], got {self.activity_prob}")


def input_shape_for(cfg: PdrModelConfig) -> tuple[int, int, int]:
    rows = 12 if cfg.input_mode == RAW else WINDOW_WIDTH
    return (1, rows, WINDOW_WIDTH)


def rotate(vectors: np.ndarray, angle) -> np.ndarray:
    """Rotate 2D vectors by ``angle`` radians (scalar or per-row array)."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    c, s = np.cos(angle), np.sin(angle)
    x, y = vectors[:, 0], vectors[:, 1]
    return np.column_stack([x * c - y * s, x * s + y * c])


class PdrModel:
    """Config plus the underlying two-headed network."""

    #: the config fields a checkpoint header keeps; the rest are defaults
    _SAVED = ("input_mode", "arch", "alpha", "rng_seed")

    def __init__(self, cfg: PdrModelConfig, net: Network):
        self.cfg = cfg
        self.net = net

    def save(self, path) -> None:
        self.net.extra_header["pdr_config"] = {k: getattr(self.cfg, k) for k in self._SAVED}
        self.net.save(path)

    @classmethod
    def load(cls, path) -> "PdrModel":
        net = Network.load(path)
        stored = net.extra_header.get("pdr_config", {})
        cfg = PdrModelConfig(**{k: stored[k] for k in cls._SAVED if k in stored})
        return cls(cfg, net)

    def predict_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode forward: body-frame deltas and walking probabilities."""
        reg, logits, _ = self.net.forward(x, training=False)
        return reg, softmax(logits)[:, 1]


def build_model(cfg: PdrModelConfig) -> PdrModel:
    """Construct the displacement network for the configured input and arch.

    CNN: three convolutions with two 2x2 max-pools and two dropouts, then a
    dense trunk. BiLSTM: one bidirectional layer over the window read as a
    sequence (50 steps of 12 features in RAW mode), then the same dense trunk.
    Both feed a 2-unit displacement head and a 2-logit activity head.
    Parameters are fan-in-scaled uniform draws from ``rng_seed``.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    in_shape = input_shape_for(cfg)
    trunk = []
    shape = in_shape
    if cfg.arch == CNN:
        f0, f1, f2 = cfg.conv_filters
        plan = [
            ("conv", f0, 3, 5), ("relu",), ("pool",),
            ("conv", f1, 3, 3), ("relu",), ("drop",),
            ("conv", f2, 3, 3), ("relu",), ("pool",), ("drop",),
            ("flatten",),
        ]
        for op in plan:
            if op[0] == "conv":
                layer = Conv2D(shape[0], op[1], op[2], op[3], rng)
            elif op[0] == "relu":
                layer = Relu()
            elif op[0] == "pool":
                layer = MaxPool2x2()
            elif op[0] == "drop":
                layer = Dropout(DROPOUT_RATE)
            else:
                layer = Flatten()
            shape = layer.out_shape(shape)
            trunk.append(layer)
    else:
        layer = Bilstm(in_shape[1], cfg.lstm_hidden, rng)
        shape = layer.out_shape(in_shape)
        trunk.append(layer)
    dense = Dense(shape[0], cfg.dense_units, rng)
    trunk.extend([dense, Relu()])
    reg_head = Dense(cfg.dense_units, 2, rng)
    cls_head = Dense(cfg.dense_units, 2, rng)
    net = Network(trunk, reg_head, cls_head, in_shape)
    return PdrModel(cfg, net)


def window_tensor(window: SensorWindow, cfg: PdrModelConfig) -> np.ndarray:
    """Window data as the model input frame, converting to RP if configured."""
    if cfg.input_mode == RP and window.mode == RAW:
        window = recurrence_matrix(window)
    elif cfg.input_mode == RAW and window.mode != RAW:
        raise ValidationError("RAW model cannot consume an RP window")
    return np.asarray(window.data, dtype=np.float64)[None, :, :]


def prepare_training_arrays(
    samples: list[PseudoLabeledSample],
    cfg: PdrModelConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack samples into (X, body-frame targets, activity labels).

    Requires ``yaw_center`` on every window for the frame rotation.
    """
    xs, targets, labels = [], [], []
    for s in samples:
        if s.window.yaw_center is None:
            raise ValidationError("training windows need yaw_center for frame alignment")
        xs.append(window_tensor(s.window, cfg))
        targets.append(rotate(s.delta, -s.window.yaw_center)[0])
        labels.append(1 if s.activity == WALKING else 0)
    if not xs:
        raise ValidationError("no training samples")
    return np.stack(xs), np.asarray(targets), np.asarray(labels, dtype=int)


@dataclass
class TrainHistory:
    rows: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = np.inf
    diverged: bool = False

    def save_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "regr", "ce"])
            for r in self.rows:
                writer.writerow([r["epoch"], f"{r['train_loss']:.9g}",
                                 f"{r['val_loss']:.9g}", f"{r['regr']:.9g}",
                                 f"{r['ce']:.9g}"])


def train_pdr(
    model: PdrModel,
    train_samples: list[PseudoLabeledSample],
    val_samples: list[PseudoLabeledSample],
    cfg: PdrModelConfig | None = None,
) -> tuple[PdrModel, TrainHistory]:
    """Minimise ``Network.loss`` with Adam, at its default learning rate, on
    shuffled mini-batches, keeping the best checkpoint.

    Stops when the validation loss has not improved for ``patience`` epochs
    or at ``max_epochs``. The reported train loss is the running mean of
    mini-batch losses; validation metrics use a dropout-free pass. A
    non-finite loss term (a ``nan`` in a window, say) is bad input and raises
    :class:`ValidationError`. A non-finite gradient, which ``Adam.step``
    reports as :class:`DivergenceError`, ends training: ``history.diverged``
    is set and the best epoch's weights are restored. Fully reproducible for
    a fixed ``rng_seed``.
    """
    cfg = cfg or model.cfg
    if not train_samples or not val_samples:
        raise ValidationError("train and validation sets must be non-empty")
    x_train, t_train, l_train = prepare_training_arrays(train_samples, cfg)
    x_val, t_val, l_val = prepare_training_arrays(val_samples, cfg)

    lstm_params = [p for layer in model.net.trunk if isinstance(layer, Bilstm)
                   for p in layer.params()]
    adam = Adam(model.net.params(), weight_decay=cfg.weight_decay)
    history = TrainHistory()
    best_state = model.net.get_state()
    n = len(x_train)
    step = 0

    for epoch in range(cfg.max_epochs):
        order = np.random.default_rng((cfg.rng_seed, 1, epoch)).permutation(n)
        batch_losses = []
        try:
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                rng = np.random.default_rng((cfg.rng_seed, 2, step))
                loss, _, _ = model.net.loss(x_train[idx], t_train[idx], l_train[idx],
                                            cfg.alpha, training=True, rng=rng, grad=True)
                batch_losses.append(loss)
                if lstm_params:
                    clip_gradient_norm(lstm_params, LSTM_GRAD_CLIP)
                adam.step()
                step += 1
        except DivergenceError as exc:
            log.warning("training aborted (%s); restoring best checkpoint", exc)
            history.diverged = True
            break
        train_loss = float(np.mean(batch_losses))
        val_loss, val_regr, val_ce = model.net.loss(x_val, t_val, l_val, cfg.alpha)
        history.rows.append({
            "epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
            "regr": val_regr, "ce": val_ce,
        })
        if val_loss < history.best_val - 1e-12:
            history.best_val = val_loss
            history.best_epoch = epoch
            best_state = model.net.get_state()
        if epoch - history.best_epoch >= cfg.patience:  # epochs without improvement
            break

    model.net.set_state(best_state)
    return model, history


def predict_displacements(
    model: PdrModel,
    stream: SensorStream,
    stride: int = INFER_STRIDE,
) -> list[DisplacementPrediction]:
    """Per-window world-frame displacement predictions.

    The model emits the displacement across the window span; the output is
    scaled by ``stride / width`` so each prediction covers exactly one stride
    (0.5 s at the default inference stride), then rotated to the world frame
    by the window-center yaw. Windows classified still emit a zero delta.
    """
    stream = ensure_yaw(stream)
    if not stream.has_channel("acce_mag"):
        stream = magnitude_channels(stream)
    windows = make_windows(stream, width=WINDOW_WIDTH, stride=stride)
    if not windows:
        return []
    xs = np.stack([window_tensor(w, model.cfg) for w in windows])
    scale = stride / WINDOW_WIDTH
    out: list[DisplacementPrediction] = []
    for start in range(0, len(xs), 256):
        chunk = slice(start, start + 256)
        reg, p_walk = model.predict_batch(xs[chunk])
        for w, body, p in zip(windows[chunk], reg, p_walk):
            if p < ACTIVITY_GATE:
                delta = np.zeros(2)
            else:
                delta = rotate(body * scale, w.yaw_center)[0]
            out.append(DisplacementPrediction(w.t_center, delta, float(p)))
    return out


def classic_pdr(stream: SensorStream) -> list[DisplacementPrediction]:
    """Step-and-heading baseline: fixed stride along the yaw at each step."""
    stream = ensure_yaw(stream)
    if not stream.has_channel("acce_mag"):
        stream = magnitude_channels(stream)
    times = stream.times()
    yaw = stream.channel("yaw")
    out = []
    for step_event in detect_steps(stream):
        heading = float(np.interp(step_event.timestamp, times, yaw))
        delta = CLASSIC_STRIDE_M * np.array([np.cos(heading), np.sin(heading)])
        out.append(DisplacementPrediction(step_event.timestamp, delta, 1.0))
    return out
