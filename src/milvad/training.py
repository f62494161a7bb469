"""MIL bag training: optimizer, the training step, staged/joint schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .data.manifest import Dataset, VideoFeatures
from .errors import InputError
from .losses import BagPair, classical_ranking_loss, self_rectifying_loss
from .model import PARAM_GROUPS, AnomalyScorer
from .tensor import Tensor, backward

# elements per Adam update block: six float64 blocks of it fit a 2 MB L2
BLOCK = 1 << 15

# (name, parameter groups, score head) per staged phase
STAGES = (
    ("scene", ("scene",), "scene"),
    ("human", ("human",), "tracklet"),
    ("coupler", ("coupler",), "fused"),
)


class Adam:
    """Adaptive-moment estimation with bias correction (Kingma & Ba, 2015).

    Each parameter is updated in place, `BLOCK` elements at a time, so that
    a block of the gradient, both moments, the data and two scratch rows
    stay in cache. The operations and their order are those of
    `data - lr * (m / c1) / (sqrt(v / c2) + eps)`, so the result is
    bit-identical to that expression. `.data` and `.grad` are read afresh
    each step: `.data` may be replaced between steps by any writable
    C-contiguous array of the same shape.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        width = min(BLOCK, max((t.size for t in self.params.values()), default=0))
        scratch = np.empty((2, width))
        # per parameter: (span, m block, v block, step scratch, denominator scratch)
        self._blocks = {}
        for name, t in self.params.items():
            if not (t.data.flags.c_contiguous and t.data.flags.writeable):
                raise InputError(
                    f"parameter {name}: data must be a writable C-contiguous array to update in place"
                )
            m, v = np.zeros(t.size), np.zeros(t.size)
            spans = (slice(lo, min(lo + BLOCK, t.size)) for lo in range(0, t.size, BLOCK))
            self._blocks[name] = [(span, m[span], v[span], *scratch[:, :span.stop - span.start])
                                  for span in spans]

    def step(self) -> None:
        self.step_count += 1
        beta1, beta2, lr, eps = self.beta1, self.beta2, self.learning_rate, self.eps
        correction1 = 1.0 - beta1 ** self.step_count
        correction2 = 1.0 - beta2 ** self.step_count
        for name, t in self.params.items():
            if t.grad is None:
                continue
            grad, data = t.grad.reshape(-1), t.data.reshape(-1)
            for span, m, v, s, d in self._blocks[name]:
                g = grad[span]
                m *= beta1
                np.multiply(g, 1.0 - beta1, out=s)
                m += s
                v *= beta2
                np.multiply(g, g, out=s)
                s *= 1.0 - beta2
                v += s
                np.divide(m, correction1, out=s)
                s *= lr
                np.divide(v, correction2, out=d)
                np.sqrt(d, out=d)
                d += eps
                s /= d
                data[span] -= s

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None


@dataclass
class TrainResult:
    losses: list[float]
    phase_boundaries: list[tuple[int, str]]   # (step index, phase name)
    log_lines: list[str] = field(default_factory=list)


def pair_loss(model: AnomalyScorer, anomaly: VideoFeatures, normal: VideoFeatures,
              cfg: TrainConfig, head: str) -> Tensor:
    """Forward both videos through the chosen head and apply the configured loss."""
    bags = BagPair(
        anomaly=model.forward(anomaly, head, cfg.use_video_selection)[head],
        normal=model.forward(normal, head, cfg.use_video_selection)[head],
    )
    if cfg.loss == "classical_ranking":
        return classical_ranking_loss(bags)
    return self_rectifying_loss(
        bags, cfg.context_weight, cfg.instance_weight, cfg.normalize_context
    )


def train_step(model: AnomalyScorer, pairs: list[tuple[VideoFeatures, VideoFeatures]],
               cfg: TrainConfig, optimizer: Adam, head: str) -> float:
    """One optimization step on the mean loss of (anomaly, normal) pairs."""
    optimizer.zero_grad()
    value = 0.0
    for anomaly, normal in pairs:
        loss = pair_loss(model, anomaly, normal, cfg, head)
        if len(pairs) > 1:
            loss = loss * (1.0 / len(pairs))
        backward(loss)
        value += loss.item()
    optimizer.step()
    return value


def _stage_steps(cfg: TrainConfig) -> list[int]:
    raw = [int(round(f * cfg.steps)) for f in cfg.stage_fractions]
    raw[0] += cfg.steps - sum(raw)
    return raw


def train(model: AnomalyScorer, dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train `model` on `dataset` per the configured schedule.

    Staged mode trains the scene stream against its own scores, then the
    human stream, then the coupler with both streams frozen. Joint mode
    trains everything against the configured head at once. Each step
    samples `cfg.pair_batch` (anomaly, normal) pairs uniformly with the
    seeded generator and runs one `train_step` on their mean loss;
    identical seeds give identical loss traces. A non-finite loss raises
    `InputError` naming the step, the phase and the last finite loss. The
    model leaves with every parameter frozen, even when training raises,
    so scoring records no graph.
    """
    cfg.validate()
    anomalies, normals = dataset.anomalies(), dataset.normals()
    if not anomalies or not normals:
        raise InputError(
            f"training needs both classes; got {len(anomalies)} anomaly / {len(normals)} normal videos"
        )
    rng = np.random.default_rng(cfg.seed)
    result = TrainResult(losses=[], phase_boundaries=[])
    if cfg.schedule == "joint":
        phases = [("joint", PARAM_GROUPS, cfg.head, cfg.steps)]
    else:
        phases = [stage + (steps,) for stage, steps in zip(STAGES, _stage_steps(cfg))]
    try:
        offset = 0
        for name, groups, head, steps in phases:
            result.phase_boundaries.append((offset, name))
            result.log_lines.append(f"phase {name} start step={offset} head={head}")
            model.set_trainable(groups)
            optimizer = Adam(
                {key: t for g in groups for key, t in model.named_parameters(g).items()},
                cfg.learning_rate, cfg.betas,
            )
            for step in range(offset, offset + steps):
                pairs = [(anomalies[int(rng.integers(len(anomalies)))],
                          normals[int(rng.integers(len(normals)))])
                         for _ in range(cfg.pair_batch)]
                value = train_step(model, pairs, cfg, optimizer, head)
                if not math.isfinite(value):
                    last = f"{result.losses[-1]:.6g}" if result.losses else "none"
                    raise InputError(
                        f"training step {step} ({name} phase): loss is {value}; "
                        f"last finite loss {last}"
                    )
                result.losses.append(value)
                result.log_lines.append(f"step={step} phase={name} loss={value:.6f}")
            offset += steps
    finally:
        model.set_trainable(())
    return result
