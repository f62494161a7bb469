"""MIL bag training: optimizer, single pair steps, staged/joint schedules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .data.manifest import Dataset, VideoFeatures
from .errors import InputError
from .losses import BagPair, classical_ranking_loss, self_rectifying_loss
from .model import PARAM_GROUPS, AnomalyScorer
from .tensor import Tensor, backward

# (name, parameter groups, score head) per staged phase
STAGES = (
    ("scene", ("scene",), "scene"),
    ("human", ("human",), "tracklet"),
    ("coupler", ("coupler",), "fused"),
)


class Adam:
    """Adaptive-moment estimation with bias correction."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def step(self) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        for name, t in self.params.items():
            if t.grad is None:
                continue
            m = self._m[name] = self.beta1 * self._m[name] + (1.0 - self.beta1) * t.grad
            v = self._v[name] = self.beta2 * self._v[name] + (1.0 - self.beta2) * t.grad ** 2
            t.data = t.data - self.learning_rate * (m / correction1) / (
                np.sqrt(v / correction2) + self.eps
            )

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


def train_step(model: AnomalyScorer, anomaly: VideoFeatures, normal: VideoFeatures,
               cfg: TrainConfig, optimizer: Adam, head: str | None = None) -> float:
    """One optimization step on a single (anomaly, normal) pair."""
    optimizer.zero_grad()
    loss = pair_loss(model, anomaly, normal, cfg, head or cfg.head)
    backward(loss)
    optimizer.step()
    return loss.item()


def _sample_pair(rng: np.random.Generator, anomalies, normals):
    a = anomalies[int(rng.integers(len(anomalies)))]
    n = normals[int(rng.integers(len(normals)))]
    return a, n


def _run_phase(model, dataset_split, cfg, phase, groups, head, steps, rng, offset, result):
    anomalies, normals = dataset_split
    model.set_trainable(groups)
    optimizer = Adam(
        {name: t for g in groups for name, t in model.named_parameters(g).items()},
        cfg.learning_rate, cfg.betas,
    )
    for local_step in range(steps):
        optimizer.zero_grad()
        value = 0.0
        for _ in range(cfg.pair_batch):
            a, n = _sample_pair(rng, anomalies, normals)
            loss = pair_loss(model, a, n, cfg, head)
            if cfg.pair_batch > 1:
                loss = loss * (1.0 / cfg.pair_batch)
            backward(loss)
            value += loss.item()
        optimizer.step()
        step = offset + local_step
        result.losses.append(value)
        result.log_lines.append(f"step={step} phase={phase} loss={value:.6f}")
    return offset + steps


def _stage_steps(cfg: TrainConfig) -> list[int]:
    raw = [int(round(f * cfg.steps)) for f in cfg.stage_fractions]
    raw[0] += cfg.steps - sum(raw)
    return raw


def train(model: AnomalyScorer, dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train `model` on `dataset` per the configured schedule.

    Staged mode trains the scene stream against its own scores, then the
    human stream, then the coupler with both streams frozen. Joint mode
    trains everything against the configured head at once. Each step
    samples one anomaly and one normal video uniformly with the seeded
    generator; identical seeds give identical loss traces. The model
    leaves with every parameter frozen, even when training raises, so
    scoring records no graph.
    """
    cfg.validate()
    anomalies, normals = dataset.anomalies(), dataset.normals()
    if not anomalies or not normals:
        raise InputError(
            f"training needs both classes; got {len(anomalies)} anomaly / {len(normals)} normal videos"
        )
    rng = np.random.default_rng(cfg.seed)
    result = TrainResult(losses=[], phase_boundaries=[])
    split = (anomalies, normals)
    if cfg.schedule == "joint":
        phases = [("joint", PARAM_GROUPS, cfg.head, cfg.steps)]
    else:
        phases = [stage + (steps,) for stage, steps in zip(STAGES, _stage_steps(cfg))]
    try:
        offset = 0
        for name, groups, head, steps in phases:
            result.phase_boundaries.append((offset, name))
            result.log_lines.append(f"phase {name} start step={offset} head={head}")
            offset = _run_phase(model, split, cfg, name, groups, head, steps, rng, offset, result)
    finally:
        model.set_trainable(())
    return result
