"""Model and training configuration."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import InputError

LOSSES = ("self_rectifying", "classical_ranking")
SCHEDULES = ("staged", "joint")
HEADS = ("fused", "scene", "tracklet")


@dataclass
class HyperParams:
    """Architecture extents.

    Defaults follow the usual convention for segment-feature pipelines
    (32 segments, 512-wide encoders); tests and the bundled demos run at
    desk scale (8 segments, width 16). `channels` must match the channel
    count of the feature files being consumed.
    """

    segments: int = 32          # T; granularities 1/2/3 give T, 2T, 3T maps
    channels: int = 16          # n, per feature source
    conv_channels: int = 512    # width of downscaler / bottleneck outputs
    hidden_size: int = 512      # LSTM hidden units
    selected_tracklets: int = 4  # k^s kept by the saliency selection
    ranker_width: int = 64      # intermediate MLP / coupler latent width

    def validate(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise InputError(f"{f.name} must be positive, got {getattr(self, f.name)}")

    @classmethod
    def desk_scale(cls, channels: int = 16) -> "HyperParams":
        return cls(segments=8, channels=channels, conv_channels=16,
                   hidden_size=16, selected_tracklets=2, ranker_width=16)


@dataclass
class TrainConfig:
    """Optimization settings for one training run.

    The bundled demo and acceptance configurations override the loss
    weights (context 0.5 / instance 2.0) and enable `normalize_context`;
    at desk scale the raw-sum margin is met immediately and stops
    producing gradient, so the normalized hinge trains far better. The
    raw form stays the default because that is how the margin is defined.
    """

    loss: str = "self_rectifying"        # or "classical_ranking"
    schedule: str = "staged"             # or "joint"
    head: str = "fused"                  # bag source in joint mode
    steps: int = 600                     # total (anomaly, normal) pair steps
    learning_rate: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    context_weight: float = 1.0          # weight of the bag-separation hinge
    instance_weight: float = 1.0         # weight of the pseudo-label term
    normalize_context: bool = False      # divide context sums by T
    pair_batch: int = 1                  # pairs averaged per update
    use_video_selection: bool = True     # False = segment-level selection only
    stage_fractions: tuple[float, float, float] = (0.4, 0.2, 0.4)
    seed: int = 0

    def validate(self) -> None:
        if self.loss not in LOSSES:
            raise InputError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.schedule not in SCHEDULES:
            raise InputError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.head not in HEADS:
            raise InputError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.steps < 1:
            raise InputError("steps must be positive")
        if self.learning_rate <= 0:
            raise InputError("learning rate must be positive")
        if self.pair_batch < 1:
            raise InputError("pair batch must be >= 1")
        if self.context_weight < 0 or self.instance_weight < 0:
            raise InputError("loss weights must be nonnegative")
        if abs(sum(self.stage_fractions) - 1.0) > 1e-9 or any(f < 0 for f in self.stage_fractions):
            raise InputError("stage fractions must be nonnegative and sum to 1")


@dataclass
class RunConfig:
    """Merged hyperparameters + training settings, as read from a config file."""

    hyper: HyperParams
    train: TrainConfig

    def as_dict(self) -> dict:
        return {"hyper": asdict(self.hyper), "train": asdict(self.train)}

    @classmethod
    def default_desk_scale(cls) -> "RunConfig":
        return cls(hyper=HyperParams.desk_scale(), train=TrainConfig())

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: config does not parse: {exc}") from exc
        return cls.from_dict(doc, source=str(path))

    @classmethod
    def from_dict(cls, doc: dict, source: str = "<config>") -> "RunConfig":
        if not isinstance(doc, dict):
            raise InputError(f"{source}: config must be a JSON object")
        extra = set(doc) - {"hyper", "train"}
        if extra:
            raise InputError(f"{source}: unknown sections {sorted(extra)}")
        hyper = decode(HyperParams, doc.get("hyper", {}), source)
        train = decode(TrainConfig, doc.get("train", {}), source)
        hyper.validate()
        train.validate()
        return cls(hyper=hyper, train=train)


def _decode_value(value, default, where: str):
    """`value` checked against the type of `default`; a list becomes a tuple."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise InputError(f"{where} must be a list of {len(default)}, got {value!r}")
        return tuple(_decode_value(v, d, f"{where}[{i}]")
                     for i, (v, d) in enumerate(zip(value, default)))
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(default, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise InputError(f"{where} must be {type(default).__name__}, got {value!r}")
    return value


def decode(cls, doc, source: str):
    """Build dataclass `cls` from a JSON object, rejecting unknown keys and mistyped values.

    Each value must match the type of its field's default: a bool field
    takes only a bool, an int field an int but not a bool, a float field
    an int or a float, a str field a str, and a tuple field a list (or a
    tuple) of the default's length whose entries follow the same rules.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{source}: {cls.__name__} must be a JSON object, got {doc!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(doc) - set(defaults)
    if unknown:
        raise InputError(f"{source}: unknown keys {sorted(unknown)}")
    return cls(**{key: _decode_value(value, defaults[key], f"{source}: {key}")
                  for key, value in doc.items()})
