"""Weakly-supervised video anomaly scoring on pre-extracted feature maps.

A scene stream (multi-granularity temporal pyramid) and a human stream
(saliency-selected tracklets with relation modeling) each score the
temporal segments of a video; a soft-selection coupler gates and fuses
the two score tracks. Training follows the multiple-instance paradigm
with a self-rectifying loss over (anomaly, normal) video pairs, and
evaluation reports frame-level ROC AUC.
"""

from .config import HyperParams, TrainConfig
from .data import (
    Dataset,
    SynthSpec,
    VideoFeatures,
    load_dataset,
    segment_boundaries,
    synthesize_dataset,
)
from .evaluation import EvalReport, evaluate, roc_auc
from .losses import BagPair, classical_ranking_loss, pseudo_labels, self_rectifying_loss
from .model import AnomalyScorer, ScoreBundle
from .tensor import Tensor, affine, backward, conv1d, grad_check, lstm_forward, pool
from .training import TrainResult, train

__all__ = [
    "AnomalyScorer",
    "BagPair",
    "Dataset",
    "EvalReport",
    "HyperParams",
    "ScoreBundle",
    "SynthSpec",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "VideoFeatures",
    "affine",
    "backward",
    "classical_ranking_loss",
    "conv1d",
    "evaluate",
    "grad_check",
    "load_dataset",
    "lstm_forward",
    "pool",
    "pseudo_labels",
    "roc_auc",
    "segment_boundaries",
    "self_rectifying_loss",
    "synthesize_dataset",
    "train",
]

__version__ = "0.1.0"
