"""Human stream: saliency-based tracklet selection, relation modeling, scores.

The stream consumes one video's tracklet feature map (T segments x k
tracklets x n channels). Tracklets are ranked by feature magnitude, the
top k^s are kept for the whole video in ascending-magnitude order, and an
LSTM run along the tracklet axis of each segment encodes their relations
before the scoring MLP. The per-segment score is the max over tracklets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .errors import InputError
from .layers import LstmParams, RankerParams
from .tensor import Tensor, pool


@dataclass
class HumanStreamParams:
    lstm: LstmParams       # relation encoder, shared across segments
    ranker: RankerParams   # identical structure to the scene ranker

    @classmethod
    def create(cls, rng: np.random.Generator, hp: HyperParams) -> "HumanStreamParams":
        return cls(
            lstm=LstmParams.create(rng, hp.channels, hp.hidden_size),
            ranker=RankerParams.create(rng, hp.hidden_size, hp.ranker_width),
        )


def feature_magnitude(tracklets: np.ndarray) -> np.ndarray:
    """Per-tracklet saliency: sum over segments of the L2 feature norm.

    `tracklets` is (T, k, n); returns k nonnegative reals.
    """
    tracklets = np.asarray(tracklets, dtype=np.float64)
    if tracklets.ndim != 3:
        raise InputError(f"tracklet map must be (T, k, n), got {tracklets.shape}")
    return np.linalg.norm(tracklets, axis=2).sum(axis=0)


def select_tracklets(tracklets: np.ndarray, keep: int) -> np.ndarray:
    """Keep the `keep` largest-magnitude tracklets, ascending by magnitude.

    Selection is global for the video: one magnitude per tracklet, summed
    over all segments. Ties break toward the smaller original index. When
    fewer than `keep` tracklets exist, zero-feature pads fill the deficit
    and, having zero magnitude, occupy the leading positions.
    """
    if keep < 1:
        raise InputError(f"must keep at least one tracklet, got {keep}")
    tracklets = np.asarray(tracklets, dtype=np.float64)
    magnitudes = feature_magnitude(tracklets)
    t, k, n = tracklets.shape
    # order candidates by (magnitude desc, index asc) and keep the head
    ranked = sorted(range(k), key=lambda j: (-magnitudes[j], j))[:keep]
    # arrange the kept tracklets ascending by magnitude, index-tie toward
    # the smaller index first
    kept = sorted(ranked, key=lambda j: (magnitudes[j], j))
    out = np.zeros((t, keep, n), dtype=np.float64)
    pad = keep - len(kept)
    for pos, j in enumerate(kept):
        out[:, pad + pos, :] = tracklets[:, j, :]
    return out


def relation_model(selected: Tensor, params: HumanStreamParams) -> Tensor:
    """Encode tracklet relations per segment.

    `selected` is (T, k^s, n) in ascending-magnitude order. One LSTM runs
    along the tracklet axis with the T segments as its batch axis: shared
    parameters, no state across segments. Returns (T, k^s, hidden).
    """
    if selected.ndim != 3:
        raise InputError(f"relation_model expects (T, k^s, n), got {selected.shape}")
    return params.lstm.apply(selected)


def tracklet_rank(encoded: Tensor, params: HumanStreamParams) -> tuple[Tensor, Tensor]:
    """Score every (segment, tracklet) pair and max-pool over tracklets.

    Returns ((T,) scores in [0,1], (T, k^s, m) intermediate map).
    """
    t, k_s, hidden = encoded.shape
    flat = encoded.reshape((t * k_s, hidden))
    scores, intermediate = params.ranker.apply(flat)
    per_tracklet = scores.reshape((t, k_s))
    width = intermediate.shape[1]
    return pool(per_tracklet, axis=1, mode="max"), intermediate.reshape((t, k_s, width))


def human_forward(params: HumanStreamParams, tracklets: np.ndarray, keep: int) -> tuple[Tensor, Tensor]:
    """Full human stream on one video's tracklet map."""
    selected = Tensor(select_tracklets(tracklets, keep))
    encoded = relation_model(selected, params)
    return tracklet_rank(encoded, params)
