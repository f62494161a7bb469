"""Soft-selection coupler: attention over the two streams' representations.

Two blocks with disjoint parameters weigh the human and scene streams
against each other. The segment-level block scores each temporal segment,
the video-level block scores the whole video from mean-pooled context;
their product gates each stream's detection scores before they are summed
into the final score. Both streams pass through their own latent
projection before the concatenated representation reaches the two
single-unit sigmoid heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .errors import InputError
from .layers import LinearParams
from .tensor import Tensor, add, concatenate, mul, pool

__all__ = [
    "CouplerParams",
    "SelectionBlockParams",
    "segment_level_selection",
    "video_level_selection",
    "fuse",
]


@dataclass
class SelectionBlockParams:
    latent_human: LinearParams  # m -> m, relu
    latent_scene: LinearParams  # m -> m, relu
    head_human: LinearParams    # 2m -> 1, sigmoid
    head_scene: LinearParams    # 2m -> 1, sigmoid

    @classmethod
    def create(cls, rng: np.random.Generator, width: int) -> "SelectionBlockParams":
        return cls(
            latent_human=LinearParams.create(rng, width, width),
            latent_scene=LinearParams.create(rng, width, width),
            head_human=LinearParams.create(rng, 2 * width, 1),
            head_scene=LinearParams.create(rng, 2 * width, 1),
        )

    def attend(self, human_map: Tensor, scene_map: Tensor) -> tuple[Tensor, Tensor]:
        """Rows -> two attention values per row, each in (0,1)."""
        joint = concatenate(
            [self.latent_human.apply(human_map, "relu"),
             self.latent_scene.apply(scene_map, "relu")],
            axis=1,
        )
        rows = joint.shape[0]
        a_human = self.head_human.apply(joint, "sigmoid").reshape((rows,))
        a_scene = self.head_scene.apply(joint, "sigmoid").reshape((rows,))
        return a_human, a_scene


@dataclass
class CouplerParams:
    segment: SelectionBlockParams
    video: SelectionBlockParams

    @classmethod
    def create(cls, rng: np.random.Generator, hp: HyperParams) -> "CouplerParams":
        return cls(
            segment=SelectionBlockParams.create(rng, hp.ranker_width),
            video=SelectionBlockParams.create(rng, hp.ranker_width),
        )


def segment_level_selection(
    human_map: Tensor, scene_map: Tensor, params: CouplerParams
) -> tuple[Tensor, Tensor, Tensor]:
    """Per-segment attentions for the two streams.

    `human_map` is the (T, k^s, m) tracklet-ranker intermediate; it is
    max-pooled over tracklets to match the (T, m) scene-ranker map.
    Returns ((T,) human attention, (T,) scene attention, (T, m) pooled map).
    """
    if human_map.ndim != 3 or scene_map.ndim != 2:
        raise InputError(
            f"expected (T, k^s, m) and (T, m), got {human_map.shape} and {scene_map.shape}"
        )
    if human_map.shape[2] != scene_map.shape[1] or human_map.shape[0] != scene_map.shape[0]:
        raise InputError(
            f"stream widths disagree: {human_map.shape} vs {scene_map.shape}"
        )
    pooled = pool(human_map, axis=1, mode="max")
    a_human, a_scene = params.segment.attend(pooled, scene_map)
    return a_human, a_scene, pooled


def video_level_selection(
    pooled_human: Tensor, scene_map: Tensor, params: CouplerParams
) -> tuple[Tensor, Tensor]:
    """Whole-video attentions from mean-pooled temporal context.

    Both (T, m) maps are mean-pooled over T before the block; returns two
    (1,) attention values in (0,1). Mean pooling makes the result
    invariant to segment order.
    """
    if pooled_human.shape != scene_map.shape or pooled_human.ndim != 2:
        raise InputError(
            f"expected matching (T, m) maps, got {pooled_human.shape} and {scene_map.shape}"
        )
    width = scene_map.shape[1]
    ctx_human = pool(pooled_human, axis=0, mode="mean").reshape((1, width))
    ctx_scene = pool(scene_map, axis=0, mode="mean").reshape((1, width))
    return params.video.attend(ctx_human, ctx_scene)


def fuse(
    segment_attn: tuple[Tensor, Tensor],
    video_attn: tuple[Tensor, Tensor] | None,
    tracklet_scores: Tensor,
    scene_scores: Tensor,
) -> tuple[Tensor, Tensor, Tensor]:
    """Couple the stream scores through the selection factors.

    The video attentions are inflated across T by broadcasting and
    combined with the segment attentions by a Hadamard product; passing
    `video_attn=None` disables video-level selection, making the factors
    equal the segment attentions exactly. The fused score is
    `human_factor * tracklet_scores + scene_factor * scene_scores`,
    bounded by [0, 2] since the two terms are independent.
    """
    a_human, a_scene = segment_attn
    if video_attn is not None:
        factor_human = mul(a_human, video_attn[0])
        factor_scene = mul(a_scene, video_attn[1])
    else:
        factor_human, factor_scene = a_human, a_scene
    fused = add(mul(factor_human, tracklet_scores), mul(factor_scene, scene_scores))
    return factor_human, factor_scene, fused
