"""Scene stream: multi-granularity temporal pyramid and scene scores.

The stream consumes one video's scene feature maps at granularities 1, 2
and 3 (lengths T, 2T, 3T over shared channels). Finer maps are reduced
with dilated convolutions plus adaptive mean pooling and merged into the
next coarser map through pointwise bottlenecks, ending in a T x 2*conv
map that an LSTM encodes before the scoring MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .errors import InputError
from .layers import ConvParams, LstmParams, RankerParams
from .tensor import Tensor, adaptive_mean_rows, concatenate, relu

# kernel sizes / dilations of the two downscaler convolutions
DOWNSCALER_LAYOUT = ((5, 4), (3, 8))


@dataclass
class DownscalerParams:
    conv1: ConvParams   # c_in -> c_out
    conv2: ConvParams   # c_out -> c_out

    @classmethod
    def create(cls, rng: np.random.Generator, c_in: int, c_out: int) -> "DownscalerParams":
        (k1, d1), (k2, d2) = DOWNSCALER_LAYOUT
        return cls(
            conv1=ConvParams.create(rng, k1, c_in, c_out, dilation=d1),
            conv2=ConvParams.create(rng, k2, c_out, c_out, dilation=d2),
        )


@dataclass
class SceneStreamParams:
    down1: DownscalerParams            # 3T map -> 2T, input width n
    down2: DownscalerParams            # 2T pyramid level -> T, input width 2*n_c
    bottleneck_mid: ConvParams         # pointwise on the 2T map
    bottleneck_base: ConvParams        # pointwise on the T map
    lstm: LstmParams
    ranker: RankerParams

    @classmethod
    def create(cls, rng: np.random.Generator, hp: HyperParams) -> "SceneStreamParams":
        n, n_c = hp.channels, hp.conv_channels
        return cls(
            down1=DownscalerParams.create(rng, n, n_c),
            down2=DownscalerParams.create(rng, 2 * n_c, n_c),
            bottleneck_mid=ConvParams.create(rng, 1, n, n_c, dilation=1),
            bottleneck_base=ConvParams.create(rng, 1, n, n_c, dilation=1),
            lstm=LstmParams.create(rng, 2 * n_c, hp.hidden_size),
            ranker=RankerParams.create(rng, hp.hidden_size, hp.ranker_width),
        )


def temporal_downscale(feature_map: Tensor, target_len: int, convs: DownscalerParams) -> Tensor:
    """Shrink the temporal axis to `target_len` rows.

    Two same-length dilated convolutions (ReLU after each) widen the
    receptive field, then adaptive mean pooling lands on the target
    length exactly. Requires a strict reduction.
    """
    if feature_map.shape[0] <= target_len:
        raise InputError(
            f"temporal_downscale needs more input rows than {target_len}, got {feature_map.shape[0]}"
        )
    if target_len < 1:
        raise InputError("target length must be >= 1")
    x = relu(convs.conv1.apply(feature_map))
    x = relu(convs.conv2.apply(x))
    return adaptive_mean_rows(x, target_len)


def bottleneck(feature_map: Tensor, conv: ConvParams) -> Tensor:
    """Pointwise (k=1) convolution with ReLU."""
    return relu(conv.apply(feature_map))


def mgtm_forward(f_base: Tensor, f_mid: Tensor, f_fine: Tensor,
                 params: SceneStreamParams) -> Tensor:
    """Temporal feature pyramid over the three granularities, LSTM-encoded.

    f_base/f_mid/f_fine are the T/2T/3T maps. Returns a (T, hidden) map.
    """
    t = f_base.shape[0]
    n = f_base.shape[1]
    if f_mid.shape != (2 * t, n) or f_fine.shape != (3 * t, n):
        raise InputError(
            f"granularity maps must be (T,n)/(2T,n)/(3T,n); got {f_base.shape}, {f_mid.shape}, {f_fine.shape}"
        )
    level1 = concatenate([temporal_downscale(f_fine, 2 * t, params.down1),
                          bottleneck(f_mid, params.bottleneck_mid)], axis=1)
    level2 = concatenate([temporal_downscale(level1, t, params.down2),
                          bottleneck(f_base, params.bottleneck_base)], axis=1)
    return params.lstm.apply(level2)


def scene_rank(encoded: Tensor, params: SceneStreamParams) -> tuple[Tensor, Tensor]:
    """Per-segment scores in [0,1] plus the (T, m) intermediate map."""
    return params.ranker.apply(encoded)


def scene_forward(params: SceneStreamParams, scene_maps: dict[int, np.ndarray]) -> tuple[Tensor, Tensor]:
    """Full scene stream on one video's maps: (scores (T,), intermediates (T, m))."""
    encoded = mgtm_forward(
        Tensor(scene_maps[1]), Tensor(scene_maps[2]), Tensor(scene_maps[3]), params
    )
    return scene_rank(encoded, params)
