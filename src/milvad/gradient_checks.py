"""Finite-difference verification table over primitives and composite blocks.

Each named check builds a small seeded scalar graph (extents <= 8) and
compares recorded adjoints against central differences. The same table
backs the command-line `gradcheck` run and the acceptance gradient suite.
"""

from __future__ import annotations

import numpy as np

from .config import HyperParams
from .coupler import CouplerParams, fuse, segment_level_selection, video_level_selection
from .human import HumanStreamParams, relation_model, tracklet_rank
from .losses import BagPair, classical_ranking_loss, context_loss, instance_loss, pseudo_labels, self_rectifying_loss
from .scene import SceneStreamParams, mgtm_forward
from .tensor import (
    Tensor,
    adaptive_mean_rows,
    affine,
    concatenate,
    conv1d,
    grad_check,
    lstm_forward,
    pool,
    uniform_param,
)

TOLERANCE = 1e-4
TINY = HyperParams(segments=2, channels=3, conv_channels=2, hidden_size=2,
                   selected_tracklets=2, ranker_width=2)


def _param(rng, shape):
    return Tensor(rng.normal(scale=0.5, size=shape), requires_grad=True)


def _check_elementwise(seed=0):
    rng = np.random.default_rng(seed)
    a = _param(rng, (3, 4))
    b = _param(rng, (3, 4))
    return lambda: ((a + b) * a - b).tanh().sum()


def _check_matmul(seed=1):
    rng = np.random.default_rng(seed)
    a = _param(rng, (3, 4))
    b = _param(rng, (4, 2))
    return lambda: (a @ b).sum()


def _check_activations(seed=2):
    rng = np.random.default_rng(seed)
    # keep entries away from the relu kink
    x = Tensor(np.where(np.abs(z := rng.normal(size=(4, 3))) < 0.05, 0.2, z),
               requires_grad=True)
    return lambda: (x.relu() + x.sigmoid() * x.tanh()).mean()


def _check_abs(seed=3):
    rng = np.random.default_rng(seed)
    x = Tensor(np.sign(rng.normal(size=6)) * rng.uniform(0.1, 1.0, size=6),
               requires_grad=True)
    return lambda: x.abs().sum()


def _check_pool_max(seed=4):
    rng = np.random.default_rng(seed)
    x = _param(rng, (4, 5))
    return lambda: pool(x, axis=0, mode="max").sum()


def _check_pool_mean(seed=5):
    rng = np.random.default_rng(seed)
    x = _param(rng, (4, 5))
    return lambda: pool(x, axis=1, mode="mean").sum()


def _check_concatenate(seed=6):
    rng = np.random.default_rng(seed)
    a = _param(rng, (2, 3))
    b = _param(rng, (2, 2))
    return lambda: concatenate([a, b], axis=1).reshape((10,)).sigmoid().sum()


def _check_adaptive_pool(seed=7):
    rng = np.random.default_rng(seed)
    x = _param(rng, (7, 2))
    return lambda: adaptive_mean_rows(x, 3).tanh().sum()


def _check_affine(activation):
    def factory(seed=8):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 3)))
        w = uniform_param(rng, (3, 2), fan_in=3)
        b = uniform_param(rng, (2,), fan_in=3)
        return lambda: affine(x, w, b, activation).sum()

    return factory


def _check_conv(kernel_size, dilation, input_grad=False):
    def factory(seed=9):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=input_grad)
        w = uniform_param(rng, (kernel_size, 2, 2), fan_in=kernel_size * 2)
        b = uniform_param(rng, (2,), fan_in=kernel_size * 2)
        return lambda: conv1d(x, w, b, dilation=dilation).sigmoid().sum()

    return factory


def _check_lstm(seed=10, shape=(3, 2), seq_grad=False):
    rng = np.random.default_rng(seed)
    seq = Tensor(rng.normal(size=shape), requires_grad=seq_grad)
    wx = uniform_param(rng, (2, 8), fan_in=2)
    wh = uniform_param(rng, (2, 8), fan_in=2)
    b = uniform_param(rng, (8,), fan_in=2)
    return lambda: lstm_forward(seq, wx, wh, b).sum()


def _check_mgtm(seed=12):  # a seed whose ReLUs pass a gradient to every parameter
    rng = np.random.default_rng(seed)
    params = SceneStreamParams.create(rng, TINY)
    f1 = Tensor(rng.normal(size=(2, 3)))
    f2 = Tensor(rng.normal(size=(4, 3)))
    f3 = Tensor(rng.normal(size=(6, 3)))
    return lambda: mgtm_forward(f1, f2, f3, params).sum()


def _check_relation_rank(seed=12):
    rng = np.random.default_rng(seed)
    params = HumanStreamParams.create(rng, TINY)
    selected = Tensor(rng.normal(size=(2, 2, 3)))

    def build():
        scores, intermediate = tracklet_rank(relation_model(selected, params), params)
        return scores.sum() + intermediate.mean()

    return build


def _check_segment_selection(seed=13):
    rng = np.random.default_rng(seed)
    params = CouplerParams.create(rng, TINY)
    human_map = Tensor(rng.normal(size=(3, 2, 2)))
    scene_map = Tensor(rng.normal(size=(3, 2)))

    def build():
        a_h, a_s, _ = segment_level_selection(human_map, scene_map, params)
        return (a_h + a_s).sum()

    return build


def _check_video_selection(seed=14):
    rng = np.random.default_rng(seed)
    params = CouplerParams.create(rng, TINY)
    pooled = Tensor(rng.normal(size=(3, 2)))
    scene_map = Tensor(rng.normal(size=(3, 2)))

    def build():
        a_h, a_s = video_level_selection(pooled, scene_map, params)
        return (a_h * a_s).sum()

    return build


def _check_fuse(seed=15):
    rng = np.random.default_rng(seed)
    seg = (_fuse_in(rng, 4), _fuse_in(rng, 4))
    vid = (_fuse_in(rng, 1), _fuse_in(rng, 1))
    d_tr = _fuse_in(rng, 4)
    d_sc = _fuse_in(rng, 4)
    return lambda: fuse(seg, vid, d_tr, d_sc)[2].sum()


def _fuse_in(rng, size):
    return Tensor(rng.uniform(0.1, 0.9, size=size), requires_grad=True)


def _loss_inputs(rng, spread=True):
    """Bag tensors at least 1e-3 from hinge, |.| and label-flip boundaries."""
    while True:
        a = rng.uniform(0.05, 0.95, size=4)
        n = rng.uniform(0.05, 0.95, size=4)
        ref = (a.max() + a.min()) / 2
        labels = (a > ref).astype(float)
        hinge_gap = abs(1.0 - a.sum() + n.sum())
        err_gap = abs((n ** 2).mean() - ((a - labels) ** 2).mean())
        flip_gap = np.abs(a - ref).min()
        if min(hinge_gap, err_gap, flip_gap) > 1e-3:
            return Tensor(a, requires_grad=True), Tensor(n, requires_grad=True)


def _check_context_loss(seed=16):
    a, n = _loss_inputs(np.random.default_rng(seed))
    return lambda: context_loss(BagPair(anomaly=a, normal=n))


def _check_instance_loss(seed=17):
    a, n = _loss_inputs(np.random.default_rng(seed))
    return lambda: instance_loss(BagPair(anomaly=a, normal=n), pseudo_labels(a))


def _check_self_rectifying(seed=18):
    a, n = _loss_inputs(np.random.default_rng(seed))
    return lambda: self_rectifying_loss(BagPair(anomaly=a, normal=n))


def _check_classical(seed=19):
    a, n = _loss_inputs(np.random.default_rng(seed))
    return lambda: classical_ranking_loss(BagPair(anomaly=a, normal=n))


CHECKS = [
    ("elementwise_arithmetic", _check_elementwise),
    ("matmul", _check_matmul),
    ("activations", _check_activations),
    ("absolute_value", _check_abs),
    ("pool_max", _check_pool_max),
    ("pool_mean", _check_pool_mean),
    ("concatenate", _check_concatenate),
    ("adaptive_mean_rows", _check_adaptive_pool),
    ("affine_none", _check_affine("none")),
    ("affine_relu", _check_affine("relu")),
    ("affine_sigmoid", _check_affine("sigmoid")),
    ("affine_tanh", _check_affine("tanh")),
    ("conv1d_k5_d4", _check_conv(5, 4)),
    ("conv1d_k3_d8", _check_conv(3, 8)),
    ("conv1d_k1", _check_conv(1, 1)),
    ("conv1d_k4_d3", _check_conv(4, 3, input_grad=True)),
    ("lstm_forward", _check_lstm),
    ("lstm_forward_batched", lambda: _check_lstm(shape=(2, 3, 2), seq_grad=True)),
    ("mgtm_forward", _check_mgtm),
    ("relation_model+tracklet_rank", _check_relation_rank),
    ("segment_level_selection", _check_segment_selection),
    ("video_level_selection", _check_video_selection),
    ("fuse", _check_fuse),
    ("context_loss", _check_context_loss),
    ("instance_loss", _check_instance_loss),
    ("self_rectifying_loss", _check_self_rectifying),
    ("classical_ranking_loss", _check_classical),
]


def run_all(eps: float = 1e-5) -> list[tuple[str, float]]:
    """Run every check; returns (name, max relative error) pairs."""
    return [(name, grad_check(factory(), eps=eps)) for name, factory in CHECKS]
