"""Whole-model backward check: `pair_loss` gradients against central differences.

For random extents, parameters and features, the directional derivative of
`pair_loss` along a random direction over every parameter, taken by
central differences of the forward pass, must match sum(grad * direction)
from one `backward`. This checks every adjoint on the training path at once,
through all three heads, both losses and both selection settings.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from milvad.config import HyperParams, TrainConfig
from milvad.data.manifest import VideoFeatures
from milvad.model import PARAM_GROUPS, AnomalyScorer
from milvad.tensor import backward
from milvad.training import pair_loss

# Over 5,000 random examples at this step, central differences missed
# sum(grad * v) by at most 8.5e-10 relative to max(1, |sum(grad * v)|) where
# the loss was smooth, and the one-sided slopes differed by at most 4.8e-6.
# RTOL is gradcheck's tolerance.
EPS = 1e-6
RTOL = 1e-4


def _video(rng, label, hp, tracklets):
    t, n = hp.segments, hp.channels
    return VideoFeatures(
        video_id=label, label=label, category=label, frames=10 * t,
        scene={g: rng.normal(size=(g * t, n)) for g in (1, 2, 3)},
        tracklets=rng.normal(size=(t, tracklets, n)),
    )


@pytest.mark.parametrize("loss", ["self_rectifying", "classical_ranking"])
@pytest.mark.parametrize("head, use_video_selection",
                         [("scene", True), ("tracklet", True), ("fused", True), ("fused", False)])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(segments=st.integers(1, 5), channels=st.integers(1, 4),
       conv_channels=st.integers(1, 5), hidden=st.integers(1, 4),
       ranker_width=st.integers(1, 4), selected=st.integers(1, 3),
       tracklets=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_pair_loss_directional_derivative(head, use_video_selection, loss, segments,
                                          channels, conv_channels, hidden, ranker_width,
                                          selected, tracklets, seed):
    hp = HyperParams(segments=segments, channels=channels, conv_channels=conv_channels,
                     hidden_size=hidden, selected_tracklets=selected, ranker_width=ranker_width)
    rng = np.random.default_rng(seed)
    model = AnomalyScorer(hp, seed=seed)
    model.set_trainable(PARAM_GROUPS)
    anomaly = _video(rng, "anomaly", hp, tracklets)
    normal = _video(rng, "normal", hp, tracklets)
    cfg = TrainConfig(loss=loss, use_video_selection=use_video_selection)

    params = list(model.named_parameters().values())
    start = pair_loss(model, anomaly, normal, cfg, head)
    backward(start)
    directions = [rng.normal(size=p.shape) for p in params]
    want = sum(np.sum(p.grad * v) for p, v in zip(params, directions) if p.grad is not None)

    base = [p.data for p in params]

    def loss_at(step):
        for p, b, v in zip(params, base, directions):
            p.data = b + step * v
        return pair_loss(model, anomaly, normal, cfg, head).item()

    up, down = loss_at(EPS), loss_at(-EPS)
    scale = max(1.0, abs(want))
    # a ReLU kink, a max switching its argument or a pseudo-label flip within
    # EPS of the start makes the one-sided slopes disagree; central
    # differences are then off by half that gap, so keep only examples where
    # the gap is within the tolerance
    assume(abs((up - start.item()) - (start.item() - down)) / EPS <= RTOL * scale)
    assert abs((up - down) / (2 * EPS) - want) <= RTOL * scale
