"""Tests for the human stream (saliency selection, relations, ranking)."""

import numpy as np
import pytest

from milvad.config import HyperParams
from milvad.errors import InputError
from milvad.layers import named_tensors
from milvad.human import (
    HumanStreamParams,
    feature_magnitude,
    human_forward,
    relation_model,
    select_tracklets,
    tracklet_rank,
)
from milvad.tensor import Tensor, lstm_forward

DESK = HyperParams.desk_scale()


def make_params(hp=DESK, seed=0):
    return HumanStreamParams.create(np.random.default_rng(seed), hp)


def zero_all(params):
    for t in named_tensors(params, "human").values():
        t.data = np.zeros_like(t.data)
    return params


class TestFeatureMagnitude:
    def test_zero_tracklet(self):
        assert feature_magnitude(np.zeros((3, 2, 4)))[0] == 0.0

    def test_norm_sum(self):
        tr = np.zeros((2, 1, 2))
        tr[0, 0] = [3.0, 0.0]
        tr[1, 0] = [0.0, 4.0]
        assert np.allclose(feature_magnitude(tr), [7.0])

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        tr = rng.normal(size=(4, 3, 5))
        for alpha in (-2.5, 0.0, 0.3):
            assert np.allclose(feature_magnitude(alpha * tr),
                               abs(alpha) * feature_magnitude(tr))

    def test_nonnegative(self):
        tr = np.random.default_rng(1).normal(size=(5, 4, 3))
        assert np.all(feature_magnitude(tr) >= 0.0)


class TestSelectTracklets:
    def _with_magnitudes(self, magnitudes, t=2, n=3):
        """Tracklet map whose per-tracklet magnitudes are as given."""
        k = len(magnitudes)
        tr = np.zeros((t, k, n))
        for j, m in enumerate(magnitudes):
            tr[0, j, 0] = m
        return tr

    def test_keeps_largest_ascending(self):
        tr = self._with_magnitudes([5.0, 2.0, 9.0])
        out = select_tracklets(tr, 2)
        assert np.allclose(out[0, :, 0], [5.0, 9.0])

    def test_index_tie_break(self):
        # three tracklets with equal magnitude but distinguishable directions
        tr = np.zeros((2, 3, 3))
        for j in range(3):
            tr[0, j, j] = 1.0
        out = select_tracklets(tr, 2)
        # indices 0 and 1 kept, in index order
        assert np.array_equal(out[0, 0, :], [1.0, 0.0, 0.0])
        assert np.array_equal(out[0, 1, :], [0.0, 1.0, 0.0])

    def test_padding_leads(self):
        tr = self._with_magnitudes([4.0])
        out = select_tracklets(tr, 3)
        assert out.shape == (2, 3, 3)
        assert np.array_equal(out[:, :2, :], np.zeros((2, 2, 3)))
        assert out[0, 2, 0] == 4.0

    def test_permutation_invariance_with_distinct_magnitudes(self):
        rng = np.random.default_rng(2)
        tr = rng.normal(size=(3, 5, 4))
        base = select_tracklets(tr, 3)
        for _ in range(5):
            perm = rng.permutation(5)
            assert np.array_equal(select_tracklets(tr[:, perm, :], 3), base)

    def test_output_is_ascending_by_magnitude(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            tr = rng.normal(size=(4, 6, 3))
            out = select_tracklets(tr, 4)
            mags = feature_magnitude(out)
            assert np.all(np.diff(mags) >= -1e-12)

    def test_keep_must_be_positive(self):
        with pytest.raises(InputError):
            select_tracklets(np.zeros((2, 3, 4)), 0)


class TestRelationModel:
    def test_shapes(self):
        hp = DESK
        params = make_params(hp)
        sel = Tensor(np.random.default_rng(4).normal(size=(8, 3, hp.channels)))
        out = relation_model(sel, params)
        assert out.shape == (8, 3, hp.hidden_size)

    def test_zero_params_give_zero(self):
        params = zero_all(make_params())
        out = relation_model(Tensor(np.ones((4, 2, DESK.channels))), params)
        assert np.array_equal(out.data, np.zeros((4, 2, DESK.hidden_size)))

    def test_single_tracklet_matches_single_step_lstm(self):
        hp = DESK
        params = make_params(hp, seed=5)
        sel = np.random.default_rng(6).normal(size=(3, 1, hp.channels))
        out = relation_model(Tensor(sel), params).data
        for i in range(3):
            step = lstm_forward(Tensor(sel[i]), params.lstm.wx, params.lstm.wh, params.lstm.bias)
            assert np.allclose(out[i], step.data, atol=1e-12)


class TestTrackletRank:
    def test_zero_params(self):
        hp = DESK
        params = zero_all(make_params(hp))
        scores, intermediate = tracklet_rank(Tensor(np.ones((8, 2, hp.hidden_size))), params)
        assert np.allclose(scores.data, 0.5)
        assert np.array_equal(intermediate.data, np.zeros((8, 2, hp.ranker_width)))

    def test_max_over_tracklets(self):
        hp = DESK
        params = make_params(hp, seed=7)
        encoded = Tensor(np.random.default_rng(8).normal(size=(5, 3, hp.hidden_size)))
        scores, _ = tracklet_rank(encoded, params)
        flat, _ = params.ranker.apply(encoded.reshape((15, hp.hidden_size)))
        per_tracklet = flat.data.reshape(5, 3)
        assert np.allclose(scores.data, per_tracklet.max(axis=1))

    def test_single_tracklet_is_identity(self):
        hp = DESK
        params = make_params(hp, seed=9)
        encoded = Tensor(np.random.default_rng(10).normal(size=(4, 1, hp.hidden_size)))
        scores, _ = tracklet_rank(encoded, params)
        flat, _ = params.ranker.apply(encoded.reshape((4, hp.hidden_size)))
        assert np.allclose(scores.data, flat.data)


class TestHumanForward:
    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(11)
        params = make_params(seed=12)
        for _ in range(5):
            scores, intermediate = human_forward(params, rng.normal(size=(8, 5, DESK.channels)), 2)
            assert scores.shape == (8,)
            assert intermediate.shape == (8, 2, DESK.ranker_width)
            assert np.all(scores.data >= 0.0) and np.all(scores.data <= 1.0)

    def test_no_tracklets_still_runs(self):
        params = make_params(seed=13)
        scores, _ = human_forward(params, np.zeros((8, 0, DESK.channels)), 2)
        # all-pad input is identical per segment, so the score is constant
        assert np.allclose(scores.data, scores.data[0])
