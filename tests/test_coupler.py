"""Tests for the soft-selection coupler."""

import numpy as np
import pytest

from milvad.config import HyperParams
from milvad.coupler import (
    CouplerParams,
    fuse,
    segment_level_selection,
    video_level_selection,
)
from milvad.errors import InputError
from milvad.layers import named_tensors
from milvad.tensor import Tensor, grad_check

DESK = HyperParams.desk_scale()
M = DESK.ranker_width


def make_params(seed=0):
    return CouplerParams.create(np.random.default_rng(seed), DESK)


def zero_all(params):
    for t in named_tensors(params, "coupler").values():
        t.data = np.zeros_like(t.data)
    return params


class TestSegmentLevelSelection:
    def test_zero_params_give_half(self):
        params = zero_all(make_params())
        a_h, a_s, _ = segment_level_selection(
            Tensor(np.ones((8, 3, M))), Tensor(np.ones((8, M))), params
        )
        assert np.allclose(a_h.data, 0.5) and np.allclose(a_s.data, 0.5)

    def test_shapes(self):
        params = make_params()
        a_h, a_s, pooled = segment_level_selection(
            Tensor(np.ones((8, 3, M))), Tensor(np.ones((8, M))), params
        )
        assert a_h.shape == (8,) and a_s.shape == (8,)
        assert pooled.shape == (8, M)

    def test_single_tracklet_pooling_is_identity(self):
        params = make_params(seed=1)
        human = np.random.default_rng(2).normal(size=(8, 1, M))
        _, _, pooled = segment_level_selection(
            Tensor(human), Tensor(np.zeros((8, M))), params
        )
        assert np.array_equal(pooled.data, human[:, 0, :])

    def test_width_mismatch_rejected(self):
        params = make_params()
        with pytest.raises(InputError):
            segment_level_selection(
                Tensor(np.ones((8, 3, M))), Tensor(np.ones((8, M + 1))), params
            )


class TestVideoLevelSelection:
    def test_zero_params_give_half(self):
        params = zero_all(make_params())
        a_h, a_s = video_level_selection(Tensor(np.ones((8, M))), Tensor(np.ones((8, M))), params)
        assert np.allclose(a_h.data, 0.5) and np.allclose(a_s.data, 0.5)
        assert a_h.shape == (1,)

    def test_time_constant_inputs_match_segment_block_with_shared_weights(self):
        params = make_params(seed=3)
        # share the two blocks' weights; mean over T of a constant map is the
        # row itself, so video-level must equal segment-level on any segment
        params.video = params.segment
        rng = np.random.default_rng(4)
        human_row = rng.normal(size=M)
        scene_row = rng.normal(size=M)
        human = Tensor(np.tile(human_row, (6, 1)).reshape(6, 1, M))
        scene = Tensor(np.tile(scene_row, (6, 1)))
        seg_h, seg_s, pooled = segment_level_selection(human, scene, params)
        vid_h, vid_s = video_level_selection(pooled, scene, params)
        assert np.allclose(vid_h.data[0], seg_h.data[0], atol=1e-12)
        assert np.allclose(vid_s.data[0], seg_s.data[0], atol=1e-12)

    def test_invariant_to_segment_permutation(self):
        params = make_params(seed=5)
        rng = np.random.default_rng(6)
        human = rng.normal(size=(8, M))
        scene = rng.normal(size=(8, M))
        base = video_level_selection(Tensor(human), Tensor(scene), params)
        perm = rng.permutation(8)
        swapped = video_level_selection(Tensor(human[perm]), Tensor(scene[perm]), params)
        assert np.allclose(base[0].data, swapped[0].data, atol=1e-12)
        assert np.allclose(base[1].data, swapped[1].data, atol=1e-12)


class TestFuse:
    def test_pure_human_selection(self):
        d_tr = Tensor(np.array([0.3, 0.9, 0.1]))
        d_sc = Tensor(np.array([0.7, 0.2, 0.5]))
        ones = Tensor(np.ones(3))
        zeros = Tensor(np.zeros(3))
        _, _, fused = fuse((ones, zeros), None, d_tr, d_sc)
        assert np.allclose(fused.data, d_tr.data)

    def test_uniform_half_attentions(self):
        d_tr = Tensor(np.array([0.4, 0.8]))
        d_sc = Tensor(np.array([0.1, 0.6]))
        half = Tensor(np.full(2, 0.5))
        half_vid = Tensor(np.array([0.5]))
        f_h, f_s, fused = fuse((half, half), (half_vid, half_vid), d_tr, d_sc)
        assert np.allclose(f_h.data, 0.25) and np.allclose(f_s.data, 0.25)
        assert np.allclose(fused.data, 0.25 * (d_tr.data + d_sc.data))

    def test_hadamard_arithmetic(self):
        seg = Tensor(np.array([0.2, 0.8]))
        vid = Tensor(np.array([0.5]))
        f_h, _, _ = fuse((seg, seg), (vid, vid), Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        assert np.allclose(f_h.data, [0.1, 0.4])

    def test_disabling_video_selection_recovers_segment_attention(self):
        rng = np.random.default_rng(7)
        a_h = Tensor(rng.uniform(size=5))
        a_s = Tensor(rng.uniform(size=5))
        f_h, f_s, _ = fuse((a_h, a_s), None, Tensor(rng.uniform(size=5)), Tensor(rng.uniform(size=5)))
        assert np.array_equal(f_h.data, a_h.data)
        assert np.array_equal(f_s.data, a_s.data)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        a_h = Tensor(rng.uniform(0.1, 0.9, size=4), requires_grad=True)
        a_s = Tensor(rng.uniform(0.1, 0.9, size=4), requires_grad=True)
        v_h = Tensor(rng.uniform(0.1, 0.9, size=1), requires_grad=True)
        v_s = Tensor(rng.uniform(0.1, 0.9, size=1), requires_grad=True)
        d_tr = Tensor(rng.uniform(size=4), requires_grad=True)
        d_sc = Tensor(rng.uniform(size=4), requires_grad=True)

        def build():
            _, _, fused = fuse((a_h, a_s), (v_h, v_s), d_tr, d_sc)
            return fused.sum()

        assert grad_check(build) < 1e-4


class TestCouplerPipelineBounds:
    def test_factors_and_fused_ranges(self):
        params = make_params(seed=9)
        rng = np.random.default_rng(10)
        for _ in range(5):
            human = Tensor(rng.normal(size=(8, 2, M)))
            scene = Tensor(rng.normal(size=(8, M)))
            seg_h, seg_s, pooled = segment_level_selection(human, scene, params)
            vid = video_level_selection(pooled, scene, params)
            d_tr = Tensor(rng.uniform(size=8))
            d_sc = Tensor(rng.uniform(size=8))
            f_h, f_s, fused = fuse((seg_h, seg_s), vid, d_tr, d_sc)
            for factor in (f_h.data, f_s.data):
                assert np.all(factor > 0.0) and np.all(factor < 1.0)
            assert np.all(fused.data >= 0.0) and np.all(fused.data <= 2.0)

    def test_selection_blocks_have_disjoint_parameters(self):
        params = make_params()
        seg_ids = {id(t) for t in named_tensors(params.segment, "s").values()}
        vid_ids = {id(t) for t in named_tensors(params.video, "v").values()}
        assert not seg_ids & vid_ids
