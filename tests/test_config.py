"""Tests for the typed decoding of config and spec documents."""

import pytest

from milvad.config import HyperParams, RunConfig, TrainConfig, decode
from milvad.data.synthetic import SynthSpec
from milvad.errors import InputError


class TestDecode:
    def test_lists_become_tuples_and_ints_pass_as_floats(self):
        cfg = decode(TrainConfig, {"betas": [0.5, 1], "learning_rate": 1,
                                   "stage_fractions": [1, 0, 0]}, "c.json")
        assert cfg.betas == (0.5, 1) and cfg.stage_fractions == (1, 0, 0)
        assert cfg.learning_rate == 1

    def test_as_dict_round_trips(self):
        cfg = RunConfig.default_desk_scale()
        assert RunConfig.from_dict(cfg.as_dict()) == cfg

    def test_spec_duration_range_is_a_tuple(self):
        assert decode(SynthSpec, {"duration_range": [0.2, 0.4]}, "s.json").duration_range == (0.2, 0.4)

    @pytest.mark.parametrize("cls, key, value", [
        (HyperParams, "segments", 8.0),
        (HyperParams, "segments", False),
        (TrainConfig, "learning_rate", True),
        (TrainConfig, "learning_rate", "1e-3"),
        (TrainConfig, "use_video_selection", 1),
        (TrainConfig, "loss", None),
        (TrainConfig, "betas", 0.9),
        (TrainConfig, "betas", [0.9, 0.999, 0.5]),
        (SynthSpec, "kind", ["scene"]),
    ])
    def test_mistyped_value_names_source_and_key(self, cls, key, value):
        with pytest.raises(InputError, match=rf"c\.json: {key}"):
            decode(cls, {key: value}, "c.json")

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match=r"c\.json: unknown keys \['depth'\]"):
            decode(HyperParams, {"depth": 3}, "c.json")

    def test_non_object_section_rejected(self):
        with pytest.raises(InputError, match=r"c\.json"):
            RunConfig.from_dict({"train": [1, 2]}, source="c.json")
        with pytest.raises(InputError, match=r"c\.json"):
            RunConfig.from_dict([], source="c.json")
