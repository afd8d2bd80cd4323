"""Unit tests for SimRankConfig."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.core.config import SimRankConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_paper_values(self):
        config = SimRankConfig.paper()
        assert config.c == 0.6
        assert config.T == 11
        assert config.r_pair == 100
        assert config.r_alphabeta == 10_000
        assert config.r_gamma == 100
        assert config.index_walks == 10
        assert config.index_checks == 5
        assert config.k == 20
        assert config.theta == 0.01

    def test_effective_d_max_defaults_to_T(self):
        assert SimRankConfig(T=7).effective_d_max == 7
        assert SimRankConfig(T=7, d_max=3).effective_d_max == 3

    def test_truncation_error_formula(self):
        config = SimRankConfig(c=0.6, T=11)
        assert config.truncation_error == pytest.approx(0.6**11 / 0.4)

    def test_frozen(self):
        config = SimRankConfig()
        with pytest.raises(AttributeError):
            config.c = 0.9  # type: ignore[misc]

    def test_with_override(self):
        config = SimRankConfig().with_(c=0.8, k=5)
        assert config.c == 0.8
        assert config.k == 5
        assert config.T == 11  # untouched


class TestValidation:
    @pytest.mark.parametrize("c", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_decay_factor(self, c):
        with pytest.raises(ConfigError):
            SimRankConfig(c=c)

    @pytest.mark.parametrize(
        "field", ["T", "r_pair", "r_screen", "r_alphabeta", "r_gamma", "index_walks", "index_checks", "k"]
    )
    def test_positive_int_fields(self, field):
        with pytest.raises(ConfigError):
            SimRankConfig(**{field: 0})

    def test_theta_range(self):
        with pytest.raises(ValueError):
            SimRankConfig(theta=1.0)
        with pytest.raises(ValueError):
            SimRankConfig(theta=-0.1)
        SimRankConfig(theta=0.0)  # zero disables the threshold

    def test_candidate_rule_validated(self):
        with pytest.raises(ValueError):
            SimRankConfig(candidate_rule="magic")
        SimRankConfig(candidate_rule="pseudocode")

    def test_screen_slack_range(self):
        with pytest.raises(ValueError):
            SimRankConfig(screen_slack=1.5)

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError):
            SimRankConfig(T=True)


class TestDerivedConstructors:
    def test_fast_is_smaller_than_paper(self):
        fast = SimRankConfig.fast()
        paper = SimRankConfig.paper()
        assert fast.r_alphabeta < paper.r_alphabeta
        assert fast.T <= paper.T

    def test_fast_truncation_still_tight(self):
        assert SimRankConfig.fast().truncation_error < 0.05

    def test_for_accuracy_scales_T_and_R(self):
        loose = SimRankConfig.for_accuracy(0.1)
        tight = SimRankConfig.for_accuracy(0.01)
        assert tight.T > loose.T
        assert tight.r_pair > loose.r_pair

    def test_for_accuracy_invalid_epsilon(self):
        with pytest.raises(ValueError):
            SimRankConfig.for_accuracy(0.0)


class TestSerializedForm:
    """``to_dict`` is the one serialized form of a config: index file
    headers and the shard transport both carry it."""

    #: Every field away from its default, so a dropped field cannot hide.
    EVERY_FIELD = SimRankConfig(
        c=0.5,
        T=5,
        r_pair=21,
        r_screen=7,
        r_alphabeta=33,
        r_gamma=13,
        index_walks=3,
        index_checks=2,
        k=7,
        theta=0.02,
        d_max=4,
        candidate_rule="text",
        fallback_ball_radius=1,
        screen_slack=0.4,
    )

    def test_fixture_sets_every_field(self):
        default = SimRankConfig()
        for field in fields(SimRankConfig):
            assert getattr(self.EVERY_FIELD, field.name) != getattr(default, field.name)

    def test_to_dict_round_trips_every_field(self):
        payload = self.EVERY_FIELD.to_dict()
        assert set(payload) == {field.name for field in fields(SimRankConfig)}
        assert SimRankConfig(**json.loads(json.dumps(payload))) == self.EVERY_FIELD

    def test_index_file_round_trip(self, social_graph, tmp_path):
        from repro.core.index import CandidateIndex, build_index

        path = tmp_path / "index.npz"
        build_index(social_graph, self.EVERY_FIELD, seed=0).save(path)
        assert CandidateIndex.load(path).config == self.EVERY_FIELD

    def test_shard_codec_round_trip(self, social_graph):
        from repro.core.engine import SimRankEngine
        from repro.shard.codec import engine_from_arrays, engine_to_arrays

        engine = SimRankEngine(social_graph, self.EVERY_FIELD, seed=3).preprocess()
        arrays, meta = engine_to_arrays(engine, seed=3)
        assert engine_from_arrays(arrays, meta).config == self.EVERY_FIELD
