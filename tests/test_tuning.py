"""Schedule arithmetic and (de)serialization of TuningConfig."""

import json
import math

import numpy as np
import pytest

from sgalab import artifacts, tuning
from sgalab.errors import ConfigError
from sgalab.tuning import TuningConfig


def test_schedule_formulas_at_reference_points():
    cfg = TuningConfig(frak_h=1.0, frak_b=0.5, frak_t=1.0,
                       c_h=4.0, c_b=2.0, c_beta=3.0)
    n = 10_000
    assert cfg.step_size(n) == pytest.approx(4.0 / n, rel=0, abs=0)
    assert cfg.batch_size(n) == math.floor(2.0 * 100.0)
    assert cfg.inverse_temperature(n) == pytest.approx(3.0 * n)
    # exponent zero freezes the quantity at its constant
    flat = TuningConfig(frak_h=0.0, frak_b=0.0, c_h=0.01, c_b=7.0)
    assert flat.step_size(123) == 0.01
    assert flat.batch_size(123) == 7


def test_batch_size_floor_and_bounds():
    cfg = TuningConfig(frak_b=0.5, c_b=1.0)
    assert cfg.batch_size(10) == 3  # floor(sqrt(10)) = floor(3.16..)
    with pytest.raises(ConfigError, match="b = 0 < 1"):
        TuningConfig(frak_b=0.0, c_b=0.5).batch_size(100)
    with pytest.raises(ConfigError, match="> n"):
        TuningConfig(frak_b=1.0, c_b=2.0).batch_size(100)
    # full batch is legal
    assert TuningConfig(frak_b=1.0, c_b=1.0).batch_size(64) == 64


def test_infinite_temperature_via_either_knob():
    a = TuningConfig(frak_t=math.inf, c_beta=2.0)
    b = TuningConfig(frak_t=1.0, c_beta=math.inf)
    for cfg in (a, b):
        assert not cfg.has_noise
        assert cfg.inverse_temperature(1000) == math.inf
        assert cfg.temperature_exponent == math.inf
    noisy = TuningConfig(frak_t=1.0, c_beta=2.0)
    assert noisy.has_noise
    assert noisy.temperature_exponent == 1.0


def test_epoch_step_conversion():
    cfg = TuningConfig(frak_b=0.0, c_b=4.0)  # b = 4 regardless of n
    assert cfg.steps_per_epoch(100) == 25.0
    assert cfg.epochs_to_steps(100, 2.0) == 50
    assert cfg.epochs_to_steps(100, 0.001) == 1  # never zero steps
    # fractional steps-per-epoch rounds the product, not the ratio
    odd = TuningConfig(frak_b=0.0, c_b=3.0)
    assert odd.epochs_to_steps(10, 3.0) == 10  # 3 * 10/3


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError, match="c_h"):
        TuningConfig(c_h=-1.0)
    with pytest.raises(ConfigError, match="c_h"):
        TuningConfig(c_h=math.inf)
    with pytest.raises(ConfigError, match="frak_h"):
        TuningConfig(frak_h=-0.5)
    with pytest.raises(ConfigError, match="c_beta"):
        TuningConfig(c_beta=0.0)
    with pytest.raises(ConfigError, match="policy"):
        TuningConfig(policy="bootstrap")
    with pytest.raises(ConfigError, match="variant"):
        TuningConfig(variant="nesterov")
    with pytest.raises(ConfigError, match="square"):
        TuningConfig(gamma=np.ones((2, 3)))
    with pytest.raises(ConfigError, match="symmetric"):
        TuningConfig(lam=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ConfigError, match="semi-definite"):
        TuningConfig(lam=np.array([[1.0, 0.0], [0.0, -0.2]]))
    with pytest.raises(ConfigError, match="lo < hi"):
        TuningConfig(boundary=(np.array([0.0, 1.0]), np.array([1.0, 1.0])))
    with pytest.raises(ConfigError, match="seed"):
        TuningConfig(seed=-3)


def test_round_trip_through_dict():
    cfg = TuningConfig(
        frak_h=0.5, frak_b=0.5, frak_t=math.inf,
        c_h=2.5, c_b=1.5, c_beta=math.inf,
        gamma=np.array([[2.0, 0.1], [0.1, 1.0]]),
        lam=np.eye(2),
        policy=tuning.WITHOUT_REPLACEMENT,
        variant=tuning.MOMENTUM,
        boundary=(np.array([-5.0, -5.0]), np.array([5.0, 5.0])),
        seed=77,
    )
    d = cfg.to_dict()
    assert d["frak_t"] == math.inf and d["c_beta"] == math.inf
    # the JSON writer spells infinity "inf", and from_dict reads that back
    text = artifacts.json_text(d)
    assert '"c_beta": "inf"' in text and '"frak_t": "inf"' in text
    back = TuningConfig.from_dict(json.loads(text))
    assert back.frak_t == math.inf
    assert back.c_beta == math.inf
    assert np.array_equal(back.gamma, cfg.gamma)
    assert np.array_equal(back.boundary[0], cfg.boundary[0])
    assert np.array_equal(back.boundary[1], cfg.boundary[1])
    assert back.policy == cfg.policy
    assert back.variant == cfg.variant
    assert back.seed == 77
    # and the round trip is idempotent at the dict level
    assert back.to_dict() == d


def test_with_seed_only_changes_seed():
    cfg = TuningConfig(c_h=3.0, seed=1, gamma=np.eye(2))
    other = cfg.with_seed(99)
    assert other.seed == 99
    assert cfg.seed == 1
    assert other.c_h == 3.0
    assert np.array_equal(other.gamma, cfg.gamma)


def test_from_dict_reads_recommended_config_with_null_mass():
    # a recommended_config as older versions wrote it, with a mass entry
    text = """{"boundary": null, "c_b": 1.0, "c_beta": 2.0, "c_h": 2.0,
               "frak_b": 0.0, "frak_h": 1.0, "frak_t": 1.0,
               "gamma": [[0.5, 0.1], [0.1, 0.25]], "labels": {"recommendation": "bagged"},
               "lam": [[0.5, 0.1], [0.1, 0.25]], "mass": null,
               "policy": "with_replacement", "seed": 0, "variant": "plain"}"""
    old = json.loads(text)
    cfg = TuningConfig.from_dict(old)
    assert np.array_equal(cfg.gamma, np.array(old["gamma"]))
    # the labels block older versions wrote is not read
    assert cfg.to_dict() == {k: v for k, v in old.items() if k not in ("mass", "labels")}
    with pytest.raises(ConfigError, match="mass"):
        TuningConfig.from_dict(dict(old, mass=[[1.0, 0.0], [0.0, 1.0]]))
