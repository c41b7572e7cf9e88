import numpy as np
import pytest

from deepshore import InvalidArgumentError, NonNegConfig, SaturationError, clamp_log, exp_restore


def test_log_of_one_is_zero():
    assert clamp_log(np.array([1.0]))[0] == 0.0


def test_negative_values_clamp_to_epsilon_floor():
    out = clamp_log(np.array([-0.3]))
    assert out[0] == pytest.approx(np.log(0.005), abs=1e-12)


def test_continuous_at_the_boundary():
    assert clamp_log(np.array([0.005]))[0] == pytest.approx(np.log(0.005), abs=1e-15)
    just_above = clamp_log(np.array([0.005 + 1e-12]))[0]
    assert abs(just_above - np.log(0.005)) < 1e-9


def test_floor_always_respected():
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1000) * 10.0
    assert np.all(clamp_log(values) >= np.log(0.005) - 1e-15)


def test_bitwise_equal_to_the_allocating_form():
    rng = np.random.default_rng(2)
    # values below, at and above the floor, zero, negative and non-finite
    values = np.concatenate([rng.standard_normal(997) * 3.0,
                             [0.005, -0.0, np.inf, -np.inf, 1e-300, 700.0]])
    for eps in (0.005, 0.1):
        want = np.log(np.maximum(values, eps))
        got = clamp_log(values, NonNegConfig(eps))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert values.min() < 0.005 and np.sum(values < 0.005) > 100


def test_input_left_untouched():
    values = np.array([-1.0, 0.001, 2.0])
    clamp_log(values)
    assert np.array_equal(values, [-1.0, 0.001, 2.0])


def test_roundtrip_identity_above_floor():
    rng = np.random.default_rng(1)
    values = 0.005 + rng.random(500) * 5.0
    assert np.max(np.abs(exp_restore(clamp_log(values)) - values)) < 1e-12


def test_roundtrip_saturates_below_floor():
    values = np.array([-2.0, 0.0, 0.004999])
    assert np.allclose(exp_restore(clamp_log(values)), 0.005, atol=1e-15)


def test_exp_restore_zero_is_one():
    assert exp_restore(np.array([0.0]))[0] == 1.0


def test_exp_restore_always_positive():
    rng = np.random.default_rng(2)
    assert np.all(exp_restore(rng.standard_normal(1000) * 100.0) > 0.0)


def test_exp_restore_overflow_rejected():
    with pytest.raises(SaturationError):
        exp_restore(np.array([701.0]))


def test_custom_epsilon():
    cfg = NonNegConfig(epsilon=0.1)
    assert clamp_log(np.array([-5.0]), cfg)[0] == pytest.approx(np.log(0.1), abs=1e-15)


def test_non_positive_epsilon_rejected():
    with pytest.raises(InvalidArgumentError):
        NonNegConfig(epsilon=0.0)
