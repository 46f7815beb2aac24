"""Channel models: sampling, capacity, Gallager exponents, block bounds."""

import math

import numpy as np
import pytest

from icsim.channel import ERASURE, ChannelModel, binary_entropy

LN2 = math.log(2)


def test_bsc0_is_noiseless():
    ch = ChannelModel("bsc", 0.0)
    rng = np.random.default_rng(0)
    bits = [0, 1, 1, 0, 1]
    assert list(ch.transmit(bits, rng)) == bits


def test_bsc1_always_flips():
    ch = ChannelModel("bsc", 1.0)
    rng = np.random.default_rng(0)
    out = ch.transmit([0, 1, 0, 0], rng)
    assert list(out) == [1, 0, 1, 1]


def test_bsc_flip_frequency():
    ch = ChannelModel("bsc", 0.1)
    rng = np.random.default_rng(7)
    out = ch.transmit(np.zeros(100_000, dtype=int), rng)
    tol = 3 * math.sqrt(0.09 / 100_000)
    assert abs(float(np.mean(out)) - 0.1) <= tol


def test_bec_erases_at_given_rate():
    ch = ChannelModel("bec", 0.25)
    rng = np.random.default_rng(3)
    out = ch.transmit(np.ones(100_000, dtype=int), rng)
    erased = float(np.mean(out == ERASURE))
    assert abs(erased - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 100_000)
    # surviving symbols are never flipped
    assert set(np.unique(out)) <= {1, ERASURE}


def test_awgn_output_statistics():
    ch = ChannelModel("awgn", 0.5)
    rng = np.random.default_rng(5)
    out = ch.transmit(np.zeros(50_000, dtype=int), rng)
    # bit 0 maps to +1 with N(0, sigma^2) noise
    assert abs(float(np.mean(out)) - 1.0) < 0.01
    assert abs(float(np.std(out)) - 0.5) < 0.01


def test_bsc_complement_symmetry_matched_seeds():
    ch = ChannelModel("bsc", 0.3)
    bits = np.random.default_rng(1).integers(0, 2, 1000)
    out_a = ch.transmit(bits, np.random.default_rng(99))
    out_b = ch.transmit(1 - bits, np.random.default_rng(99))
    assert np.array_equal(out_a, 1 - out_b)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ChannelModel("bsc", 1.5)
    with pytest.raises(ValueError):
        ChannelModel("bec", -0.1)
    with pytest.raises(ValueError):
        ChannelModel("awgn", 0.0)
    with pytest.raises(ValueError):
        ChannelModel.parse("laplace:1")


def test_parse_round_trip():
    ch = ChannelModel.parse("bsc:0.05")
    assert ch.kind == "bsc" and ch.param == 0.05
    assert ChannelModel.parse("awgn:0.8").kind == "awgn"
    assert ChannelModel.parse("bec:0.2").param == 0.2


def test_capacity_noiseless():
    assert ChannelModel("bsc", 0.0).capacity() == pytest.approx(1.0, abs=1e-12)


def test_capacity_bec_closed_form():
    assert ChannelModel("bec", 0.25).capacity() == pytest.approx(0.75, abs=1e-12)
    assert ChannelModel("bec", 0.0).capacity() == pytest.approx(1.0, abs=1e-12)


def test_capacity_bsc_entropy_form():
    assert ChannelModel("bsc", 0.11).capacity() == pytest.approx(1 - binary_entropy(0.11),
                                                                 abs=1e-12)
    assert ChannelModel("bsc", 0.11).capacity() == pytest.approx(0.50009, abs=1e-4)


def test_capacity_bsc_symmetry():
    for eps in (0.05, 0.11, 0.3):
        assert ChannelModel("bsc", eps).capacity() == pytest.approx(
            ChannelModel("bsc", 1 - eps).capacity(), abs=1e-12)


def test_capacity_awgn_between_extremes():
    caps = [ChannelModel("awgn", s).capacity() for s in (0.3, 0.8, 2.0)]
    assert all(0 < c < 1 for c in caps)
    assert caps == sorted(caps, reverse=True)
    # near-noiseless limit approaches one bit per use
    assert ChannelModel("awgn", 0.05).capacity() > 0.999


def test_e0_zero_at_rho_zero():
    for spec in ("bsc:0.1", "bec:0.2", "awgn:0.8"):
        assert ChannelModel.parse(spec).gallager_e0(0.0) == pytest.approx(0.0, abs=1e-12)


def test_e0_bsc_hand_value():
    # rho=1: per-output sum (0.5(sqrt(0.9)+sqrt(0.1)))^2 = 0.4, twice -> -ln 0.8
    assert ChannelModel("bsc", 0.1).gallager_e0(1.0) == pytest.approx(-math.log(0.8), abs=1e-10)


def test_e0_useless_channel():
    ch = ChannelModel("bsc", 0.5)
    for rho in (0.0, 0.3, 1.0):
        assert ch.gallager_e0(rho) == pytest.approx(0.0, abs=1e-12)


def test_e0_rejects_bad_rho():
    ch = ChannelModel("bsc", 0.1)
    with pytest.raises(ValueError):
        ch.gallager_e0(-0.1)
    with pytest.raises(ValueError):
        ch.gallager_e0(1.1)


@pytest.mark.parametrize("spec", ["bsc:0.1", "bec:0.3", "awgn:0.8"])
def test_e0_concave_nondecreasing(spec):
    ch = ChannelModel.parse(spec)
    grid = [ch.gallager_e0(k / 20) for k in range(21)]
    assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))
    for a, b, c in zip(grid, grid[1:], grid[2:]):
        assert b >= (a + c) / 2 - 1e-9


@pytest.mark.parametrize("spec", ["bsc:0.1", "bec:0.3", "awgn:0.8"])
def test_e0_slope_at_zero_is_capacity(spec):
    ch = ChannelModel.parse(spec)
    h = 1e-5
    slope = ch.gallager_e0(h) / h
    assert slope == pytest.approx(ch.capacity() * LN2, abs=1e-4)


def test_exponent_zero_at_capacity():
    ch = ChannelModel("bsc", 0.1)
    assert ch.error_exponent(ch.capacity()) == 0.0
    assert ch.error_exponent(0.9) == 0.0


def test_exponent_zero_rate_is_cutoff_rate():
    # at R=0 the max sits at rho=1, giving the cutoff rate in bits
    eps = 0.1
    cutoff = 1 - math.log2(1 + 2 * math.sqrt(eps * (1 - eps)))
    assert ChannelModel("bsc", eps).error_exponent(0.0) == pytest.approx(cutoff, abs=1e-3)
    assert ChannelModel("bsc", eps).error_exponent(0.0) == pytest.approx(0.32193, abs=1e-3)


@pytest.mark.parametrize("spec", ["bsc:0.1", "bec:0.3", "awgn:0.8"])
def test_exponent_nonincreasing(spec):
    ch = ChannelModel.parse(spec)
    cap = ch.capacity()
    values = [ch.error_exponent(cap * k / 99) for k in range(100)]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    assert values[0] > 0


def test_block_bound_no_copies():
    assert ChannelModel("bsc", 0.1).block_error_bound(64, 0.2, 0) == 0.0


def test_block_bound_matches_exponent():
    ch = ChannelModel("bsc", 0.1)
    got = ch.block_error_bound(64, 0.2, 1)
    expected = math.exp(-(64 / 0.2) * ch.error_exponent(0.2) * LN2)
    assert got == pytest.approx(expected, rel=1e-12)


def test_block_bound_union_linearity():
    ch = ChannelModel("bsc", 0.1)
    one = ch.block_error_bound(64, 0.2, 1)
    assert ch.block_error_bound(64, 0.2, 2) == pytest.approx(2 * one, rel=1e-12)
    # saturation clamps at one
    assert ch.block_error_bound(2, 0.44, 10**9) == 1.0


def test_block_bound_rejects_rates_outside_capacity():
    ch = ChannelModel("bsc", 0.1)
    with pytest.raises(ValueError):
        ch.block_error_bound(64, ch.capacity() + 0.01, 1)
    with pytest.raises(ValueError):
        ch.block_error_bound(64, 0.0, 1)


def test_log_likelihoods_prefer_the_sent_bit():
    rng = np.random.default_rng(0)
    for spec in ("bsc:0.1", "bec:0.3", "awgn:0.8"):
        ch = ChannelModel.parse(spec)
        out = ch.transmit([0], rng)
        ll = ch.bit_log_likelihoods(out)
        assert ll.shape == (1, 2)
        if spec.startswith("bec") and out[0] == ERASURE:
            assert ll[0, 0] == ll[0, 1]


def test_channel_name_is_stable():
    assert ChannelModel("bsc", 0.05).name == "bsc:0.05"
    assert ChannelModel.parse(ChannelModel("awgn", 0.8).name) == ChannelModel("awgn", 0.8)
