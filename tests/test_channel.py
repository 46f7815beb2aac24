"""Channel models: sampling, capacity, Gallager exponents, block bounds."""

import math

import numpy as np
import pytest

from icsim import protocol
from icsim.channel import ERASURE, ChannelModel, binary_entropy, discrete_outputs
from icsim.coding import oracle_corruption
from icsim.protocol import _bits

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


@pytest.mark.parametrize("kind", ["bsc", "bec"])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
def test_transmit_equals_the_where_and_xor_formulas(kind, p):
    # the outputs, their dtype and the generator's end state, against the
    # formulas x ^ (u < p) and np.where(u < p, ERASURE, x) on one uniform draw
    ch, draw = ChannelModel(kind, p), np.random.default_rng(int(p * 100))
    for size in (0, 1, 31, 1023, 1024, 1025, 4096):
        x = draw.integers(0, 2, size).astype(np.uint8)
        for sent in (x, x.astype(np.int64)):
            rng_a, rng_b = np.random.default_rng(size), np.random.default_rng(size)
            got = ch.transmit(sent, rng_a)
            flips = rng_b.random(size) < p
            want = x ^ flips if kind == "bsc" else np.where(flips, ERASURE, x)
            assert got.dtype == want.dtype == np.uint8
            assert got.tobytes() == want.tobytes(), (size, sent.dtype)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert not np.shares_memory(got, sent)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ChannelModel("bsc", 1.5)
    with pytest.raises(ValueError):
        ChannelModel("bec", -0.1)
    with pytest.raises(ValueError):
        ChannelModel("awgn", 0.0)
    with pytest.raises(ValueError):
        ChannelModel.parse("laplace:1")


@pytest.mark.parametrize("sigma", [1e-300, 1e-170, 1.5e-162, 5e-324])
def test_awgn_rejects_a_sigma_whose_square_is_zero(sigma):
    # sigma^2 rounding to 0 made every E0 quadrature term nan, so the oracle
    # drew against nan and corrupted every transfer
    assert sigma * sigma == 0.0
    with pytest.raises(ValueError, match="too small: its square is 0"):
        ChannelModel("awgn", sigma)
    with pytest.raises(ValueError, match=f"bad channel spec 'awgn:{sigma!r}': noise standard"):
        ChannelModel.parse(f"awgn:{sigma!r}")


@pytest.mark.parametrize("sigma", [1e-160, 1.6e-162, 1e-154])
def test_awgn_with_a_subnormal_or_tiny_square_sigma_still_works(sigma):
    # sigma^2 is subnormal or -2/sigma^2 overflows: the quadrature's terms go
    # to their exact limits, with no warning and no nan
    ch = ChannelModel("awgn", sigma)
    assert ch.capacity() == 1.0
    assert ch.gallager_e0(1.0) == pytest.approx(math.log(2), rel=1e-12)
    assert ch.error_exponent(0.5) == pytest.approx(0.5, rel=1e-12)
    assert oracle_corruption(64, 0.5, ch) == pytest.approx(2.0 ** -64, rel=1e-9)
    out = ch.transmit([0, 1, 1], np.random.default_rng(0))
    assert np.array_equal(np.sign(out), [1, -1, -1])


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


# ---------------------------------------------------------------------------
# the bit and output checks against the one-reduce rule they replaced


def _reference_in_alphabet(arr, size):
    # one ufunc maximum of the unsigned view in the array's own byte order
    if arr.dtype.kind == "i":
        arr = arr.view(np.dtype(f"u{arr.itemsize}").newbyteorder(arr.dtype.byteorder))
    return np.maximum.reduce(arr, axis=None, initial=0) < size


def _reference_bits(values, error):
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if not (kind == "b" or kind in "iu" and _reference_in_alphabet(arr, 2)
            or kind == "f" and ((arr == 0) | (arr == 1)).all()):
        raise ValueError(error)
    return arr.astype(np.uint8, copy=False)


def _reference_outputs(kind, outputs, size):
    y = np.asarray(outputs).reshape(-1)
    if y.dtype.kind not in "iu" or not _reference_in_alphabet(y, size):
        raise ValueError(f"{kind} outputs must be integers in its alphabet")
    return y


CHECK_DTYPES = ["uint8", "bool", "int8", "int16", "int32", "int64", "uint16", "float32",
                "float64", "object", ">i4", ">u2", ">i8", ">f8"]
CHECK_BAD = [None, 2, 3, 255, -1, 0.5, float("nan")]


def _holds(dtype, value):
    """Whether ``dtype`` stores ``value`` exactly, so it can be injected."""
    with np.errstate(all="ignore"):
        stored = np.array([value]).astype(dtype)[0]
    return stored == value or value != value and stored != stored


class _Tagged(np.ndarray):
    """An ndarray subclass, which the checks' uint8 scan path does not take."""


def _check_layouts(values):
    """``values`` flat, as a 2-D stack, as a 0-d array, and for uint8 as
    two non-contiguous views, a read-only copy, a column and a subclass
    view."""
    yield values
    yield np.stack((values, values[::-1]))
    if values.size == 1:
        yield values.reshape(())
    if values.dtype == np.uint8:
        yield np.repeat(values, 2)[::2]
        yield np.stack((values, values), axis=1)[:, 0]
        frozen = values.copy()
        frozen.flags.writeable = False
        yield frozen
        yield values.reshape(-1, 1)
        yield values.view(_Tagged)


def _outcome(check, arr):
    try:
        return check(arr), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("dtype", CHECK_DTYPES)
def test_alphabet_checks_match_the_one_reduce_rule(dtype):
    scan = protocol._SCAN_BYTES
    draw = np.random.default_rng(len(dtype))
    checks = [("bits", 2, lambda a: _bits(a, "not bits"),
               lambda a: _reference_bits(a, "not bits")),
              ("bsc", 2, lambda a: discrete_outputs("bsc", a),
               lambda a: _reference_outputs("bsc", a, 2)),
              ("bec", 3, lambda a: discrete_outputs("bec", a),
               lambda a: _reference_outputs("bec", a, 3))]
    cases = 0
    for size in (0, 1, 31, scan - 1, scan, scan + 1, 4096):
        for name, alphabet, check, reference in checks:
            clean = draw.integers(0, alphabet, size).astype(dtype)
            for bad in CHECK_BAD:
                values = clean
                if bad is not None:
                    if not (size and _holds(dtype, bad)):
                        continue
                    values = clean.copy()
                    values[-1] = bad
                for arr in _check_layouts(values):
                    got, error = _outcome(check, arr)
                    want, want_error = _outcome(reference, arr)
                    assert error == want_error, (name, size, arr.shape, bad)
                    cases += 1
                    if error is None:
                        assert got.dtype == want.dtype and np.array_equal(got, want)
                        assert got.shape == want.shape and type(got) is type(want)
                        assert got.flags.writeable == want.flags.writeable
                        assert np.shares_memory(got, arr) == np.shares_memory(want, arr)
                        plain = type(arr) is np.ndarray and arr.dtype == np.uint8
                        if name == "bits" and plain:
                            assert got is arr  # a uint8 input is returned uncopied
                        if plain and arr.ndim == 1 and arr.size <= scan:
                            assert got is arr  # the one byte scan returns it as it is
    assert cases >= 42  # 7 sizes, 3 checks, 2 layouts at least


def test_big_endian_bits_and_outputs_are_read_in_their_own_byte_order():
    assert _bits(np.array([0, 1, 1], dtype=">i4"), "not bits").tolist() == [0, 1, 1]
    assert _bits(np.array([1, 0], dtype=">u8"), "not bits").tolist() == [1, 0]
    assert discrete_outputs("bsc", np.array([[1], [0]], dtype=">i4")).tolist() == [1, 0]
    assert discrete_outputs("bec", np.array([0, 1, ERASURE], dtype=">u2")).tolist() == [0, 1, 2]
    for bad in ([0, 2], [-1, 0]):
        with pytest.raises(ValueError, match="not bits"):
            _bits(np.array(bad, dtype=">i2"), "not bits")
    for kind, bad in (("bsc", [0, 2]), ("bec", [0, 3]), ("bec", [-1, 0])):
        with pytest.raises(ValueError, match=f"{kind} outputs must be integers"):
            discrete_outputs(kind, np.array(bad, dtype=">i4"))
