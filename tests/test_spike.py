"""Average integrate-and-fire spike sites, their codes, threshold scaling."""

import dataclasses

import numpy as np
import pytest

from spikescan.quantize import Quantizer, quantize_with_context
from spikescan.spike import SpikeSite, pow2_shift, simulate_if, threshold_scale
from spikescan.ssm import EXP_HI, EXP_LO, ForecastModel, ModelConfig
from spikescan.train import convert_to_snn


def site(T, theta, offset=0.0):
    return SpikeSite(name="s", theta=theta, offset=offset, T=T)


def test_worked_example_two_thirds_average():
    # total drive 2 over T=3 steps at threshold 1: potential walks 2/3, 4/3, 1
    assert list(simulate_if(np.array([2.0]), 3, 1.0)[:, 0]) == [0, 1, 1]
    assert site(3, 1.0).encode_counts(np.array([2.0]))[0] == 2


def test_zero_and_negative_drive_never_fire():
    counts = site(4, 0.7).encode_counts(np.array([0.0, -0.5, -100.0]))
    assert counts.sum() == 0


def test_saturated_drive_fires_every_step():
    counts = site(3, 0.9).encode_counts(np.array([3.0 * 0.9, 50.0]))
    assert list(counts) == [3, 3]


def test_matches_literal_simulator_on_1000_random_cases():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        T = int(rng.integers(1, 9))
        theta = float(rng.uniform(0.01, 3.0))
        drive = float(rng.uniform(-theta, (T + 1.5) * theta))
        got = site(T, theta).encode_counts(np.array([drive]))[0]
        want = simulate_if(np.array([drive]), T, theta)[:, 0].sum()
        assert got == want, (drive, T, theta)


def test_integer_multiples_of_theta_fire_exactly_m():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        T = int(rng.integers(1, 12))
        theta = float(rng.uniform(0.001, 5.0))
        m = int(rng.integers(0, T + 1))
        counts = site(T, theta).encode_counts(np.array([m * theta]))
        assert counts[0] == m, (m, T, theta)


def test_encode_validates_window_and_threshold():
    with pytest.raises(ValueError):
        site(0, 1.0)
    with pytest.raises(ValueError):
        site(3, 0.0)
    with pytest.raises(ValueError):
        site(3, -0.5)
    with pytest.raises(ValueError):
        SpikeSite.from_state({"name": "s", "theta": 1.0, "scale": 1.0, "offset": 0.0, "T": 0})


def test_tie_edge_counts_equal_quantizer_codes_bit_for_bit():
    # just under a grid point, beta + (k - 1e-9) * alpha, the T-step recurrence
    # and the real-arithmetic floor quantizer disagree; the site must follow
    # the quantizer
    rng = np.random.default_rng(2024)
    for bits in range(1, 5):
        T = 2 ** bits - 1
        alpha = float(rng.uniform(0.01, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        q = Quantizer(bits=bits, alpha=alpha, beta=beta, rounding="floor", name="tie")
        k = rng.integers(0, T + 2, size=20_000)
        edge = beta + (k - 1e-9) * alpha
        pre = edge + rng.integers(-64, 65, size=edge.size) * np.spacing(edge)
        codes = quantize_with_context(pre, q)[1].codes
        counts = SpikeSite.of(q).encode_counts(pre)
        assert np.array_equal(counts, codes), bits


class TestQuantizedCodec:
    """A site built from a floor quantizer counts spikes equal to its codes."""

    Q = Quantizer(bits=2, alpha=0.5, beta=0.0, rounding="floor", name="codec")

    def test_count_equals_code(self):
        assert SpikeSite.of(self.Q).encode_counts(np.array([1.0]))[0] == 2

    def test_offset_maps_to_silence(self):
        q = Quantizer(bits=2, alpha=0.5, beta=-0.2, rounding="floor", name="o")
        s = SpikeSite.of(q)
        counts = s.encode_counts(np.array([-0.2]))
        assert counts[0] == 0
        assert s.decode_counts(counts)[0] == -0.2

    def test_max_code_saturates_window(self):
        s = SpikeSite.of(self.Q)
        assert s.encode_counts(np.array([1.5]))[0] == 3 == s.T

    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        q = Quantizer(bits=3, alpha=0.37, beta=0.21, rounding="floor", name="rt")
        xq, ctx = quantize_with_context(rng.normal(size=300) * 2, q)
        s = SpikeSite.of(q)
        assert np.array_equal(s.encode_counts(xq), ctx.codes)
        assert np.array_equal(s.decode_counts(s.encode_counts(xq)), xq)

    def test_symmetric_quantizer_rejected(self):
        cfg = ModelConfig(d_value=1, history=4, horizon=1, d_hidden=2, state_size=1)
        m = ForecastModel.build(cfg, seed=0)
        m.calibrate(np.random.default_rng(0).normal(size=(4, 4, 1)))
        m.blocks[0].quantizers["h"].rounding = "nearest"
        with pytest.raises(ValueError, match="block0.h"):
            convert_to_snn(m)


class TestThresholdScale:
    def site(self, theta=0.5, T=3):
        return SpikeSite(name="s", theta=theta, offset=0.1, T=T)

    def test_saturated_counts_collapse(self):
        site = self.site()
        pre = np.array([10.0, 0.1 + 3 * 0.5, 0.0])  # counts 3, 3, 0
        before = site.decode_counts(site.encode_counts(pre))
        scaled = threshold_scale(site)
        counts = scaled.encode_counts(pre)
        assert list(counts) == [1, 1, 0]
        after = scaled.decode_counts(counts)
        assert np.array_equal(before, after)

    def test_a_scaled_site_encodes_with_its_own_operands(self):
        site = self.site()
        scaled = threshold_scale(site)
        fresh = SpikeSite(name="s", theta=site.theta * site.T, offset=site.offset, T=1)
        pre = np.random.default_rng(4).normal(scale=3.0, size=500)
        pre[:3] = [0.1 + 1.5, 0.1 + 1.5 - 1e-6, 0.1]  # on and just under the scaled threshold
        counts = scaled.encode_counts(pre)
        assert counts.tobytes() == fresh.encode_counts(pre).tobytes()
        assert counts[:3].tolist() == [1, 0, 0] and counts.max() == 1
        assert scaled.decode_counts(counts).tobytes() == fresh.decode_counts(counts).tobytes()
        assert site.encode_counts(pre).max() == 3  # the site it came from keeps its own

    def test_rate_drops_by_factor(self):
        site = self.site()
        pre = np.full(100, 5.0)  # saturates every neuron
        assert site.encode_counts(pre).sum() == 300
        scaled = threshold_scale(site)
        assert scaled.encode_counts(pre).sum() == 100


def test_pow2_shift_is_exact_ldexp():
    v = np.array([1.5, -2.0, 0.75])
    e = np.array([-3, 0, -1])
    assert np.array_equal(pow2_shift(v, e), v * np.exp2(e))
    # every exponent the scan uses, on values that round once shifted into the subnormals
    rng = np.random.default_rng(3)
    e = np.repeat(np.arange(EXP_LO, EXP_HI + 1), 2000)
    v = rng.uniform(-1.0, 1.0, size=e.size) * 10.0 ** rng.uniform(-318.0, 3.0, size=e.size)
    got = pow2_shift(v, e)
    assert np.array_equal(got, np.ldexp(v, e))
    assert np.count_nonzero((got != 0) & (np.abs(got) < np.finfo(np.float64).tiny)) > 1000
    buf = np.empty_like(v)
    assert pow2_shift(v, e, out=buf) is buf
    assert np.array_equal(buf, np.ldexp(v, e))


def test_pow2_shift_writes_2_to_the_e_into_out_first():
    e = np.array([-3.0, 0.0, -32.0])
    assert pow2_shift(np.ones(1), e, out=e) is e
    assert e.tolist() == [0.125, 1.0, 2.0 ** -32]
    v = np.array([1.5, -2.0, 0.75])
    for out in (v, v[::-1], v.reshape(3, 1)[:, 0]):  # the shift would read 2**e for v
        with pytest.raises(ValueError, match="overlap"):
            pow2_shift(v, np.zeros(3), out=out)
    assert v.tolist() == [1.5, -2.0, 0.75]


def test_a_site_is_frozen():
    s = site(3, 0.5, offset=0.1)
    for field, value in (("name", "t"), ("theta", 1.0), ("offset", 0.0), ("T", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, value)
    assert s == site(3, 0.5, offset=0.1)
    assert s.encode_counts(np.array([0.1 + 2 * 0.5]))[0] == 2


def test_encode_and_decode_write_into_their_input_only_when_asked():
    s = site(3, 0.4, offset=-0.15)
    pre = np.random.default_rng(8).normal(size=(64, 12, 16))
    pre[0, 0, :4] = [-0.0, -0.15, 0.4 * 2 - 0.15, 5.0]
    kept = pre.copy()
    counts = s.encode_counts(pre)
    assert pre.tobytes() == kept.tobytes()
    decoded = s.decode_counts(counts)
    assert counts.tobytes() == s.encode_counts(kept).tobytes()
    assert s.encode_counts(pre, out=pre) is pre
    assert pre.tobytes() == counts.tobytes()
    assert s.decode_counts(pre, out=pre) is pre
    assert pre.tobytes() == decoded.tobytes()


def test_spike_train_invariants():
    drive = np.array([[1.0, 2.0], [0.0, 3.0], [-1.0, 7.5]])
    counts = site(3, 1.0).encode_counts(drive)
    assert counts.shape == drive.shape
    assert np.array_equal(counts, np.round(counts))
    assert counts.min() >= 0 and counts.max() <= 3
    assert np.array_equal(counts, simulate_if(drive, 3, 1.0).sum(axis=0))
