"""Average integrate-and-fire spike sites, their codes, threshold scaling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikescan.activations import pow2_silu, pow2_softplus
from spikescan.quantize import (SEARCH_MAX, CodeGrid, Quantizer, quantize_codes, quantize_with_context,
                                simulate_if)
from spikescan.ssm import EXP_HI, EXP_LO, SPIKE_SITES, ForecastModel, ModelConfig, pow2_shift
from spikescan.train import _read_site, _site_record, convert_to_snn, load_checkpoint, save_checkpoint
from ssm_oracle import quantize_values


def site(T, theta, offset=0.0):
    return CodeGrid("s", theta, offset, T)


def test_worked_example_two_thirds_average():
    # total drive 2 over T=3 steps at threshold 1: potential walks 2/3, 4/3, 1
    assert list(simulate_if(np.array([2.0]), 3, 1.0)[:, 0]) == [0, 1, 1]
    assert site(3, 1.0).codes(np.array([2.0]))[0] == 2


def test_zero_and_negative_drive_never_fire():
    counts = site(4, 0.7).codes(np.array([0.0, -0.5, -100.0]))
    assert counts.sum() == 0


def test_saturated_drive_fires_every_step():
    counts = site(3, 0.9).codes(np.array([3.0 * 0.9, 50.0]))
    assert list(counts) == [3, 3]


def test_matches_literal_simulator_on_1000_random_cases():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        T = int(rng.integers(1, 9))
        theta = float(rng.uniform(0.01, 3.0))
        drive = float(rng.uniform(-theta, (T + 1.5) * theta))
        got = site(T, theta).codes(np.array([drive]))[0]
        want = simulate_if(np.array([drive]), T, theta)[:, 0].sum()
        assert got == want, (drive, T, theta)


def test_integer_multiples_of_theta_fire_exactly_m():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        T = int(rng.integers(1, 12))
        theta = float(rng.uniform(0.001, 5.0))
        m = int(rng.integers(0, T + 1))
        counts = site(T, theta).codes(np.array([m * theta]))
        assert counts[0] == m, (m, T, theta)


@pytest.mark.parametrize("bad, message", [
    ({"T": 0}, "T must be >= 1, got 0"),
    ({"theta": 0.0, "scale": 0.0}, "theta must be finite and > 0, got 0.0"),
    ({"theta": -1.0, "scale": -1.0}, "theta must be finite and > 0, got -1.0"),
    ({"theta": float("inf"), "scale": float("inf")}, "theta must be finite and > 0, got inf"),
    ({"offset": float("nan")}, "offset must be finite, got nan"),
    ({"scale": 2.0}, "decode scale 2.0 differs from threshold 1.0"),
    # this one failed converting the scale to a float, as malformed metadata naming no site
    ({"scale": 10 ** 400}, f"decode scale {10 ** 400} differs from threshold 1.0"),
], ids=["T 0", "theta 0", "theta -1", "theta inf", "offset nan", "scale not theta", "scale huge"])
def test_a_site_record_refuses_each_bad_field(bad, message):
    with pytest.raises(ValueError) as e:
        _read_site("s", {"name": "s", "theta": 1.0, "scale": 1.0, "offset": 0.0, "T": 3, **bad})
    assert str(e.value) == f"spike site s: {message}"


def test_a_site_record_reads_back_as_the_floor_grid_it_was_written_from(tmp_path):
    """One grid class: a record holds a grid's fields and reads back as its (theta, offset, T), and a
    saved model's sites, threshold-scaled or not, load as the ``CodeGrid`` objects they were written from."""
    grid = Quantizer(bits=2, alpha=0.4, beta=-0.1, rounding="floor", name="s").grid()
    for g in (grid, grid.threshold_scale()):
        record = _site_record(g)
        assert record == {"name": "s", "theta": g.theta, "scale": g.theta, "offset": -0.1, "T": g.T}
        assert _read_site("s", record) == (g.theta, g.offset, g.T)
    m = ForecastModel.build(ModelConfig(d_value=1, history=4, horizon=1, d_hidden=2, state_size=1), seed=0)
    m.calibrate(np.random.default_rng(0).normal(size=(4, 4, 1)))
    sites = convert_to_snn(m).blocks[0].sites
    sites["h"] = sites["h"].threshold_scale()
    save_checkpoint(str(tmp_path / "sites.ckpt"), m)
    back = load_checkpoint(str(tmp_path / "sites.ckpt"))[0].blocks[0].sites
    for s, g in sites.items():
        assert type(back[s]) is CodeGrid and back[s] == g and back[s].rounding == "floor"
    assert back["h"].T == 1


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
        counts = q.grid().codes(pre)
        assert np.array_equal(counts, codes), bits


class TestQuantizedCodec:
    """A floor quantizer's grid, a converted block's spike site, counts spikes equal to its codes."""

    Q = Quantizer(bits=2, alpha=0.5, beta=0.0, rounding="floor", name="codec")

    def test_count_equals_code(self):
        assert self.Q.grid().codes(np.array([1.0]))[0] == 2

    def test_offset_maps_to_silence(self):
        q = Quantizer(bits=2, alpha=0.5, beta=-0.2, rounding="floor", name="o")
        s = q.grid()
        counts = s.codes(np.array([-0.2]))
        assert counts[0] == 0
        assert s.decode(counts)[0] == -0.2

    def test_max_code_saturates_window(self):
        s = self.Q.grid()
        assert s.codes(np.array([1.5]))[0] == 3 == s.T

    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        q = Quantizer(bits=3, alpha=0.37, beta=0.21, rounding="floor", name="rt")
        xq, ctx = quantize_with_context(rng.normal(size=300) * 2, q)
        s = q.grid()
        assert np.array_equal(s.codes(xq), ctx.codes)
        assert np.array_equal(s.decode(s.codes(xq)), xq)

    def test_symmetric_quantizer_rejected(self):
        cfg = ModelConfig(d_value=1, history=4, horizon=1, d_hidden=2, state_size=1)
        m = ForecastModel.build(cfg, seed=0)
        m.calibrate(np.random.default_rng(0).normal(size=(4, 4, 1)))
        m.blocks[0].quantizers["h"].rounding = "nearest"
        with pytest.raises(ValueError, match="block0.h"):
            convert_to_snn(m)


class TestThresholdScale:
    def site(self, theta=0.5, T=3):
        return CodeGrid("s", theta, 0.1, T)

    def test_saturated_counts_collapse(self):
        site = self.site()
        pre = np.array([10.0, 0.1 + 3 * 0.5, 0.0])  # counts 3, 3, 0
        before = site.decode(site.codes(pre))
        scaled = site.threshold_scale()
        counts = scaled.codes(pre)
        assert list(counts) == [1, 1, 0]
        after = scaled.decode(counts)
        assert np.array_equal(before, after)

    def test_a_scaled_site_encodes_with_its_own_operands(self):
        site = self.site()
        scaled = site.threshold_scale()
        fresh = CodeGrid("s", site.theta * site.T, site.offset, 1)
        pre = np.random.default_rng(4).normal(scale=3.0, size=500)
        pre[:3] = [0.1 + 1.5, 0.1 + 1.5 - 1e-6, 0.1]  # on and just under the scaled threshold
        counts = scaled.codes(pre)
        assert counts.tobytes() == fresh.codes(pre).tobytes()
        assert counts[:3].tolist() == [1, 0, 0] and counts.max() == 1
        assert scaled.decode(counts).tobytes() == fresh.decode(counts).tobytes()
        assert site.codes(pre).max() == 3  # the site it came from keeps its own

    def test_rate_drops_by_factor(self):
        site = self.site()
        pre = np.full(100, 5.0)  # saturates every neuron
        assert site.codes(pre).sum() == 300
        scaled = site.threshold_scale()
        assert scaled.codes(pre).sum() == 100


def test_pow2_shift_is_exact_ldexp():
    v = np.array([1.5, -2.0, 0.75])
    e = np.array([-3, 0, -1], dtype=np.int32)
    assert np.array_equal(pow2_shift(v, e), v * np.exp2(e))
    # every exponent the scan uses, on values that round once shifted into the subnormals
    rng = np.random.default_rng(3)
    e = np.repeat(np.arange(EXP_LO, EXP_HI + 1, dtype=np.int32), 2000)
    v = rng.uniform(-1.0, 1.0, size=e.size) * 10.0 ** rng.uniform(-318.0, 3.0, size=e.size)
    got = pow2_shift(v, e)
    assert got.tobytes() == (v * np.exp2(e)).tobytes()
    assert np.count_nonzero((got != 0) & (np.abs(got) < np.finfo(np.float64).tiny)) > 1000
    buf = np.empty_like(v)
    assert pow2_shift(v, e, out=buf) is buf
    assert buf.tobytes() == got.tobytes()


def test_pow2_shift_takes_int32_exponents_and_shifts_in_place():
    """The scan's contract: int32 exponents, the state shifted into its own slot, and ``1 * 2**e``
    written into the buffer that held the exponents' floats."""
    e = np.array([-3, 0, -32], dtype=np.int32)
    out = np.array([7.0, 7.0, 7.0])
    assert pow2_shift(np.ones(()), e, out=out) is out
    assert out.tolist() == [0.125, 1.0, 2.0 ** -32]
    v = np.array([1.5, -2.0, 0.75])
    for view in (v, v[::-1]):  # a ufunc reads overlapping operands as if copied first
        w = view.copy()
        assert pow2_shift(view, e, out=view) is view
        assert view.tolist() == (w * np.exp2(e)).tolist()
        v[:] = [1.5, -2.0, 0.75]
    with pytest.raises(TypeError):  # a float exponent is no shift
        pow2_shift(v, e.astype(np.float64))


SHIFTED_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, np.finfo(np.float64).tiny,
                    -np.finfo(np.float64).tiny, 5e-324, np.finfo(np.float64).max, 1.0, -1.5]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(st.sampled_from(SHIFTED_SPECIALS), st.floats(allow_subnormal=True),
                                 st.floats(-1e-300, 1e-300)), min_size=1, max_size=8),
       e=st.integers(-1022, 1023))
def test_pow2_shift_has_the_bytes_of_the_multiply_by_2_to_the_e(values, e):
    """For every normal 2**e the shift is the product's bytes: signed zeros, subnormal results (small
    values shifted down), overflow to inf, infinities and NaN."""
    v = np.array(values)
    exps = np.full(v.shape, e, dtype=np.int32)
    with np.errstate(over="ignore"):  # both overflow to inf alike
        assert pow2_shift(v, exps).tobytes() == (v * np.exp2(exps)).tobytes()


def test_a_site_is_frozen():
    s = site(3, 0.5, offset=0.1)
    for field, value in (("name", "t"), ("theta", 1.0), ("offset", 0.0), ("T", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field, value)
    assert s == site(3, 0.5, offset=0.1)
    assert s.codes(np.array([0.1 + 2 * 0.5]))[0] == 2


def test_encode_and_decode_write_into_their_input_only_when_asked():
    s = site(3, 0.4, offset=-0.15)
    pre = np.random.default_rng(8).normal(size=(64, 12, 16))
    pre[0, 0, :4] = [-0.0, -0.15, 0.4 * 2 - 0.15, 5.0]
    kept = pre.copy()
    counts = s.codes(pre)
    assert pre.tobytes() == kept.tobytes()
    decoded = s.decode(counts)
    assert counts.tobytes() == s.codes(kept).tobytes()
    assert s.codes(pre, out=pre) is pre
    assert pre.tobytes() == counts.tobytes()
    assert s.decode(pre, out=pre) is pre
    assert pre.tobytes() == decoded.tobytes()


def test_spike_train_invariants():
    drive = np.array([[1.0, 2.0], [0.0, 3.0], [-1.0, 7.5]])
    counts = site(3, 1.0).codes(drive)
    assert counts.shape == drive.shape
    assert np.array_equal(counts, np.round(counts))
    assert counts.min() >= 0 and counts.max() <= 3
    assert np.array_equal(counts, simulate_if(drive, 3, 1.0).sum(axis=0))


def ulps_around(v: np.ndarray, n: int) -> np.ndarray:
    """Each value of ``v`` and its ``n`` float64 neighbours on either side."""
    out, up, down = [v], v, v
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


with np.errstate(invalid="ignore"):
    DEFAULT_NAN = np.subtract(np.inf, np.inf)  # the platform's NaN, which an overflow makes
SPECIAL_DRIVES = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324,
                           2.2250738585072009e-308, -2.2250738585072009e-308, 1.7976931348623157e308])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_theta=st.floats(-8.0, 3.0), log_offset=st.floats(-12.0, 4.0),
       offset_sign=st.sampled_from([-1.0, 0.0, 1.0]), T=st.sampled_from([1, 3, 7, 15]),
       scaled=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_threshold_search_counts_and_decodes_like_the_arithmetic(log_theta, log_offset, offset_sign, T,
                                                                 scaled, seed):
    """Each threshold is the least drive that reaches its count, and a small drive counted by searching
    them gets ``codes``' counts and ``decode``' bytes, at and within 3 ulps of every
    threshold, at the float64 extremes and on random drives."""
    s = site(T, 10.0 ** log_theta, offset_sign * 10.0 ** log_offset)
    if scaled:
        s = s.threshold_scale()
    tau = s.thresholds()
    k = np.arange(1, s.T + 1)
    with np.errstate(over="ignore"):  # the arithmetic on drives near the float64 extremes
        assert (s.codes(tau) >= k).all() and (s.codes(np.nextafter(tau, -np.inf)) < k).all()
    rng = np.random.default_rng(seed)
    spread = s.offset + s.theta * rng.uniform(-2.0, s.T + 2.0, size=200)
    wide = rng.choice([-1.0, 1.0], size=100) * 10.0 ** rng.uniform(-320.0, 308.0, size=100)
    drive = np.concatenate([ulps_around(tau, 3), SPECIAL_DRIVES, spread, wide])
    drive = np.concatenate([drive, np.zeros(-drive.size % SEARCH_MAX)])
    for piece in drive.reshape(-1, 4, SEARCH_MAX // 4):  # drives the size of the largest search
        with np.errstate(over="ignore"):
            want = s.codes(piece)
        values = piece.copy()
        counts = s.read(values, observe=np.copy)
        assert counts.dtype == np.intp  # searched
        assert np.array_equal(counts, want)
        assert values.tobytes() == s.decode(want).tobytes()


def test_an_observer_sees_the_codes_before_the_drive_holds_values():
    """``observe`` gets a drive's codes once they exist and before any value is written: a small drive's
    searched codes, where a NaN drive entry is NaN, and a large drive's ``codes`` bytes, NaN
    included, in its own buffer.  Either way the drive then holds ``decode``' bytes, and ``read``
    returns what ``observe`` returned."""
    s = site(3, 0.5, offset=-0.25)
    nan, large = np.array([0.1, DEFAULT_NAN, 2.0]), np.linspace(-1.0, 3.0, SEARCH_MAX + 1)
    large[7] = DEFAULT_NAN
    for drive in (nan, large):
        buf, seen = drive.copy(), []

        def observe(codes):
            seen.append((codes.copy(), buf.tobytes()))
            return len(seen)

        assert s.read(buf, observe=observe) == 1
        [(codes, held)] = seen
        if drive is nan:
            assert np.isnan(codes[1]) and codes[[0, 2]].tolist() == [0, 3]
            assert held == drive.tobytes()  # the drive as it came
        else:
            assert codes.tobytes() == held == s.codes(drive).tobytes()  # the codes, not yet values
        assert buf.tobytes() == s.decode(s.codes(drive)).tobytes()


@pytest.mark.parametrize("scaled", [False, True], ids=["plain", "threshold-scaled"])
@pytest.mark.parametrize("fn", [None, pow2_silu], ids=["values", "fn"])
@pytest.mark.parametrize("size", [8, SEARCH_MAX + 1], ids=["searched", "arithmetic"])
def test_an_observer_sees_nan_for_a_nan_drive(size, fn, scaled):
    """Either path shows ``observe`` NaN where the drive is NaN and every other entry's code, also on a
    threshold-scaled grid, whose T = 1 a searched NaN would pass as code 2; the drive then holds what a
    read without an observer writes."""
    s = site(3, 0.5, offset=-0.25)
    if scaled:
        s = s.threshold_scale()
        assert s.T == 1
    drive = np.linspace(-1.0, 3.0, size)
    drive[[1, size // 2]] = DEFAULT_NAN
    nan, got, unobserved = np.isnan(drive), drive.copy(), drive.copy()
    seen = s.read(got, fn, observe=np.copy)
    s.read(unobserved, fn)
    assert np.isnan(seen[nan]).all() and np.array_equal(seen[~nan], s.codes(drive[~nan]))
    assert got.tobytes() == unobserved.tobytes()


def test_search_tables_are_built_on_a_sites_first_small_drive():
    """Conversion pays nothing for the thresholds and tables; a batch-1 forward builds each site's once."""
    cfg = ModelConfig(d_value=2, history=6, horizon=2, d_hidden=4, state_size=2, conv_kernel=2)
    m = ForecastModel.build(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(8, 6, 2))
    m.calibrate(x)
    convert_to_snn(m)
    sites = list(m.blocks[0].sites.values())
    assert all("_tau" not in vars(s) and s._tables == {} for s in sites)
    m.forward(x[:1])
    built = [(vars(s)["_tau"], s._tables[None]) for s in sites]
    m.forward(x[1:2])
    assert all(vars(s)["_tau"] is tau and s._tables[None] is levels for s, (tau, levels) in zip(sites, built))


def test_a_spiking_forward_reuses_the_thresholds_and_tables_the_real_arithmetic_one_built(monkeypatch):
    """A converted block's spike sites are its quantizers' grids, so the thresholds and tables a batch-1
    real-arithmetic forward built are the ones the spiking forward reads: it builds none of its own."""
    cfg = ModelConfig(d_value=2, history=6, horizon=2, d_hidden=4, state_size=2, conv_kernel=2)
    m = ForecastModel.build(cfg, seed=0)
    x = np.random.default_rng(0).normal(size=(8, 6, 2))
    m.calibrate(x)
    ann = m.forward(x[:1]).data
    grids = [m.blocks[0].quantizers[s].grid() for s in SPIKE_SITES]
    built = [(vars(g)["_tau"], g._tables[None]) for g in grids]
    convert_to_snn(m)
    assert list(m.blocks[0].sites.values()) == grids

    def forbidden(*args):
        raise AssertionError("the spiking forward built a table or thresholds again")

    monkeypatch.setattr(CodeGrid, "thresholds", forbidden)
    monkeypatch.setattr(CodeGrid, "table", forbidden)
    assert m.forward(x[:1]).data.tobytes() == ann.tobytes()
    assert all(vars(g)["_tau"] is tau and g._tables[None] is levels for g, (tau, levels) in zip(grids, built))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bits=st.integers(1, 4), rounding=st.sampled_from(["nearest", "floor"]), log_alpha=st.floats(-8.0, 3.0),
       log_beta=st.floats(-12.0, 4.0), beta_sign=st.sampled_from([-1.0, 0.0, 1.0]),
       fn=st.sampled_from([pow2_silu, pow2_softplus]), seed=st.integers(0, 2 ** 32 - 1))
def test_a_code_table_reads_like_the_arithmetic(bits, rounding, log_alpha, log_beta, beta_sign, fn, seed):
    """Each threshold is the least input that reaches its code, and a drive of ``SEARCH_MAX`` entries
    (searched) or one more (arithmetic codes) reads ``fn(quantize_values(x, q)[0])``'s bytes, at and
    within 3 ulps of every threshold, at +-0, +-inf, subnormals and the float64 extremes, on random
    drives, and with a NaN entry, which reads NaN.  Only that NaN drive calls ``fn``; every other
    reads the table ``fn`` built once from the levels."""
    q = Quantizer(bits=bits, alpha=10.0 ** log_alpha, beta=beta_sign * 10.0 ** log_beta, rounding=rounding)
    grid, calls = q.grid(), []

    def counted(x):
        calls.append(x.shape)
        return fn(x)

    with np.errstate(over="ignore", invalid="ignore"):  # fn of levels far below zero overflows 2**-x
        grid.read(np.zeros(1), counted)
    assert calls == [(q.code_max + 2,)]  # the table of the levels and the NaN
    tau = grid.thresholds()
    k = np.arange(1, q.code_max + 1)
    with np.errstate(over="ignore"):  # the arithmetic on inputs near the float64 extremes
        assert (quantize_codes(tau, q)[1] >= k).all()
        assert (quantize_codes(np.nextafter(tau, -np.inf), q)[1] < k).all()
    rng = np.random.default_rng(seed)
    spread = q.beta.data + q.alpha.data * rng.uniform(-2.0, q.code_max + 2.0, size=200)
    wide = rng.choice([-1.0, 1.0], size=100) * 10.0 ** rng.uniform(-320.0, 308.0, size=100)
    values = np.concatenate([ulps_around(tau, 3), SPECIAL_DRIVES, spread, wide])
    for size in (SEARCH_MAX, SEARCH_MAX + 1):
        pieces = np.resize(values, -(-values.size // size) * size).reshape(-1, size)
        with_nan = pieces[0].copy()
        with_nan[rng.integers(size)] = DEFAULT_NAN
        for piece in [*pieces, with_nan]:
            before = len(calls)
            with np.errstate(over="ignore", invalid="ignore"):
                want = fn(quantize_values(piece, q)[0])
                grid.read(got := piece.copy(), counted)
            assert len(calls) == before + (piece is with_nan and size > SEARCH_MAX)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.isnan(got), np.isnan(piece))


@pytest.mark.parametrize("fn", [pow2_silu, pow2_softplus])
@pytest.mark.parametrize("size", [8, 2000])
def test_a_nan_entry_reads_nan_from_a_small_and_a_large_drive(fn, size):
    """NaN counts past the thresholds in a search, to the table's last entry, and its arithmetic code
    casts to no index, so a large drive with NaN takes the arithmetic: NaN in, NaN out, every other
    entry as the table reads it."""
    q = Quantizer(bits=2, alpha=0.5, beta=-0.25, rounding="nearest")
    drive = np.linspace(-1.0, 2.0, size)
    drive[size // 2] = DEFAULT_NAN
    q.grid().read(got := drive.copy(), fn)
    assert got.tobytes() == fn(quantize_values(drive, q)[0]).tobytes()
    assert np.isnan(got[size // 2]) and np.isfinite(np.delete(got, size // 2)).all()


def test_a_code_table_checks_its_quantizer_as_quantize_does():
    with pytest.raises(RuntimeError, match="before calibration"):
        Quantizer(bits=2, name="block0.x_res").grid()
    with pytest.raises(ValueError, match="step size must be positive"):
        Quantizer(bits=2, alpha=0.0, name="block0.x_res").grid()
