"""Learned-step quantizer: worked examples, laws, and straight-through grads."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spikescan.numerics as nm
import spikescan.quantize as quantize_mod
from spikescan.quantize import (ALPHA_FLOOR, Quantizer, StepSizeFit, clip_inplace, floor_with_snap,
                                init_step_size, quantize, quantize_with_context, round_half_up,
                                ste_backward)
from spikescan.ssm import EXP_HI, EXP_LO, QUANT_SITES, ForecastModel, ModelConfig
from spikescan.train import _quantizer_record, _read_quantizer
from ssm_oracle import bisect_whole_range, quantize_values, round_half_away, step_size_rule, ste_backward_where


def q2(alpha=0.5, beta=0.0, **kw):
    return Quantizer(bits=2, alpha=alpha, beta=beta, name="t", **kw)


class TestWorkedExamples:
    def test_mid_value_rounds_to_nearest_code(self):
        xq, ctx = quantize_with_context(np.array([0.7]), q2())
        assert ctx.codes[0] == 1
        assert xq[0] == 0.5

    def test_offset_is_a_fixed_point(self):
        beta = -0.35
        xq, ctx = quantize_with_context(np.array([beta]), q2(beta=beta))
        assert ctx.codes[0] == 0
        assert xq[0] == beta

    def test_clipping_at_top_code(self):
        xq, ctx = quantize_with_context(np.array([1000.0]), q2())
        assert ctx.codes[0] == 3
        assert xq[0] == 1.5

    def test_asymmetric_code_range(self):
        q = Quantizer(bits=3, alpha=1.0, name="s")
        assert q.code_max == 7
        xq, ctx = quantize_with_context(np.array([-100.0, 100.0]), q)
        assert list(ctx.codes) == [0, 7]


class TestInitializer:
    def test_mean_of_large_entries(self):
        assert init_step_size(np.array([0.6, 0.8, 0.1])) == pytest.approx(0.7, abs=0)

    def test_single_entry(self):
        assert init_step_size(np.array([1.0])) == 1.0

    def test_fallback_mean_abs(self):
        assert init_step_size(np.array([0.1, 0.2])) == pytest.approx(0.15)

    def test_fallback_floor(self):
        assert init_step_size(np.zeros(10)) == 1e-3

    def test_calibrate_sets_alpha(self):
        q = Quantizer(bits=2, name="c")
        assert not q.initialized
        q.calibrate(np.array([0.6, 0.8, 0.1]))
        assert q.initialized and float(q.alpha.data) == pytest.approx(0.7)

    def test_the_offset_exists_before_calibration(self):
        q = Quantizer(bits=2, name="c")
        assert float(q.beta.data) == 0.0 and q.beta.trainable and q.beta.name == "c.beta"
        frozen = Quantizer(bits=2, beta=nm.Tensor(0.25), name="f")
        assert not frozen.initialized and not frozen.beta.trainable and frozen.parameters() == []

    def test_calibrate_measures_from_the_offset(self):
        q = Quantizer(bits=2, name="c")
        q.set_beta(-0.5)
        q.calibrate(np.array([0.1, 0.3, -0.4]))  # [0.6, 0.8, 0.1] above the offset
        assert float(q.alpha.data) == pytest.approx(0.7) and float(q.beta.data) == -0.5


STEP_SIZE_EDGES = [0.0, -0.0, 0.5, np.nextafter(0.5, 0.0), -0.5, 1e-3, -1e-3, 5e-324, 1e300, -1e300]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(st.sampled_from(STEP_SIZE_EDGES), st.floats(-3.0, 3.0)), min_size=1, max_size=40),
       beta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)), shape=st.sampled_from([(-1,), (1, -1)]))
@example(values=[0.6, 0.8, 0.1, -0.0], beta=0.0, shape=(-1,))  # entries >= 0.5: their mean
@example(values=[0.1, -0.2, -0.0, 0.0], beta=-0.0, shape=(-1,))  # none: mean |x|
@example(values=[-0.0, -0.0], beta=-0.0, shape=(1, -1))  # none, mean |x| +0.0: the 1e-3 floor
@example(values=[-0.0, 0.0], beta=0.0, shape=(-1,))
def test_calibration_consumes_its_values_and_fits_the_copy_based_rule(values, beta, shape):
    """``calibrate`` and ``init_step_size`` fit the bytes the rule gives on a fresh copy, in both of its
    branches, with -0.0 entries and offsets of +-0.0; ``calibrate`` leaves its values measured from the
    offset in the array it was handed, as their magnitudes when no entry reaches 0.5."""
    x = np.array(values).reshape(shape)
    shifted = np.ravel(x) - beta
    want = np.float64(step_size_rule(shifted))
    assert np.float64(init_step_size(shifted.copy())).tobytes() == want.tobytes()
    q = Quantizer(bits=2, beta=beta, name="c")
    q.calibrate(x)
    assert q.alpha.data.tobytes() == want.tobytes() and q.beta.data.tobytes() == np.float64(beta).tobytes()
    left = shifted if (shifted >= 0.5).any() else np.abs(shifted)
    assert x.ravel().tobytes() == left.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(st.sampled_from(STEP_SIZE_EDGES), st.floats(-3.0, 3.0)), min_size=1, max_size=48),
       width=st.integers(1, 6), beta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0)))
@example(values=[0.6, 0.1, 0.2, 0.9, -0.3, 0.7], width=3, beta=0.0)  # an entry >= 0.5 in the first part
@example(values=[0.1, -0.2, -0.0, 0.3, 0.9, 0.6], width=3, beta=-0.0)  # first in a later part
@example(values=[0.1, -0.2, -0.0, 0.3, 0.4, -0.4], width=3, beta=0.0)  # none: mean |x|
@example(values=[1.0, 1.2, 0.0, 0.6], width=2, beta=0.5)  # nonzero offsets, the first in a later part
@example(values=[0.4, 0.2, 0.3, 0.1], width=2, beta=-0.05)
def test_a_step_size_fit_by_parts_equals_calibrate_on_them_joined(values, width, beta):
    """``StepSizeFit`` takes the values a part at a time, leaves each part as it was, and sets the step
    size ``Quantizer.calibrate`` fits on all of them joined, bit for bit in both of the rule's branches,
    whichever part first reaches 0.5 above the offset, with -0.0 entries and offsets of +-0.0."""
    width = min(width, len(values))
    parts = np.array(values[:len(values) // width * width]).reshape(-1, width)
    q = Quantizer(bits=2, beta=beta, name="parts")
    fit = StepSizeFit(q, parts.size)
    for part in parts:
        before = part.tobytes()
        fit.add(part)
        assert part.tobytes() == before
    fit.finish()
    whole = Quantizer(bits=2, beta=beta, name="whole")
    whole.calibrate(parts.copy())
    assert q.alpha.data.tobytes() == whole.alpha.data.tobytes()
    assert q.alpha.data.tobytes() == np.float64(step_size_rule(parts.ravel() - beta)).tobytes()


EDGE_VALUES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.0, 15.5]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40),
       bounds=st.one_of(st.integers(1, 15).map(lambda T: (0, T)), st.just((EXP_LO, EXP_HI))))
@example(values=EDGE_VALUES, bounds=(0, 3))
@example(values=EDGE_VALUES, bounds=(EXP_LO, EXP_HI))
def test_clip_inplace_equals_np_clip_bit_for_bit(values, bounds):
    """Signed zeros, NaN payloads, infinities and subnormals clip exactly as ``np.clip`` does."""
    x = np.array(values, dtype=np.float64)
    expect = np.clip(x, *bounds)
    out = clip_inplace(x, *bounds)
    assert out is x
    assert out.tobytes() == expect.tobytes()


def test_clip_inplace_runs_numpys_clip_ufunc():
    """Resolved at import from ``numpy._core.umath`` (numpy 2) or ``numpy.core.umath`` (numpy 1.x)."""
    assert isinstance(quantize_mod._clip_ufunc, np.ufunc) and quantize_mod._clip_ufunc.__name__ == "clip"
    assert quantize_mod._clip_ufunc.nin == 3 and quantize_mod._clip_ufunc.nout == 1


def test_floor_with_snap_into_its_input_equals_the_fresh_result():
    x = np.random.default_rng(4).integers(-40, 41, size=2000) / 8.0 - 1e-9
    x[:4] = [-0.0, 3.0 - 1e-9, 3.0 - 2e-9, np.inf]
    expect = floor_with_snap(x)
    assert floor_with_snap(x, out=x) is x
    assert x.tobytes() == expect.tobytes()


def test_round_half_away_from_zero():
    v = np.array([0.5, 1.5, -0.5, -1.5, 2.4, -2.4])
    assert list(round_half_away(v)) == [1, 2, -1, -2, 2, -2]


_HALF_BELOW, _HALF_ABOVE = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
NEAREST_EDGES = [0.0, -0.0, 0.5, -0.5, _HALF_BELOW, -_HALF_BELOW, _HALF_ABOVE, -_HALF_ABOVE, -0.25,
                 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, np.inf, -np.inf, 14.5, 15.5, 16.5]


def _tie_or_neighbour(k: int, side: int) -> float:
    tie = k + 0.5
    return float(tie if side == 0 else np.nextafter(tie, side * np.inf))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(st.sampled_from(NEAREST_EDGES),
                                 st.builds(_tie_or_neighbour, st.integers(-17, 17), st.sampled_from([-1, 0, 1])),
                                 st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True)),
                       min_size=1, max_size=40),
       code_max=st.integers(1, 15),
       alpha=st.sampled_from([1.0, 0.37, 2.0 ** -3]),
       beta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0)))
@example(values=NEAREST_EDGES, code_max=15, alpha=1.0, beta=0.0)
@example(values=NEAREST_EDGES, code_max=1, alpha=1.0, beta=-0.0)
def test_nearest_rounding_is_round_half_away_under_the_clip(values, code_max, alpha, beta):
    """``round_half_up`` under the clip codes what ``round_half_away`` does, except that it gives
    +0.0 where ``round_half_away`` keeps -0.0 (a v in (-0.5, 0)); decoded, the two agree byte for
    byte unless beta is -0.0, and by value always."""
    v = np.array(values, dtype=np.float64)
    parent = clip_inplace(round_half_away(v), 0, code_max)
    codes = clip_inplace(round_half_up(v), 0, code_max)
    assert codes.tobytes() == (parent + 0.0).tobytes()  # + 0.0 turns -0.0 into +0.0, nothing else
    assert not np.signbit(codes).any()
    decoded, parent_decoded = codes * alpha + beta, parent * alpha + beta
    assert np.array_equal(decoded, parent_decoded)
    if not (beta == 0.0 and math.copysign(1.0, beta) < 0):
        assert decoded.tobytes() == parent_decoded.tobytes()
    assert round_half_up(v, out=v) is v
    assert v.tobytes() == round_half_up(np.array(values, dtype=np.float64)).tobytes()


def test_nearest_codes_a_small_negative_drive_as_positive_zero():
    """The one place the nearest rule departs from ``round_half_away`` under the clip."""
    v = np.array([-0.25, -5e-324, -0.0, -0.5])
    assert np.signbit(clip_inplace(round_half_away(v), 0, 3)).tolist() == [True, True, False, False]
    q = Quantizer(bits=2, alpha=1.0, beta=-0.0, rounding="nearest", name="z")
    out, _, codes = quantize_values(v, q)
    assert codes.tolist() == [0.0] * 4 and not np.signbit(codes).any()
    assert not np.signbit(out).any()  # round_half_away's -0.0 codes decode to -0.0


@pytest.mark.parametrize("rounding, smooth", [("nearest", False), ("floor", False), ("floor", True)])
def test_quantize_values_into_its_input_equals_the_fresh_result(rounding, smooth):
    q = Quantizer(bits=3, alpha=0.37, beta=-0.11, rounding=rounding, name="o")
    x = np.random.default_rng(5).normal(size=(64, 12, 16)) * 2.0
    x[0, 0, :6] = [-0.0, -0.11, -0.2, 0.37 * 3.5 - 0.11, np.inf, -np.inf]
    fresh = quantize_values(x, q, smooth)[0]
    got, v, codes = quantize_values(x, q, smooth, out=x)
    assert got is x and v is x and codes is x
    assert x.tobytes() == fresh.tobytes()


def test_quantize_never_writes_its_input():
    q = Quantizer(bits=2, alpha=0.5, beta=0.1, rounding="nearest", name="w")
    x = nm.Tensor(np.random.default_rng(6).normal(size=(3, 5, 4)))
    kept = x.data.copy()
    out = quantize(x, q)
    with nm.GradTape():
        taped = quantize(x, q)
    assert x.data.tobytes() == kept.tobytes()
    assert not np.shares_memory(out.data, x.data) and not np.shares_memory(taped.data, x.data)
    assert out.data.tobytes() == taped.data.tobytes()


def test_idempotence_bit_exact():
    rng = np.random.default_rng(0)
    for rounding in ("nearest", "floor"):
        q = Quantizer(bits=3, alpha=0.37, beta=0.11, rounding=rounding, name="i")
        x = rng.normal(size=500) * 2
        once, _ = quantize_with_context(x, q)
        twice, _ = quantize_with_context(once, q)
        assert np.array_equal(once, twice)


def test_grid_membership_and_range():
    rng = np.random.default_rng(1)
    q = Quantizer(bits=4, alpha=0.21, beta=-0.4, name="g")
    x = rng.normal(size=1000) * 3
    xq, ctx = quantize_with_context(x, q)
    back = (xq - (-0.4)) / 0.21
    assert np.max(np.abs(back - np.round(back))) < 1e-9
    assert np.all(xq >= -0.4 - 1e-12)
    assert np.all(xq <= 0.21 * q.code_max - 0.4 + 1e-12)


def test_exactly_2_pow_b_codes_reachable():
    for bits in (1, 2, 3):
        q = Quantizer(bits=bits, alpha=0.5, name="r")
        x = np.linspace(-5, 5, 20001)
        codes = quantize_with_context(x, q)[1].codes
        assert len(np.unique(codes)) == 2 ** bits


class TestSTE:
    def grads(self, x, q, grad_out=None):
        xq, ctx = quantize_with_context(np.asarray(x, dtype=np.float64), q)
        g = np.ones_like(xq) if grad_out is None else grad_out
        return ste_backward(g, ctx)

    def test_all_clipped_high_blocks_grad_x(self):
        gx, ga, gb = self.grads([50.0, 60.0], q2())
        assert np.all(gx == 0)
        assert ga == pytest.approx(2 * 3)  # each entry pulls alpha toward Qp

    def test_identity_inside_range(self):
        gx, _, _ = self.grads([0.7], q2())
        assert gx[0] == 1.0

    def test_grad_alpha_vanishes_on_grid(self):
        x = 0.5 * np.arange(4)  # exact codes 0..3
        gx, ga, gb = self.grads(x, q2())
        assert abs(ga) < 1e-12
        assert np.all(gx == 1.0)

    def test_grad_alpha_lsq_rule_value(self):
        # x = 0.7, alpha = 0.5: v = 1.4, code 1, contribution code - v = -0.4
        _, ga, _ = self.grads([0.7], q2())
        assert ga == pytest.approx(-0.4)

    def test_grad_beta_collects_clipped_entries(self):
        gx, ga, gb = self.grads([-10.0, 0.7, 10.0], q2())
        assert gb == pytest.approx(2.0)  # the two clipped entries
        assert gx[1] == 1.0 and gx[0] == 0.0 and gx[2] == 0.0

    def test_backward_requires_matching_shapes(self):
        xq, ctx = quantize_with_context(np.zeros(3), q2())
        with pytest.raises(ValueError):
            ste_backward(np.ones(4), ctx)


SPECIAL = st.sampled_from([-0.0, 0.0, math.nan])


@st.composite
def ste_cases(draw):
    """A quantizer, a drive and an upstream gradient: drives on exact grid points, between them,
    clipped below 0 and above the top code, -0.0 and NaN; gradients with -0.0 and NaN."""
    bits = draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(1e-3, 10.0))
    beta = draw(st.sampled_from([0.0, -0.0, 0.25, -1.5]) | st.floats(-5.0, 5.0))
    q = Quantizer(bits=bits, alpha=nm.Tensor(alpha, trainable=draw(st.booleans())),
                  beta=nm.Tensor(beta, trainable=draw(st.booleans())), rounding=draw(st.sampled_from(["nearest", "floor"])))
    top = 2 ** bits - 1
    level = st.integers(-3, top + 3).map(lambda k: beta + alpha * k)  # exact points, and past both ends
    between = st.floats(-3.0, top + 3.0).map(lambda k: beta + alpha * k)
    n = draw(st.integers(1, 40))
    x = draw(st.lists(level | between | SPECIAL, min_size=n, max_size=n))
    g = draw(st.lists(st.floats(-10.0, 10.0) | SPECIAL, min_size=n, max_size=n))
    return q, np.array(x), np.array(g), draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(case=ste_cases())
def test_ste_backward_is_the_where_formulas_bit_for_bit(case):
    """The bit masks of ``ste_backward`` give the bytes of the ``np.where`` formulas they replaced,
    and a frozen step size or offset gets ``None``."""
    q, x, g, smooth = case
    _, ctx = quantize_with_context(x, q, smooth)
    with np.errstate(invalid="ignore"):
        got = ste_backward(g, ctx, q.alpha.trainable, q.beta.trainable)
        want = ste_backward_where(g, ctx.v, ctx.codes, q.code_max, q.alpha.trainable, q.beta.trainable)
    assert got[0].tobytes() == want[0].tobytes()
    for part, trained, a, b in zip(("alpha", "beta"), (q.alpha.trainable, q.beta.trainable), got[1:], want[1:]):
        assert (a is None) == (b is None) == (not trained), part
        assert a is None or np.float64(a).tobytes() == np.float64(b).tobytes(), part


def test_an_offset_turning_to_minus_zero_gets_its_own_grid():
    """The grid keys on the offset's bytes: an offset written from +0.0 to -0.0, as an in-place update
    may, codes a zero drive with the new sign, as ``x - beta`` does."""
    q = q2()
    x = np.array([-0.0, 0.0, 0.7])
    before = q.grid()
    q.beta.data[...] = -0.0
    assert q.grid() is not before
    for smooth in (False, True):
        got, v, codes = quantize_values(x.copy(), q, smooth)
        assert v.tobytes() == ((x - q.beta.data) / q.alpha.data).tobytes()
        assert got.tobytes() == (codes * q.alpha.data + q.beta.data).tobytes()


def test_taped_quantize_routes_ste_gradients():
    q = q2()
    t = nm.tensor(np.array([0.7, 10.0]), trainable=True)
    with nm.GradTape() as tape:
        out = nm.sum_all(quantize(t, q))
    grads = nm.backward(tape, output=out)
    assert np.allclose(grads[t], [1.0, 0.0])
    assert grads[q.alpha] == pytest.approx(-0.4 + 3.0)


def test_smooth_mode_is_differentiable_everywhere():
    # smooth surrogate replaces rounding with identity inside the clip range
    q = q2()
    x = np.array([0.6, 0.81])
    hard, _ = quantize_with_context(x, q)
    soft, _ = quantize_with_context(x, q, smooth=True)
    assert np.allclose(soft, x)  # in-range values pass through
    assert not np.allclose(hard, x)


def test_quantizer_state_roundtrip():
    q = Quantizer(bits=2, alpha=0.123, beta=nm.Tensor(0.456), rounding="floor", name="block0.h")
    s = _quantizer_record(q)
    assert (s["symmetric"], s["train_alpha"], s["train_beta"]) == (False, True, False)
    q2_ = _read_quantizer("block0.h", s)
    assert _quantizer_record(q2_) == s
    assert float(q2_.alpha.data) == 0.123 and not q2_.beta.trainable
    assert q2_.parameters() == [q2_.alpha]


def test_reset_keeps_the_tensor_flag():
    q = Quantizer(bits=2, alpha=nm.Tensor(1.0), name="frozen")
    assert q.parameters() == [q.beta]
    q.set_alpha(0.5)
    q.set_beta(0.25)
    assert not q.alpha.trainable and q.beta.trainable
    assert q.alpha.name == "frozen.alpha" and float(q.alpha.data) == 0.5


def test_alpha_floor_constant():
    assert ALPHA_FLOOR == 1e-8


THRESHOLD_OFFSETS = [0.0, -0.0, -0.133, 1.0, 12345.6, -1e6, 5e-324, -5e-324, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(theta=st.one_of(st.floats(-8.0, 5.52).map(lambda e: 10.0 ** e), st.sampled_from([5e-324, 1e-300, 1e300])),
       offset=st.one_of(st.sampled_from(THRESHOLD_OFFSETS), st.floats(-1e6, 1e6)),
       T=st.sampled_from([1, 3, 7, 15]), rounding=st.sampled_from(["nearest", "floor"]))
@example(theta=1e308, offset=-1.7976931348623157e308, T=15, rounding="nearest")  # x - offset overflows
@example(theta=1.7976931348623157e308, offset=1.0, T=3, rounding="floor")  # the estimate overflows
@example(theta=1e-8, offset=-0.0, T=15, rounding="floor")
def test_bracketed_thresholds_equal_the_whole_range_search(theta, offset, T, rounding):
    """Thresholds searched from a bracket around the grid's estimate, kept only where the count confirms
    it, are the bytes 64 halvings of the whole float64 range give, for tiny, huge and overflowing steps
    and offsets, +-0 among them."""
    grid = quantize_mod.CodeGrid("g", theta, offset, T, rounding)
    assert grid.thresholds().tobytes() == bisect_whole_range(grid.codes, T).tobytes()


def test_a_readme_grid_finds_its_thresholds_in_ten_counts(monkeypatch):
    """Every grid of a calibrated README-size model (2 bits) confirms its brackets and halves them to one
    key: one count of their ends and 9 halvings, where the whole range takes 64."""
    m = ForecastModel.build(ModelConfig(d_value=2, history=12, horizon=3), seed=0)
    m.calibrate(np.random.default_rng(0).normal(size=(64, 12, 2)))
    calls = []
    codes = quantize_mod.CodeGrid.codes
    monkeypatch.setattr(quantize_mod.CodeGrid, "codes", lambda self, x, out=None: calls.append(1) or codes(self, x, out))
    for q in (blk.quantizers[s] for blk in m.blocks for s in QUANT_SITES):
        grid, before = q.grid(), len(calls)
        tau = grid.thresholds()
        assert len(calls) - before <= 10, q.name
        assert tau.tobytes() == bisect_whole_range(lambda x: codes(grid, x), q.code_max).tobytes(), q.name


@pytest.mark.parametrize("bits, message", [
    (2.5, "bits must be an integer, got 2.5"), (True, "bits must be an integer, got True"),
    ("2", "bits must be an integer, got '2'"), (0, "bits must be >= 1, got 0"), (-1, "bits must be >= 1, got -1"),
])
def test_a_quantizer_refuses_bits_that_are_no_positive_integer(bits, message):
    """``bits=2.5`` built a grid of ``T = 2**2.5 - 1``, which coded a drive of 9.0 as 4.657, and
    ``bits=True`` a 1-code grid; the constructor now reads ``bits`` as every config reads an integer."""
    with pytest.raises(ValueError) as e:
        Quantizer(bits=bits, alpha=0.5, rounding="floor")
    assert str(e.value) == f"quantizer q: {message}"
