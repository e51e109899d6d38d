"""Power-of-two activation branches, constants, and certified deviation bounds."""

import math

import numpy as np
import pytest

import spikescan.activations as act
import spikescan.numerics as nm


def test_breakpoint_constants_match_closed_forms():
    ln2 = math.log(2.0)
    assert act.SOFTPLUS_CUT == pytest.approx(math.log2(1.0 / ln2), abs=0)
    assert act.SOFTPLUS_SHIFT == pytest.approx(1.0 / ln2 - act.SOFTPLUS_CUT, abs=0)
    root = math.sqrt(1.0 + 2.0 * ln2 * ln2)
    assert act.SILU_CUT == pytest.approx(math.log2((root - 1.0) / (2.0 * ln2)), abs=0)
    assert act.SILU_SHIFT == pytest.approx(-root / ln2 - act.SILU_CUT, abs=0)
    # sanity: the cuts sit where expected numerically
    assert 0.5 < act.SOFTPLUS_CUT < 0.54
    assert -1.80 < act.SILU_CUT < -1.78


def test_branch_continuity_at_cuts():
    gaps = act.branch_continuity_gaps()
    assert set(gaps) == {"softplus_value", "softplus_grad", "silu_value", "silu_grad"}
    for name, gap in gaps.items():
        assert gap <= 1e-12, f"{name} branches disagree by {gap}"


def test_continuity_across_cut_neighborhood():
    for cut, fn, gr in [(act.SOFTPLUS_CUT, act.pow2_softplus, act.pow2_softplus_grad),
                        (act.SILU_CUT, act.pow2_silu, act.pow2_silu_grad)]:
        eps = 1e-9
        assert abs(float(fn(cut - eps)) - float(fn(cut + eps))) < 1e-8
        assert abs(float(gr(cut - eps)) - float(gr(cut + eps))) < 1e-8


def test_deviation_bounds_on_dense_grid():
    table = act.verify_deviation_bounds(-10.0, 10.0, 1e-3)
    assert act.DEVIATION_BOUNDS == {
        "softplus_value": act.SOFTPLUS_VALUE_BOUND, "softplus_grad": act.SOFTPLUS_GRAD_BOUND,
        "silu_value": act.SILU_VALUE_BOUND, "silu_grad": act.SILU_GRAD_BOUND,
    }
    assert list(table) == list(act.DEVIATION_BOUNDS)
    fns = {"softplus_value": (act.pow2_softplus, act.softplus),
           "softplus_grad": (act.pow2_softplus_grad, act.softplus_grad),
           "silu_value": (act.pow2_silu, act.silu),
           "silu_grad": (act.pow2_silu_grad, act.silu_grad)}
    x = act.grid_points(-10.0, 10.0, 1e-3)
    for name, (peak, at) in table.items():
        assert peak <= act.DEVIATION_BOUNDS[name], name
        # the maximum is attained at a grid point, and no grid point deviates more
        approx, ref = fns[name]
        assert at in x
        assert abs(float(approx(at)) - float(ref(at))) == pytest.approx(peak, rel=1e-12)
        assert np.max(np.abs(approx(x) - ref(x))) == peak
    # the certificates are tight: empirical maxima reach most of the bound
    assert table["softplus_value"][0] > 0.9 * act.SOFTPLUS_VALUE_BOUND
    assert table["silu_value"][0] > 0.9 * act.SILU_VALUE_BOUND


def test_grid_points_inclusive_and_validated():
    g = act.grid_points(-1.0, 1.0, 0.5)
    assert np.allclose(g, [-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        act.grid_points(1.0, -1.0, 0.5)


def test_pow2_softplus_positive_and_monotone():
    x = np.linspace(-30, 30, 4001)
    y = act.pow2_softplus(x)
    assert np.all(y > 0)
    assert np.all(np.diff(y) >= 0)
    # integer inputs land on exact powers of two below the cut
    assert float(act.pow2_softplus(-3.0)) == 0.125
    assert float(act.pow2_softplus(0.0)) == 1.0


def test_pow2_silu_limits():
    # left tail decays to zero from below, right side tracks the identity
    assert float(act.pow2_silu(-40.0)) == pytest.approx(0.0, abs=1e-10)
    assert float(act.pow2_silu(-40.0)) <= 0.0
    big = 50.0
    assert float(act.pow2_silu(big)) == pytest.approx(big + act.SILU_SHIFT, abs=1e-9)


@pytest.mark.parametrize("taped,raw,grad", [
    (act.pow2_softplus_t, act.pow2_softplus, act.pow2_softplus_grad),
    (act.pow2_silu_t, act.pow2_silu, act.pow2_silu_grad),
])
def test_taped_variants_finite_difference(taped, raw, grad):
    rng = np.random.default_rng(5)
    # sample away from the breakpoints so central differences see one branch
    x = rng.uniform(-6, 6, size=64)
    for cut in (act.SOFTPLUS_CUT, act.SILU_CUT):
        x = x[np.abs(x - cut) > 1e-3]
    t = nm.tensor(x, trainable=True)
    with nm.GradTape() as tape:
        out = nm.sum_all(taped(t))
    analytic = nm.backward(tape, output=out)[t]
    eps = 1e-7
    fd = (raw(x + eps) - raw(x - eps)) / (2 * eps)
    assert np.max(np.abs(analytic - fd)) < 1e-5
    assert np.allclose(analytic, grad(x))


def test_references_are_the_smooth_functions():
    x = np.linspace(-8, 8, 101)
    assert np.allclose(act.softplus(x), np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0), atol=1e-12)
    sig = 1.0 / (1.0 + np.exp(-x))
    assert np.allclose(act.silu(x), x * sig, atol=1e-12)
    assert np.allclose(act.softplus_grad(x), sig, atol=1e-12)
    assert np.allclose(act.silu_grad(x), sig * (1 + x * (1 - sig)), atol=1e-12)
