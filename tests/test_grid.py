import tracemalloc

import numpy as np
import pytest

from msvar import grid
from msvar.grid import grad_forward, tv_smooth, tv_smooth_grad

from oracles import divergence_normalized_loop, fd_gradient, grad_forward_loop, tv_smooth_loop


def test_grad_constant_field_is_zero():
    gx, gy = grad_forward(np.full((5, 7), 3.25))
    assert np.all(gx == 0) and np.all(gy == 0)


def test_grad_1x3_direct_difference():
    gx, gy = grad_forward(np.array([[0.0, 1.0, 3.0]]))
    assert np.array_equal(gx, [[1.0, 2.0, 0.0]])
    assert np.array_equal(gy, [[0.0, 0.0, 0.0]])


def test_grad_matches_loop_oracle_exactly():
    rng = np.random.default_rng(11)
    f = rng.random((5, 5))
    gx, gy = grad_forward(f)
    ox, oy = grad_forward_loop(f)
    assert np.array_equal(gx, ox)
    assert np.array_equal(gy, oy)


def test_grad_is_linear():
    rng = np.random.default_rng(3)
    f, g = rng.random((6, 6)), rng.random((6, 6))
    a = 2.75
    gx1, gy1 = grad_forward(a * f + g)
    fx, fy = grad_forward(f)
    gx2, gy2 = grad_forward(g)
    assert np.max(np.abs(gx1 - (a * fx + gx2))) < 1e-12
    assert np.max(np.abs(gy1 - (a * fy + gy2))) < 1e-12


def test_tv_constant_is_zero():
    assert tv_smooth(np.full((8, 8), 0.4), 1e-8) == pytest.approx(0.0, abs=1e-12)


def test_tv_square_indicator():
    # 4x4 square in an 8x8 grid: 14 unit boundary crossings plus one corner
    # pixel where the row and column differences coincide (sqrt 2).
    f = np.zeros((8, 8))
    f[2:6, 2:6] = 1.0
    expected = tv_smooth_loop(f, 1e-12)
    assert expected == pytest.approx(14.0 + np.sqrt(2.0), abs=1e-6)
    assert tv_smooth(f, 1e-12) == pytest.approx(expected, abs=1e-9)


def test_tv_matches_loop_oracle():
    rng = np.random.default_rng(5)
    f = rng.random((7, 6))
    assert tv_smooth(f, 1e-3) == pytest.approx(tv_smooth_loop(f, 1e-3), abs=1e-9)


def test_tv_nonnegative_and_shift_invariant():
    rng = np.random.default_rng(9)
    for _ in range(5):
        f = rng.random((6, 6))
        v = tv_smooth(f, 1e-8)
        assert v >= 0
        assert tv_smooth(f + 17.0, 1e-8) == pytest.approx(v, abs=1e-9)


def test_tv_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        tv_smooth(np.zeros((4, 4)), 0.0)
    with pytest.raises(ValueError):
        tv_smooth_grad(np.zeros((4, 4)), -1.0)


def test_tv_grad_constant_is_zero():
    g = tv_smooth_grad(np.full((6, 6), 1.5), 1e-8)
    assert np.max(np.abs(g)) < 1e-12


def test_tv_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    f = rng.random((6, 6))
    g = tv_smooth_grad(f, 1e-8)
    fd = fd_gradient(lambda z: tv_smooth(z, 1e-8), f)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


def test_tv_grad_single_pixel_bump():
    f = np.zeros((7, 7))
    f[3, 3] = 1.0
    g = tv_smooth_grad(f, 1e-8)
    fd = fd_gradient(lambda z: tv_smooth(z, 1e-8), f)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6
    # adjoint stencil: the bump pulls its left/up neighbours symmetrically
    assert g[3, 2] == pytest.approx(g[2, 3], abs=1e-12)


def test_tv_grad_fd_property_random_8x8():
    rng = np.random.default_rng(31)
    for _ in range(5):
        f = rng.random((8, 8))
        g = tv_smooth_grad(f, 1e-8)
        fd = fd_gradient(lambda z: tv_smooth(z, 1e-8), f)
        assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-4


def test_rejects_non_finite():
    f = np.zeros((4, 4))
    f[1, 1] = np.inf
    with pytest.raises(ValueError):
        grad_forward(f)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("shape, at", [((4, 4), (1, 1)), ((4, 4), (3, 3)), ((1, 5), (0, 4)),
                                       ((5, 1), (4, 0)), ((1, 1), (0, 0))],
                         ids=["4x4-inner", "4x4-corner", "1x5", "5x1", "1x1"])
def test_tv_rejects_non_finite(bad, shape, at):
    f = np.zeros(shape)
    f[at] = bad
    with pytest.raises(ValueError, match="non-finite"):
        tv_smooth(f, 1e-8)
    with pytest.raises(ValueError, match="non-finite"):
        tv_smooth_grad(f, 1e-8)
    with pytest.raises(ValueError, match="non-finite"):
        tv_smooth(f, 1e-8, grad_out=np.zeros(shape))


def test_tv_rejects_a_finite_field_whose_differences_overflow():
    f = np.array([[1e308, -1e308], [0.0, 0.0]])
    with pytest.raises(ValueError, match="overflow"):
        tv_smooth(f, 1e-8)
    with pytest.raises(ValueError, match="overflow"):
        tv_smooth_grad(f, 1e-8)
    f = np.array([[1e200, 0.0]])  # the difference is finite, its square is not
    with pytest.raises(ValueError, match="overflow"):
        tv_smooth(f, 1e-8)


# ------------------------------------------------------- strip-mined TV pass

def _random_field(shape):
    return lambda rng: rng.random(shape)


# Strip lengths in elements: the default, 3 rows of a width-8 field (13 rows
# do not divide), 3 rows of a width-33 field, and fewer elements than a row
# (one row per strip). The x-differences run over a strip's flattened rows,
# so they also span each row wrap (a row's last value to the next row's
# first); on the 8x300 ramp those wrap differences overflow when squared,
# while the field's own differences do not. Its step is a power of two, so
# every difference and the loop oracle's sum are exact. The 8x300 ramp of step
# 1e152 has inexact terms, which the kernel's pairwise sum rounds to the
# oracle's correctly rounded sum.
@pytest.mark.parametrize("strip", [grid.STRIP, 25, 99, 5])
@pytest.mark.parametrize(
    "field",
    [_random_field((13, 8)), _random_field((1, 9)), _random_field((9, 1)), _random_field((1, 1)),
     _random_field((40, 33)), lambda rng: np.tile(np.arange(300) * 2.0**505, (8, 1)),
     lambda rng: np.tile(np.arange(300) * 1e152, (8, 1))],
    ids=["13x8", "1x9", "9x1", "1x1", "40x33", "8x300-wraps-overflow", "8x300-large-sum"],
)
def test_tv_smooth_adds_its_scaled_gradient(monkeypatch, strip, field):
    rng = np.random.default_rng(5)
    f = field(rng)
    base = rng.random(f.shape)
    whole = tv_smooth_grad(f, 1e-3)  # one strip covers every field here
    monkeypatch.setattr(grid, "STRIP", strip)
    out = base.copy()
    value = tv_smooth(f, 1e-3, grad_out=out, scale=0.7)
    assert value == tv_smooth(f, 1e-3)
    assert value == pytest.approx(tv_smooth_loop(f, 1e-3), rel=1e-14, abs=1e-300)
    assert np.array_equal(tv_smooth_grad(f, 1e-3), whole)  # the strips do not show
    assert np.array_equal(out, base + 0.7 * whole)
    assert np.max(np.abs(whole + divergence_normalized_loop(f, 1e-3))) <= 1e-12


def test_tv_smooth_with_gradient_keeps_its_temporaries_strip_sized():
    # the whole-plane gradient allocated about four (H, W) planes; a column
    # slice has rows that are not contiguous, so flattening it whole would copy
    # a plane, and it is flattened strip by strip instead
    rng = np.random.default_rng(0)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for f in (rng.random((1024, 1024)), rng.random((1024, 2048))[:, :1024]):
            out = np.zeros(f.shape)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tv_smooth(f, 1e-8, grad_out=out)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak < f.nbytes, f"traced peak {peak / f.nbytes:.2f} planes"
    finally:
        if not tracing:
            tracemalloc.stop()
