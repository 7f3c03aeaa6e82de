import math
import tracemalloc

import numpy as np
import pytest

from liodom.nn import (Adam, AttentionHead, ChannelNorm, Conv2d,
                       FcActivationHead, Linear, LSTM, MapEncoder, Module, Param,
                       ResBlock, StepLR, central_difference, gradcheck,
                       load_checkpoint, save_checkpoint)
from liodom.nn import conv
from liodom.nn.conv import _im2col
from liodom.nn.core import sigmoid


SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
def test_linear_gradcheck(seed):
    rng = np.random.default_rng(seed)
    m = Linear(6, 4, rng)
    x = rng.standard_normal((3, 6))
    assert gradcheck(m, x, rng, n_checks=5).worst < 1e-4
    assert gradcheck(m, x, rng, n_checks=8, wrt_input=True).worst < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_attention_head_gradcheck(seed):
    rng = np.random.default_rng(seed)
    m = AttentionHead(5, rng)
    x = rng.standard_normal((2, 5))
    assert gradcheck(m, x, rng, n_checks=5).worst < 1e-4
    assert gradcheck(m, x, rng, n_checks=8, wrt_input=True).worst < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_fc_head_gradcheck(seed):
    rng = np.random.default_rng(seed)
    m = FcActivationHead(5, rng)
    x = rng.standard_normal((2, 5))
    assert gradcheck(m, x, rng, n_checks=5).worst < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_lstm_gradcheck(seed):
    rng = np.random.default_rng(seed)
    m = LSTM(3, 4, rng)
    x = rng.standard_normal((2, 5, 3))
    assert gradcheck(m, x, rng, n_checks=5).worst < 1e-4
    assert gradcheck(m, x, rng, n_checks=8, wrt_input=True).worst < 1e-4


# Conv2d's input gradient scatters through `_col2im` when the layer widens
# or strides, and is a correlation when it keeps or narrows at stride 1, so
# each conv check runs a widening, a square and a narrowing layer.
CONV_CHANNELS = ((2, 3), (3, 3), (3, 2))


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_gradcheck(seed):
    for in_ch, out_ch in CONV_CHANNELS:
        rng = np.random.default_rng(seed)
        m = Conv2d(in_ch, out_ch, stride=2 if seed % 2 else 1, rng=rng)
        x = rng.standard_normal((2, in_ch, 6, 8))
        assert gradcheck(m, x, rng, n_checks=5).worst < 1e-4, (in_ch, out_ch)
        assert gradcheck(m, x, rng, n_checks=8, wrt_input=True).worst < 1e-4, (in_ch, out_ch)


@pytest.mark.parametrize("arg", [{"kernel": 0}, {"stride": 0}, {"pad": -1}],
                         ids=["kernel", "stride", "pad"])
def test_conv2d_rejects_impossible_geometry(arg):
    with pytest.raises(ValueError, match=next(iter(arg))):
        Conv2d(2, 3, **arg, rng=np.random.default_rng(0))


@pytest.mark.parametrize("in_ch, out_ch, stride, col2im_calls", [
    (3, 3, 1, 0), (3, 2, 1, 0), (6, 4, 1, 0),
    (3, 3, 2, 1), (2, 3, 1, 1), (6, 16, 1, 1)])
def test_conv2d_input_gradient_path_follows_layer_shape(monkeypatch, in_ch, out_ch, stride,
                                                        col2im_calls):
    calls = []
    col2im = conv._col2im

    def counted(*args):
        calls.append(args)
        return col2im(*args)

    monkeypatch.setattr(conv, "_col2im", counted)
    rng = np.random.default_rng(0)
    m = Conv2d(in_ch, out_ch, stride=stride, rng=rng)
    x = rng.standard_normal((1, in_ch, 6, 8))
    m.backward(np.ones(m(x).shape))
    assert len(calls) == col2im_calls


def test_gradcheck_that_compares_nothing_fails():
    # every output of a zero Linear under abs sits on its kink: all elements are skipped
    rng = np.random.default_rng(0)
    m = Linear(4, 3, rng)
    for p in m.parameters().values():
        p.value[...] = 0.0
    x = rng.standard_normal((2, 4))
    r = gradcheck(m, x, rng, lambda mod, a: np.abs(mod(a)),
                  lambda mod, g: mod.backward(np.sign(mod(x)) * g))
    assert r.worst == np.inf
    assert r.skipped == r.drawn == 4 + 3    # 4 weight elements, all 3 biases


def test_gradcheck_that_skips_over_a_tenth_of_its_draws_fails():
    # abs at three of twenty inputs that sit exactly on its kink: the other
    # seventeen agree, yet 3 of 20 skipped is more than MAX_SKIP_SHARE
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 2.0, 20) * rng.choice([-1.0, 1.0], 20)
    for on_kink, skipped, ok in ((3, 3, False), (2, 2, True)):
        x[:on_kink] = 0.0
        sign = np.sign(x)
        r = gradcheck(Module(), x, rng, lambda _, a: np.abs(a), lambda _, g: g * sign,
                      n_checks=x.size, wrt_input=True)
        assert r.worst < 1e-8 and (r.skipped, r.drawn) == (skipped, 20)
        assert r.ok is ok
        x[:on_kink] = rng.uniform(0.5, 2.0, on_kink)


def test_gradcheck_reports_a_nan_gradient():
    rng = np.random.default_rng(0)
    m = Linear(4, 3, rng)

    def bwd(mod, g):
        mod.backward(g)
        mod.weight.grad[0, 0] = np.nan

    assert np.isnan(gradcheck(m, rng.standard_normal((2, 4)), rng, bwd=bwd, n_checks=12).worst)


def test_gradcheck_refuses_a_float32_module():
    rng = np.random.default_rng(0)
    m = Linear(4, 3, rng).cast(np.float32)
    with pytest.raises(TypeError, match="float64"):
        gradcheck(m, rng.standard_normal((2, 4)), rng)


def test_a_kink_with_a_small_slope_change_is_flagged():
    # 5e-4 |x - 2e-7| + x: its slope changes by 1e-3 at 2e-7, inside the
    # +-1e-6 steps, so the central quotient misses the slope at 0 (0.9995)
    # by 4e-4, over the 1e-4 bound. The one-sided quotients differ by 8e-4
    # relative, which a 1e-3 threshold would let through.
    x = np.array([0.0])
    f = lambda: 5e-4 * abs(x[0] - 2e-7) + x[0]
    fd, kink = central_difference(f, x, 0, 1e-6)
    assert abs(fd - 0.9995) > 1e-4
    assert kink


def _direct_conv(x, w, b, stride, pad):
    """Cross-correlation by explicit loops over output pixels: the oracle."""
    B, _, H, W = x.shape
    O, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    y = np.empty((B, O, Ho, Wo))
    for n in range(B):
        for o in range(O):
            for i in range(Ho):
                for j in range(Wo):
                    patch = xp[n, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    y[n, o, i, j] = np.sum(patch * w[o]) + b[o]
    return y


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_conv2d_matches_direct_convolution(k, stride, pad):
    rng = np.random.default_rng(10 * k + 3 * stride + pad)
    m = Conv2d(2, 3, k, stride=stride, pad=pad, rng=rng)
    m.bias.value[:] = rng.standard_normal(3)
    x = rng.standard_normal((2, 2, 5, 7))
    want = _direct_conv(x, m.weight.value, m.bias.value, stride, pad)
    np.testing.assert_allclose(m(x), want, rtol=0, atol=1e-12)


def _direct_conv_backward(x, w, grad_out, stride, pad):
    """The adjoint of `_direct_conv` by the same loops: (weight, bias, input)
    gradients of sum(_direct_conv(x, w, b) * grad_out)."""
    B, _, H, W = x.shape
    O, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gw, gb, gxp = np.zeros_like(w), np.zeros(O), np.zeros_like(xp)
    for n in range(B):
        for o in range(O):
            for i in range(grad_out.shape[2]):
                for j in range(grad_out.shape[3]):
                    rows, cols = np.s_[i * stride:i * stride + k], np.s_[j * stride:j * stride + k]
                    g = grad_out[n, o, i, j]
                    gw[o] += g * xp[n, :, rows, cols]
                    gb[o] += g
                    gxp[n, :, rows, cols] += g * w[o]
    return gw, gb, gxp[:, :, pad:pad + H, pad:pad + W]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_conv2d_backward_matches_direct_adjoint(k, stride, pad):
    for in_ch, out_ch in CONV_CHANNELS:
        rng = np.random.default_rng(10 * k + 3 * stride + pad)
        m = Conv2d(in_ch, out_ch, k, stride=stride, pad=pad, rng=rng)
        x = rng.standard_normal((2, in_ch, 5, 7))
        g = rng.standard_normal(m(x).shape)
        gx = m.backward(g)
        gw, gb, gx_want = _direct_conv_backward(x, m.weight.value, g, stride, pad)
        for got, want in ((m.weight.grad, gw), (m.bias.grad, gb), (gx, gx_want)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"{in_ch} -> {out_ch} channels")


def _im2col_by_offsets(x, k, stride, pad):
    """im2col by one slice assignment per kernel offset: the reference."""
    B, C, H, W = x.shape
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    xp = x
    if pad:
        xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:pad + H, pad:pad + W] = x
    cols = np.empty((B, C, k, k, Ho, Wo), dtype=x.dtype)
    for a in range(k):
        for b in range(k):
            cols[:, :, a, b] = xp[:, :, a:a + stride * Ho:stride, b:b + stride * Wo:stride]
    return cols.reshape(B, C * k * k, Ho * Wo), (Ho, Wo)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [1, 2])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_im2col_matches_per_offset_slices(dtype, B, k, stride, pad):
    rng = np.random.default_rng(100 * B + 10 * k + 3 * stride + pad)
    x = rng.standard_normal((B, 3, 5, 7)).astype(dtype)
    cols, size = _im2col(x, k, stride, pad)
    want, want_size = _im2col_by_offsets(x, k, stride, pad)
    assert size == want_size
    assert cols.dtype == dtype
    np.testing.assert_array_equal(cols, want)


CACHED_LAYERS = {
    "conv2d": (lambda rng: Conv2d(2, 3, stride=2, rng=rng), (2, 2, 6, 8)),
    "resblock": (lambda rng: ResBlock(3, 5, stride=2, rng=rng), (1, 3, 8, 8)),
    "lstm": (lambda rng: LSTM(3, 4, rng), (2, 5, 3)),
}


@pytest.mark.parametrize("name", CACHED_LAYERS)
def test_backward_takes_the_cache_forward_left(name):
    build, shape = CACHED_LAYERS[name]
    rng = np.random.default_rng(0)
    m = build(rng)
    x = rng.standard_normal(shape)
    g = rng.standard_normal(m(x).shape)
    gx = m.backward(g)
    grads = {k: p.grad.copy() for k, p in m.parameters().items()}
    with pytest.raises(RuntimeError, match=type(m).__name__):
        m.backward(g)
    m.zero_grad()
    m(x)
    np.testing.assert_array_equal(m.backward(g), gx)
    for k, p in m.parameters().items():
        np.testing.assert_array_equal(p.grad, grads[k], err_msg=k)


def test_paper_scale_encoder_frees_its_activations():
    # One float32 encoder on a 52x720 map pair, as the model runs it. Conv2d
    # keeps its input, not its k*k times larger im2col columns, and each
    # backward frees what its forward kept: caching the columns held about
    # 178 MB after forward and as much after backward.
    rng = np.random.default_rng(0)
    m = MapEncoder((16, 32, 64), 256, rng=rng).cast(np.float32)
    x = rng.standard_normal((1, 6, 52, 720)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = np.ones(m(x).shape, np.float32)
        after_forward = tracemalloc.get_traced_memory()[0] - base
        m.backward(g)
        after_backward = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert after_forward < 64e6
    assert after_backward < 4e6


@pytest.mark.parametrize("seed", SEEDS)
def test_resblock_gradcheck(seed):
    rng = np.random.default_rng(seed)
    m = ResBlock(3, 5, stride=2, rng=rng)
    x = rng.standard_normal((1, 3, 8, 8))
    assert gradcheck(m, x, rng, n_checks=3).worst < 1e-4


@pytest.mark.parametrize("seed", SEEDS)
def test_encoder_gradcheck(seed):
    rng = np.random.default_rng(seed)
    m = MapEncoder((3, 4, 5), 7, rng=rng)
    m.set_training(False)
    x = rng.standard_normal((1, 6, 8, 16))
    assert gradcheck(m, x, rng, n_checks=2, eps=1e-5).worst < 1e-4


def test_channelnorm_gradcheck():
    rng = np.random.default_rng(0)
    m = ChannelNorm(3)
    m.running_mean[:] = rng.standard_normal(3)
    m.running_var[:] = rng.uniform(0.5, 2.0, 3)
    x = rng.standard_normal((2, 3, 4, 4))
    assert gradcheck(m, x, rng, n_checks=5).worst < 1e-4
    assert gradcheck(m, x, rng, n_checks=8, wrt_input=True).worst < 1e-4


def test_channelnorm_updates_running_stats_in_training():
    # Bit for bit the update from x.mean and x.var over (0, 2, 3), twice, so
    # the second starts from running statistics that are neither 0 nor 1; at
    # the model's batch of 1 and at 4, in either precision.
    rng = np.random.default_rng(1)
    for dtype in (np.float32, np.float64):
        for B in (1, 4):
            m = ChannelNorm(2, momentum=0.5).cast(dtype)
            m.training = True
            mean, var = m.running_mean.copy(), m.running_var.copy()
            for _ in range(2):
                x = (rng.standard_normal((B, 2, 3, 5)) * 2.0 + 1.0).astype(dtype)
                m(x)
                mean += 0.5 * (x.mean(axis=(0, 2, 3)) - mean)
                var += 0.5 * (x.var(axis=(0, 2, 3)) - var)
                np.testing.assert_array_equal(m.running_mean, mean)
                np.testing.assert_array_equal(m.running_var, var)
            assert m.running_mean.dtype == m.running_var.dtype == dtype
    m.training = False
    frozen = m.running_mean.copy()
    m(x)
    np.testing.assert_array_equal(m.running_mean, frozen)


def test_lstm_single_step_hand_computed():
    # Scalar cell with all weights 0.5, bias 0, input 1, zero state:
    # z = 0.5 for each gate, i = f = o = sigmoid(0.5), g = tanh(0.5),
    # c = i * g, h = o * tanh(c).
    m = LSTM(1, 1, np.random.default_rng(0))
    m.w_ih.value[:] = 0.5
    m.w_hh.value[:] = 0.5
    m.bias.value[:] = 0.0
    h = m(np.array([[[1.0]]]))
    s = 1.0 / (1.0 + math.exp(-0.5))
    c = s * math.tanh(0.5)
    expected = s * math.tanh(c)
    assert h[0, 0] == pytest.approx(expected, abs=1e-14)


def _lstm_forward_by_steps(m, x):
    """LSTM forward with a per-step input GEMM and three sigmoid calls: the
    reference. Returns the final hidden state and the per-step cache."""
    H = m.hidden_size
    h = np.zeros((x.shape[0], H), dtype=x.dtype)
    c = np.zeros_like(h)
    steps = []
    for s in range(x.shape[1]):
        z = x[:, s] @ m.w_ih.value.T + h @ m.w_hh.value.T + m.bias.value
        i = sigmoid(z[:, :H])
        f = sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = sigmoid(z[:, 3 * H:])
        h_prev, c_prev = h, c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        steps.append((x[:, s], h_prev, c_prev, i, f, g, o, tc))
    return h, steps


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("B", [1, 2])
def test_lstm_matches_per_step_reference(dtype, B):
    # The backward is fed the reference's cache for the reference gradients.
    rng = np.random.default_rng(B)
    m = LSTM(3, 16, rng).cast(dtype)
    x = rng.standard_normal((B, 15, 3)).astype(dtype)
    grad = rng.standard_normal((B, 16)).astype(dtype)
    want_h, want_steps = _lstm_forward_by_steps(m, x)
    m._cache = want_steps
    want_gx = m.backward(grad)
    want_grads = {k: p.grad.copy() for k, p in m.parameters().items()}
    m.zero_grad()
    h = m(x)
    steps = m._cache
    gx = m.backward(grad)
    np.testing.assert_array_equal(h, want_h)
    assert len(steps) == len(want_steps)
    for step, want_step in zip(steps, want_steps):
        for got, want in zip(step, want_step):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(gx, want_gx)
    for k, p in m.parameters().items():
        np.testing.assert_array_equal(p.grad, want_grads[k], err_msg=k)


def test_attention_head_formula():
    # out = sigmoid(W_o x) * tanh(sigmoid(W_i x) * tanh(W_g x))
    rng = np.random.default_rng(2)
    m = AttentionHead(3, rng)
    x = rng.standard_normal((1, 3))
    i = 1.0 / (1.0 + np.exp(-m.gate_i(x)))
    g = np.tanh(m.cand_g(x))
    o = 1.0 / (1.0 + np.exp(-m.gate_o(x)))
    np.testing.assert_allclose(m(x), o * np.tanh(i * g), atol=1e-12)


def test_zero_init_linear_outputs_zero():
    m = Linear(4, 3, zero_init=True)
    assert np.count_nonzero(m(np.ones((2, 4)))) == 0


def test_linear_without_rng_names_it():
    with pytest.raises(TypeError, match="rng"):
        Linear(3, 2)


FLOAT32_LAYERS = {
    "linear": (lambda rng: Linear(5, 4, rng), (3, 5)),
    "lstm": (lambda rng: LSTM(3, 4, rng), (2, 5, 3)),
    "conv2d": (lambda rng: Conv2d(2, 3, stride=2, rng=rng), (2, 2, 6, 8)),
    "channel-norm": (lambda rng: ChannelNorm(3), (2, 3, 4, 4)),
    "map-encoder": (lambda rng: MapEncoder((3, 4, 5), 7, rng=rng), (1, 6, 8, 16)),
}


@pytest.mark.parametrize("name", FLOAT32_LAYERS)
def test_layer_computes_in_its_parameters_dtype(name):
    # a float64 input to a cast layer: outputs, input gradients, parameter
    # gradients and buffers all stay float32, and so does training mode
    build, shape = FLOAT32_LAYERS[name]
    rng = np.random.default_rng(0)
    m = build(rng).cast(np.float32)
    m.set_training(True)
    x = rng.standard_normal(shape)
    out = m(x)
    gx = m.backward(np.ones(out.shape, np.float32))
    assert out.dtype == gx.dtype == np.float32
    for k, v in {**{k: p.grad for k, p in m.parameters().items()}, **m.state_arrays()}.items():
        assert v.dtype == np.float32, k


def test_cast_rounds_every_array_once():
    rng = np.random.default_rng(0)
    m = ResBlock(3, 5, stride=2, rng=rng)
    m.norm1.running_var[:] = rng.uniform(0.5, 2.0, 5)
    rounded = {k: v.astype(np.float32) for k, v in m.state_arrays().items()}
    for dtype in (np.float32, np.float64):     # and back, exactly
        m.cast(dtype)
        for k, v in m.state_arrays().items():
            assert v.dtype == dtype, k
            np.testing.assert_array_equal(v, rounded[k], err_msg=k)
        assert all(p.grad.dtype == dtype for p in m.parameters().values())


def test_encoder_rejects_tiny_maps():
    m = MapEncoder((2, 3, 4), 5, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        m(np.zeros((1, 6, 3, 16)))


class TestAdam:
    def test_matches_reference_update(self):
        # one-parameter scalar, lr 0.1, no decay: after the first step the
        # bias-corrected update is exactly -lr * g / (|g| + eps)
        p = Param(np.array([2.0]))
        opt = Adam({"w": p}, lr=0.1, weight_decay=0.0)
        p.grad[:] = 3.0
        opt.step()
        assert p.value[0] == pytest.approx(2.0 - 0.1 * 3.0 / (3.0 + 1e-8),
                                           abs=1e-12)

    def test_decoupled_weight_decay(self):
        p = Param(np.array([2.0]))
        opt = Adam({"w": p}, lr=0.1, weight_decay=0.01)
        p.grad[:] = 0.0
        opt.step()
        # zero gradient: only the decay term moves the weight
        assert p.value[0] == pytest.approx(2.0 * (1.0 - 0.1 * 0.01), abs=1e-12)

    def test_two_steps_match_manual_recurrence(self):
        rng = np.random.default_rng(3)
        val = rng.standard_normal(4)
        grads = [rng.standard_normal(4), rng.standard_normal(4)]
        p = Param(val.copy())
        opt = Adam({"w": p}, lr=1e-2, betas=(0.9, 0.99), weight_decay=0.0)
        m = np.zeros(4)
        v = np.zeros(4)
        ref = val.copy()
        for t, g in enumerate(grads, start=1):
            p.grad[:] = g
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.99 * v + 0.01 * g * g
            ref -= 1e-2 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.99 ** t)) + 1e-8)
        np.testing.assert_allclose(p.value, ref, atol=1e-12)


def test_steplr_schedule():
    opt = Adam({"w": Param(np.zeros(1))}, lr=1e-4)
    sched = StepLR(opt, step_size=20, gamma=0.5)
    assert sched.lr_at(0) == 1e-4
    assert sched.lr_at(19) == 1e-4
    assert sched.lr_at(20) == 5e-5
    assert sched.lr_at(40) == 2.5e-5
    sched.set_epoch(60)
    assert opt.lr == pytest.approx(1.25e-5)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        arrays = {"a.weight": rng.standard_normal((3, 4)),
                  "b.bias": rng.standard_normal(5)}
        cfg = {"imu_mode": "initial-pose", "nested": {"x": 1}}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, config=cfg)
        loaded, cfg2, precision = load_checkpoint(path)
        assert precision == "float64"
        assert cfg2 == cfg
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_binary_layout(self, tmp_path):
        import json
        import struct

        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.arange(3.0)}, config={})
        raw = path.read_bytes()
        assert raw[:8] == b"LIOCKPT1"
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        entry = next(e for e in header["params"] if e["name"] == "w")
        start = 16 + hlen + entry["offset"]
        payload = np.frombuffer(raw[start:start + 24], dtype="<f8")
        np.testing.assert_array_equal(payload, [0.0, 1.0, 2.0])

    def test_float32_precision(self, tmp_path):
        path = tmp_path / "m.ckpt"
        vals = np.array([1.0 / 3.0, 2.0 / 3.0], dtype=np.float32)
        save_checkpoint(path, {"w": vals, "b": vals[::-1]})
        loaded, _, precision = load_checkpoint(path)
        assert precision == "float32"
        assert loaded["w"].dtype == loaded["b"].dtype == np.float32
        np.testing.assert_array_equal(loaded["w"], vals)
        np.testing.assert_array_equal(loaded["b"], vals[::-1])

    def test_mixed_precision_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="one dtype"):
            save_checkpoint(tmp_path / "m.ckpt", {"a": np.zeros(2), "b": np.zeros(2, np.float32)})

    def test_rejects_unknown_precision(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.arange(4.0)})
        path.write_bytes(path.read_bytes().replace(b'"precision": "float64"',
                                                   b'"precision": "float16"'))
        with pytest.raises(ValueError, match="float16"):
            load_checkpoint(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPTxxxxxxxx")
        with pytest.raises(ValueError):
            load_checkpoint(path)
