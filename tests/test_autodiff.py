import math
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import (
    encoder_forward_three_ops, finite_difference_check, fuse_three_ops, maxpool2d_unrectified,
    relu, sum_all,
)

from retinapipe import autodiff as ad
from retinapipe.autodiff import (
    LstmParams, ShapeError, Tape, Tensor, backward, sgd_step, zero_grads,
)
from retinapipe.encoder import EncoderConfig, VisionEncoder
from retinapipe.errors import NonFiniteError
from retinapipe.rng import Xoshiro256
from retinapipe.textgen import (
    END, START, DecoderParams, build_vocabulary, caption_loss, keyword_multihot,
)
from retinapipe.training import TrainConfig


def brute_conv(x, k, b, stride, pad):
    c, h, w = x.shape
    nk, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((nk, ho, wo))
    for o in range(nk):
        for i in range(ho):
            for j in range(wo):
                acc = b[o]
                for ch in range(c):
                    for a in range(kh):
                        for bb in range(kw):
                            acc += k[o, ch, a, bb] * xp[ch, i * stride + a, j * stride + bb]
                out[o, i, j] = acc
    return out


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, k, Tensor(np.zeros(1)))
        assert np.array_equal(out.data, x.data)

    def test_all_ones_kernel_sums(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = ad.conv2d(x, k, Tensor(np.zeros(1)))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 10.0

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed):
        rng = Xoshiro256(seed)
        x = np.asarray(rng.uniform(-1, 1, (3, 8, 8)))
        k = np.asarray(rng.uniform(-1, 1, (4, 3, 3, 3)))
        b = np.asarray(rng.uniform(-1, 1, (4,)))
        for stride, pad in [(1, 0), (2, 1), (1, 1)]:
            got = ad.conv2d(Tensor(x[None]), Tensor(k), Tensor(b), stride, pad)
            want = brute_conv(x, k, b, stride, pad)
            assert np.allclose(got.data[0], want, atol=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                      Tensor(np.zeros(1)))

    def test_oversized_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))),
                      Tensor(np.zeros(1)))


class TestMaxpool:
    def test_constant_input(self):
        out = ad.maxpool2d(Tensor(np.full((1, 2, 4, 4), 3.5)), 2)
        assert np.all(out.data == 3.5)

    def test_small_example(self):
        out = ad.maxpool2d(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]), 2)
        assert out.data.reshape(-1).tolist() == [4.0]

    def test_matches_brute_force(self):
        rng = Xoshiro256(11)
        x = np.asarray(rng.uniform(-1, 1, (2, 6, 6)))
        got = ad.maxpool2d(Tensor(x[None]), 2).data[0]
        want = np.zeros((2, 3, 3))
        for c in range(2):
            for i in range(3):
                for j in range(3):
                    want[c, i, j] = max(x[c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max(), 0.0)
        assert np.array_equal(got, want)

    def test_tie_sends_gradient_to_first_element(self):
        x = Tensor(np.full((2, 1, 4, 4), 3.0))
        with Tape() as tape:
            loss = ad.softmax_cross_entropy(
                ad.linear(ad.global_avg_pool(ad.maxpool2d(x, 2)), Tensor([[1.0], [0.0]]),
                          Tensor(np.zeros(2))), [0, 0])
        backward(tape, loss)
        first = np.zeros((4, 4), dtype=bool)
        first[::2, ::2] = True
        assert np.all(x.grad[:, :, first] != 0.0) and np.all(x.grad[:, :, ~first] == 0.0)

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            ad.maxpool2d(Tensor(np.zeros((1, 1, 2, 2))), 3)


def relu_by_pool(values) -> Tensor:
    """maxpool2d with a 1 x 1 window over a 1 x 1 x 1 x N map: relu of each value."""
    return ad.maxpool2d(Tensor(np.reshape(values, (1, 1, 1, -1))), 1)


class TestRelu:
    """The ReLU that maxpool2d folds in."""

    def test_all_negative(self):
        assert np.all(relu_by_pool([-1.0, -5.0]).data == 0.0)

    def test_all_positive_identity(self):
        x = np.array([1.0, 2.0, 0.5])
        assert np.array_equal(relu_by_pool(x).data.ravel(), x)

    def test_mixed(self):
        assert relu_by_pool([-1.0, 0.0, 2.0]).data.ravel().tolist() == [0.0, 0.0, 2.0]


class TestLinear:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        out = ad.linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.array_equal(out.data, x)

    def test_zero_input_gives_bias(self):
        b = np.array([1.0, 2.0])
        out = ad.linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 3))), Tensor(b))
        assert np.array_equal(out.data[0], b)

    def test_matches_matvec(self):
        rng = Xoshiro256(5)
        x = np.asarray(rng.uniform(-1, 1, (4,)))
        w = np.asarray(rng.uniform(-1, 1, (3, 4)))
        b = np.asarray(rng.uniform(-1, 1, (3,)))
        want = np.array([sum(w[i, j] * x[j] for j in range(4)) + b[i] for i in range(3)])
        got = ad.linear(Tensor(x[None]), Tensor(w), Tensor(b)).data[0]
        assert np.allclose(got, want, atol=1e-12)

    def test_frozen_input_gets_no_gradient(self):
        rng = np.random.default_rng(4)
        xd, wd, bd = rng.standard_normal((3, 5)), rng.standard_normal((2, 5)), rng.standard_normal(2)
        grads = {}
        for needs_grad in (True, False):
            x, w, b = Tensor(xd, needs_grad=needs_grad), Tensor(wd), Tensor(bd)
            with Tape() as tape:
                loss = sum_all(ad.linear(x, w, b))
            backward(tape, loss)
            assert (x.grad is None) == (not needs_grad)
            grads[needs_grad] = w.grad.tobytes() + b.grad.tobytes()
        assert grads[True] == grads[False]

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


class TestGlobalAvgPool:
    def test_constant(self):
        out = ad.global_avg_pool(Tensor(np.full((1, 3, 2, 2), 7.0)))
        assert np.all(out.data == 7.0)

    def test_mean_example(self):
        out = ad.global_avg_pool(Tensor([[[[1.0, 3.0], [5.0, 7.0]]]]))
        assert out.data[0, 0] == 4.0

    def test_matches_naive_mean(self):
        rng = Xoshiro256(9)
        x = np.asarray(rng.uniform(-1, 1, (8, 5, 5)))
        got = ad.global_avg_pool(Tensor(x[None])).data[0]
        want = np.array([x[k].sum() / 25.0 for k in range(8)])
        assert np.allclose(got, want, atol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.softmax_cross_entropy(Tensor(np.zeros((1, 4))), [1])
        assert abs(float(loss.data) - math.log(4)) < 1e-12

    def test_stabilization(self):
        loss = ad.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert float(loss.data) < 1e-6
        assert np.isfinite(loss.data)

    def test_matches_extended_precision_oracle(self):
        from decimal import Decimal, getcontext
        getcontext().prec = 50
        rng = Xoshiro256(13)
        logits = np.asarray(rng.uniform(-5, 5, (6,)))
        target = 3
        exps = [Decimal(float(v)).exp() for v in logits]
        want = -(exps[target] / sum(exps)).ln()
        got = float(ad.softmax_cross_entropy(Tensor(logits[None]), [target]).data)
        assert abs(got - float(want)) < 1e-10

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_softmax_sums_to_one_and_shift_invariant(self):
        rng = Xoshiro256(17)
        for _ in range(10):
            logits = np.asarray(rng.uniform(-10, 10, (7,)))
            p = ad.softmax_np(logits)
            q = ad.softmax_np(logits + 123.456)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.allclose(p, q, atol=1e-12)


class TestLstmStep:
    @staticmethod
    def zero_cell(d, h):
        return LstmParams(wx=Tensor(np.zeros((4 * h, d))),
                          wh=Tensor(np.zeros((4 * h, h))),
                          b=Tensor(np.zeros(4 * h)))

    def test_zero_weights_zero_state(self):
        cell = self.zero_cell(3, 2)
        h, c = ad.lstm_step(Tensor([1.0, -1.0, 2.0]), Tensor(np.zeros(2)),
                            Tensor(np.zeros(2)), cell)
        assert np.all(h.data == 0.0) and np.all(c.data == 0.0)

    def test_forget_gate_saturation(self):
        cell = self.zero_cell(1, 1)
        cell.b.data[1] = 1000.0  # forget gate saturates at 1
        c0 = np.array([2.0])
        h, c = ad.lstm_step(Tensor([0.0]), Tensor(np.zeros(1)), Tensor(c0), cell)
        assert abs(float(c.data[0]) - 2.0) < 1e-9

    def test_matches_gate_formula_oracle(self):
        rng = Xoshiro256(21)
        d, hid = 3, 4
        cell = DecoderParams.init(rng, 5, d, hid, 4, False).cell
        x = np.asarray(rng.uniform(-1, 1, (d,)))
        h0 = np.asarray(rng.uniform(-1, 1, (hid,)))
        c0 = np.asarray(rng.uniform(-1, 1, (hid,)))
        a = cell.wx.data @ x + cell.wh.data @ h0 + cell.b.data
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        i, f, o = sig(a[:hid]), sig(a[hid:2*hid]), sig(a[2*hid:3*hid])
        g = np.tanh(a[3*hid:])
        c_want = f * c0 + i * g
        h_want = o * np.tanh(c_want)
        h, c = ad.lstm_step(Tensor(x), Tensor(h0), Tensor(c0), cell)
        assert np.allclose(h.data, h_want, atol=1e-10)
        assert np.allclose(c.data, c_want, atol=1e-10)

    def test_shape_mismatch(self):
        cell = self.zero_cell(3, 2)
        with pytest.raises(ShapeError):
            ad.lstm_step(Tensor(np.zeros(4)), Tensor(np.zeros(2)), Tensor(np.zeros(2)), cell)


class TestBackward:
    def test_sum_gradient_ones(self):
        w = Tensor(np.array([1.0, 2.0, 3.0]), name="w")
        with Tape() as tape:
            loss = sum_all(w)
        backward(tape, loss)
        assert np.array_equal(w.grad, np.ones(3))

    def test_shared_input_gradient_accumulates(self):
        w = Tensor(np.array([3.0]), name="w")
        with Tape() as tape:
            loss = sum_all(ad.average(w, w))
        backward(tape, loss)
        assert np.array_equal(w.grad, [1.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.zeros(3))
        with Tape() as tape:
            y = ad.average(w, w)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_off_tape_loss_rejected(self):
        w = Tensor(np.zeros(3))
        with Tape() as tape:
            ad.average(w, w)
        stray = sum_all(Tensor(np.zeros(2)))  # recorded on no tape
        with pytest.raises(ValueError):
            backward(tape, stray)

    def test_each_thread_records_on_its_own_tape(self):
        w = Tensor(np.ones(3))
        b_open, a_done = threading.Event(), threading.Event()
        lengths = {}

        def thread_b():
            ad.average(w, w)  # this thread has no tape open: recorded nowhere
            with Tape() as tape_b:
                b_open.set()
                a_done.wait(10)
                ad.average(w, w)
            lengths["b"] = len(tape_b)

        worker = threading.Thread(target=thread_b)
        with Tape() as tape_a:
            y = ad.average(w, w)
            worker.start()
            b_open.wait(10)
            z = ad.average(w, w)  # while thread B's tape is open
            a_done.set()
            worker.join(10)
        assert not worker.is_alive()
        assert len(tape_a) == 2 and tape_a.produced(y) and tape_a.produced(z)
        assert lengths == {"b": 1}


class TestAccumulate:
    def test_first_gradient_is_fresh_and_turns_negative_zero_positive(self):
        t, g = Tensor(np.zeros(3)), np.array([-0.0, 1.5, -2.0])
        t.accumulate(g)
        assert not np.shares_memory(t.grad, g)
        want = np.zeros(3) + g  # a zero-fill then an add: +0.0 first
        assert np.array_equal(t.grad.view(np.uint64), want.view(np.uint64))
        assert not np.signbit(t.grad[0])
        t.accumulate(g)
        assert np.array_equal(t.grad, [0.0, 3.0, -4.0])

    def test_first_gradient_may_be_a_broadcast_view(self):
        t = Tensor(np.zeros((2, 3)))
        t.accumulate(np.broadcast_to(np.array([1.0, -0.0, 2.0]), (2, 3)))
        t.accumulate(np.ones((2, 3)))
        assert t.grad.flags.writeable and np.array_equal(t.grad, [[2.0, 1.0, 3.0]] * 2)


class TestOwnership:
    def test_a_tensor_holds_the_float64_array_it_is_given(self):
        a = np.arange(6.0).reshape(2, 3)
        assert Tensor(a).data is a
        ints = np.arange(3)
        t = Tensor(ints)  # anything else is converted
        assert t.data.dtype == np.float64 and not np.shares_memory(t.data, ints)

    def test_parameters_hold_copies_of_their_arrays(self):
        a = np.array([1.0, 2.0])
        w = ad.parameters_from({"w": a})["w"]
        assert w.name == "w" and not np.shares_memory(w.data, a)
        w.grad = np.array([1.0, 1.0])
        sgd_step([w], 0.5)
        assert np.array_equal(w.data, [0.5, 1.5]) and np.array_equal(a, [1.0, 2.0])


class TestArena:
    """The tape's buffers, reused after each reset (the step-scoped arena)."""

    def test_recycled_buffers_reuse_memory_and_grow_when_too_small(self):
        tape = Tape()
        a, m = tape.take((2, 3)), tape.take((4,))
        assert tape.misses == 2 and a.shape == (2, 3) and m.dtype == np.float64
        tape.reset()
        a2, m2 = tape.take((1, 3)), tape.take((3,))  # no larger: no miss
        assert tape.misses == 2 and np.shares_memory(a, a2) and np.shares_memory(m, m2)
        big = tape.take((5,))  # a third buffer
        tape.reset()
        tape.take((3, 3))  # larger than the first slot
        assert tape.misses == 4 and not np.shares_memory(big, a)
        assert all(b.flags.c_contiguous for b in (a, m, a2, m2, big))

    def test_ops_take_from_the_innermost_tape_only(self):
        x = Tensor(np.array([[[[-1.0, 2.0]]]]))
        with Tape() as outer:
            with Tape() as inner:
                ad.maxpool2d(x, 1)
            assert outer.misses == 0 and inner.misses == 1
            ad.maxpool2d(x, 1)
        assert outer.misses == 1  # the output

    def test_backward_refuses_a_tape_whose_arena_was_recycled(self):
        """A loss recorded before a reset is no longer on the tape."""
        x = Tensor(np.array([[[[-1.0, 2.0]]]]))
        with Tape() as tape:
            loss = sum_all(ad.maxpool2d(x, 1))
        tape.reset()
        assert len(tape) == 0
        with tape:  # the reset tape records again, from its first buffer
            sum_all(ad.maxpool2d(x, 1))
        with pytest.raises(ValueError, match="not produced on this tape"):
            backward(tape, loss)
        assert x.grad is None


class TestSgd:
    def test_zero_lr_is_noop(self):
        p = Tensor(np.array([1.0, 2.0]), name="p")
        p.grad = np.array([5.0, -5.0])
        sgd_step([p], 0.0)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_basic_update(self):
        p = Tensor(np.array([1.0]), name="p")
        p.grad = np.array([2.0])
        sgd_step([p], 0.1)
        assert np.allclose(p.data, [0.8])

    def test_two_steps_equal_summed_update(self):
        g = np.array([0.5, -1.5])
        p1 = Tensor(np.array([1.0, 1.0]))
        p1.grad = g.copy()
        sgd_step([p1], 0.1)
        p1.grad = g.copy()
        sgd_step([p1], 0.1)
        p2 = Tensor(np.array([1.0, 1.0]))
        p2.grad = 2 * g
        sgd_step([p2], 0.1)
        assert np.allclose(p1.data, p2.data, atol=1e-15)

    def test_missing_gradient_rejected(self):
        p = Tensor(np.zeros(2), name="p")
        with pytest.raises(ValueError, match="no gradient"):
            sgd_step([p], 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_rejected_before_any_step(self, bad):
        p, q = Tensor(np.ones(2), name="p"), Tensor(np.ones(2), name="q")
        p.grad, q.grad = np.ones(2), np.array([1.0, bad])
        with pytest.raises(NonFiniteError, match="^the gradient of q is not finite$"):
            sgd_step([p, q], 0.1)
        assert np.array_equal(p.data, [1.0, 1.0])


class TestFiniteDifferenceCheck:
    def test_linear_model_exact(self):
        w = Tensor(np.array([1.0, -2.0, 0.5]), name="w")

        def model():
            return sum_all(ad.average(w, w))

        rep = finite_difference_check(model, {"w": w})
        assert rep.passed
        assert rep.max_rel_error < 1e-9

    def test_relu_away_from_kink(self):
        w = Tensor(np.array([[[[1.0, -1.0, 0.5]]]]), name="w")

        def model():
            return sum_all(ad.maxpool2d(w, 1))

        rep = finite_difference_check(model, {"w": w})
        assert rep.passed
        assert rep.max_rel_error < 1e-6

    def test_corrupted_gradient_is_caught(self):
        w = Tensor(np.array([2.0, 3.0]), name="w")

        def bad_square(a):  # a * a, its analytic gradient 10% too large
            out = Tensor(a.data * a.data)

            def bwd(gs):
                a.accumulate(1.1 * 2.0 * gs[0] * a.data)  # injected +10% fault

            ad._emit((out,), bwd)
            return out

        rep = finite_difference_check(lambda: sum_all(bad_square(w)), {"w": w})
        assert not rep.passed

    def test_per_layer_gradients_many_seeds(self):
        for seed in range(10):
            rng = Xoshiro256(seed)
            x = np.asarray(rng.uniform(-1, 1, (2, 5, 5)))[None]
            params = {
                "k": Tensor(ad.glorot_uniform(rng, (3, 2, 3, 3)), name="k"),
                "kb": Tensor(np.asarray(rng.uniform(-0.1, 0.1, (3,))), name="kb"),
                "w": Tensor(ad.glorot_uniform(rng, (4, 3)), name="w"),
                "b": Tensor(np.zeros(4), name="b"),
            }

            def model():
                t = ad.conv2d(Tensor(x), params["k"], params["kb"], 1, 1)
                t = ad.maxpool2d(t, 2)
                p = ad.global_avg_pool(t)
                return ad.softmax_cross_entropy(ad.linear(p, params["w"], params["b"]), [seed % 4])

            rep = finite_difference_check(model, params)
            assert rep.passed, f"seed {seed}: {rep.blocks}"
            assert rep.max_rel_error < 1e-4


def test_determinism_identical_seed_identical_init():
    a = ad.glorot_uniform(Xoshiro256(42), (5, 7))
    b = ad.glorot_uniform(Xoshiro256(42), (5, 7))
    assert np.array_equal(a, b)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay_period_epochs=0)


# ---------------------------------------------------------------------------
# batched (NCHW / B x D) ops

def loop_im2col(xp, kh, kw, stride, ho, wo):
    """The im2col columns of one C x Hp x Wp image, by a per-channel loop."""
    c = xp.shape[0]
    cols = np.empty((c * kh * kw, ho * wo), dtype=np.float64)
    row = 0
    for ch in range(c):
        for a in range(kh):
            for b in range(kw):
                cols[row] = xp[ch, a : a + stride * ho : stride, b : b + stride * wo : stride].ravel()
                row += 1
    return cols


def loop_col2im_add(gcols, shape, kh, kw, stride, ho, wo):
    """The per-channel loop _col2im_add replaced, for one C x Hp x Wp image."""
    gxp = np.zeros(shape, dtype=np.float64)
    row = 0
    for ch in range(shape[0]):
        for a in range(kh):
            for b in range(kw):
                gxp[ch, a : a + stride * ho : stride, b : b + stride * wo : stride] += (
                    gcols[row].reshape(ho, wo))
                row += 1
    return gxp


# (channels, padded side, kernel, stride): the default stages' padded inputs and odd cases
IM2COL_CASES = [(3, 34, 3, 1), (8, 18, 3, 1), (16, 10, 3, 1), (3, 9, 3, 2), (2, 8, 2, 2),
                (4, 7, 3, 3), (1, 5, 5, 1)]
# (channels, padded height, padded width, kernel, stride)
NON_SQUARE_CASES = [(3, 9, 14, 3, 2), (2, 13, 6, 3, 1), (3, 11, 8, 3, 2), (2, 5, 12, 2, 3)]


class RecordingTape(Tape):
    """A tape that keeps every buffer it hands out, in order."""

    def __init__(self):
        super().__init__()
        self.taken = []

    def take(self, shape):
        self.taken.append(buf := super().take(shape))
        return buf


def kept_columns(x, k, stride, pad):
    """The B x (C*k*k) x (ho*wo) columns a taped conv2d of x keeps for backward."""
    c = x.shape[1]
    with RecordingTape() as tape:
        ad.conv2d(Tensor(x, needs_grad=False), Tensor(np.ones((2, c, k, k))), Tensor(np.zeros(2)),
                  stride=stride, pad=pad)
    [cols] = [b for b in tape.taken if b.shape[1] == c * k * k]  # not the 2-kernel output
    return cols


def check_gather_and_scatter(c, hp, wp, k, stride):
    rng = np.random.default_rng(c * hp * wp + k)
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    xp = rng.standard_normal((2, c, hp, wp))
    cols = kept_columns(xp, k, stride, 0)
    gcols = rng.standard_normal(cols.shape)
    gxp = ad._col2im_add(gcols, xp.shape, k, k, stride, ho, wo)
    for n in range(2):
        assert np.array_equal(cols[n], loop_im2col(xp[n], k, k, stride, ho, wo))
        assert np.array_equal(gxp[n], loop_col2im_add(gcols[n], xp.shape[1:], k, k, stride, ho, wo))


class TestIm2col:
    """The columns conv2d unfolds each image into, and their adjoint scatter,
    against the per-channel loops."""

    @pytest.mark.parametrize("c, side, k, stride", IM2COL_CASES)
    def test_gather_and_scatter_equal_the_loops(self, c, side, k, stride):
        check_gather_and_scatter(c, side, side, k, stride)

    @pytest.mark.parametrize("c, hp, wp, k, stride", NON_SQUARE_CASES)
    def test_non_square_gather_and_scatter_equal_the_loops(self, c, hp, wp, k, stride):
        check_gather_and_scatter(c, hp, wp, k, stride)

    def test_gather_reads_a_non_contiguous_input(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 9, 16))[:, :, :, ::2]
        cols = kept_columns(x, 3, 2, 0)
        for n in range(2):
            assert np.array_equal(cols[n], loop_im2col(x[n], 3, 3, 2, 4, 3))

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_zero_pad_equals_np_pad(self, pad):
        x = np.random.default_rng(pad).standard_normal((2, 3, 5, 8))
        x[0, 0, 0, 0] = -0.0
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ho, wo = xp.shape[2] - 2, xp.shape[3] - 2
        cols = kept_columns(x, 3, 1, pad)
        for n in range(2):
            want = loop_im2col(xp[n], 3, 3, 1, ho, wo)
            assert np.array_equal(cols[n].view(np.uint64), want.view(np.uint64))


def conv_oracle(x, k, b, g, stride, pad):
    """Per-image loops: conv2d's output and its x, kernel and bias gradients for the
    upstream gradient g, each image on its own and the weight gradients summed
    over the images in order."""
    nk, c, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (xp.shape[2] - kh) // stride + 1, (xp.shape[3] - kw) // stride + 1
    kmat = k.reshape(nk, -1)
    ys, gxs, gk, gb = [], [], 0.0, 0.0
    for n in range(len(x)):
        cols = loop_im2col(xp[n], kh, kw, stride, ho, wo)
        gflat = g[n].reshape(nk, -1)
        ys.append((kmat @ cols + b[:, None]).reshape(nk, ho, wo))
        gk = gk + gflat @ cols.T
        gb = gb + gflat.sum(axis=1)
        gxp = loop_col2im_add(kmat.T @ gflat, xp.shape[1:], kh, kw, stride, ho, wo)
        gxs.append(gxp[:, pad : pad + x.shape[2], pad : pad + x.shape[3]])
    return np.stack(ys), np.stack(gxs), gk.reshape(k.shape), gb


def run_conv(x, k, b, g, stride, pad):
    """conv2d's output, with g fed to its backward as the upstream gradient."""
    with Tape() as tape:
        y = ad.conv2d(x, k, b, stride=stride, pad=pad)
    [(_, bwd)] = tape._records
    bwd((g,))
    return y


class TestConvPaddingAndNoGrad:
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_non_square_batch_equals_the_loops(self, pad, stride):
        rng = np.random.default_rng(10 * pad + stride)
        x = Tensor(rng.standard_normal((2, 3, 7, 10)))
        k = Tensor(rng.standard_normal((4, 3, 3, 3)))
        b = Tensor(rng.standard_normal(4))
        ho, wo = (7 + 2 * pad - 3) // stride + 1, (10 + 2 * pad - 3) // stride + 1
        g = rng.standard_normal((2, 4, ho, wo))
        y = run_conv(x, k, b, g, stride, pad)
        want = conv_oracle(x.data, k.data, b.data, g, stride, pad)
        for got, ref in zip((y.data, x.grad, k.grad, b.grad), want):
            assert got.shape == ref.shape and np.array_equal(got, ref)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_no_grad_input_keeps_weight_gradients_and_skips_the_scatter(self, pad, monkeypatch):
        scatters = []
        col2im = ad._col2im_add
        monkeypatch.setattr(ad, "_col2im_add", lambda *a: scatters.append(1) or col2im(*a))
        rng = np.random.default_rng(pad)
        data = rng.standard_normal((3, 2, 8, 9))
        kd, bd = rng.standard_normal((5, 2, 3, 3)), rng.standard_normal(5)
        g = rng.standard_normal((3, 5, 8 + 2 * pad - 2, 9 + 2 * pad - 2))
        grads = {}
        for needs_grad in (True, False):
            x, k, b = Tensor(data, needs_grad=needs_grad), Tensor(kd), Tensor(bd)
            y = run_conv(x, k, b, g, 1, pad)
            grads[needs_grad] = (y.data, k.grad, b.grad)
            assert (x.grad is None) == (not needs_grad)
        assert scatters == [1]  # only for the input that needs a gradient
        for got, ref in zip(grads[False], grads[True]):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_no_grad_tensor_never_holds_a_gradient(self):
        x = Tensor(np.array([[-1.0, 2.0]]), needs_grad=False)
        with Tape() as tape:
            loss = sum_all(ad.average(x, x))
        backward(tape, loss)
        assert x.grad is None
        x.accumulate(np.ones((1, 2)))
        assert x.grad is None


class TestUntapedConv:
    """With no tape open, conv2d streams its images through one column buffer."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_untaped_equals_taped_bit_for_bit(self, channels, pad, stride):
        rng = np.random.default_rng(100 * channels + 10 * pad + stride)
        k = Tensor(rng.standard_normal((4, channels, 3, 3)))
        b = Tensor(rng.standard_normal(4))
        for n in range(1, 10):
            x = Tensor(rng.standard_normal((n, channels, 7, 9)), needs_grad=False)
            x.data[0, 0, 0, 0] = -0.0
            untaped = ad.conv2d(x, k, b, stride=stride, pad=pad)
            with Tape() as tape:
                taped = ad.conv2d(x, k, b, stride=stride, pad=pad)
            assert len(tape) == 1 and untaped.data.shape == taped.data.shape
            assert np.array_equal(untaped.data.view(np.uint64), taped.data.view(np.uint64))

    def test_untaped_batch_holds_one_images_columns(self):
        """An untaped batch-8 conv at the default stage-0 shape allocates its output,
        one padded image and one image's column buffer, and nothing per image."""
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((8, 3, 32, 32)), needs_grad=False)
        k, b = Tensor(rng.standard_normal((8, 3, 3, 3))), Tensor(rng.standard_normal(8))
        ad.conv2d(x, k, b, pad=1)  # warm up numpy's caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ad.conv2d(x, k, b, pad=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        one_image = 3 * 34 * 34 * 8 + 27 * 32 * 32 * 8  # padded input and its columns
        assert peak <= y.data.nbytes + one_image + 4096
        assert one_image < 8 * 27 * 32 * 32 * 8  # less than the batch's columns alone


def single_image_oracle(x, k, kb, w, b, target, stride, pad):
    """Forward values and gradients of conv -> relu -> maxpool(2) -> GAP -> linear ->
    cross-entropy for one CHW image, as the single-image ops computed them."""
    c, h, wd = x.shape
    nk, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    cols = loop_im2col(xp, kh, kw, stride, ho, wo)
    kmat = k.reshape(nk, -1)
    conv = (kmat @ cols + kb[:, None]).reshape(nk, ho, wo)
    act = np.maximum(conv, 0.0)
    po, qo = (ho - 2) // 2 + 1, (wo - 2) // 2 + 1
    stack = np.stack([act[:, a : a + 2 * po : 2, bb : bb + 2 * qo : 2]
                      for a in range(2) for bb in range(2)])
    arg, pool = stack.argmax(axis=0), stack.max(axis=0)
    gap = pool.mean(axis=(1, 2))
    logits = w @ gap + b
    logp = ad.log_softmax_np(logits)
    loss = -logp[target]
    glog = np.exp(logp)
    glog[target] -= 1.0
    ggap = w.T @ glog
    gpool = np.repeat(ggap[:, None, None], po, axis=1).repeat(qo, axis=2) / (po * qo)
    gact = np.zeros_like(act)
    i = 0
    for a in range(2):
        for bb in range(2):
            gact[:, a : a + 2 * po : 2, bb : bb + 2 * qo : 2] += gpool * (arg == i)
            i += 1
    gflat = (gact * (conv > 0.0)).reshape(nk, ho * wo)
    gxp = loop_col2im_add(kmat.T @ gflat, xp.shape, kh, kw, stride, ho, wo)
    grads = {"x": gxp[:, pad : pad + h, pad : pad + wd], "k": (gflat @ cols.T).reshape(k.shape),
             "kb": gflat.sum(axis=1), "w": np.outer(glog, gap), "b": glog}
    return [conv, pool, gap, logits, np.array(loss)], grads


def encoder_chain(x, params, target, stride):
    t = ad.conv2d(x, params["k"], params["kb"], stride, 1)
    convolved = t
    t = ad.maxpool2d(t, 2)
    pooled = t
    gap = ad.global_avg_pool(t)
    logits = ad.linear(gap, params["w"], params["b"])
    return [convolved, pooled, gap, logits, ad.softmax_cross_entropy(logits, target)]


def chain_params(rng, c=2, k=3):
    return {
        "k": Tensor(rng.standard_normal((k, c, 3, 3)), name="k"),
        "kb": Tensor(rng.standard_normal(k) * 0.1, name="kb"),
        "w": Tensor(rng.standard_normal((4, k)), name="w"),
        "b": Tensor(rng.standard_normal(4) * 0.1, name="b"),
    }


class TestBatchedOps:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_single_image_ops_are_unchanged(self, seed, stride):
        """A batch of one gives the single-image values and gradients bit for bit."""
        rng = np.random.default_rng(seed)
        params = chain_params(rng)
        x = Tensor(rng.standard_normal((1, 2, 9, 9)), name="x")
        with Tape() as tape:
            outs = encoder_chain(x, params, [seed % 4], stride)
        backward(tape, outs[-1])
        want, grads = single_image_oracle(x.data[0], *(params[n].data for n in ("k", "kb", "w", "b")),
                                          seed % 4, stride, 1)
        for got, ref in zip(outs[:-1], want[:-1]):
            assert got.data.shape == (1,) + ref.shape and np.array_equal(got.data[0], ref)
        assert np.array_equal(outs[-1].data, want[-1])
        for name, ref in grads.items():
            got = x.grad[0] if name == "x" else params[name].grad
            assert np.array_equal(got, ref), name

    @pytest.mark.parametrize("stride", [1, 2])
    def test_batch_rows_equal_single_images(self, stride):
        rng = np.random.default_rng(stride)
        params = chain_params(rng)
        x = rng.standard_normal((3, 2, 8, 8))
        batch = encoder_chain(Tensor(x), params, [0, 3, 1], stride)
        for n in range(3):
            alone = encoder_chain(Tensor(x[n : n + 1]), params, [0], stride)
            for got, ref in zip(batch[:-1], alone[:-1]):
                assert np.array_equal(got.data[n], ref.data[0])

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_gradients_match_finite_differences(self, seed, stride):
        """NCHW conv2d (B = 3), maxpool2d, GAP, B x D linear and B x C cross-entropy."""
        rng = np.random.default_rng(10 + seed)
        params = chain_params(rng)
        params["x"] = Tensor(rng.standard_normal((3, 2, 7, 7)), name="x")
        targets = [seed % 4, (seed + 1) % 4, 3]

        rep = finite_difference_check(
            lambda: encoder_chain(params["x"], params, targets, stride)[-1], params)
        assert rep.passed, rep.blocks
        assert rep.max_rel_error < 1e-4

    def test_batch_cross_entropy_is_the_mean(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((5, 3))
        ids = [0, 2, 1, 1, 0]
        got = float(ad.softmax_cross_entropy(Tensor(logits), ids).data)
        want = np.mean([float(ad.softmax_cross_entropy(Tensor(row[None]), [t]).data)
                        for row, t in zip(logits, ids)])
        assert abs(got - want) < 1e-15

    def test_batch_shape_errors(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0])
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            ad.conv2d(Tensor(np.zeros((2, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))),
                      Tensor(np.zeros(1)))

    def test_single_item_inputs_rejected(self):
        """The ops take batches only: a CHW image, a D vector or a lone class id is refused."""
        kernels, bias = Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros(1))
        for op in (lambda x: ad.conv2d(x, kernels, bias), lambda x: ad.maxpool2d(x, 2),
                   ad.global_avg_pool):
            with pytest.raises(ShapeError):
                op(Tensor(np.zeros((2, 4, 4))))
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):
            ad.softmax_cross_entropy(Tensor(np.zeros(3)), [0])
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(Tensor(np.zeros((1, 3))), 0)
        dec = DecoderParams.init(Xoshiro256(1), 6, 3, 4, 4, False)
        steps = np.full((1, 2), 4)
        with pytest.raises(ShapeError):
            ad.lstm_sequence_xent(Tensor(np.zeros(3)), steps, steps, np.ones((1, 2)),
                                  dec.embedding, dec.cell, dec.out_w, dec.out_b)


# ---------------------------------------------------------------------------
# the folded ops against the separate ops they replace

def weighted_sum(x: Tensor, g: np.ndarray) -> Tensor:
    """sum(x * g) as one taped op, whose backward hands x exactly g."""
    out = Tensor((x.data * g).sum())

    def bwd(gs):
        x.accumulate(g * float(gs[0]))

    ad._emit((out,), bwd)
    return out


def pool_input(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Random maps whose first 2 x 2 windows hold the edge cases: every value
    negative, a max of exactly 0 reached twice, all zeros, a positive max tied
    three times, and a positive max tied with a zero."""
    x = np.random.default_rng(seed).standard_normal(shape)
    x[0, 0, :2, :2] = [[-1.0, -2.0], [-0.5, -3.0]]
    x[0, 1, :2, :2] = [[0.0, -1.0], [0.0, -2.0]]
    x[0, 2, :2, :2] = 0.0
    x[1, 0, :2, :2] = [[2.0, 2.0], [1.0, 2.0]]
    x[1, 1, :2, :2] = [[0.0, 0.5], [0.0, 0.5]]
    return x


class TestFoldedOps:
    """maxpool2d and average give, bit for bit, the values and gradients of the
    relu -> unrectified max-pool and add -> scale paths they replace."""

    @pytest.mark.parametrize("shape, window", [((2, 3, 4, 6), 2), ((2, 3, 7, 7), 3),
                                               ((2, 3, 6, 6), 1)])
    def test_maxpool2d_equals_relu_then_pool(self, shape, window):
        x = pool_input(sum(shape) + window, shape)
        out_shape = shape[:2] + (shape[2] // window, shape[3] // window)
        g = np.random.default_rng(window).standard_normal(out_shape)
        g[0, 0, 0, 0], g[1, 1, 0, 0] = -0.0, 0.0
        runs = {}
        for name, op in (("folded", lambda t: ad.maxpool2d(t, window)),
                         ("separate", lambda t: maxpool2d_unrectified(relu(t), window))):
            t = Tensor(x.copy())
            with Tape() as tape:
                out = op(t)
                loss = weighted_sum(out, g)
            backward(tape, loss)
            runs[name] = (out.data.tobytes(), t.grad.tobytes())
        assert runs["folded"] == runs["separate"]

    def test_encoder_steps_equal_the_three_op_path(self):
        config = EncoderConfig(num_classes=3, image_size=12, stages=((4, 3, 1, 2), (6, 3, 1, 2)))
        rng = np.random.default_rng(5)
        batches = [rng.uniform(-1, 1, (4, 3, 12, 12)) for _ in range(3)]
        labels = [rng.integers(0, 3, 4) for _ in range(3)]
        runs, zero_windows = {}, 0
        for name in ("folded", "three ops"):
            enc = VisionEncoder.init(config, Xoshiro256(9))
            params = enc.parameters()
            runs[name] = seen = []
            for step in range(3):
                zero_grads(params)
                with Tape() as tape:
                    if name == "folded":
                        out = enc.forward(batches[step])
                        maps, logits = out.feature_maps, out.logits
                    else:
                        maps, _, logits = encoder_forward_three_ops(enc, batches[step])
                    loss = ad.softmax_cross_entropy(logits, labels[step])
                backward(tape, loss)
                zero_windows += int((maps.data == 0.0).sum())
                seen += [maps.data.tobytes(), loss.data.tobytes(),
                         *(p.grad.tobytes() for p in params)]
                sgd_step(params, 0.5)
        assert runs["folded"] == runs["three ops"]
        assert zero_windows  # some windows had no positive value

    def test_fusion_steps_equal_add_then_scale(self):
        kw_vocab = build_vocabulary([["a"], ["b"], ["c"]])
        rng = np.random.default_rng(6)
        feats = [rng.uniform(-1, 1, (3, 5)) for _ in range(3)]
        feats[0][0, :2] = 0.0
        bags = np.stack([keyword_multihot(k, kw_vocab) for k in (["a"], ["b", "c"], [])])
        targets = [[START, 4, 5, END], [START, END], [START, 3, END]]
        runs = {}
        for name in ("folded", "add then scale"):
            dec = DecoderParams.init(Xoshiro256(4), 6, 5, 4, kw_vocab.size, True)
            params = dec.parameters()
            runs[name] = seen = []
            for step in range(3):
                zero_grads(params)
                image = Tensor(feats[step].copy())
                with Tape() as tape:
                    if name == "folded":
                        fused = dec.fuse(image, bags)
                    else:
                        fused = fuse_three_ops(dec, image, bags)
                    loss = caption_loss(fused, targets, dec)
                backward(tape, loss)
                seen += [fused.data.tobytes(), loss.data.tobytes(), image.grad.tobytes(),
                         *(p.grad.tobytes() for p in params)]
                sgd_step(params, 0.5)
        assert runs["folded"] == runs["add then scale"]

    def test_average_of_a_frozen_input_builds_no_gradient_for_it(self):
        a, b = Tensor(np.ones((2, 3)), needs_grad=False), Tensor(np.full((2, 3), 3.0))
        with Tape() as tape:
            out = ad.average(a, b)
            loss = sum_all(out)
        backward(tape, loss)
        assert np.array_equal(out.data, np.full((2, 3), 2.0))
        assert a.grad is None and np.array_equal(b.grad, np.full((2, 3), 0.5))

    def test_average_shape_mismatch(self):
        with pytest.raises(ShapeError, match="average"):
            ad.average(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
