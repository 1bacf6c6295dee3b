"""Autograd engine tests: gradients, hooks, callbacks, graph shapes."""

import numpy as np
import pytest

import repro
from repro import ops
from repro.autograd import engine, no_grad, queue_callback
from repro.cuda.device import Device, cpu_device
from repro.nn import functional as F
from repro.ops.shape import narrow_along
from tests.conftest import gradcheck


class TestElementwiseGradients:
    def test_add_broadcast(self):
        gradcheck(
            ops.add,
            [np.random.rand(3, 4).astype(np.float32), np.random.rand(4).astype(np.float32)],
            lambda a, b: (a + b).sum(),
        )

    def test_sub(self):
        gradcheck(
            ops.sub,
            [np.random.rand(3).astype(np.float32), np.random.rand(3).astype(np.float32)],
            lambda a, b: (a - b).sum(),
        )

    def test_mul_broadcast(self):
        gradcheck(
            ops.mul,
            [np.random.rand(2, 3).astype(np.float32), np.random.rand(1, 3).astype(np.float32)],
            lambda a, b: (a * b).sum(),
        )

    def test_div(self):
        gradcheck(
            ops.div,
            [np.random.rand(3).astype(np.float32), np.random.rand(3).astype(np.float32) + 1.0],
            lambda a, b: (a / b).sum(),
        )

    def test_pow(self):
        gradcheck(
            lambda a: ops.pow(a, 3.0),
            [np.random.rand(4).astype(np.float32) + 0.5],
            lambda a: (a**3.0).sum(),
        )

    def test_exp_log_sqrt_tanh_sigmoid(self):
        x = np.random.rand(5).astype(np.float32) + 0.5
        gradcheck(ops.exp, [x], lambda a: np.exp(a).sum())
        gradcheck(ops.log, [x], lambda a: np.log(a).sum())
        gradcheck(ops.sqrt, [x], lambda a: np.sqrt(a).sum())
        gradcheck(ops.tanh, [x], lambda a: np.tanh(a).sum())
        gradcheck(ops.sigmoid, [x], lambda a: (1 / (1 + np.exp(-a))).sum())

    def test_relu_gelu(self):
        x = (np.random.rand(6).astype(np.float32) - 0.5) * 2
        x = x[np.abs(x) > 0.05]  # keep away from the ReLU kink
        gradcheck(ops.relu, [x], lambda a: np.maximum(a, 0).sum())
        c = np.sqrt(2 / np.pi)
        gradcheck(
            ops.gelu,
            [x],
            lambda a: (0.5 * a * (1 + np.tanh(c * (a + 0.044715 * a**3)))).sum(),
        )

    def test_abs_neg(self):
        x = np.array([0.5, -1.5, 2.0], dtype=np.float32)
        gradcheck(ops.abs, [x], lambda a: np.abs(a).sum())
        gradcheck(ops.neg, [x], lambda a: (-a).sum())

    def test_where_maximum(self):
        a = np.random.rand(4).astype(np.float32)
        b = np.random.rand(4).astype(np.float32) + 2.0
        gradcheck(ops.maximum, [a, b], lambda x, y: np.maximum(x, y).sum())


class TestMatmulGradients:
    def test_matmul_2d(self):
        gradcheck(
            ops.matmul,
            [np.random.rand(3, 4).astype(np.float32), np.random.rand(4, 2).astype(np.float32)],
            lambda a, b: (a @ b).sum(),
        )

    def test_matmul_batched(self):
        gradcheck(
            ops.matmul,
            [np.random.rand(2, 3, 4).astype(np.float32), np.random.rand(2, 4, 2).astype(np.float32)],
            lambda a, b: (a @ b).sum(),
        )

    def test_matmul_broadcast_batch(self):
        gradcheck(
            ops.matmul,
            [np.random.rand(2, 3, 4).astype(np.float32), np.random.rand(4, 5).astype(np.float32)],
            lambda a, b: (a @ b).sum(),
        )

    def test_linear(self):
        x = np.random.rand(5, 4).astype(np.float32)
        w = np.random.rand(3, 4).astype(np.float32)
        b = np.random.rand(3).astype(np.float32)
        gradcheck(ops.linear, [x, w, b], lambda x_, w_, b_: (x_ @ w_.T + b_).sum())

    def test_linear_no_bias(self):
        x = np.random.rand(5, 4).astype(np.float32)
        w = np.random.rand(3, 4).astype(np.float32)
        gradcheck(
            lambda x_, w_: ops.linear(x_, w_, None),
            [x, w],
            lambda x_, w_: (x_ @ w_.T).sum(),
        )


class TestReductionAndShapeGradients:
    def test_sum_dims(self):
        x = np.random.rand(3, 4).astype(np.float32)
        gradcheck(lambda a: ops.sum(a, 0), [x], lambda a: a.sum(0).sum())
        gradcheck(lambda a: ops.sum(a, (0, 1)), [x], lambda a: a.sum())

    def test_mean(self):
        x = np.random.rand(3, 4).astype(np.float32)
        gradcheck(lambda a: ops.mean(a, 1), [x], lambda a: a.mean(1).sum())

    def test_max(self):
        x = np.random.rand(7).astype(np.float32)
        gradcheck(ops.max, [x], lambda a: a.max())

    def test_view_split_cat(self):
        x = np.random.rand(6).astype(np.float32)

        def op(a):
            p1, p2 = ops.split(a, [2, 4])
            return ops.cat([ops.mul(p1, p1), p2], 0)

        gradcheck(op, [x], lambda a: (a[:2] ** 2).sum() + a[2:].sum())

    def test_transpose_grad(self):
        x = np.random.rand(3, 4).astype(np.float32)
        gradcheck(
            lambda a: ops.mul(ops.transpose(a, 0, 1), ops.transpose(a, 0, 1)),
            [x],
            lambda a: (a.T * a.T).sum(),
        )

    def test_softmax_logsoftmax(self):
        x = np.random.rand(2, 5).astype(np.float32)
        gradcheck(
            lambda a: ops.mul(ops.softmax(a, -1), ops.softmax(a, -1)),
            [x],
            lambda a: ((np.exp(a) / np.exp(a).sum(-1, keepdims=True)) ** 2).sum(),
        )

    def test_layer_norm(self):
        x = np.random.rand(4, 6).astype(np.float32)
        w = np.random.rand(6).astype(np.float32)
        b = np.random.rand(6).astype(np.float32)

        def ref(x_, w_, b_):
            mu = x_.mean(-1, keepdims=True)
            var = x_.var(-1, keepdims=True)
            return (((x_ - mu) / np.sqrt(var + 1e-5)) * w_ + b_).sum()

        gradcheck(lambda a, w_, b_: ops.layer_norm(a, w_, b_), [x, w, b], ref, atol=5e-3)

    def test_embedding_grad(self):
        w = np.random.rand(10, 4).astype(np.float32)
        idx = repro.tensor(np.array([1, 3, 3, 7]))
        wt = repro.tensor(w).requires_grad_()
        out = ops.embedding(wt, idx)
        out.sum().backward()
        expected = np.zeros_like(w)
        np.add.at(expected, [1, 3, 3, 7], 1.0)
        np.testing.assert_allclose(wt.grad.numpy(), expected)

    def test_conv2d_grad(self):
        x = np.random.rand(2, 3, 5, 5).astype(np.float32)
        w = np.random.rand(4, 3, 3, 3).astype(np.float32)
        b = np.random.rand(4).astype(np.float32)

        def ref(x_, w_, b_):
            from repro.ops.conv import _im2col

            cols = _im2col(x_, 3, 3, 1, 1)
            return (cols @ w_.reshape(4, -1).T + b_).sum()

        gradcheck(
            lambda x_, w_, b_: ops.conv2d(x_, w_, b_, 1, 1), [x, w, b], ref, atol=5e-3
        )


class TestCopyGradients:
    """Backwards of the copying ops, which no model path differentiates."""

    def test_narrow_copy_off_dim0(self):
        x = np.random.rand(3, 5).astype(np.float32)

        def op(a):
            part = narrow_along(a, 1, 1, 3)  # the copying narrow
            return ops.mul(part, part)

        gradcheck(op, [x], lambda a: (a[:, 1:4] ** 2).sum())

    def test_clone(self):
        x = np.random.rand(2, 3).astype(np.float32)
        gradcheck(lambda a: ops.mul(ops.clone(a), a), [x], lambda a: (a * a).sum())

    def test_to_device_and_back(self):
        x = np.random.rand(4).astype(np.float32)
        gpu = Device("sim_gpu")

        def op(a):
            on_gpu = ops.to_device(a, gpu)
            return ops.to_device(ops.mul(on_gpu, on_gpu), cpu_device())

        gradcheck(op, [x], lambda a: (a * a).sum())


class TestEngineBehavior:
    def test_grad_accumulates_across_backwards(self):
        x = repro.randn(3, requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.numpy().copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad.numpy(), 2 * first, rtol=1e-5)

    def test_diamond_graph(self):
        x = repro.tensor(np.array([2.0])).requires_grad_()
        a = x * 3.0
        out = a * a  # d/dx (3x)^2 = 18x = 36
        out.backward()
        np.testing.assert_allclose(x.grad.numpy(), [36.0], rtol=1e-5)

    def test_shared_input_two_consumers(self):
        x = repro.tensor(np.array([1.0, 2.0])).requires_grad_()
        out = (x * 2.0).sum() + (x * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(x.grad.numpy(), [5.0, 5.0])

    def test_unused_split_output_gets_zero(self):
        x = repro.randn(6, requires_grad=True)
        used, unused = x.split([2, 4])
        used.sum().backward()
        np.testing.assert_allclose(x.grad.numpy()[2:], np.zeros(4))
        np.testing.assert_allclose(x.grad.numpy()[:2], np.ones(2))

    def test_backward_non_scalar_requires_gradient(self):
        x = repro.randn(3, requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_with_explicit_gradient(self):
        x = repro.randn(3, requires_grad=True)
        (x * 2.0).backward(repro.ones(3))
        np.testing.assert_allclose(x.grad.numpy(), [2.0] * 3)

    def test_no_grad_blocks_graph(self):
        x = repro.randn(3, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y.grad_fn is None
        assert not y.requires_grad

    def test_retain_graph_allows_second_backward(self):
        x = repro.randn(3, requires_grad=True)
        y = (x * x).sum()
        y.backward(retain_graph=True)
        y.backward()
        np.testing.assert_allclose(x.grad.numpy(), 4 * x.numpy(), rtol=1e-5)

    def test_saved_tensors_released_after_backward(self):
        x = repro.randn(3, requires_grad=True)
        y = x * x
        node = y.grad_fn
        y.sum().backward()
        assert node.ctx.saved_tensors == ()

    def test_engine_grad_function(self):
        x = repro.randn(4, requires_grad=True)
        out = (x * x).sum()
        (grad_x,) = engine.grad([out], [x])
        np.testing.assert_allclose(grad_x.numpy(), 2 * x.numpy(), rtol=1e-5)
        assert x.grad is None  # stashed and restored


class TestHooks:
    def test_tensor_hook_fires(self):
        x = repro.randn(3, requires_grad=True)
        y = x * 2.0
        seen = []
        y.register_hook(lambda g: seen.append(g.numpy().copy()))
        y.sum().backward()
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], np.ones(3))

    def test_tensor_hook_can_replace_grad(self):
        x = repro.randn(3, requires_grad=True)
        y = x * 1.0
        y.register_hook(lambda g: g * 10.0)
        y.sum().backward()
        np.testing.assert_allclose(x.grad.numpy(), [10.0] * 3)

    def test_hook_registered_after_forward(self):
        # The FSDP pattern: hooks installed on outputs post-forward.
        x = repro.randn(2, requires_grad=True)
        y = x * 2.0
        z = y.sum()
        called = []
        y.register_hook(lambda g: called.append(True))
        z.backward()
        assert called == [True]

    def test_hook_removal(self):
        x = repro.randn(2, requires_grad=True)
        y = x * 2.0
        called = []
        handle = y.register_hook(lambda g: called.append(True))
        handle.remove()
        y.sum().backward()
        assert called == []

    def test_leaf_hook_fires(self):
        x = repro.randn(2, requires_grad=True)
        seen = []
        x.register_hook(lambda g: seen.append(g.numpy().copy()))
        (x * 3.0).sum().backward()
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], [3.0, 3.0])

    def test_post_accumulate_grad_hook(self):
        x = repro.randn(2, requires_grad=True)
        events = []
        x.register_post_accumulate_grad_hook(lambda t: events.append(t.grad.numpy().copy()))
        (x * 2.0).sum().backward()
        assert len(events) == 1
        np.testing.assert_allclose(events[0], [2.0, 2.0])

    def test_post_accumulate_hook_rejects_nonleaf(self):
        x = repro.randn(2, requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.register_post_accumulate_grad_hook(lambda t: None)

    def test_queue_callback_runs_at_end(self):
        x = repro.randn(2, requires_grad=True)
        y = x * 2.0
        order = []

        def hook(grad):
            queue_callback(lambda: order.append("callback"))
            order.append("hook")

        y.register_hook(hook)
        y.sum().backward()
        assert order == ["hook", "callback"]

    def test_queue_callback_outside_backward_runs_now(self):
        ran = []
        queue_callback(lambda: ran.append(True))
        assert ran == [True]

    def test_pre_backward_hook_order_matches_reverse_forward(self):
        # Hooks on successive layer outputs fire in reverse order.
        x = repro.randn(2, requires_grad=True)
        a = x * 2.0
        b = a * 3.0
        order = []
        a.register_hook(lambda g: order.append("a"))
        b.register_hook(lambda g: order.append("b"))
        b.sum().backward()
        assert order == ["b", "a"]
