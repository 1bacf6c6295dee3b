"""Coverage for ops not exercised elsewhere: cast, where, pad, getitem, matmul shapes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import dtypes, ops
from repro.cuda.device import Device
from repro.ops.matmul import matmul_flops
from tests.conftest import gradcheck


class TestCast:
    def test_cast_roundtrip_values(self):
        t = repro.tensor(np.array([1.5, -2.25], dtype=np.float32))
        out = ops.cast(t, dtypes.bfloat16)
        assert out.dtype is dtypes.bfloat16
        np.testing.assert_array_equal(out.numpy(), [1.5, -2.25])  # exact in bf16

    def test_cast_same_dtype_is_identity(self):
        t = repro.randn(3)
        assert ops.cast(t, dtypes.float32) is t

    def test_cast_grad_flows_back_in_source_dtype(self):
        t = repro.randn(3, requires_grad=True)
        out = ops.cast(t, dtypes.bfloat16)
        out.sum().backward()
        assert t.grad.dtype is dtypes.float32
        np.testing.assert_allclose(t.grad.numpy(), np.ones(3))

    def test_bf16_loses_precision(self):
        value = 1.0 + 2.0**-12
        t = repro.tensor(np.array([value], dtype=np.float32))
        out = ops.cast(t, dtypes.bfloat16)
        assert out.numpy()[0] == 1.0


class TestWhereMaskedFill:
    def test_where_values(self):
        cond = repro.tensor(np.array([True, False, True]))
        a = repro.ones(3)
        b = repro.zeros(3)
        np.testing.assert_array_equal(ops.where(cond, a, b).numpy(), [1, 0, 1])

    def test_where_grads_split_by_mask(self):
        cond = repro.tensor(np.array([True, False]))
        a = repro.randn(2, requires_grad=True)
        b = repro.randn(2, requires_grad=True)
        ops.where(cond, a, b).sum().backward()
        np.testing.assert_array_equal(a.grad.numpy(), [1, 0])
        np.testing.assert_array_equal(b.grad.numpy(), [0, 1])

    def test_masked_fill(self):
        mask = repro.tensor(np.array([False, True, False]))
        t = repro.ones(3, requires_grad=True)
        out = ops.masked_fill(t, mask, -9.0)
        np.testing.assert_array_equal(out.numpy(), [1, -9, 1])
        out.sum().backward()
        np.testing.assert_array_equal(t.grad.numpy(), [1, 0, 1])


class TestPadAndGetitem:
    def test_pad_right(self):
        t = repro.tensor(np.array([1.0, 2.0]))
        out = ops.pad_right(t, 3)
        np.testing.assert_array_equal(out.numpy(), [1, 2, 0, 0, 0])

    def test_pad_right_zero_is_identity(self):
        t = repro.randn(4)
        assert ops.pad_right(t, 0) is t

    def test_pad_right_validation(self):
        with pytest.raises(ValueError):
            ops.pad_right(repro.randn(2, 2), 1)
        with pytest.raises(ValueError):
            ops.pad_right(repro.randn(2), -1)

    def test_pad_grad_drops_padding(self):
        t = repro.randn(2, requires_grad=True)
        ops.pad_right(t, 2).sum().backward()
        np.testing.assert_array_equal(t.grad.numpy(), [1, 1])

    def test_getitem_fancy_index_grad(self):
        t = repro.randn(5, requires_grad=True)
        idx = np.array([0, 0, 3])
        out = ops.getitem(t, idx)
        out.sum().backward()
        np.testing.assert_array_equal(t.grad.numpy(), [2, 0, 0, 1, 0])

    def test_negative_index(self):
        t = repro.tensor(np.arange(4, dtype=np.float32))
        assert ops.getitem(t, -1).item() == 3.0


class TestExpandAndDropout:
    def test_expand_values(self):
        t = repro.tensor(np.array([[1.0], [2.0]]))
        out = ops.expand(t, (2, 3))
        np.testing.assert_array_equal(out.numpy(), [[1, 1, 1], [2, 2, 2]])

    def test_expand_grad_sums(self):
        t = repro.ones(1, 2, requires_grad=True)
        ops.expand(t, (3, 2)).sum().backward()
        np.testing.assert_array_equal(t.grad.numpy(), [[3, 3]])

    def test_dropout_identity_when_p_zero(self):
        t = repro.randn(8)
        assert ops.dropout(t, 0.0) is t

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            ops.dropout(repro.randn(2), 1.0)

    def test_dropout_grad_uses_same_mask(self):
        t = repro.ones(64, requires_grad=True)
        out = ops.dropout(t, 0.5)
        out.sum().backward()
        mask = out.numpy() != 0
        np.testing.assert_array_equal((t.grad.numpy() != 0), mask)


class TestMatmulShapes:
    def test_inner_dimension_mismatch_raises_on_the_forward_path(self):
        a = repro.tensor(np.ones((2, 3), np.float32))
        b = repro.tensor(np.ones((4, 5), np.float32))
        with pytest.raises(ValueError, match=r"matmul shape mismatch: \(2, 3\) @ \(4, 5\)"):
            ops.matmul(a, b)

    def test_broadcast_batch_sets_the_output_shape_and_the_launched_flops(self, monkeypatch):
        device, launched = Device("sim_gpu"), []
        a = ops.to_device(repro.tensor(np.ones((3, 1, 2, 4), np.float32)), device)
        b = ops.to_device(repro.tensor(np.ones((5, 4, 6), np.float32)), device)
        launch = device.launch

        def recording(cost, dtype, **kw):
            launched.append(cost.flops)
            return launch(cost, dtype, **kw)

        monkeypatch.setattr(device, "launch", recording)
        out = ops.matmul(a, b)
        assert out.shape == (3, 5, 2, 6)
        assert launched == [matmul_flops(a.shape, b.shape)] == [2.0 * 15 * 2 * 4 * 6]
        np.testing.assert_array_equal(out.numpy(), np.matmul(a.numpy(), b.numpy()))


class TestHypothesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, width=32), min_size=1, max_size=16),
    )
    def test_sum_matches_numpy(self, values):
        arr = np.array(values, dtype=np.float32)
        t = repro.tensor(arr)
        np.testing.assert_allclose(
            ops.sum(t).item(), arr.sum(dtype=np.float32), rtol=1e-4, atol=1e-4
        )

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        inner=st.integers(1, 6),
    )
    def test_matmul_matches_numpy(self, rows, cols, inner):
        a = np.random.rand(rows, inner).astype(np.float32)
        b = np.random.rand(inner, cols).astype(np.float32)
        out = ops.matmul(repro.tensor(a), repro.tensor(b))
        np.testing.assert_allclose(out.numpy(), a @ b, rtol=1e-5, atol=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(sections=st.lists(st.integers(1, 8), min_size=1, max_size=5))
    def test_split_cat_roundtrip(self, sections):
        total = sum(sections)
        t = repro.tensor(np.random.rand(total).astype(np.float32))
        pieces = ops.split(t, sections)
        back = ops.cat(list(pieces), 0)
        np.testing.assert_array_equal(back.numpy(), t.numpy())

    @settings(max_examples=20, deadline=None)
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 5)))
    def test_view_flatten_roundtrip(self, shape):
        t = repro.tensor(np.random.rand(*shape).astype(np.float32))
        assert np.array_equal(
            t.flatten().view(*shape).numpy(), t.numpy()
        )
