"""Unit tests for the Tensor class: factories, views, data-swap, in-place."""

import numpy as np
import pytest

import repro
from repro import dtypes, no_grad
from repro.cuda.device import Device, cpu_device, meta_device
from repro.tensor import use_device


class TestFactories:
    def test_zeros(self):
        t = repro.zeros(3, 4)
        assert t.shape == (3, 4)
        assert t.numel == 12
        np.testing.assert_array_equal(t.numpy(), np.zeros((3, 4)))

    def test_ones_and_full(self):
        np.testing.assert_array_equal(repro.ones(2, 2).numpy(), np.ones((2, 2)))
        np.testing.assert_array_equal(repro.full((2,), 3.5).numpy(), [3.5, 3.5])

    def test_scalar(self):
        t = repro.zeros()
        assert t.shape == ()
        assert t.numel == 1
        assert t.item() == 0.0

    def test_zeros_like_of_an_abstract_host_tensor_stays_abstract(self):
        """Host memory follows the tensor it mirrors: an abstract host
        tensor (an offloaded shard in a meta-mode run) gets an abstract
        zero-like, a real one gets real zeros."""
        abstract = repro.Tensor(
            repro.storage.Storage(cpu_device(), dtypes.float32, 6, materialize=False), (2, 3)
        )
        like = repro.zeros_like(abstract)
        assert like.shape == (2, 3) and like.device.is_cpu
        assert not like.is_materialized
        real = repro.zeros_like(repro.ones(2, 3))
        np.testing.assert_array_equal(real.numpy(), np.zeros((2, 3)))

    def test_zeros_like_on_a_simulated_gpu_keeps_its_fill_kernel(self):
        """On a simulated GPU the zero-fill is a kernel in the device log,
        materialized or not."""
        device = Device("sim_gpu", index=0)
        device.materialize_data = False
        source = repro.empty(4, device=device)
        before = device.kernels_launched
        like = repro.zeros_like(source)
        assert device.kernels_launched == before + 1
        assert not like.is_materialized

    def test_tensor_from_list(self):
        t = repro.tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.dtype is dtypes.float32
        assert t.shape == (2, 2)

    def test_tensor_int_dtype_inferred(self):
        t = repro.tensor(np.arange(5))
        assert t.dtype is dtypes.int64

    def test_randn_seeded(self):
        repro.manual_seed(5)
        a = repro.randn(8)
        repro.manual_seed(5)
        b = repro.randn(8)
        np.testing.assert_array_equal(a.numpy(), b.numpy())

    def test_arange(self):
        np.testing.assert_array_equal(repro.arange(4).numpy(), [0, 1, 2, 3])

    def test_like_factories(self):
        t = repro.randn(2, 3)
        assert repro.zeros_like(t).shape == (2, 3)
        assert repro.ones_like(t).dtype is t.dtype
        assert repro.empty_like(t).device is t.device

    def test_use_device_routes_factories(self):
        with use_device(meta_device()):
            t = repro.empty(4)
        assert t.is_meta
        t2 = repro.empty(4)
        assert not t2.is_meta


class TestViews:
    def test_view_shares_storage(self):
        t = repro.randn(6)
        v = t.view(2, 3)
        with no_grad():
            t.fill_(7.0)
        assert (v.numpy() == 7.0).all()

    def test_view_numel_mismatch(self):
        with pytest.raises(ValueError):
            repro.randn(6).view(4, 2)

    def test_view_minus_one(self):
        t = repro.randn(12)
        assert t.view(3, -1).shape == (3, 4)

    def test_split_is_view(self):
        t = repro.tensor(np.arange(10, dtype=np.float32))
        a, b = t.split([4, 6])
        np.testing.assert_array_equal(a.numpy(), np.arange(4))
        np.testing.assert_array_equal(b.numpy(), np.arange(4, 10))
        with no_grad():
            t.fill_(0.0)
        assert (a.numpy() == 0).all() and (b.numpy() == 0).all()

    def test_narrow(self):
        t = repro.tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        n = t.narrow(0, 1, 2)
        np.testing.assert_array_equal(n.numpy(), [[3, 4, 5], [6, 7, 8]])

    def test_narrow_out_of_range(self):
        with pytest.raises(ValueError):
            repro.randn(4).narrow(0, 3, 2)

    def test_getitem_int_and_slice(self):
        t = repro.tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        np.testing.assert_array_equal(t[1].numpy(), [3, 4, 5])
        np.testing.assert_array_equal(t[1:3].numpy(), [[3, 4, 5], [6, 7, 8]])

    def test_transpose_copy(self):
        t = repro.tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        np.testing.assert_array_equal(t.t().numpy(), t.numpy().T)

    def test_permute(self):
        t = repro.randn(2, 3, 4)
        assert t.permute(2, 0, 1).shape == (4, 2, 3)

    def test_unsqueeze_squeeze(self):
        t = repro.randn(3, 4)
        assert t.unsqueeze(0).shape == (1, 3, 4)
        assert t.unsqueeze(0).squeeze(0).shape == (3, 4)

    def test_cat(self):
        a, b = repro.ones(2, 3), repro.zeros(1, 3)
        c = repro.cat([a, b], 0)
        assert c.shape == (3, 3)
        np.testing.assert_array_equal(c.numpy()[:2], np.ones((2, 3)))

    def test_stack(self):
        a, b = repro.ones(3), repro.zeros(3)
        s = repro.stack([a, b])
        assert s.shape == (2, 3)


class TestDataSwap:
    def test_data_getter_detached_alias(self):
        t = repro.randn(4, requires_grad=True)
        alias = t.data
        assert not alias.requires_grad
        with no_grad():
            alias.fill_(2.0)
        assert (t.numpy() == 2.0).all()

    def test_data_setter_repoints(self):
        t = repro.randn(4, requires_grad=True)
        other = repro.zeros(8)
        t.data = other
        assert t.shape == (8,)
        assert t.requires_grad  # autograd flags survive the swap
        assert t._storage is other._storage

    def test_data_setter_changes_dtype(self):
        t = repro.randn(4)
        t.data = repro.zeros(4, dtype=dtypes.bfloat16)
        assert t.dtype is dtypes.bfloat16

    def test_data_setter_rejects_non_tensor(self):
        t = repro.randn(4)
        with pytest.raises(TypeError):
            t.data = np.zeros(4)


class TestInplace:
    def test_inplace_on_grad_tensor_raises(self):
        t = repro.randn(4, requires_grad=True)
        with pytest.raises(RuntimeError):
            t.add_(1.0)

    def test_inplace_allowed_under_no_grad(self):
        t = repro.randn(4, requires_grad=True)
        with no_grad():
            t.add_(1.0)

    def test_add_alpha(self):
        t = repro.zeros(3)
        with no_grad():
            t.add_(repro.ones(3), alpha=2.5)
        np.testing.assert_allclose(t.numpy(), [2.5] * 3)

    def test_mul_div(self):
        t = repro.full((3,), 8.0)
        with no_grad():
            t.mul_(0.5)
            t.div_(2.0)
        np.testing.assert_allclose(t.numpy(), [2.0] * 3)

    def test_copy_shape_mismatch(self):
        with pytest.raises(ValueError), no_grad():
            repro.zeros(3).copy_(repro.zeros(4))

    def test_copy_reshapes_same_numel(self):
        t = repro.zeros(2, 2)
        with no_grad():
            t.copy_(repro.tensor(np.arange(4, dtype=np.float32)))
        np.testing.assert_array_equal(t.numpy(), [[0, 1], [2, 3]])


class TestMisc:
    def test_bool_single_element(self):
        assert bool(repro.ones(1))
        assert not bool(repro.zeros(1))

    def test_bool_multi_element_raises(self):
        with pytest.raises(RuntimeError):
            bool(repro.ones(2))

    def test_len(self):
        assert len(repro.zeros(5, 2)) == 5
        with pytest.raises(TypeError):
            len(repro.zeros())

    def test_item_requires_single(self):
        with pytest.raises(ValueError):
            repro.zeros(2).item()

    def test_comparisons_return_bool_tensor(self):
        t = repro.tensor(np.array([1.0, 2.0, 3.0]))
        mask = t > 1.5
        assert mask.dtype is dtypes.bool_
        np.testing.assert_array_equal(mask.numpy(), [False, True, True])

    def test_norm(self):
        t = repro.tensor(np.array([3.0, 4.0]))
        assert abs(t.norm().item() - 5.0) < 1e-6

    def test_requires_grad_on_int_raises(self):
        with pytest.raises(RuntimeError):
            repro.tensor(np.arange(3)).requires_grad_()

    def test_dtype_casts(self):
        t = repro.randn(4)
        assert t.bfloat16().dtype is dtypes.bfloat16
        assert t.half().dtype is dtypes.float16
        assert t.bfloat16().float().dtype is dtypes.float32

    def test_abstract_tensor_has_no_data(self):
        device = Device("sim_gpu")
        device.materialize_data = False
        t = repro.empty(4, device=device)
        assert not t.is_materialized
        with pytest.raises(RuntimeError):
            t.numpy()

    def test_repr_smoke(self):
        assert "Tensor" in repr(repro.randn(2))
