"""Module system and layer numerics."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.autograd import no_grad
from repro.cuda.device import Device
from repro.nn import functional as F


class TestModuleRegistry:
    def test_parameter_registration(self):
        layer = nn.Linear(3, 4)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert names["weight"].shape == (4, 3)

    def test_submodule_registration(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        assert len(list(model.modules())) == 3
        assert len(list(model.children())) == 2

    def test_named_parameters_recursive_fqns(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.Sequential(nn.Linear(2, 2)))
        names = [n for n, _ in model.named_parameters()]
        assert "0.weight" in names
        assert "1.0.weight" in names

    def test_shared_parameter_deduplicated(self):
        shared = nn.Parameter(repro.randn(2, 2))
        m = nn.Module()
        m.register_parameter("a", shared)
        m.register_parameter("b", shared)
        assert len(list(m.parameters())) == 1

    def test_plain_tensor_assignment_to_param_name_raises(self):
        layer = nn.Linear(2, 2)
        with pytest.raises(TypeError):
            layer.weight = repro.randn(2, 2)

    def test_buffers(self):
        m = nn.Module()
        m.register_buffer("running", repro.zeros(3))
        assert "running" in dict(m.named_buffers())
        assert len(list(m.parameters())) == 0

    def test_get_submodule(self):
        model = nn.Sequential(nn.Sequential(nn.Linear(2, 2)))
        sub = model.get_submodule("0.0")
        assert isinstance(sub, nn.Linear)

    def test_delattr(self):
        layer = nn.Linear(2, 2)
        del layer.bias
        assert "bias" not in dict(layer.named_parameters())

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2))
        model.eval()
        assert not model[0].training
        model.train()
        assert model[0].training

    def test_zero_grad(self):
        layer = nn.Linear(2, 2)
        layer(repro.ones(1, 2)).sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_roundtrip(self):
        repro.manual_seed(0)
        a = nn.Linear(3, 3)
        b = nn.Linear(3, 3)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.numpy(), b.weight.numpy())

    def test_load_state_dict_strict(self):
        layer = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": repro.zeros(2, 2)})

    def test_num_parameters(self):
        assert nn.Linear(3, 4).num_parameters() == 16

    def test_apply(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.Linear(2, 2))
        with no_grad():
            model.apply(
                lambda m: m.weight.fill_(1.0) if isinstance(m, nn.Linear) else None
            )
        assert (model[0].weight.numpy() == 1.0).all()


class TestForwardHooks:
    def test_pre_hook_can_replace_args(self):
        layer = nn.Linear(2, 2)
        layer.register_forward_pre_hook(lambda m, args: (args[0] * 0.0,))
        out = layer(repro.ones(1, 2))
        expected = layer.bias.numpy()
        np.testing.assert_allclose(out.numpy()[0], expected, atol=1e-6)

    def test_post_hook_can_replace_output(self):
        layer = nn.Linear(2, 2)
        layer.register_forward_hook(lambda m, args, out: out * 0.0)
        out = layer(repro.ones(1, 2))
        assert (out.numpy() == 0).all()

    def test_hook_removal(self):
        layer = nn.Linear(2, 2)
        calls = []
        handle = layer.register_forward_hook(lambda m, a, o: calls.append(1))
        layer(repro.ones(1, 2))
        handle.remove()
        layer(repro.ones(1, 2))
        assert len(calls) == 1


class TestLayerNumerics:
    def test_linear_matches_numpy(self):
        layer = nn.Linear(4, 3)
        x = repro.randn(5, 4)
        expected = x.numpy() @ layer.weight.numpy().T + layer.bias.numpy()
        np.testing.assert_allclose(layer(x).numpy(), expected, atol=1e-5)

    def test_linear_batched_3d(self):
        layer = nn.Linear(4, 3)
        x = repro.randn(2, 5, 4)
        out = layer(x)
        assert out.shape == (2, 5, 3)

    def test_embedding_lookup(self):
        table = nn.Embedding(10, 4)
        idx = repro.tensor(np.array([[1, 2], [3, 1]]))
        out = table(idx)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out.numpy()[0, 0], table.weight.numpy()[1])

    def test_layernorm_normalizes(self):
        ln = nn.LayerNorm(8)
        x = repro.randn(4, 8) * 5.0 + 3.0
        out = ln(x).numpy()
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(-1), 1.0, atol=1e-2)

    def test_dropout_train_vs_eval(self):
        drop = nn.Dropout(0.5)
        x = repro.ones(1000)
        out = drop(x)
        kept = (out.numpy() != 0).mean()
        assert 0.3 < kept < 0.7
        drop.eval()
        np.testing.assert_array_equal(drop(x).numpy(), x.numpy())

    def test_dropout_scales_kept_values(self):
        drop = nn.Dropout(0.5)
        out = drop(repro.ones(100)).numpy()
        assert set(np.unique(out)).issubset({0.0, 2.0})

    def test_conv2d_matches_explicit(self):
        conv = nn.Conv2d(2, 3, 3, padding=1)
        x = repro.randn(1, 2, 5, 5)
        out = conv(x)
        assert out.shape == (1, 3, 5, 5)
        # Check one output position against the explicit convolution.
        xn, wn, bn = x.numpy(), conv.weight.numpy(), conv.bias.numpy()
        padded = np.pad(xn, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = (padded[0, :, 1:4, 1:4] * wn[0]).sum() + bn[0]
        np.testing.assert_allclose(out.numpy()[0, 0, 1, 1], expected, atol=1e-5)

    def test_conv2d_stride(self):
        conv = nn.Conv2d(1, 1, 2, stride=2, bias=False)
        x = repro.randn(1, 1, 6, 6)
        assert conv(x).shape == (1, 1, 3, 3)

    def test_batchnorm_train_normalizes(self):
        bn = nn.BatchNorm2d(4)
        x = repro.randn(8, 4, 3, 3) * 3.0 + 1.0
        out = bn(x).numpy()
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)

    def test_batchnorm_updates_running_stats(self):
        bn = nn.BatchNorm2d(2, momentum=1.0)
        x = repro.randn(16, 2, 4, 4) + 5.0
        bn(x)
        assert (bn.running_mean.numpy() > 3.0).all()

    def test_batchnorm_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        bn.eval()
        x = repro.randn(4, 2, 3, 3)
        out = bn(x)
        np.testing.assert_allclose(out.numpy(), x.numpy(), atol=1e-2)


class TestFunctional:
    def test_cross_entropy_matches_manual(self):
        logits = repro.randn(4, 6)
        targets = repro.tensor(np.array([0, 3, 5, 1]))
        loss = F.cross_entropy(logits, targets)
        ln = logits.numpy()
        probs = np.exp(ln) / np.exp(ln).sum(-1, keepdims=True)
        expected = -np.log(probs[np.arange(4), [0, 3, 5, 1]]).mean()
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-5)

    def test_cross_entropy_3d_logits(self):
        logits = repro.randn(2, 3, 6)
        targets = repro.tensor(np.zeros((2, 3), dtype=np.int64))
        loss = F.cross_entropy(logits, targets)
        assert loss.numel == 1

    def test_mse_loss(self):
        a, b = repro.ones(3), repro.zeros(3)
        assert abs(F.mse_loss(a, b).item() - 1.0) < 1e-6

    def test_softmax_rows_sum_to_one(self):
        out = F.softmax(repro.randn(5, 7), dim=-1).numpy()
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-5)

    def test_causal_mask_cached(self):
        m1 = F.causal_mask(8)
        m2 = F.causal_mask(8)
        assert m1 is m2
        assert m1.numpy()[0, 1] and not m1.numpy()[1, 0]

    def test_causal_mask_is_cached_per_device(self):
        """Each device gets masks of its own (a new device can reuse a
        dead one's ``id``), and filling one device's cache evicts no
        other device's mask."""
        first, second = Device("sim_gpu"), Device("sim_gpu")
        first.materialize_data = second.materialize_data = False
        mask = F.causal_mask(8, device=first)
        for seq_len in range(1, 100):
            assert F.causal_mask(seq_len, device=second).device is second
        assert F.causal_mask(8, device=first) is mask

    def test_attention_causality(self):
        q = repro.randn(1, 1, 4, 8)
        k = repro.randn(1, 1, 4, 8)
        v = repro.randn(1, 1, 4, 8)
        mask = F.causal_mask(4)
        out = F.scaled_dot_product_attention(q, k, v, attn_mask=mask)
        # First position can only attend to itself -> equals v[0].
        np.testing.assert_allclose(
            out.numpy()[0, 0, 0], v.numpy()[0, 0, 0], atol=1e-5
        )

    def test_attention_uniform_when_scores_equal(self):
        q = repro.zeros(1, 1, 3, 4)
        k = repro.zeros(1, 1, 3, 4)
        v = repro.randn(1, 1, 3, 4)
        out = F.scaled_dot_product_attention(q, k, v)
        np.testing.assert_allclose(
            out.numpy()[0, 0, 0], v.numpy()[0, 0].mean(0), atol=1e-5
        )
