"""Seeded RNG: determinism, fork seeds, state save/restore."""

import numpy as np

import repro
from repro import random as rrandom


class TestSeeding:
    def test_manual_seed_reproduces(self):
        repro.manual_seed(42)
        a = repro.randn(16).numpy()
        repro.manual_seed(42)
        b = repro.randn(16).numpy()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        repro.manual_seed(1)
        a = repro.randn(16).numpy()
        repro.manual_seed(2)
        b = repro.randn(16).numpy()
        assert not np.array_equal(a, b)

    def test_sequential_draws_differ(self):
        repro.manual_seed(0)
        a = repro.randn(8).numpy()
        b = repro.randn(8).numpy()
        assert not np.array_equal(a, b)


class TestForkSeeds:
    def test_fork_seed_deterministic_sequence(self):
        repro.manual_seed(9)
        first = [rrandom.fork_seed() for _ in range(4)]
        repro.manual_seed(9)
        second = [rrandom.fork_seed() for _ in range(4)]
        assert first == second

    def test_child_seed_reproduces_values(self):
        repro.manual_seed(5)
        seed = rrandom.fork_seed()
        rng1 = rrandom.Generator.numpy_rng(seed)
        rng2 = rrandom.Generator.numpy_rng(seed)
        np.testing.assert_array_equal(rng1.normal(size=8), rng2.normal(size=8))

    def test_private_generator_isolated(self):
        gen = rrandom.Generator(123)
        repro.manual_seed(0)
        global_before = rrandom.fork_seed()
        s1 = gen.spawn_seed()
        repro.manual_seed(0)
        assert rrandom.fork_seed() == global_before  # untouched by gen


class TestStateSnapshot:
    def test_get_set_state_roundtrip(self):
        repro.manual_seed(7)
        rrandom.fork_seed()
        state = rrandom.get_state()
        a = [rrandom.fork_seed() for _ in range(3)]
        rrandom.set_state(state)
        b = [rrandom.fork_seed() for _ in range(3)]
        assert a == b

    def test_dropout_checkpoint_replay_uses_state(self):
        """The checkpoint mechanism: save state, redraw identically."""
        from repro import ops

        repro.manual_seed(3)
        x = repro.ones(64)
        state = rrandom.get_state()
        out1 = ops.dropout(x, 0.5).numpy()
        rrandom.set_state(state)
        out2 = ops.dropout(x, 0.5).numpy()
        np.testing.assert_array_equal(out1, out2)

    def test_recorded_init_replay_identity(self):
        """Deferred-init records replay bit-identically (Section 3.1)."""
        from repro.cuda.device import meta_device

        repro.manual_seed(11)
        meta = repro.empty(32, device=meta_device())
        from repro.autograd import no_grad

        with no_grad():
            meta.normal_(2.0, 0.5)
        target1 = repro.empty(32)
        meta.replay_init_on(target1)
        repro.manual_seed(999)  # replay must not depend on current RNG
        target2 = repro.empty(32)
        meta.replay_init_on(target2)
        np.testing.assert_array_equal(target1.numpy(), target2.numpy())
        assert abs(target1.numpy().mean() - 2.0) < 0.5


class TestRankGenerators:
    """Each rank thread draws from a generator of its own, started from
    the spawning thread's state, like a rank process of a real job."""

    @staticmethod
    def _weights(model):
        return [p.detach().numpy().copy() for p in model.parameters()]

    def test_every_rank_builds_the_single_thread_model(self):
        """More rank threads than cores, switching as often as the
        interpreter allows: a shared generator interleaves draws."""
        import sys

        from repro import distributed as dist
        from repro.models import GPT_TINY, MinGPT

        repro.manual_seed(0)
        reference = self._weights(MinGPT(GPT_TINY))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                repro.manual_seed(0)
                built = dist.spawn(lambda rank: self._weights(MinGPT(GPT_TINY)), 4)
                for weights in built:
                    assert len(weights) == len(reference)
                    for got, want in zip(weights, reference):
                        assert np.array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    def test_seeding_a_rank_leaves_the_spawning_thread_alone(self):
        from repro import distributed as dist

        repro.manual_seed(3)
        expected = rrandom.fork_seed()
        repro.manual_seed(3)

        def rank_fn(rank):
            repro.manual_seed(100 + rank)
            return rrandom.fork_seed()

        drawn = dist.spawn(rank_fn, 2)
        assert drawn[0] != drawn[1]
        assert rrandom.fork_seed() == expected
