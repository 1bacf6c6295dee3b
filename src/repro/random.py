"""Seeded random number generation for the tensor library.

A process-global generator provides reproducible initialization.  Each
random op draws a fresh child seed from its generator; deferred
initialization (Section 3.1) records that child seed so that replaying
the op on a real device yields bit-identical values.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["manual_seed", "default_generator", "Generator", "fork_seed"]

_lock = threading.Lock()


class Generator:
    """A seedable source of child seeds and numpy generators."""

    def __init__(self, seed: int = 0):
        self._seed_seq = np.random.SeedSequence(seed)

    def manual_seed(self, seed: int) -> "Generator":
        self._seed_seq = np.random.SeedSequence(seed)
        return self

    def spawn_seed(self) -> int:
        """Draw the next child seed (deterministic given the seed)."""
        with _lock:
            child = self._seed_seq.spawn(1)[0]
        return int(child.generate_state(1)[0])

    @staticmethod
    def numpy_rng(child_seed: int) -> np.random.Generator:
        """Build the numpy generator for a previously drawn child seed."""
        return np.random.default_rng(child_seed)


    def get_state(self) -> tuple:
        """Snapshot of the generator state (for checkpoint replay).

        A ``SeedSequence`` is fully described by its constructor inputs
        plus the spawn counter, so the snapshot is those four values
        (activation checkpointing snapshots twice per checkpointed
        region, making this a hot path).
        """
        with _lock:
            ss = self._seed_seq
            return (ss.entropy, ss.spawn_key, ss.pool_size, ss.n_children_spawned)

    def set_state(self, state: tuple) -> None:
        """Restore a snapshot taken by :meth:`get_state`."""
        with _lock:
            entropy, spawn_key, pool_size, spawned = state
            self._seed_seq = np.random.SeedSequence(
                entropy=entropy,
                spawn_key=spawn_key,
                pool_size=pool_size,
                n_children_spawned=spawned,
            )


_default = Generator(0)


def default_generator() -> Generator:
    return _default


def manual_seed(seed: int) -> None:
    """Seed the process-global generator (like ``torch.manual_seed``)."""
    _default.manual_seed(seed)


def fork_seed(generator: Generator | None = None) -> int:
    """Draw a child seed from ``generator`` (default: the global one)."""
    return (generator or _default).spawn_seed()


def get_state():
    """Snapshot the global generator (activation-checkpoint replay)."""
    return _default.get_state()


def set_state(state) -> None:
    """Restore a snapshot of the global generator."""
    _default.set_state(state)
