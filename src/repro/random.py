"""Seeded random number generation for the tensor library.

A process-global generator provides reproducible initialization.  Each
random op draws a fresh child seed from its generator; deferred
initialization (Section 3.1) records that child seed so that replaying
the op on a real device yields bit-identical values.

A rank thread (:func:`repro.distributed.spawn`) owns a generator of its
own, started from the spawning thread's state — the way each rank of a
real job is its own process and PyTorch keeps one generator per CUDA
device — so concurrent ranks never interleave draws, and every rank
builds the model the spawning thread would have built.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["manual_seed", "default_generator", "Generator", "fork_seed"]

_lock = threading.Lock()
_tls = threading.local()


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
    """The calling thread's generator: a rank thread's own, else the
    process-global one."""
    return getattr(_tls, "generator", None) or _default


@contextmanager
def _thread_generator(state: tuple) -> Iterator[None]:
    """Give a fresh rank thread its own generator, started from
    ``state`` (a :meth:`Generator.get_state` snapshot), for the block."""
    generator = Generator()
    generator.set_state(state)
    _tls.generator = generator
    try:
        yield
    finally:
        _tls.generator = None


def manual_seed(seed: int) -> None:
    """Seed the calling thread's generator (like ``torch.manual_seed``)."""
    default_generator().manual_seed(seed)


def fork_seed(generator: Generator | None = None) -> int:
    """Draw a child seed from ``generator`` (default: the thread's)."""
    return (generator or default_generator()).spawn_seed()


def get_state():
    """Snapshot the thread's generator (activation-checkpoint replay)."""
    return default_generator().get_state()


def set_state(state) -> None:
    """Restore a snapshot of the thread's generator."""
    default_generator().set_state(state)
