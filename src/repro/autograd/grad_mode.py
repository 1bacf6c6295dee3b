"""Gradient-mode context managers (``no_grad`` / ``enable_grad``).

These sit on the hot path of every op dispatch (``Function.apply``
wraps each forward in ``no_grad``), so the context managers are plain
``__enter__``/``__exit__`` classes rather than ``contextlib`` generators
— entering one is a couple of attribute writes, no generator frame.
"""

from __future__ import annotations

import threading

__all__ = ["is_grad_enabled", "no_grad", "enable_grad", "set_grad_enabled"]


class _GradState(threading.local):
    #: Read as a plain attribute: every thread starts with grad enabled.
    enabled = True


_state = _GradState()


def is_grad_enabled() -> bool:
    """Whether ops record autograd graphs on this thread."""
    return _state.enabled


class _GradMode:
    """Context manager forcing grad mode to ``enabled``.

    Re-entrant: each instance restores the mode that was active when it
    was entered, so instances may be nested or reused sequentially.
    """

    __slots__ = ("_previous",)
    enabled = True

    def __enter__(self) -> None:
        self._previous = _state.enabled
        _state.enabled = self.enabled

    def __exit__(self, *exc) -> None:
        _state.enabled = self._previous


class no_grad(_GradMode):
    """Disable autograd recording inside the context.

    The mode is a class attribute, so ``no_grad()`` runs no ``__init__``.
    """

    __slots__ = ()
    enabled = False


class enable_grad(_GradMode):
    """Re-enable autograd recording inside the context."""

    __slots__ = ()
    enabled = True


class set_grad_enabled(_GradMode):
    """Force grad mode to ``enabled`` inside the context."""

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool):
        self.enabled = enabled
