"""Admission control: deadlines, bounded queueing, and load shedding.

A production query server must fail *predictably* under overload: instead
of letting requests pile up on an unbounded queue until everything is slow,
:class:`AdmissionController` runs at most ``max_concurrency`` queries at
once, lets at most ``queue_limit`` more wait, and *sheds* everything beyond
that immediately with a typed :class:`Overloaded` result (HTTP 503 with a
``Retry-After`` hint at the API layer).  A queued request also carries its
:class:`Deadline`; when the deadline expires before a slot frees up the
request is shed with reason ``"timeout"`` rather than executed late.

Everything is observable: admitted/shed totals (per reason), an in-flight
gauge, a queue-depth gauge, and a queue-wait histogram, all exported by the
Prometheus endpoint as ``repro_serve_*``.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from ..obs.metrics import registry
from ..obs.tracing import span

__all__ = [
    "Deadline",
    "Overloaded",
    "OverloadedError",
    "DeadlineExceededError",
    "AdmissionController",
]

_ADMITTED = registry().counter("serve.admitted")
_SHED = registry().counter("serve.shed")
_SHED_QUEUE = registry().counter("serve.shed.queue_full")
_SHED_TIMEOUT = registry().counter("serve.shed.timeout")
_INFLIGHT = registry().gauge("serve.inflight")
_QUEUE_DEPTH = registry().gauge("serve.queue.depth")
_QUEUE_WAIT = registry().histogram("serve.queue.wait_seconds")


class Deadline:
    """A wall-clock budget for one request (monotonic internally)."""

    __slots__ = ("budget_seconds", "_expires_at")

    def __init__(self, budget_seconds: float):
        # NaN compares false against everything and inf never runs out, so
        # either would switch the deadline off.
        if not math.isfinite(budget_seconds) or budget_seconds <= 0:
            raise ValueError(
                f"deadline budget must be finite and positive, got {budget_seconds}"
            )
        self.budget_seconds = budget_seconds
        self._expires_at = time.monotonic() + budget_seconds

    @classmethod
    def after_ms(cls, milliseconds: float) -> "Deadline":
        """A deadline ``milliseconds`` from now."""
        return cls(milliseconds / 1000.0)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self._expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        """True once the budget is exhausted."""
        return self.remaining() <= 0


@dataclass(frozen=True)
class Overloaded:
    """Typed shed result: why the request was refused and the live load."""

    reason: str  # "queue_full" | "timeout"
    inflight: int
    waiting: int
    max_concurrency: int
    queue_limit: int
    retry_after_seconds: float

    def to_dict(self) -> dict:
        """JSON body of the 503 response."""
        return {
            "error": "overloaded",
            "reason": self.reason,
            "inflight": self.inflight,
            "waiting": self.waiting,
            "max_concurrency": self.max_concurrency,
            "queue_limit": self.queue_limit,
            "retry_after_seconds": self.retry_after_seconds,
        }


class OverloadedError(RuntimeError):
    """Raised by :meth:`AdmissionController.admit` when a request is shed."""

    def __init__(self, overloaded: Overloaded):
        super().__init__(
            f"overloaded ({overloaded.reason}): "
            f"{overloaded.inflight} in flight, {overloaded.waiting} queued"
        )
        self.overloaded = overloaded


class DeadlineExceededError(RuntimeError):
    """Raised when a request's deadline expires before/while executing."""

    def __init__(self, deadline: Deadline):
        super().__init__(
            f"deadline of {deadline.budget_seconds * 1e3:.0f} ms exceeded"
        )
        self.deadline = deadline


class AdmissionController:
    """Concurrency semaphore with a bounded wait queue and load shedding."""

    def __init__(
        self,
        max_concurrency: int = 8,
        queue_limit: int = 16,
        default_deadline_ms: float = 1000.0,
        retry_after_seconds: float = 0.1,
    ):
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        if not math.isfinite(default_deadline_ms) or default_deadline_ms <= 0:
            raise ValueError(
                "default_deadline_ms must be finite and positive, "
                f"got {default_deadline_ms}"
            )
        self.max_concurrency = max_concurrency
        self.queue_limit = queue_limit
        self.default_deadline_ms = default_deadline_ms
        self.retry_after_seconds = retry_after_seconds
        self._cond = threading.Condition()
        self._inflight = 0
        self._waiting = 0

    @property
    def inflight(self) -> int:
        """Requests currently executing."""
        return self._inflight

    @property
    def waiting(self) -> int:
        """Requests currently queued for a slot."""
        return self._waiting

    def deadline(self, milliseconds: float | None = None) -> Deadline:
        """A fresh deadline (the controller default when unspecified)."""
        return Deadline.after_ms(
            self.default_deadline_ms if milliseconds is None else milliseconds
        )

    @contextmanager
    def admit(self, deadline: Deadline | None = None):
        """Hold one execution slot for the duration of the ``with`` body.

        Sheds with :class:`OverloadedError` when the queue is full or the
        deadline expires while waiting.  The deadline defaults to the
        controller's ``default_deadline_ms``.
        """
        deadline = deadline or self.deadline()
        # Span only the slot acquisition (not the request body), so queue
        # wait shows up as its own phase in trace critical-path analysis.
        with span("serve.admission.wait"):
            self._acquire(deadline)
        try:
            yield deadline
        finally:
            self._release()

    # -- internal ----------------------------------------------------------

    def _acquire(self, deadline: Deadline) -> None:
        t0 = time.monotonic()
        with self._cond:
            if self._inflight < self.max_concurrency:
                self._inflight += 1
                _INFLIGHT.set(self._inflight)
                _ADMITTED.inc()
                _QUEUE_WAIT.observe(0.0)
                return
            if self._waiting >= self.queue_limit:
                self._shed("queue_full", _SHED_QUEUE)
            self._waiting += 1
            _QUEUE_DEPTH.set(self._waiting)
            try:
                while self._inflight >= self.max_concurrency:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        self._shed("timeout", _SHED_TIMEOUT)
                    self._cond.wait(timeout=remaining)
            finally:
                self._waiting -= 1
                _QUEUE_DEPTH.set(self._waiting)
            self._inflight += 1
            _INFLIGHT.set(self._inflight)
            _ADMITTED.inc()
            _QUEUE_WAIT.observe(time.monotonic() - t0)

    def _release(self) -> None:
        with self._cond:
            self._inflight -= 1
            _INFLIGHT.set(self._inflight)
            self._cond.notify()

    def _shed(self, reason: str, counter) -> None:
        """Must be called with the condition lock held; raises."""
        _SHED.inc()
        counter.inc()
        raise OverloadedError(
            Overloaded(
                reason=reason,
                inflight=self._inflight,
                waiting=self._waiting,
                max_concurrency=self.max_concurrency,
                queue_limit=self.queue_limit,
                retry_after_seconds=self.retry_after_seconds,
            )
        )
