"""Injectable clocks.

The generation pipeline stamps records and reports with ``now()``; the HTTP
client paces itself with ``monotonic()``/``sleep()``. The CLI's
``--fixed-clock`` freezes only ``now()`` in records and reports: the rate
limiter and retry backoff always wait in real time. Tests hand a
``FixedClock`` to the client itself to make its pacing virtual too.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone
from typing import Protocol


class Clock(Protocol):
    def now(self) -> datetime: ...

    def monotonic(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class SystemClock:
    """Wall clock; ``now()`` is timezone-aware UTC."""

    def now(self) -> datetime:
        return datetime.now(timezone.utc)

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class FixedClock:
    """Clock frozen at a given instant; ``sleep`` advances virtual time.

    ``now()`` always returns the same datetime so that records produced with
    this clock serialize identically. ``monotonic()`` starts at zero and moves
    forward only through ``sleep``, which makes waiting logic (backoff, rate
    limiting) testable without real delays.
    """

    def __init__(self, at: datetime | None = None):
        self.at = at or datetime(2000, 1, 1, tzinfo=timezone.utc)
        if self.at.tzinfo is None:
            self.at = self.at.replace(tzinfo=timezone.utc)
        self._elapsed = 0.0
        self.sleeps: list[float] = []

    def now(self) -> datetime:
        return self.at

    def monotonic(self) -> float:
        return self._elapsed

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self._elapsed += max(0.0, seconds)
