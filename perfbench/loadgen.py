"""Open-loop load generation: send on a schedule, time from the due time.

One sender sends each request when it is due, whether or not earlier
requests have finished.  A request's latency counts from its *due*
time, not from when it was actually sent, so a stalled generator or a
blocking submission shows up as latency on the requests behind it; how
late the sender ran is reported separately as lag.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Request:
    """One scheduled request and what became of it."""

    __slots__ = ("index", "due", "item", "sent", "done", "handle", "result", "error")

    def __init__(self, index: int, due: float, item: Any) -> None:
        self.index = index
        self.due = due
        self.item = item
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.handle: Any = None
        self.result: Any = None
        self.error: Optional[str] = None

    @property
    def latency(self) -> Optional[float]:
        """Due time to observed completion."""
        return None if self.done is None else self.done - self.due

    @property
    def lag(self) -> Optional[float]:
        """How late the request was sent."""
        return None if self.sent is None else self.sent - self.due


def send_all(
    requests: Sequence[Request],
    submit: Callable[[Any], Any],
    on_sent: Callable[[Request], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Send every request at its due time (absolute, on ``clock``).

    ``submit`` returns a handle or raises; a raising submission marks the
    request failed and done at once.  A late request is sent immediately.
    """
    for req in requests:
        wait = req.due - clock()
        if wait > 0:
            sleep(wait)
        req.sent = clock()
        try:
            req.handle = submit(req.item)
        except Exception as exc:  # noqa: BLE001 - a refused request is a failed one
            req.error = f"submit: {exc!r}"
            req.done = clock()
            continue
        on_sent(req)


class OpenLoop:
    """A sender (the calling thread) plus one completion poller thread.

    ``poll(outstanding)`` receives the in-flight requests oldest first
    and yields ``(request, result or None, error or None)`` for each one
    it sees finish, as soon as it sees it: a request is stamped done
    when its own check returns, not when the sweep over every request
    in flight ends.  Sweeps start on a fixed grid of
    :attr:`POLL_INTERVAL` ticks, never on a send: arrivals fall at
    random points between ticks, so the wait before a finished request
    is seen is spread evenly over a tick and averages out of a median.
    (Sweeps started by each send would see every job of a given length
    at the same whole number of ticks after it was sent, and a median
    would jump by a tick as soon as the job grew a little.)  Two
    threads in all, each with its own connection when
    ``submit``/``poll`` use one.
    """

    #: Time between sweeps.  Each sweep costs the system under test one
    #: request per job in flight, so a shorter tick takes CPU from the
    #: jobs being timed on a small machine.
    POLL_INTERVAL = 0.01

    def __init__(
        self,
        schedule: Sequence[Tuple[float, Any]],
        submit: Callable[[Any], Any],
        poll: Callable[[List[Request]], Iterable[Tuple[Request, Any, Optional[str]]]],
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._schedule = schedule
        self._submit = submit
        self._poll = poll
        self._clock = clock
        self._sleep = sleep
        self._cond = threading.Condition()
        self._outstanding: Dict[int, Request] = {}
        self._sending = True

    def _on_sent(self, req: Request) -> None:
        with self._cond:
            self._outstanding[req.index] = req
            self._cond.notify()

    def _poller(self, start: float) -> None:
        """Sweep at ``start + k * POLL_INTERVAL`` for ever larger ``k``
        while anything is in flight, until the sender is done."""
        tick = -1
        while True:
            with self._cond:
                while not self._outstanding and self._sending:
                    self._cond.wait(0.5)
                if not self._outstanding and not self._sending:
                    return
            now = (self._clock() - start) / self.POLL_INTERVAL
            tick = max(tick + 1, math.ceil(now - 1e-9))
            wait = start + tick * self.POLL_INTERVAL - self._clock()
            if wait > 0:
                self._sleep(wait)
            with self._cond:
                pending = sorted(self._outstanding.values(), key=lambda r: r.index)
            for req, result, error in self._poll(pending):
                done = self._clock()
                with self._cond:
                    req.done, req.result, req.error = done, result, error
                    self._outstanding.pop(req.index, None)

    def run(self, start_delay: float = 0.05) -> List[Request]:
        """Run the schedule from now; returns every request, finished."""
        t0 = self._clock() + start_delay
        requests = [Request(i, t0 + due, item) for i, (due, item) in enumerate(self._schedule)]
        poller = threading.Thread(target=self._poller, args=(t0,), name="perfbench-poller",
                                  daemon=True)
        poller.start()
        try:
            send_all(requests, self._submit, self._on_sent, clock=self._clock, sleep=self._sleep)
        finally:
            with self._cond:
                self._sending = False
                self._cond.notify()
            poller.join()
        return requests
