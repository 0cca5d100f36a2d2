"""The benchmark's own load generators, open and closed loop.

Open loop: one thread sends request ``i`` at ``t0 + due[i]`` whether or
not earlier requests have been answered.  Latency is timed from the
*due* time, so a generator that falls behind charges its lateness to the
requests it delays; how late the generator ran is reported separately as
lag.

Closed loop: a fixed number of callers, each sending its next request
only once its previous one is answered, so the program sets the rate.

Every refusal, shard death and error counts against the requests
attempted.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Outcomes of one request.
OK, REFUSED, DEAD, ERROR = "ok", "refused", "dead", "error"
#: Seconds between the closed loop's notes of wall clock and CPU time.
TICK_S = 0.5


def poisson_offsets(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
    """Due offsets (s) of ``n`` Poisson arrivals at ``rate`` per second."""
    return np.cumsum(rng.exponential(1.0 / rate, n))


def classify(exc: BaseException) -> str:
    from repro.errors import BackpressureError, ShardDeadError

    if isinstance(exc, BackpressureError):
        return REFUSED
    if isinstance(exc, ShardDeadError):
        return DEAD
    return ERROR


class TrafficRun:
    """Per-request timestamps and outcomes of one run of traffic.

    In a closed loop a request is due when its caller is free, so
    ``due == sent``.
    """

    def __init__(self, n: int) -> None:
        self.due = np.zeros(n)
        self.sent = np.zeros(n)
        self.submitted = np.zeros(n)
        self.done = np.full(n, np.nan)
        self.outcome: List[Optional[str]] = [None] * n
        self.results: List[Optional[np.ndarray]] = [None] * n
        #: ``(wall, process CPU)`` seconds noted while sending.
        self.ticks: List[tuple] = []

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def ok(self) -> np.ndarray:
        return np.array([o == OK for o in self.outcome], dtype=bool)

    def count(self, outcome: str) -> int:
        return sum(o == outcome for o in self.outcome)

    @property
    def failed(self) -> int:
        return self.attempted - int(self.ok.sum())

    def latency_ms(self) -> np.ndarray:
        """Due-to-answer latency of the answered requests."""
        ok = self.ok
        return (self.done[ok] - self.due[ok]) * 1e3

    def lag_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    def submit_ms(self) -> np.ndarray:
        return (self.submitted - self.sent) * 1e3

    def windows(self) -> tuple:
        """Answers per second and CPU ms per answer between ticks."""
        ok = self.done[self.ok]
        rates, cpu_ms = [], []
        for (t0, c0), (t1, c1) in zip(self.ticks, self.ticks[1:]):
            n = int(np.count_nonzero((ok >= t0) & (ok < t1)))
            if n:
                rates.append(n / (t1 - t0))
                cpu_ms.append((c1 - c0) * 1e3 / n)
        return rates, cpu_ms

    def drain_s(self) -> float:
        """Last answer minus last send: how long the backlog took to clear."""
        return float(np.nanmax(self.done) - self.sent.max())


def run_open_loop(
    submit: Callable[[np.ndarray, int], object],
    inputs: Sequence[np.ndarray],
    offsets: np.ndarray,
    timeout_s: float = 30.0,
    lead_s: float = 0.005,
) -> TrafficRun:
    """Send ``inputs[i]`` at ``offsets[i]`` seconds after start.

    ``submit(x, i)`` returns a ``concurrent.futures.Future`` of the
    answer.  Returns after every request is answered or ``timeout_s``
    after the last send (unanswered requests count as errors).
    """
    n = len(offsets)
    run = TrafficRun(n)
    futures = [None] * n
    t0 = time.perf_counter() + lead_s
    run.due[:] = t0 + offsets

    for i in range(n):
        wait = run.due[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        run.sent[i] = time.perf_counter()
        try:
            future = submit(inputs[i], i)
        except Exception as exc:  # refused before a future existed
            run.submitted[i] = run.done[i] = time.perf_counter()
            run.outcome[i] = classify(exc)
            continue
        run.submitted[i] = time.perf_counter()
        futures[i] = future
        future.add_done_callback(lambda f, i=i: _finish(run, i, f))

    _collect(run, futures, timeout_s)
    return run


def run_closed_loop(
    submit: Callable[[np.ndarray, int], object],
    inputs: Sequence[np.ndarray],
    clients: int,
    seconds: float,
    timeout_s: float = 30.0,
) -> TrafficRun:
    """``clients`` callers sending ``inputs`` in turn (cycling) for ``seconds``.

    A caller sends again as soon as its previous request is answered or
    refused.  ``submit`` is as for :func:`run_open_loop`.  No future is
    kept once answered, so the run does not grow the heap the program's
    garbage collector scans.  Every :data:`TICK_S` of sending, the run notes
    the wall clock and the process CPU time in ``run.ticks``, so rates
    can be read window by window.
    """
    slots = threading.Semaphore(clients)
    sent: List[float] = []
    submitted: List[float] = []
    done: List[float] = []
    outcomes: List[Optional[str]] = []
    results: List[Optional[np.ndarray]] = []

    def answered(future, i: int) -> None:
        done[i] = time.perf_counter()
        outcomes[i], results[i] = _outcome(future)
        slots.release()

    ticks = [(time.perf_counter(), time.process_time())]
    deadline = ticks[0][0] + seconds
    i = 0
    while time.perf_counter() < deadline:
        if time.perf_counter() - ticks[-1][0] >= TICK_S:
            ticks.append((time.perf_counter(), time.process_time()))
        slots.acquire()
        sent.append(time.perf_counter())
        done.append(np.nan)
        outcomes.append(None)
        results.append(None)
        try:
            future = submit(inputs[i % len(inputs)], i)
        except Exception as exc:  # refused before a future existed
            submitted.append(time.perf_counter())
            done[i] = submitted[i]
            outcomes[i] = classify(exc)
            slots.release()
        else:
            submitted.append(time.perf_counter())
            future.add_done_callback(lambda f, i=i: answered(f, i))
        i += 1
    # Every caller free again means every request has its outcome;
    # requests still unanswered ``timeout_s`` after the last send count
    # as errors.
    end = time.perf_counter() + timeout_s
    for _ in range(clients):
        slots.acquire(timeout=max(0.0, end - time.perf_counter()))
    run = TrafficRun(i)
    run.due[:] = run.sent[:] = sent
    run.submitted[:] = submitted
    run.done[:] = done
    run.outcome[:] = [ERROR if o is None else o for o in outcomes]
    run.results[:] = results
    run.ticks = ticks
    return run


def _outcome(future) -> tuple:
    """``(outcome, result)`` of a finished future."""
    if future.cancelled():
        return ERROR, None
    exc = future.exception()
    if exc is None:
        return OK, future.result()
    return classify(exc), None


def _finish(run: TrafficRun, i: int, future) -> None:
    run.done[i] = time.perf_counter()
    run.outcome[i], run.results[i] = _outcome(future)


def _collect(run: TrafficRun, futures: list, timeout_s: float) -> None:
    """Wait for every future; unanswered ones count as errors."""
    deadline = time.perf_counter() + timeout_s
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            future.exception(timeout=max(0.0, deadline - time.perf_counter()))
        except (FutureTimeout, CancelledError):
            future.cancel()
            run.outcome[i] = ERROR
    # add_done_callback may still be running on the answering thread.
    while any(o is None for o in run.outcome):
        time.sleep(0.001)
