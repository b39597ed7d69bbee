"""Load generators: one thread submits, done-callbacks stamp completions.

``submit(mention)`` is anything returning a ``concurrent.futures.Future`` —
``Router.submit`` in the workloads, a fake in the tests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from repro.kb.entity import Mention

Submit = Callable[[Mention], Future]

#: How long the generators wait for requests still outstanding at the end.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class LoadLog:
    """Per-request times (``time.perf_counter`` seconds) and outcomes."""

    requests: List[Mention]
    #: When each request was due (open loop) or sent (closed loop): the
    #: instant its latency is counted from.
    start: np.ndarray
    sent: np.ndarray
    done: np.ndarray  # nan while outstanding
    futures: List[Future] = field(repr=False, default_factory=list)
    began: float = 0.0

    def latency_ms(self) -> np.ndarray:
        return (self.done - self.start) * 1000.0

    def late_ms(self) -> np.ndarray:
        return (self.sent - self.start) * 1000.0


def drive_open_loop(submit: Submit, requests: Sequence[Mention], offsets: np.ndarray) -> LoadLog:
    """Send request ``i`` at ``began + offsets[i]`` whatever the replies do.

    Latency is counted from the *due* time, so a stall that delays the
    generator itself is charged to the requests it made late.
    """
    count = len(requests)
    done = np.full(count, np.nan)
    sent = np.zeros(count)
    futures: List[Future] = []
    began = time.perf_counter() + 0.01
    due = began + np.asarray(offsets)

    def stamp(position: int) -> Callable[[Future], None]:
        def on_done(_future: Future) -> None:
            done[position] = time.perf_counter()
        return on_done

    for position, request in enumerate(requests):
        while True:
            remaining = due[position] - time.perf_counter()
            if remaining <= 0:
                break
            time.sleep(remaining)
        sent[position] = time.perf_counter()
        future = submit(request)
        future.add_done_callback(stamp(position))
        futures.append(future)
    wait(futures, timeout=DRAIN_TIMEOUT_S)
    return LoadLog(list(requests), due, sent, done, futures, began)


def drive_closed_loop(
    submit: Submit,
    request_at: Callable[[int], Mention],
    window: int,
    duration: float,
) -> LoadLog:
    """Keep ``window`` requests outstanding for ``duration`` seconds."""
    slots = threading.Semaphore(window)
    requests: List[Mention] = []
    sent: List[float] = []
    futures: List[Future] = []
    completions: List[tuple] = []  # (position, time); appended from replica threads

    def stamp(position: int) -> Callable[[Future], None]:
        def on_done(_future: Future) -> None:
            completions.append((position, time.perf_counter()))
            slots.release()
        return on_done

    began = time.perf_counter()
    end = began + duration
    while time.perf_counter() < end:
        if not slots.acquire(timeout=0.5):
            continue
        position = len(requests)
        request = request_at(position)
        requests.append(request)
        sent.append(time.perf_counter())
        future = submit(request)
        future.add_done_callback(stamp(position))
        futures.append(future)
    wait(futures, timeout=DRAIN_TIMEOUT_S)
    done = np.full(len(requests), np.nan)
    for position, moment in completions:
        done[position] = moment
    sent_array = np.asarray(sent)
    return LoadLog(requests, sent_array, sent_array, done, futures, began)
