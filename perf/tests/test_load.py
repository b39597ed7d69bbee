"""The generators: open-loop latency counts from the due time."""

import time
from concurrent.futures import Future

import numpy as np

from perf.load import drive_closed_loop, drive_open_loop
from repro.kb.entity import Mention


def _mention(number):
    return Mention(f"r{number}", "surface", "", "", "world")


def test_open_loop_charges_a_stall_to_the_requests_it_delayed():
    """A service that blocks the sender for 0.3 s on request 5 makes the
    requests due during the stall late; timed from the send they would all
    look instant, timed from the due time the stall shows."""
    def submit(mention):
        if mention.mention_id == "r5":
            time.sleep(0.3)
        future = Future()
        future.set_result(mention)
        return future

    offsets = np.arange(20) * 0.02  # due every 20 ms: 15 requests fall due inside the stall
    log = drive_open_loop(submit, [_mention(i) for i in range(20)], offsets)
    latency = log.latency_ms()
    from_send = (log.done - log.sent) * 1000.0
    assert np.all(from_send[6:] < 5.0)
    assert latency[:5].max() < 20.0
    assert latency[5] >= 300.0
    assert latency[6] > 250.0 and latency[10] > 150.0  # shrinking as the sender catches up
    assert log.late_ms()[6] > 250.0


def test_closed_loop_keeps_the_window_full():
    outstanding = []
    peak = [0]

    def submit(mention):
        future = Future()
        outstanding.append(future)
        peak[0] = max(peak[0], len(outstanding))
        if len(outstanding) == 4:  # complete the oldest once the window is full
            outstanding.pop(0).set_result(mention)
        return future

    # The window never drains on its own, so the generator stops at the deadline.
    import perf.load as load
    original, load.DRAIN_TIMEOUT_S = load.DRAIN_TIMEOUT_S, 0.1
    try:
        log = drive_closed_loop(submit, _mention, window=4, duration=0.3)
    finally:
        load.DRAIN_TIMEOUT_S = original
    assert peak[0] == 4
    assert len(log.requests) > 4
    assert np.isnan(log.done).sum() == 3
