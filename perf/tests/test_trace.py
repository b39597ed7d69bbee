"""Spans nest per thread, self time is duration minus child cover, wraps undo."""

import threading
import time

import pytest

from perf.trace import Tracer, _union_length


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        with tracer.span("child"):
            time.sleep(0.02)
        with tracer.span("child"):
            time.sleep(0.01)
        time.sleep(0.01)
    self_times = tracer.self_times()
    children = tracer.named("child")
    assert all(child.parent == parent.span_id for child in children)
    assert all(parent.start <= child.start <= child.end <= parent.end for child in children)
    covered = sum(child.duration for child in children)
    assert self_times[parent.span_id] == pytest.approx(parent.duration - covered)
    assert 0.005 < self_times[parent.span_id] < parent.duration


def test_union_length_merges_overlaps():
    assert _union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert _union_length([]) == 0.0


def test_parents_are_per_thread():
    tracer = Tracer()

    def worker():
        with tracer.span("other-thread"):
            pass

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5)
    assert tracer.named("other-thread")[0].parent is None


class _Service:
    def link(self, mentions):
        return [m.upper() for m in mentions]


def test_wrap_instance_and_class_then_restore():
    tracer = Tracer()
    service = _Service()
    tracer.wrap(service, "link", "instance.link", work=len)
    assert service.link(["a", "b"]) == ["A", "B"]
    tracer.wrap(_Service, "link", "class.link", work=lambda _self, mentions: len(mentions))
    assert _Service().link(["c"]) == ["C"]
    assert tracer.named("instance.link")[0].work == 2
    assert tracer.named("class.link")[0].work == 1
    tracer.restore()
    assert "link" not in vars(service)
    assert _Service().link(["d"]) == ["D"]
    assert len(tracer.spans) == 2


def test_write_jsonl(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", request="r1"):
        with tracer.span("inner", work=3):
            pass
    path = tmp_path / "out" / "trace.jsonl"
    tracer.write(path)
    import json
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["outer", "inner"]
    assert rows[1]["parent"] == rows[0]["id"] and rows[0]["request"] == "r1"
