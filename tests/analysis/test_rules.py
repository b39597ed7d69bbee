"""Per-rule fixtures: each rule fires on the bug pattern it encodes,
stays quiet on the compliant shape, and honours inline suppressions."""

import textwrap

from repro.analysis import LintConfig, lint_source

NN_PATH = "src/repro/nn/flags.py"
SERVING_PATH = "src/repro/serving/widget.py"
SRC_PATH = "src/repro/training/loop.py"


def lint(source, path, rule):
    return lint_source(
        textwrap.dedent(source), path, config=LintConfig(enabled=[rule]),
    )


# ----------------------------------------------------------------------
# thread-local-state
# ----------------------------------------------------------------------
class TestThreadLocalState:
    RULE = "thread-local-state"

    def test_global_rebinding_flagged(self):
        findings = lint(
            """
            _grad_enabled = True

            def set_grad(value):
                global _grad_enabled
                _grad_enabled = value
            """,
            NN_PATH, self.RULE,
        )
        assert [f.rule for f in findings] == [self.RULE]
        assert findings[0].symbol == "_grad_enabled"
        assert findings[0].line == 2  # anchored at the module assignment

    def test_container_mutation_from_function_flagged(self):
        findings = lint(
            """
            _PENDING = {}

            def remember(key, value):
                _PENDING[key] = value
            """,
            SERVING_PATH, self.RULE,
        )
        assert [f.symbol for f in findings] == ["_PENDING"]

    def test_threading_local_is_compliant(self):
        findings = lint(
            """
            import threading

            _state = threading.local()

            def set_grad(value):
                _state.enabled = value
            """,
            NN_PATH, self.RULE,
        )
        assert findings == []

    def test_module_scope_seeding_is_compliant(self):
        findings = lint(
            """
            _TABLE = {}
            _TABLE["default"] = 1.0

            def lookup(key):
                return _TABLE[key]
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_out_of_scope_path_ignored(self):
        findings = lint(
            """
            _FLAG = True

            def flip():
                global _FLAG
                _FLAG = not _FLAG
            """,
            SRC_PATH, self.RULE,  # training/, not nn/ or serving/
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            _FLAG = True  # repro: disable=thread-local-state

            def flip():
                global _FLAG
                _FLAG = not _FLAG
            """,
            NN_PATH, self.RULE,
        )
        assert findings == []


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    RULE = "lock-discipline"

    def test_unguarded_mutation_flagged(self):
        findings = lint(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def record(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
            """,
            SERVING_PATH, self.RULE,
        )
        assert [f.symbol for f in findings] == ["Stats.reset"]
        assert "self.count" in findings[0].message

    def test_all_mutations_guarded_compliant(self):
        findings = lint(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def record(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    with self._lock:
                        self.count = 0
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_locked_suffix_method_assumed_held(self):
        findings = lint(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def record(self):
                    with self._lock:
                        self.count += 1
                        self._bump_locked()

                def _bump_locked(self):
                    self.count += 1
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_dataclass_field_lock_detected(self):
        findings = lint(
            """
            import threading
            from dataclasses import dataclass, field

            @dataclass
            class Window:
                _lock: threading.Lock = field(default_factory=threading.Lock)
                total: float = 0.0

                def add(self, value):
                    with self._lock:
                        self.total += value

                def drop(self):
                    self.total = 0.0
            """,
            SERVING_PATH, self.RULE,
        )
        assert [f.symbol for f in findings] == ["Window.drop"]

    def test_condition_counts_as_lock(self):
        findings = lint(
            """
            import threading

            class Queue:
                def __init__(self):
                    self._ready = threading.Condition()
                    self.items = []

                def put(self, item):
                    with self._ready:
                        self.items.append(item)

                def clear(self):
                    self.items.clear()
            """,
            SERVING_PATH, self.RULE,
        )
        assert [f.symbol for f in findings] == ["Queue.clear"]

    def test_unguarded_attrs_elsewhere_not_flagged(self):
        # Attributes never mutated under the lock are not "guarded".
        findings = lint(
            """
            import threading

            class Service:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
                    self.name = "svc"

                def record(self):
                    with self._lock:
                        self.count += 1

                def rename(self, name):
                    self.name = name
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            import threading

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def record(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0  # repro: disable=lock-discipline
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    BOX = """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def _append_locked(self, item):
                self._items.append(item)

            def add(self, item):
                with self._lock:
                    self._append_locked(item)
        """

    def test_locked_suffix_callee_requires_a_held_lock(self):
        source = textwrap.dedent(self.BOX) + (
            "\n    def bad_add(self, item):\n"
            "        self._append_locked(item)\n"
        )
        findings = lint(source, SRC_PATH, self.RULE)
        assert len(findings) == 1  # one per call site
        assert "_append_locked" in findings[0].message
        assert "bad_add" in findings[0].symbol

    def test_all_callers_locked_is_clean(self):
        assert lint(self.BOX, SRC_PATH, self.RULE) == []


# ----------------------------------------------------------------------
# probe-mode-discipline
# ----------------------------------------------------------------------
class TestProbeModeDiscipline:
    RULE = "probe-mode-discipline"

    def test_unrestored_train_flagged(self):
        findings = lint(
            """
            def fit(model, batches):
                model.train()
                for batch in batches:
                    model.step(batch)
                model.eval()
            """,
            SRC_PATH, self.RULE,
        )
        assert [f.symbol for f in findings] == ["fit"]
        assert "finally" in findings[0].message

    def test_restore_in_finally_compliant(self):
        findings = lint(
            """
            def fit(model, batches):
                model.train()
                try:
                    for batch in batches:
                        model.step(batch)
                finally:
                    model.eval()
            """,
            SRC_PATH, self.RULE,
        )
        assert findings == []

    def test_snapshot_restore_compliant(self):
        findings = lint(
            """
            def probe(model, batch):
                was_training = model.training
                model.train(True)
                try:
                    return model.loss(batch)
                finally:
                    model.train(was_training)
            """,
            SRC_PATH, self.RULE,
        )
        assert findings == []

    def test_trainer_entry_point_not_a_toggle(self):
        # pipeline.train(pairs, epochs=3) shares the name, not the semantics.
        findings = lint(
            """
            def run(pipeline, pairs):
                return pipeline.train(pairs, epochs=3)
            """,
            SRC_PATH, self.RULE,
        )
        assert findings == []

    def test_bare_no_grad_call_flagged(self):
        findings = lint(
            """
            from repro.nn import no_grad

            def probe(model, batch):
                no_grad()
                return model.loss(batch)
            """,
            SRC_PATH, self.RULE,
        )
        assert len(findings) == 1
        assert "with" in findings[0].message

    def test_with_no_grad_compliant(self):
        findings = lint(
            """
            from repro.nn import no_grad

            def probe(model, batch):
                with no_grad():
                    return model.loss(batch)
            """,
            SRC_PATH, self.RULE,
        )
        assert findings == []

    def test_grad_state_write_outside_owner_flagged(self):
        findings = lint(
            """
            from repro.nn.tensor import _grad_state

            def force_eval():
                _grad_state.enabled = False
            """,
            SRC_PATH, self.RULE,
        )
        assert len(findings) == 1
        assert "_grad_state" in findings[0].message

    def test_suppression(self):
        findings = lint(
            """
            def fit(model, batches):
                model.train()  # repro: disable=probe-mode-discipline
                for batch in batches:
                    model.step(batch)
                model.eval()
            """,
            SRC_PATH, self.RULE,
        )
        assert findings == []


# ----------------------------------------------------------------------
# future-hygiene
# ----------------------------------------------------------------------
class TestFutureHygiene:
    RULE = "future-hygiene"

    def test_unguarded_settle_on_shared_future_flagged(self):
        findings = lint(
            """
            def finalize(request, value):
                request.caller.set_result(value)
            """,
            SERVING_PATH, self.RULE,
        )
        assert [f.symbol for f in findings] == ["finalize"]
        assert "InvalidStateError" in findings[0].message

    def test_guarded_settle_compliant(self):
        findings = lint(
            """
            from concurrent.futures import InvalidStateError

            def finalize(request, value):
                try:
                    request.caller.set_result(value)
                except InvalidStateError:
                    pass
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_fresh_local_settle_before_escape_compliant(self):
        # Router.submit's shed path: settle before anyone can see it.
        findings = lint(
            """
            from concurrent.futures import Future

            def submit(shed):
                caller = Future()
                if shed:
                    caller.set_exception(RuntimeError("shed"))
                    return caller
                enqueue(caller)
                return caller
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_settle_after_escape_flagged(self):
        findings = lint(
            """
            from concurrent.futures import Future

            def submit(queue, value):
                caller = Future()
                queue.put(caller)
                caller.set_result(value)
                return caller
            """,
            SERVING_PATH, self.RULE,
        )
        assert len(findings) == 1
        assert "set_result" in findings[0].message

    def test_orphan_future_flagged(self):
        findings = lint(
            """
            from concurrent.futures import Future

            def submit():
                caller = Future()
                return None
            """,
            SERVING_PATH, self.RULE,
        )
        assert len(findings) == 1
        assert "never settled" in findings[0].message

    def test_raising_done_callback_flagged(self):
        findings = lint(
            """
            class Router:
                def dispatch(self, inner, request):
                    inner.add_done_callback(
                        lambda done: self._on_done(request, done)
                    )

                def _on_done(self, request, done):
                    if done.cancelled():
                        raise RuntimeError("cancelled")
            """,
            SERVING_PATH, self.RULE,
        )
        assert len(findings) == 1
        assert "done-callback" in findings[0].message

    def test_non_raising_callback_compliant(self):
        findings = lint(
            """
            class Router:
                def dispatch(self, inner, request):
                    inner.add_done_callback(
                        lambda done: self._on_done(request, done)
                    )

                def _on_done(self, request, done):
                    try:
                        request.caller.set_result(done.result())
                    except Exception:
                        pass
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_out_of_scope_path_ignored(self):
        findings = lint(
            """
            def finalize(request, value):
                request.caller.set_result(value)
            """,
            SRC_PATH, self.RULE,
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            def finalize(request, value):
                request.caller.set_result(value)  # repro: disable=future-hygiene
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []


# ----------------------------------------------------------------------
# bounded-wait
# ----------------------------------------------------------------------
class TestBoundedWait:
    RULE = "bounded-wait"

    def test_unbounded_event_wait_flagged(self):
        findings = lint(
            """
            def run(self):
                self._work_ready.wait()
            """,
            SERVING_PATH, self.RULE,
        )
        assert [f.rule for f in findings] == [self.RULE]
        assert findings[0].symbol == "self._work_ready.wait"
        assert "timeout" in findings[0].message

    def test_unbounded_join_and_result_flagged(self):
        findings = lint(
            """
            def drain(thread, future):
                thread.join()
                return future.result()
            """,
            SERVING_PATH, self.RULE,
        )
        assert sorted(f.symbol for f in findings) == [
            "future.result", "thread.join",
        ]

    def test_timeout_keyword_is_compliant(self):
        findings = lint(
            """
            def run(self):
                while not self._stop.wait(timeout=0.1):
                    self.tick()
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_positional_timeout_is_compliant(self):
        findings = lint(
            """
            def drain(thread, future):
                thread.join(5.0)
                return future.result(30.0)
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []

    def test_non_blocking_names_ignored(self):
        findings = lint(
            """
            def assemble(path, parts):
                return path.join(parts.result)
            """,
            SERVING_PATH, self.RULE,
        )
        # path.join(parts) passes a positional arg; bare attribute access
        # (no call) never fires.
        assert findings == []

    def test_out_of_scope_path_ignored(self):
        findings = lint(
            """
            def run(event):
                event.wait()
            """,
            SRC_PATH, self.RULE,  # training/, not serving/ or bench/
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            def run(self):
                self._done.wait()  # repro: disable=bounded-wait
            """,
            SERVING_PATH, self.RULE,
        )
        assert findings == []
