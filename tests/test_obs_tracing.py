"""Tests for span trees (repro.obs.tracing)."""

from __future__ import annotations

from repro.obs import tracing
from repro.obs.tracing import Span, current_span, span, trace


class TestSpanTree:
    def test_trace_builds_nested_tree(self):
        with trace("job", correlation_id="abc123") as root:
            with span("prepare"):
                pass
            with span("iteration", index=0):
                with span("sweep"):
                    pass
                with span("charge"):
                    pass
        assert root.name == "job"
        assert root.correlation_id == "abc123"
        assert [c.name for c in root.children] == ["prepare",
                                                   "iteration"]
        iteration = root.children[1]
        assert iteration.meta == {"index": 0}
        assert [c.name for c in iteration.children] == ["sweep", "charge"]
        # Every span got timed.
        for node in root.walk():
            assert node.duration_s is not None
            assert node.duration_s >= 0.0

    def test_span_is_noop_outside_a_trace(self):
        with span("orphan") as node:
            assert node is None
        assert current_span() is None

    def test_disabled_tracing_yields_none(self):
        tracing.set_enabled(False)
        try:
            with trace("job") as root:
                assert root is None
                with span("child") as node:
                    assert node is None
        finally:
            tracing.set_enabled(True)

    def test_current_span_tracks_nesting(self):
        assert current_span() is None
        with trace("job") as root:
            assert current_span() is root
            with span("inner") as inner:
                assert current_span() is inner
            assert current_span() is root
        assert current_span() is None

    def test_annotate_and_add_child(self):
        root = Span("job").start()
        root.annotate(algorithm="pagerank")
        root.add_child("queue-wait", 0.25, source="store")
        root.finish()
        assert root.meta == {"algorithm": "pagerank"}
        child = root.children[0]
        assert child.name == "queue-wait"
        assert child.duration_s == 0.25
        assert child.meta == {"source": "store"}

    def test_find(self):
        with trace("job") as root:
            for index in range(3):
                with span("iteration", index=index):
                    with span("sweep"):
                        pass
        assert len(root.find("sweep")) == 3
        assert root.find("nope") == []


class TestSerialization:
    def test_to_dict_omits_unset_fields(self):
        node = Span("bare")
        assert node.to_dict() == {"name": "bare"}

    def test_payload_is_json_safe(self):
        import json

        with trace("job") as root:
            with span("sweep", tiles=4):
                pass
        assert json.loads(json.dumps(root.to_dict()))["name"] == "job"
