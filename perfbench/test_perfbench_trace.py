"""Unit tests of the tracer: span trees, self-time arithmetic, absent targets."""

from __future__ import annotations

import threading
import types
import sys

import pytest

from perfbench import tracer
from perfbench.tracer import Span, Target, Tracer


def span(id, parent, root, name, start, end, attrs=None, thread=1):
    return Span(id, parent, root, name, thread, start, end, attrs)


def test_nested_children_are_subtracted_once():
    spans = [
        span(1, None, 1, "service.app.tasks", 0.0, 10.0),
        span(2, 1, 1, "service.registry.select", 1.0, 9.0),
        span(3, 2, 1, "core.correlation.fit", 2.0, 5.0),
        span(4, 3, 1, "engine.provenance.model_hash", 3.0, 4.0),
        span(5, 2, 1, "core.structure_gain.gains_batch", 6.0, 8.0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({1: 2.0, 2: 3.0, 3: 2.0, 4: 1.0, 5: 2.0})
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert tracer.reconciliation(spans, selfs) == pytest.approx(1.0)


def test_overlapping_children_count_their_union():
    # Two children fanned out to other threads overlap on [3, 4] and the
    # second runs past its parent's end: only the covered union inside the
    # parent is subtracted.
    spans = [
        span(1, None, 1, "service.app.tasks", 0.0, 10.0),
        span(2, 1, 1, "core.structure_gain.gains_batch", 2.0, 4.0, thread=2),
        span(3, 1, 1, "core.structure_gain.gains_batch", 3.0, 12.0, thread=3),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 8.0)
    assert tracer.covered_length([(2.0, 4.0), (3.0, 12.0)], 0.0, 10.0) == pytest.approx(8.0)
    assert tracer.covered_length([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert tracer.covered_length([], 0.0, 10.0) == 0.0
    # Overlap makes the request tree's self-times exceed its wall time.
    assert tracer.reconciliation(spans, selfs) == pytest.approx(13.0 / 10.0)


def test_background_roots_stay_out_of_request_time():
    spans = [
        span(1, None, 1, "service.app.answers", 0.0, 4.0, {"bytes_in": 100, "request": 7}),
        span(2, 1, 1, "service.registry.ingest", 1.0, 2.0),
        span(3, None, 3, "core.inference.fit", 1.5, 9.0, {"iterations": 5}, thread=2),
        span(4, 3, 3, "core.correlation.fit", 2.0, 3.0, thread=2),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[3] == pytest.approx(6.5)
    assert tracer.reconciliation(spans, selfs) == pytest.approx(1.0)
    table = tracer.aggregate(spans, selfs)
    fit = table["core.inference.fit"]
    assert fit["background_self_s"] == pytest.approx(6.5)
    assert fit["request_self_s"] == 0.0
    assert fit["background_calls"] == 1
    assert fit["attrs"]["iterations"] == 5
    assert table["core.correlation.fit"]["background_self_s"] == pytest.approx(1.0)
    assert table["service.app.answers"]["attrs"] == {"bytes_in": 100}


def test_wrappers_build_thread_aware_trees_and_report_absent_targets(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Calc:
        @classmethod
        def fit(cls, value):
            return value + 1

        def score(self, value):
            return Calc.fit(value) * 2

    def top(value):
        return Calc().score(value)

    module.Calc = Calc
    module.top = top
    monkeypatch.setitem(sys.modules, "perfbench_fake_layer", module)
    trace = Tracer(enabled=True)
    trace.install([
        Target("perfbench_fake_layer:top", "fake.top"),
        Target("perfbench_fake_layer:Calc.score", "fake.score"),
        Target("perfbench_fake_layer:Calc.fit", "fake.fit", lambda a, k, r: {"out": r}),
        Target("perfbench_fake_layer:Calc.gone", "fake.gone"),
        Target("perfbench_missing_module:thing", "fake.missing"),
    ])
    assert trace.absent == ["perfbench_fake_layer:Calc.gone", "perfbench_missing_module:thing"]
    assert module.top(1) == 4

    worker = threading.Thread(target=lambda: module.Calc.fit(10))
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive()

    by_name = {s.name: s for s in trace.spans}
    top_span = by_name["fake.top"]
    assert top_span.parent is None
    assert by_name["fake.score"].parent == top_span.id
    request_fit = [s for s in trace.spans if s.name == "fake.fit" and s.root == top_span.id]
    thread_fit = [s for s in trace.spans if s.name == "fake.fit" and s.parent is None]
    assert len(request_fit) == 1 and request_fit[0].attrs == {"out": 2}
    assert len(thread_fit) == 1 and thread_fit[0].thread != top_span.thread
    accounting = [s for s in trace.spans if s.name == tracer.ACCOUNTING]
    assert {s.parent for s in accounting} == {request_fit[0].id, thread_fit[0].id}

    trace.enabled = False
    before = len(trace.spans)
    assert module.top(1) == 4
    assert len(trace.spans) == before
