"""Request-scoped trace contexts: span records, parent links, offsets,
journal streaming, cross-thread capture/adopt, and the span cap."""

import threading

import pytest

from repro.obs import (
    EVENT_TRACE,
    RunJournal,
    TraceContext,
    adopt_context,
    capture_context,
    current_trace,
    new_trace_id,
    read_journal,
    start_trace,
    trace,
)
from repro.obs.clock import perf_counter
from repro.obs.tracing import EMPTY_SNAPSHOT, TRACE_SPAN_CAP


def test_trace_ids_are_unique_and_rng_free():
    ids = {new_trace_id() for _ in range(1000)}
    assert len(ids) == 1000


def test_no_active_trace_by_default():
    assert current_trace() is None
    assert capture_context() is EMPTY_SNAPSHOT


def test_spans_record_parents_and_offsets():
    with start_trace("serve/demo") as context:
        assert current_trace() is context
        with trace("serve/decode"):
            pass
        with trace("serve/wait"):
            with trace("serve/predict"):
                pass
    assert current_trace() is None
    names = [span.name for span in context.spans]
    assert names == ["serve/decode", "serve/wait", "serve/predict"]
    decode, wait, predict = context.spans
    assert decode.parent == -1 and wait.parent == -1
    assert predict.parent == 1  # nested under serve/wait
    for span in context.spans:
        assert 0.0 <= span.start <= span.end
    assert context.wall_seconds >= wait.end
    assert predict.start >= wait.start and predict.end <= wait.end


def test_trace_event_streams_to_journal(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = RunJournal(path)
    with start_trace("serve/demo", journal=journal) as context:
        with trace("serve/decode"):
            pass
    journal.close()
    events = read_journal(path)
    assert len(events) == 1
    event = events[0]
    assert event["event"] == EVENT_TRACE
    assert event["trace_id"] == context.trace_id
    assert event["name"] == "serve/demo"
    assert event["wall_seconds"] > 0
    assert event["n_spans"] == 1
    assert event["spans"][0]["name"] == "serve/decode"
    assert event["spans"][0]["parent"] == -1


def test_explicit_trace_id_is_respected():
    with start_trace("serve/demo", trace_id="req-42") as context:
        pass
    assert context.trace_id == "req-42"


def test_capture_adopt_connects_thread_hop():
    """A span recorded on a worker thread lands in the originating trace,
    parented under the span open at capture time."""
    results = {}

    def worker(snapshot):
        with adopt_context(snapshot):
            results["inherited"] = current_trace()
            with trace("serve/predict"):
                pass

    with start_trace("serve/demo") as context:
        with trace("serve/wait"):
            snapshot = capture_context()
            thread = threading.Thread(target=worker, args=(snapshot,))
            thread.start()
            thread.join()
    assert results["inherited"] is context
    names = {span.name: span for span in context.spans}
    assert set(names) == {"serve/wait", "serve/predict"}
    assert names["serve/predict"].parent == 0  # under serve/wait


def test_snapshot_add_span_without_adoption():
    with start_trace("serve/demo") as context:
        with trace("serve/wait"):
            snapshot = capture_context()
            start = perf_counter()
            end = perf_counter()
    snapshot.add_span("serve/queue", start, end)
    queue_span = context.spans[-1]
    assert queue_span.name == "serve/queue"
    assert queue_span.parent == 0
    assert queue_span.end >= queue_span.start >= 0.0
    # the empty snapshot silently ignores attribution
    EMPTY_SNAPSHOT.add_span("serve/queue", start, end)


def test_span_cap_drops_excess_spans():
    context = TraceContext("cap")
    for _ in range(TRACE_SPAN_CAP + 10):
        context.close_span(context.open_span("s"))
    assert len(context.spans) == TRACE_SPAN_CAP
    assert context.dropped_spans == 10
    event = context.finish().to_event()
    assert event["dropped_spans"] == 10


def test_coverage_merges_overlapping_root_spans():
    from repro.obs import SpanRecord

    context = TraceContext("cov")
    context.spans.extend([
        SpanRecord("a", -1, 0.0, 0.6),
        SpanRecord("b", -1, 0.4, 1.0),   # overlaps a: union is [0, 1]
        SpanRecord("child", 0, 0.1, 0.2),  # non-root: ignored
    ])
    context.wall_seconds = 1.0
    assert context.coverage() == pytest.approx(1.0)
    context.wall_seconds = 2.0
    assert context.coverage() == pytest.approx(0.5)


def test_concurrent_traces_never_interleave():
    """Many threads each run their own trace; every context must contain
    exactly its own spans with consistent nesting."""
    errors = []

    def worker(i):
        try:
            for _ in range(20):
                with start_trace(f"serve/task{i}") as context:
                    with trace(f"outer{i}"):
                        with trace(f"inner{i}"):
                            pass
                names = [span.name for span in context.spans]
                assert names == [f"outer{i}", f"inner{i}"], names
                assert context.spans[1].parent == 0
                assert context.spans[0].parent == -1
        except Exception as error:  # surface in the main thread
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
