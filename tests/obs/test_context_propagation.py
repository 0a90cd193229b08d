"""Trace-context propagation through a serving lane.

The guarantee: a request traced through ``FleetWorker.submit`` onto the
lane thread yields one connected trace, and concurrent requests never
interleave each other's span stacks — even under a threaded stress load."""

import sys
import threading

from repro.obs import start_trace, trace
from repro.serve.fleet import FleetWorker

TIMEOUT = 10


class _EchoPredictor:
    """Stands in for Predictor: returns instances tagged with the task."""

    def predict_batch(self, task, instances):
        return [{"task": task, "instance": instance}
                for instance in instances]


def _lane():
    return FleetWorker("worker0", _EchoPredictor())


def test_single_request_yields_one_connected_trace():
    lane = _lane()
    try:
        with start_trace("serve/entity_linking") as context:
            with trace("serve/wait"):
                (result,) = lane.submit("instances", "entity_linking",
                                        [{"row": 0}]).result(TIMEOUT)
    finally:
        lane.close(timeout=TIMEOUT)
    assert result["task"] == "entity_linking"
    by_name = {span.name: span for span in context.spans}
    # the lane thread attributed its spans back into the request trace
    assert {"serve/wait", "serve/queue", "serve/predict"} <= set(by_name)
    wait_index = context.spans.index(by_name["serve/wait"])
    assert by_name["serve/queue"].parent == wait_index
    assert by_name["serve/predict"].parent == wait_index
    # predict happens strictly after the queue wait begins
    assert by_name["serve/predict"].start >= by_name["serve/queue"].start


def test_batched_requests_each_get_their_own_spans():
    lane = _lane()
    contexts = {}
    barrier = threading.Barrier(4)

    def request(i):
        barrier.wait(TIMEOUT)
        with start_trace(f"serve/task{i}") as context:
            with trace("serve/wait"):
                lane.submit("instances", "entity_linking", [i]).result(TIMEOUT)
        contexts[i] = context

    threads = [threading.Thread(target=request, args=(i,))
               for i in range(4)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
    finally:
        lane.close(timeout=TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    assert len(contexts) == 4
    for i, context in contexts.items():
        names = sorted(span.name for span in context.spans)
        assert names == ["serve/predict", "serve/queue", "serve/wait"], (
            f"request {i} got foreign or missing spans: {names}")


def test_threaded_stress_never_interleaves_span_stacks():
    """32 concurrent traced requests x several rounds, with a short thread
    switch interval: every trace ends up with exactly its own three spans,
    correctly parented, and every future resolves to its own payload."""
    lane = _lane()
    errors = []
    threads = []

    def request(round_index, i):
        try:
            with start_trace(f"serve/stress{i}") as context:
                with trace("serve/wait"):
                    (result,) = lane.submit(
                        "instances", f"task{i % 3}",
                        [(round_index, i)]).result(TIMEOUT)
            assert result["instance"] == (round_index, i)
            by_name = {span.name: span for span in context.spans}
            assert set(by_name) == {"serve/wait", "serve/queue",
                                    "serve/predict"}, sorted(by_name)
            wait_index = context.spans.index(by_name["serve/wait"])
            assert by_name["serve/queue"].parent == wait_index
            assert by_name["serve/predict"].parent == wait_index
        except Exception as error:  # surface in the main thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_index in range(3):
            batch = [threading.Thread(target=request, args=(round_index, i))
                     for i in range(32)]
            for thread in batch:
                thread.start()
            for thread in batch:
                thread.join(TIMEOUT)
            threads.extend(batch)
    finally:
        sys.setswitchinterval(interval)
        lane.close(timeout=TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_untraced_submitters_are_untouched():
    lane = _lane()
    try:
        (result,) = lane.submit("instances", "entity_linking",
                                [{"row": 1}]).result(TIMEOUT)
    finally:
        lane.close(timeout=TIMEOUT)
    assert result["instance"] == {"row": 1}
