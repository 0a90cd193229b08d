"""``trace`` outside a trace context."""

from repro.obs import current_trace, trace
from repro.obs.metrics import NULL_CONTEXT


def test_trace_is_noop_when_disabled():
    assert current_trace() is None
    span = trace("never/recorded")
    assert span is NULL_CONTEXT  # the shared no-op: nothing allocated
    with span:
        pass  # must not raise, must not record anywhere
