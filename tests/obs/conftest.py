"""Every obs test leaves the global metrics registry in the default
(no-op) state so instrumented code elsewhere in the suite stays free."""

import pytest

from repro.obs import disable_metrics


@pytest.fixture(autouse=True)
def _reset_observability():
    yield
    disable_metrics()
