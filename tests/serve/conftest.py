"""Serving fixtures: one six-task bundle built from the session context,
plus a predictor whose head fails on demand."""

import pytest

from repro.nn import Module
from repro.obs import disable_metrics, enable_metrics
from repro.serve import EntityLinkingAdapter, Predictor, build_serving_bundle


@pytest.fixture(scope="package", autouse=True)
def _recording_metrics():
    """Serve tests assert on /metrics; record for the package, then restore
    the no-op default so the rest of the suite stays instrument-free."""
    registry = enable_metrics()
    yield registry
    disable_metrics()


@pytest.fixture(scope="session")
def bundle(context):
    """All six adapters over one cloned model, shared encode cache on."""
    return build_serving_bundle(context.clone_model(), context.linearizer,
                                context.kb, context.splits, seed=0,
                                n_examples=4)


@pytest.fixture(scope="session")
def predictor(bundle):
    return bundle.predictor


class _ExplodingHead:
    """An entity-linking head whose ``predict`` raises ``error``."""

    def __init__(self, error):
        self.model = Module()  # the predictor installs its cache here
        self.error = error

    def predict(self, instances):
        raise self.error


@pytest.fixture(scope="session")
def exploding_predictor():
    """Factory: a Predictor serving ``entity_linking`` whose payloads
    decode normally and whose head then raises ``error``."""
    def build(error, journal=None):
        return Predictor([EntityLinkingAdapter(_ExplodingHead(error))],
                         enable_cache=False, journal=journal)
    return build
